//! The benchmark's own span recorder for the traced run.
//!
//! Spans are taken in the benchmark's code, around its calls into the
//! public functions of each layer; nothing inside the program is
//! instrumented. They stay in memory and are written out once, at the
//! end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the called function belongs to (`campaign`, `spice`, ...).
    pub layer: &'static str,
    /// The call, e.g. `measure` for `run_pair_campaign_with`.
    pub name: &'static str,
    /// Die index or job number the call worked for.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in ns.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span stack.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, layer: &'static str, name: &'static str, id: u64) -> usize {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            id,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        idx
    }

    /// Closes span `idx` (and any span left open inside it).
    pub fn end(&mut self, idx: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.begin(layer, name, id);
        let out = f();
        self.end(s);
        out
    }

    /// Records an already-measured interval as a root span.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (at(start), at(end));
        self.spans.push(Span {
            layer,
            name,
            id,
            parent: None,
            start_ns,
            end_ns,
        });
    }

    /// Durations (ns) of every span called `layer.name`.
    #[must_use]
    pub fn durations_ns(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time per layer, in ns: each span's duration minus the part of
    /// it its direct children cover. Only spans whose outermost ancestor
    /// (or the span itself, at top level) is named in `roots` count.
    #[must_use]
    pub fn self_ns_by_layer(&self, roots: &[&str]) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut root = vec![0usize; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            // Parents precede their children, so the parent's root is known.
            root[i] = s.parent.map_or(i, |p| root[p]);
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, (s, c)) in self.spans.iter().zip(&child_ns).enumerate() {
            if roots.contains(&self.spans[root[i]].name) {
                *out.entry(s.layer).or_insert(0) += s.dur_ns().saturating_sub(*c);
            }
        }
        out
    }

    /// Number of recorded spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The spans as CSV: `index,parent,layer,name,id,start_ns,end_ns`.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("index,parent,layer,name,id,start_ns,end_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::from("-1"), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i},{parent},{},{},{},{},{}",
                s.layer, s.name, s.id, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let outer = t.begin("campaign", "die", 0);
        t.time("core", "extract", 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        t.time("spice", "unit_costs", 0, || ());
        let by_layer = t.self_ns_by_layer(&["die"]);
        assert!(!by_layer.contains_key("spice"));
        let outer_ns = t.durations_ns("campaign", "die")[0] as u64;
        let inner_ns = t.durations_ns("core", "extract")[0] as u64;
        assert_eq!(by_layer["campaign"] + by_layer["core"], outer_ns);
        assert_eq!(by_layer["core"], inner_ns);
        assert!(t
            .to_csv()
            .lines()
            .nth(2)
            .unwrap()
            .starts_with("1,0,core,extract"));
    }
}
