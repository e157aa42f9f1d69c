//! What one run prints: a human-readable line per metric (name, value,
//! unit, sample count), then one JSON result object as the last line.

use std::fmt::Write as _;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarizes.
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Operations attempted (campaign jobs).
    pub attempted: u64,
    /// Operations that errored, were refused, or returned wrong output.
    pub failed: u64,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// Appends a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Appends a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Prints the notes, one line per metric and the JSON result line.
    pub fn print(&self, workload: &str, correct: bool) {
        for n in &self.notes {
            println!("{n}");
        }
        for m in &self.metrics {
            println!(
                "{workload} {:<34} {:>16} {:<6} n={}",
                m.name,
                fmt_num(m.value),
                m.unit,
                m.samples
            );
        }
        println!("{}", self.json(correct));
    }

    /// The result object.
    #[must_use]
    pub fn json(&self, correct: bool) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(m.value),
                m.unit
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted,
            self.failed
        )
    }
}

/// A JSON number with all its digits; non-finite values print as 0.
fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}
