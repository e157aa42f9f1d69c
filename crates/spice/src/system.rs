//! Assembly of a [`Circuit`] into the nonlinear MNA system the Newton
//! solver consumes.
//!
//! Two stamping regimes share one arithmetic contract. A *cold* system
//! ([`CircuitSystem::new`] / [`CircuitSystem::with_assembly`]) stamps every
//! element densely on every call — the reference path. A *hot* system (the
//! solver's internal path) additionally records, on its first Jacobian
//! pass, the exact post-ground-drop `(row, col)` call sequence of every
//! element; later passes re-stamp only elements whose Jacobian depends on
//! the operating point and rebuild each matrix entry by summing its
//! recorded slots in original call order. Because floating-point addition
//! is order-sensitive, preserving the call order is what makes the
//! incremental result bit-identical to the dense one. The recorded pattern
//! also arms the frozen symbolic plan the sparse LU path factors against.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;

use icvbe_numerics::newton::NonlinearSystem;
use icvbe_numerics::sparse::LuSymbolic;
use icvbe_numerics::{Matrix, NumericsError};

use crate::cache::SymbolicCache;
use crate::netlist::Circuit;
use crate::stamp::{
    BypassTolerance, DeviceSlot, EvalContext, JacSink, StampContext, StampCounters, StampEffort,
};
use crate::SpiceError;

/// The recorded incremental-restamp plan of one assembly: slot ranges per
/// element, the global call sequence with current values, and the ordered
/// per-entry reduction lists.
#[derive(Debug)]
struct StampPlan {
    /// `(start, end)` slot range of each element, parallel to the circuit.
    ranges: Vec<(u32, u32)>,
    /// Whether each element's Jacobian is independent of the iterate.
    constant: Vec<bool>,
    /// Recorded `(row, col)` of every Jacobian call, in call order.
    seq: Vec<(u32, u32)>,
    /// Current value of every recorded call, parallel to `seq`.
    values: Vec<f64>,
    /// Unique matrix entries touched (plus every node diagonal for gmin).
    entries: Vec<(u32, u32)>,
    /// Per-entry range into `contrib_idx` (`entries.len() + 1` offsets).
    contrib_ptr: Vec<u32>,
    /// Slot indices contributing to each entry, ascending (= call order).
    contrib_idx: Vec<u32>,
    /// Evaluation context the constant slots were last stamped at.
    const_eval: Option<EvalContext>,
    /// Set when a replay diverged from the recording; the assembly then
    /// permanently falls back to dense stamping.
    broken: bool,
}

/// The solve-invariant part of a circuit binding: unknown layout plus the
/// Jacobian residual scratch.
///
/// Everything here depends only on the circuit *topology*, not on
/// temperature, gmin or source scale — so one assembly can back thousands
/// of solves (a whole campaign die, or a worker thread's lifetime) without
/// recomputing branch offsets or reallocating scratch. Holds a `RefCell`
/// scratch buffer, so an assembly is per-thread, not shared across threads.
#[derive(Debug)]
pub struct CircuitAssembly {
    /// First branch index of each element (parallel to `circuit.elements()`).
    branch_bases: Vec<usize>,
    node_count: usize,
    dimension: usize,
    /// Residual accumulator for Jacobian-only stamping passes.
    jac_scratch: RefCell<Vec<f64>>,
    /// Per-element device caches (model + evaluation reuse), persistent
    /// across the solves backed by this assembly.
    device_slots: RefCell<Vec<DeviceSlot>>,
    /// Stamping-effort counters, drained per solve into the solve stats.
    counters: StampCounters,
    /// Incremental-restamp plan, recorded by the first hot Jacobian pass.
    plan: RefCell<Option<StampPlan>>,
    /// Frozen symbolic elimination plan derived from the recorded pattern.
    symbolic: RefCell<Option<Arc<LuSymbolic>>>,
    /// Optional process-wide plan cache consulted (instead of a private
    /// analysis) when the recorded pattern arms the symbolic plan.
    symbolic_cache: RefCell<Option<Arc<SymbolicCache>>>,
    /// Forces the next hot Jacobian pass to restamp constant elements
    /// (bound parameters may have changed between solves).
    constants_dirty: Cell<bool>,
}

impl CircuitAssembly {
    /// Validates the circuit topology and computes the unknown layout.
    ///
    /// # Errors
    ///
    /// Propagates [`Circuit::validate`] errors — hoisting validation here
    /// is what lets the per-solve hot path skip it.
    pub fn new(circuit: &Circuit) -> Result<Self, SpiceError> {
        circuit.validate()?;
        Ok(CircuitAssembly::new_unchecked(circuit))
    }

    /// Computes the unknown layout without validating the topology.
    #[must_use]
    pub fn new_unchecked(circuit: &Circuit) -> Self {
        let mut branch_bases = Vec::with_capacity(circuit.elements().len());
        let mut next = 0usize;
        for e in circuit.elements() {
            branch_bases.push(next);
            next += e.branch_count();
        }
        let node_count = circuit.node_count();
        let element_count = circuit.elements().len();
        CircuitAssembly {
            branch_bases,
            node_count,
            dimension: node_count + next,
            jac_scratch: RefCell::new(vec![0.0; node_count + next]),
            device_slots: RefCell::new(vec![DeviceSlot::default(); element_count]),
            counters: StampCounters::default(),
            plan: RefCell::new(None),
            symbolic: RefCell::new(None),
            symbolic_cache: RefCell::new(None),
            constants_dirty: Cell::new(true),
        }
    }

    /// The frozen symbolic elimination plan for this topology, available
    /// once the first hot Jacobian pass has recorded the sparsity pattern.
    /// Factorizations through it are bit-identical to dense LU.
    #[must_use]
    pub fn symbolic_plan(&self) -> Option<Arc<LuSymbolic>> {
        self.symbolic.borrow().clone()
    }

    /// Installs a shared [`SymbolicCache`]: when the first hot Jacobian
    /// pass records the sparsity pattern, the symbolic plan is taken from
    /// (or analyzed into) the cache instead of analyzed privately. The
    /// cache is keyed by the exact pattern, so solves through a cached
    /// plan are bit-identical to solves through a private analysis.
    ///
    /// A no-op on an assembly whose plan is already armed.
    pub fn set_symbolic_cache(&self, cache: Arc<SymbolicCache>) {
        *self.symbolic_cache.borrow_mut() = Some(cache);
    }

    /// Marks parameter-dependent constants stale so the next Jacobian pass
    /// restamps every element. Called at solve entry: bound [`crate::param::Param`]
    /// values may have changed since the previous solve.
    pub fn invalidate_constants(&self) {
        self.constants_dirty.set(true);
    }

    /// Returns and resets the stamping-effort counters accumulated since
    /// the last call.
    pub fn take_stamp_effort(&self) -> StampEffort {
        self.counters.take()
    }

    /// Tolerance-bypass hits accumulated since the counters were last
    /// drained (monotonic between drains; used for trace payloads).
    #[must_use]
    pub fn bypass_hits(&self) -> u64 {
        self.counters.bypass_hits.get()
    }

    /// Total number of unknowns (node voltages plus branch currents).
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.dimension
    }

    /// Number of node-voltage unknowns.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// First branch index of each element, parallel to the element list.
    #[must_use]
    pub fn branch_bases(&self) -> &[usize] {
        &self.branch_bases
    }
}

/// How a [`CircuitSystem`] holds its assembly: built on the spot, or
/// borrowed from a caller that amortizes it across solves.
///
/// The size skew between the variants is deliberate: `Borrowed` is the
/// hot path, `Owned` happens once per ad-hoc solve, and boxing it would
/// add an allocation for no access-path win.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum AssemblyRef<'a> {
    Owned(CircuitAssembly),
    Borrowed(&'a CircuitAssembly),
}

/// A circuit bound to evaluation conditions, presented as `f(x) = 0`.
///
/// Unknown ordering: node voltages (creation order, ground excluded), then
/// branch currents (element order, each element's branches contiguous).
#[derive(Debug)]
pub struct CircuitSystem<'a> {
    circuit: &'a Circuit,
    eval: EvalContext,
    assembly: AssemblyRef<'a>,
    /// Hot systems use the assembly's device caches and incremental
    /// restamp plan; cold systems stamp densely on every call.
    hot: bool,
    bypass: BypassTolerance,
    /// While set, tolerance-based device bypass is suspended so residuals
    /// are exact (the solver sets this around acceptance checks).
    exact: Cell<bool>,
}

impl<'a> CircuitSystem<'a> {
    /// Binds a circuit to evaluation conditions, assembling the layout on
    /// the spot.
    #[must_use]
    pub fn new(circuit: &'a Circuit, eval: EvalContext) -> Self {
        CircuitSystem {
            circuit,
            eval,
            assembly: AssemblyRef::Owned(CircuitAssembly::new_unchecked(circuit)),
            hot: false,
            bypass: BypassTolerance::OFF,
            exact: Cell::new(false),
        }
    }

    /// Binds a circuit to evaluation conditions over a caller-owned
    /// assembly (the hot-path form: nothing is recomputed or allocated).
    #[must_use]
    pub fn with_assembly(
        circuit: &'a Circuit,
        eval: EvalContext,
        assembly: &'a CircuitAssembly,
    ) -> Self {
        CircuitSystem {
            circuit,
            eval,
            assembly: AssemblyRef::Borrowed(assembly),
            hot: false,
            bypass: BypassTolerance::OFF,
            exact: Cell::new(false),
        }
    }

    /// The solver's internal binding: device caches, incremental
    /// restamping and (optionally) tolerance bypass are all active.
    pub(crate) fn hot_path(
        circuit: &'a Circuit,
        eval: EvalContext,
        assembly: &'a CircuitAssembly,
        bypass: BypassTolerance,
    ) -> Self {
        CircuitSystem {
            circuit,
            eval,
            assembly: AssemblyRef::Borrowed(assembly),
            hot: true,
            bypass,
            exact: Cell::new(false),
        }
    }

    fn asm(&self) -> &CircuitAssembly {
        match &self.assembly {
            AssemblyRef::Owned(a) => a,
            AssemblyRef::Borrowed(a) => a,
        }
    }

    /// The evaluation conditions in force.
    #[must_use]
    pub fn eval(&self) -> EvalContext {
        self.eval
    }

    /// Changes the evaluation conditions (gmin/source stepping reuse the
    /// same assembled structure).
    pub fn set_eval(&mut self, eval: EvalContext) {
        self.eval = eval;
    }

    /// Changes the bypass policy between solve rungs: warm solves run
    /// exact-reuse-only (re-evaluation is already rare there), escalated
    /// rungs arm the tolerance bypass where it pays for itself.
    pub(crate) fn set_bypass(&mut self, bypass: BypassTolerance) {
        self.bypass = bypass;
    }

    /// First absolute branch index of element `element_index`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[must_use]
    pub fn branch_base(&self, element_index: usize) -> usize {
        self.asm().branch_bases[element_index]
    }

    /// Number of node-voltage unknowns.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.asm().node_count
    }

    /// The bypass policy in force for this pass: suspended in exact mode
    /// and on cold systems.
    fn effective_bypass(&self) -> BypassTolerance {
        if self.hot && self.bypass.active && !self.exact.get() {
            self.bypass
        } else {
            BypassTolerance::OFF
        }
    }

    fn stamp_all(&self, x: &[f64], residual: &mut [f64], mut jacobian: Option<&mut Matrix>) {
        let asm = self.asm();
        let mut slots = if self.hot {
            Some(asm.device_slots.borrow_mut())
        } else {
            None
        };
        let bypass = self.effective_bypass();
        for (i, (e, &base)) in self
            .circuit
            .elements()
            .iter()
            .zip(&asm.branch_bases)
            .enumerate()
        {
            let mut ctx = StampContext::new(
                self.eval,
                x,
                asm.node_count,
                base,
                residual,
                jacobian.as_deref_mut(),
            );
            if let Some(s) = slots.as_mut() {
                ctx.attach_device(&mut s[i], bypass, &asm.counters);
            }
            e.stamp(&mut ctx);
        }
        drop(slots);
        self.gmin_residual_and_jac(x, residual, jacobian);
    }

    /// Global gmin: a conductance from every node to ground keeps the
    /// Jacobian nonsingular for floating subcircuits and eases Newton.
    /// Always applied *after* every element stamp — the accumulation order
    /// is part of the bit-reproducibility contract.
    fn gmin_residual_and_jac(
        &self,
        x: &[f64],
        residual: &mut [f64],
        mut jacobian: Option<&mut Matrix>,
    ) {
        let g = self.eval.gmin;
        if g > 0.0 {
            for i in 0..self.asm().node_count {
                residual[i] += g * x[i];
                if let Some(j) = jacobian.as_deref_mut() {
                    j[(i, i)] += g;
                }
            }
        }
    }

    /// One Jacobian-bearing stamping pass: records the plan on first use,
    /// replays it incrementally afterwards, and falls back to the dense
    /// pass on cold systems or a diverged recording. Residual accumulation
    /// is bitwise identical across all three routes.
    fn stamp_jacobian(&self, x: &[f64], residual: &mut [f64], out: &mut Matrix) {
        if !self.hot {
            out.fill(0.0);
            self.stamp_all(x, residual, Some(out));
            return;
        }
        let asm = self.asm();
        let mut plan_cell = asm.plan.borrow_mut();
        match plan_cell.as_mut() {
            None => {
                *plan_cell = Some(self.record_plan(x, residual, out));
                bump(&asm.counters.restamp_full);
            }
            Some(plan) if plan.broken => {
                out.fill(0.0);
                self.stamp_all(x, residual, Some(out));
                bump(&asm.counters.restamp_full);
            }
            Some(plan) => {
                let refresh = asm.constants_dirty.get() || plan.const_eval != Some(self.eval);
                if self.replay_plan(plan, refresh, x, residual) {
                    if refresh {
                        plan.const_eval = Some(self.eval);
                        asm.constants_dirty.set(false);
                        bump(&asm.counters.restamp_full);
                    } else {
                        bump(&asm.counters.restamp_incremental);
                    }
                    Self::reduce_plan(plan, asm.node_count, self.eval.gmin, out);
                    self.gmin_residual_and_jac(x, residual, None);
                } else {
                    // The call sequence diverged from the recording (an
                    // element with value-dependent stamping structure):
                    // permanently fall back to dense stamping.
                    plan.broken = true;
                    residual.fill(0.0);
                    out.fill(0.0);
                    self.stamp_all(x, residual, Some(out));
                    bump(&asm.counters.restamp_full);
                }
            }
        }
    }

    /// Records the full stamp-call sequence at `x`, builds the per-entry
    /// reduction lists, arms the frozen symbolic plan, and produces this
    /// pass's Jacobian and residual.
    fn record_plan(&self, x: &[f64], residual: &mut [f64], out: &mut Matrix) -> StampPlan {
        let asm = self.asm();
        let elements = self.circuit.elements();
        let mut seq: Vec<(u32, u32)> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        let mut ranges = Vec::with_capacity(elements.len());
        let mut constant = Vec::with_capacity(elements.len());
        {
            let mut slots = asm.device_slots.borrow_mut();
            let bypass = self.effective_bypass();
            for (i, (e, &base)) in elements.iter().zip(&asm.branch_bases).enumerate() {
                let start = seq.len() as u32;
                let mut ctx = StampContext::with_sink(
                    self.eval,
                    x,
                    asm.node_count,
                    base,
                    residual,
                    JacSink::Record {
                        seq: &mut seq,
                        values: &mut values,
                    },
                );
                ctx.attach_device(&mut slots[i], bypass, &asm.counters);
                e.stamp(&mut ctx);
                ranges.push((start, seq.len() as u32));
                constant.push(e.jacobian_constant());
            }
        }

        // Per-entry reduction lists: BTreeMap gives deterministic entry
        // order; within an entry the slot list is ascending, i.e. call
        // order — the order a dense pass accumulates in. Node diagonals
        // are forced so gmin lands even where no element stamps.
        let mut map: BTreeMap<(u32, u32), Vec<u32>> = BTreeMap::new();
        for (slot, &rc) in seq.iter().enumerate() {
            map.entry(rc).or_default().push(slot as u32);
        }
        for i in 0..asm.node_count as u32 {
            map.entry((i, i)).or_default();
        }
        let mut entries = Vec::with_capacity(map.len());
        let mut contrib_ptr = Vec::with_capacity(map.len() + 1);
        let mut contrib_idx = Vec::new();
        contrib_ptr.push(0u32);
        for (rc, slots) in &map {
            entries.push(*rc);
            contrib_idx.extend_from_slice(slots);
            contrib_ptr.push(contrib_idx.len() as u32);
        }

        if asm.symbolic.borrow().is_none() {
            // A shared cache (if installed) answers from the process-wide
            // map; the fallback analyzes privately. Either way the plan is
            // a pure function of (dimension, entries).
            let shared = asm
                .symbolic_cache
                .borrow()
                .as_ref()
                .and_then(|cache| cache.plan_for(asm.dimension, &entries));
            let sym = match shared {
                Some(plan) => Some(plan),
                None => {
                    let pattern: Vec<(usize, usize)> = entries
                        .iter()
                        .map(|&(r, c)| (r as usize, c as usize))
                        .collect();
                    LuSymbolic::analyze(asm.dimension, &pattern)
                        .ok()
                        .map(Arc::new)
                }
            };
            *asm.symbolic.borrow_mut() = sym;
        }

        let plan = StampPlan {
            ranges,
            constant,
            seq,
            values,
            entries,
            contrib_ptr,
            contrib_idx,
            const_eval: Some(self.eval),
            broken: false,
        };
        asm.constants_dirty.set(false);
        Self::reduce_plan(&plan, asm.node_count, self.eval.gmin, out);
        self.gmin_residual_and_jac(x, residual, None);
        plan
    }

    /// Re-stamps the residual of every element and the Jacobian slots of
    /// non-constant elements (all elements when `refresh` is set). Returns
    /// false if any element's call sequence diverged from the recording.
    fn replay_plan(
        &self,
        plan: &mut StampPlan,
        refresh: bool,
        x: &[f64],
        residual: &mut [f64],
    ) -> bool {
        let asm = self.asm();
        let elements = self.circuit.elements();
        if plan.ranges.len() != elements.len() {
            return false;
        }
        let mut slots = asm.device_slots.borrow_mut();
        let bypass = self.effective_bypass();
        let StampPlan {
            ranges,
            constant,
            seq,
            values,
            ..
        } = plan;
        for (i, (e, &base)) in elements.iter().zip(&asm.branch_bases).enumerate() {
            let (lo, hi) = (ranges[i].0 as usize, ranges[i].1 as usize);
            let mut cursor = 0usize;
            let mut ok = true;
            let skip = constant[i] && !refresh;
            let sink = if skip {
                JacSink::None
            } else {
                JacSink::Replay {
                    seq: &seq[lo..hi],
                    values: &mut values[lo..hi],
                    cursor: &mut cursor,
                    ok: &mut ok,
                }
            };
            let mut ctx =
                StampContext::with_sink(self.eval, x, asm.node_count, base, residual, sink);
            ctx.attach_device(&mut slots[i], bypass, &asm.counters);
            e.stamp(&mut ctx);
            if !skip && (!ok || cursor != hi - lo) {
                return false;
            }
        }
        true
    }

    /// Rebuilds every recorded matrix entry from its slot values: sum in
    /// recorded call order starting from zero, then gmin on node diagonals
    /// — exactly the accumulation sequence of a dense pass.
    fn reduce_plan(plan: &StampPlan, node_count: usize, gmin: f64, out: &mut Matrix) {
        out.fill(0.0);
        for (e, &(r, c)) in plan.entries.iter().enumerate() {
            let lo = plan.contrib_ptr[e] as usize;
            let hi = plan.contrib_ptr[e + 1] as usize;
            let mut s = 0.0;
            for &ci in &plan.contrib_idx[lo..hi] {
                s += plan.values[ci as usize];
            }
            if r == c && (r as usize) < node_count && gmin > 0.0 {
                s += gmin;
            }
            out[(r as usize, c as usize)] = s;
        }
    }
}

fn bump(cell: &Cell<u64>) {
    cell.set(cell.get() + 1);
}

impl NonlinearSystem for CircuitSystem<'_> {
    fn dimension(&self) -> usize {
        self.asm().dimension
    }

    fn residual(&self, x: &[f64], out: &mut [f64]) -> Result<(), NumericsError> {
        out.fill(0.0);
        self.stamp_all(x, out, None);
        if out.iter().any(|v| !v.is_finite()) {
            return Err(NumericsError::invalid("non-finite circuit residual"));
        }
        Ok(())
    }

    fn jacobian(&self, x: &[f64], out: &mut Matrix) -> Result<(), NumericsError> {
        let asm = self.asm();
        let n = asm.dimension;
        // Stamping writes residual and Jacobian together; the residual
        // lands in the assembly-owned scratch instead of a fresh vec.
        let mut scratch = asm.jac_scratch.borrow_mut();
        debug_assert_eq!(scratch.len(), n);
        scratch.fill(0.0);
        self.stamp_jacobian(x, &mut scratch, out);
        if !out.is_finite() {
            return Err(NumericsError::invalid("non-finite circuit jacobian"));
        }
        Ok(())
    }

    fn residual_and_jacobian(
        &self,
        x: &[f64],
        f: &mut [f64],
        jac: &mut Matrix,
    ) -> Result<(), NumericsError> {
        // One stamping pass fills both. Residual accumulation does not
        // depend on whether a Jacobian is attached (or replayed
        // incrementally), so `f` is bitwise identical to what `residual`
        // alone writes — the contract the polish canonicalization
        // depends on.
        f.fill(0.0);
        self.stamp_jacobian(x, f, jac);
        if f.iter().any(|v| !v.is_finite()) {
            return Err(NumericsError::invalid("non-finite circuit residual"));
        }
        if !jac.is_finite() {
            return Err(NumericsError::invalid("non-finite circuit jacobian"));
        }
        Ok(())
    }

    fn set_exact(&self, exact: bool) {
        self.exact.set(exact);
    }

    fn residual_is_approximate(&self) -> bool {
        self.hot && self.bypass.active
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{Resistor, VoltageSource};
    use crate::netlist::Circuit;
    use icvbe_units::{Kelvin, Ohm, Volt};

    fn divider() -> Circuit {
        let mut c = Circuit::new();
        let vcc = c.node("vcc");
        let out = c.node("out");
        c.add(VoltageSource::new(
            "V1",
            vcc,
            Circuit::ground(),
            Volt::new(2.0),
        ));
        c.add(Resistor::new("R1", vcc, out, Ohm::new(1e3)).unwrap());
        c.add(Resistor::new("R2", out, Circuit::ground(), Ohm::new(1e3)).unwrap());
        c
    }

    #[test]
    fn dimension_counts_nodes_and_branches() {
        let c = divider();
        let sys = CircuitSystem::new(&c, EvalContext::nominal(Kelvin::new(300.0)));
        assert_eq!(sys.dimension(), 3);
        assert_eq!(sys.node_count(), 2);
        assert_eq!(sys.branch_base(0), 0);
    }

    #[test]
    fn residual_vanishes_at_exact_solution() {
        let c = divider();
        let mut eval = EvalContext::nominal(Kelvin::new(300.0));
        eval.gmin = 0.0;
        let sys = CircuitSystem::new(&c, eval);
        // vcc = 2, out = 1, source current = -(2-1)/1k ... source branch
        // current flows plus->through->minus: current out of vcc node into
        // R1 is 1 mA, so branch current is -1 mA.
        let x = [2.0, 1.0, -1e-3];
        let mut f = vec![0.0; 3];
        sys.residual(&x, &mut f).unwrap();
        for v in f {
            assert!(v.abs() < 1e-15, "residual {v}");
        }
    }

    #[test]
    fn jacobian_of_linear_circuit_is_constant() {
        let c = divider();
        let sys = CircuitSystem::new(&c, EvalContext::nominal(Kelvin::new(300.0)));
        let mut j1 = Matrix::zeros(3, 3);
        let mut j2 = Matrix::zeros(3, 3);
        sys.jacobian(&[0.0, 0.0, 0.0], &mut j1).unwrap();
        sys.jacobian(&[5.0, -3.0, 1.0], &mut j2).unwrap();
        assert_eq!(j1, j2);
    }

    #[test]
    fn gmin_appears_on_the_diagonal() {
        let c = divider();
        let mut eval = EvalContext::nominal(Kelvin::new(300.0));
        eval.gmin = 1e-3;
        let sys = CircuitSystem::new(&c, eval);
        let mut j = Matrix::zeros(3, 3);
        sys.jacobian(&[0.0; 3], &mut j).unwrap();
        // Node diagonals include 1/R sums plus gmin.
        assert!((j[(0, 0)] - (1e-3 + 1e-3)).abs() < 1e-12);
    }

    /// Every element kind wired into one circuit, including a BJT with the
    /// substrate parasitic — the widest stamp-call surface we have.
    fn menagerie() -> Circuit {
        use crate::bjt::{Bjt, BjtParams, Polarity, SubstrateJunction};
        use crate::element::{CurrentSource, Diode, OpAmp};
        use crate::vccs::Vccs;
        use icvbe_devphys::saturation::SpiceIsLaw;
        use icvbe_units::{Ampere, ElectronVolt};

        let mut c = Circuit::new();
        let vcc = c.node("vcc");
        let b = c.node("b");
        let e = c.node("e");
        let o = c.node("o");
        let gnd = Circuit::ground();
        c.add(VoltageSource::new("V1", vcc, gnd, Volt::new(1.2)));
        c.add(Resistor::new("R1", vcc, b, Ohm::new(50e3)).unwrap());
        c.add(Resistor::new("R2", e, gnd, Ohm::new(1e3)).unwrap());
        c.add(CurrentSource::new("I1", gnd, b, Ampere::new(1e-7)));
        c.add(
            Bjt::new("Q1", vcc, b, e, Polarity::Npn, BjtParams::default_npn())
                .unwrap()
                .with_substrate(gnd, SubstrateJunction::bicmos_default()),
        );
        let law = SpiceIsLaw::new(
            Ampere::new(1e-14),
            Kelvin::new(298.15),
            ElectronVolt::new(1.11),
            3.0,
        );
        c.add(Diode::new("D1", b, gnd, law, 1.0).unwrap());
        c.add(Vccs::new("G1", b, e, o, gnd, 1e-4).unwrap());
        c.add(OpAmp::new("U1", e, o, o, 1e5).unwrap());
        c.add(Resistor::new("RL", o, gnd, Ohm::new(10e3)).unwrap());
        c
    }

    #[test]
    fn hot_incremental_jacobian_matches_cold_dense_bitwise() {
        let c = menagerie();
        let asm = CircuitAssembly::new(&c).unwrap();
        let n = asm.dimension();
        let mut eval = EvalContext::nominal(Kelvin::new(298.15));
        eval.gmin = 1e-9;
        let hot = CircuitSystem::hot_path(&c, eval, &asm, BypassTolerance::OFF);
        let cold = CircuitSystem::new(&c, eval);

        let points: Vec<Vec<f64>> = vec![
            vec![0.0; n],
            (0..n).map(|i| 0.1 * i as f64 - 0.2).collect(),
            (0..n).map(|i| 0.55 - 0.01 * i as f64).collect(),
            vec![0.3; n],
        ];
        let mut jh = Matrix::zeros(n, n);
        let mut jc = Matrix::zeros(n, n);
        let mut fh = vec![0.0; n];
        let mut fc = vec![0.0; n];
        for x in &points {
            hot.residual_and_jacobian(x, &mut fh, &mut jh).unwrap();
            cold.residual_and_jacobian(x, &mut fc, &mut jc).unwrap();
            let fh_bits: Vec<u64> = fh.iter().map(|v| v.to_bits()).collect();
            let fc_bits: Vec<u64> = fc.iter().map(|v| v.to_bits()).collect();
            assert_eq!(fh_bits, fc_bits, "residual bits at {x:?}");
            let jh_bits: Vec<u64> = jh.as_slice().iter().map(|v| v.to_bits()).collect();
            let jc_bits: Vec<u64> = jc.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(jh_bits, jc_bits, "jacobian bits at {x:?}");
        }
        // The first pass recorded, later passes replayed incrementally.
        let effort = asm.take_stamp_effort();
        assert_eq!(effort.restamp_full, 1);
        assert_eq!(effort.restamp_incremental, points.len() as u64 - 1);
        assert!(effort.device_evals > 0);
    }

    #[test]
    fn eval_context_change_refreshes_constant_elements() {
        let c = menagerie();
        let asm = CircuitAssembly::new(&c).unwrap();
        let n = asm.dimension();
        let eval_a = EvalContext::nominal(Kelvin::new(298.15));
        let mut eval_b = eval_a;
        eval_b.gmin = 1e-3;
        let mut hot = CircuitSystem::hot_path(&c, eval_a, &asm, BypassTolerance::OFF);
        let x: Vec<f64> = (0..n).map(|i| 0.05 * i as f64).collect();
        let mut j_hot = Matrix::zeros(n, n);
        let mut f = vec![0.0; n];
        hot.residual_and_jacobian(&x, &mut f, &mut j_hot).unwrap();
        hot.set_eval(eval_b);
        hot.residual_and_jacobian(&x, &mut f, &mut j_hot).unwrap();

        let cold = CircuitSystem::new(&c, eval_b);
        let mut j_cold = Matrix::zeros(n, n);
        let mut fc = vec![0.0; n];
        cold.residual_and_jacobian(&x, &mut fc, &mut j_cold)
            .unwrap();
        assert_eq!(
            j_hot
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            j_cold
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
        // Both passes were full restamps (record, then constant refresh).
        let effort = asm.take_stamp_effort();
        assert_eq!(effort.restamp_full, 2);
        assert_eq!(effort.restamp_incremental, 0);
    }

    #[test]
    fn recording_arms_the_symbolic_plan_with_forced_diagonals() {
        let c = divider();
        let asm = CircuitAssembly::new(&c).unwrap();
        assert!(asm.symbolic_plan().is_none());
        let eval = EvalContext::nominal(Kelvin::new(300.0));
        let hot = CircuitSystem::hot_path(&c, eval, &asm, BypassTolerance::OFF);
        let mut j = Matrix::zeros(3, 3);
        hot.jacobian(&[0.0; 3], &mut j).unwrap();
        let plan = asm.symbolic_plan().expect("armed by first jacobian pass");
        assert_eq!(plan.dimension(), 3);
        // The voltage-source branch has no diagonal stamp, but the plan
        // must still pivot through it.
        assert!(plan.in_pattern(2, 2));
    }

    #[test]
    fn exact_mode_reports_approximation_only_when_bypass_is_active() {
        let c = divider();
        let asm = CircuitAssembly::new(&c).unwrap();
        let eval = EvalContext::nominal(Kelvin::new(300.0));
        let plain = CircuitSystem::hot_path(&c, eval, &asm, BypassTolerance::OFF);
        assert!(!plain.residual_is_approximate());
        let bypassed = CircuitSystem::hot_path(
            &c,
            eval,
            &asm,
            BypassTolerance {
                active: true,
                v_abs: 1e-6,
                v_rel: 1e-5,
            },
        );
        assert!(bypassed.residual_is_approximate());
        // In exact mode the effective bypass is suspended.
        bypassed.set_exact(true);
        assert_eq!(bypassed.effective_bypass(), BypassTolerance::OFF);
        bypassed.set_exact(false);
        assert!(bypassed.effective_bypass().active);
    }
}
