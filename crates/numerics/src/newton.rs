//! Damped multivariate Newton-Raphson.
//!
//! This is the outer loop of the SPICE DC operating-point solver: the
//! circuit provides residual `f(x)` and Jacobian `J(x)`; this module solves
//! `f(x) = 0` with step damping and divergence detection.
//!
//! Two entry points share one implementation:
//!
//! - [`solve_newton`] — the convenient form: allocates its own scratch and
//!   returns an owned [`NewtonSolution`].
//! - [`solve_newton_with`] — the hot-path form: every buffer (residual,
//!   Jacobian, LU storage, trial/line-search vectors) lives in a caller-owned
//!   [`NewtonWorkspace`], so steady-state iterations perform **zero** heap
//!   allocations. Campaign workloads run thousands of structurally identical
//!   solves; reusing the workspace removes the dominant allocator traffic.

use std::sync::Arc;

use crate::lu::LuFactors;
use crate::sparse::{LuSymbolic, SparseLu};
use crate::{Matrix, NumericsError};

/// Options controlling the multivariate Newton iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonOptions {
    /// Convergence threshold on the residual infinity norm.
    pub residual_tolerance: f64,
    /// Convergence threshold on the update infinity norm.
    pub step_tolerance: f64,
    /// Iteration budget.
    pub max_iterations: usize,
    /// Maximum infinity-norm of a single Newton update; larger proposed
    /// steps are scaled down (crucial for exponential device equations).
    pub max_step: f64,
    /// Residual norm that is still *accepted* when the iteration stagnates
    /// or exhausts its budget without reaching `residual_tolerance`.
    /// Circuit solves use this the way SPICE uses `reltol`/`abstol`: the
    /// last digits of a stiff system are often unreachable but irrelevant.
    /// `0.0` (the default) disables the escape hatch.
    pub acceptable_residual: f64,
    /// After convergence, keep taking full (undamped) Newton steps until
    /// the iterate is **bitwise stationary** — `x + dx` rounds back to `x`
    /// — or a two-cycle on the last-ulp grid is detected and resolved to a
    /// canonical member. This makes the returned solution a pure function
    /// of the *system*, independent of the initial guess, which is what
    /// lets warm-started sweeps reproduce cold-started results bit for
    /// bit. Costs one to three extra iterations; off by default.
    pub polish: bool,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            residual_tolerance: 1e-12,
            step_tolerance: 1e-12,
            max_iterations: 200,
            max_step: 1.0e9,
            acceptable_residual: 0.0,
            polish: false,
        }
    }
}

/// A system of nonlinear equations `f(x) = 0` with an explicit Jacobian.
pub trait NonlinearSystem {
    /// Number of unknowns (and equations).
    fn dimension(&self) -> usize;

    /// Evaluates the residual into `out` (length [`Self::dimension`]).
    ///
    /// # Errors
    ///
    /// Implementations may fail on unphysical iterates.
    fn residual(&self, x: &[f64], out: &mut [f64]) -> Result<(), NumericsError>;

    /// Evaluates the Jacobian `df_i/dx_j`.
    ///
    /// # Errors
    ///
    /// Implementations may fail on unphysical iterates.
    fn jacobian(&self, x: &[f64], out: &mut Matrix) -> Result<(), NumericsError>;

    /// Evaluates residual and Jacobian at the same point in one call.
    ///
    /// The default chains [`Self::residual`] and [`Self::jacobian`];
    /// implementations whose Jacobian evaluation produces the residual as
    /// a by-product (MNA stamping does) should override it to evaluate
    /// once. Overrides must leave `f` **bitwise identical** to what
    /// [`Self::residual`] writes — the fixed-point polish relies on the
    /// two paths agreeing to the last ulp.
    ///
    /// # Errors
    ///
    /// Implementations may fail on unphysical iterates.
    fn residual_and_jacobian(
        &self,
        x: &[f64],
        f: &mut [f64],
        jac: &mut Matrix,
    ) -> Result<(), NumericsError> {
        self.residual(x, f)?;
        self.jacobian(x, jac)
    }

    /// Switches the system between its default (possibly approximate) and
    /// an exact evaluation mode. Systems with tolerance-based fast paths —
    /// the SPICE device bypass reuses a device's previous operating point
    /// when its controlling voltages barely moved — must honor
    /// `set_exact(true)` by evaluating every device fully, so the solver
    /// can verify convergence and polish the accepted solution against the
    /// *exact* system. Systems without fast paths ignore this (default).
    fn set_exact(&self, exact: bool) {
        let _ = exact;
    }

    /// Whether evaluations in the current mode may differ from exact-mode
    /// evaluations (i.e. a tolerance fast path is armed and enabled).
    /// The solver uses this to skip the exact re-verification entirely for
    /// ordinary systems; the default is `false`.
    fn residual_is_approximate(&self) -> bool {
        false
    }
}

/// Outcome of a converged Newton solve.
#[derive(Debug, Clone, PartialEq)]
pub struct NewtonSolution {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations used.
    pub iterations: usize,
    /// Final residual infinity norm.
    pub residual_norm: f64,
}

/// Outcome of a workspace solve: the solution stays in the caller's buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonInfo {
    /// Iterations used by the damped phase.
    pub iterations: usize,
    /// Extra full-step iterations used by the polish phase.
    pub polish_iterations: usize,
    /// Newton-map applications spent by the polish's last-ulp cluster
    /// walk (see [`NewtonOptions::polish`]).
    pub cluster_maps: usize,
    /// Final residual infinity norm (of the damped phase; the polish phase
    /// can only move the iterate within the last-ulp neighbourhood).
    pub residual_norm: f64,
}

/// Reusable scratch for [`solve_newton_with`]: residual/trial vectors, the
/// Jacobian, and the LU factorization storage.
///
/// Buffers are sized lazily on first use and only grow; a workspace sized
/// for the largest system in a sweep never allocates again.
#[derive(Debug, Clone, Default)]
pub struct NewtonWorkspace {
    f: Vec<f64>,
    f_trial: Vec<f64>,
    trial: Vec<f64>,
    dx: Vec<f64>,
    neg_f: Vec<f64>,
    prev: Vec<f64>,
    /// Cluster-walk buffers (polish): probe iterate, probe base, the
    /// flat `CLUSTER_MAX x n` store of discovered fixed points, and each
    /// stored point's residual norm.
    probe: Vec<f64>,
    base: Vec<f64>,
    cluster: Vec<f64>,
    cluster_norms: Vec<f64>,
    jac: Option<Matrix>,
    lu: LinearSolver,
}

/// The linear-solver backend of a [`NewtonWorkspace`]: dense partial-pivot
/// LU (the default) or sparse LU bound to a frozen symbolic plan. The two
/// are bit-compatible on matrices honoring the plan's pattern (see
/// [`crate::sparse`]), so the choice is purely about work skipped.
#[derive(Debug, Clone)]
enum LinearSolver {
    /// Dense partial-pivot LU.
    Dense(LuFactors),
    /// Sparse LU on a frozen symbolic plan.
    Sparse(SparseLu),
}

impl Default for LinearSolver {
    fn default() -> Self {
        LinearSolver::Dense(LuFactors::new())
    }
}

impl LinearSolver {
    fn factor_from(&mut self, a: &Matrix) -> Result<(), NumericsError> {
        match self {
            LinearSolver::Dense(lu) => lu.factor_from(a),
            LinearSolver::Sparse(lu) => lu.factor_from(a),
        }
    }

    fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), NumericsError> {
        match self {
            LinearSolver::Dense(lu) => lu.solve_into(b, x),
            LinearSolver::Sparse(lu) => lu.solve_into(b, x),
        }
    }
}

impl NewtonWorkspace {
    /// An empty workspace.
    #[must_use]
    pub fn new() -> Self {
        NewtonWorkspace::default()
    }

    /// Routes this workspace's linear solves through sparse LU on `plan`.
    /// A workspace already bound to the same plan (pointer identity) is
    /// left untouched, so per-solve rebinding is allocation-free; binding a
    /// new plan replaces the factor storage.
    pub fn use_sparse_plan(&mut self, plan: &Arc<LuSymbolic>) {
        match &self.lu {
            LinearSolver::Sparse(s) if Arc::ptr_eq(s.plan(), plan) => {}
            _ => self.lu = LinearSolver::Sparse(SparseLu::new(Arc::clone(plan))),
        }
    }

    /// Routes this workspace's linear solves through dense LU (the
    /// default). A no-op when already dense.
    pub fn use_dense(&mut self) {
        if !matches!(self.lu, LinearSolver::Dense(_)) {
            self.lu = LinearSolver::Dense(LuFactors::new());
        }
    }

    fn ensure(&mut self, n: usize) {
        // A sparse plan sized for a different system cannot factor this
        // one; fall back to dense rather than erroring mid-solve.
        if let LinearSolver::Sparse(s) = &self.lu {
            if s.plan().dimension() != n {
                self.lu = LinearSolver::Dense(LuFactors::new());
            }
        }
        if self.f.len() != n {
            self.f.resize(n, 0.0);
            self.f_trial.resize(n, 0.0);
            self.trial.resize(n, 0.0);
            self.dx.resize(n, 0.0);
            self.neg_f.resize(n, 0.0);
            self.prev.resize(n, 0.0);
            self.probe.resize(n, 0.0);
            self.base.resize(n, 0.0);
            self.cluster.resize(CLUSTER_MAX * n, 0.0);
            self.cluster_norms.resize(CLUSTER_MAX, 0.0);
        }
        let fresh = !matches!(&self.jac, Some(j) if j.rows() == n && j.cols() == n);
        if fresh {
            self.jac = Some(Matrix::zeros(n, n));
        }
    }
}

fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0_f64, |m, x| m.max(x.abs()))
}

/// Deterministic tie-break for bitwise two-cycles: lexicographic order on
/// `f64::total_cmp`, entry by entry.
fn lex_less(a: &[f64], b: &[f64]) -> bool {
    for (x, y) in a.iter().zip(b) {
        match x.total_cmp(y) {
            std::cmp::Ordering::Less => return true,
            std::cmp::Ordering::Greater => return false,
            std::cmp::Ordering::Equal => {}
        }
    }
    false
}

/// Solves `f(x) = 0` by damped Newton from the initial guess `x0`.
///
/// Each iteration solves `J dx = -f` by LU and line-searches the damping
/// factor (halving up to 20 times) until the residual norm decreases.
///
/// # Errors
///
/// - Propagates residual/Jacobian/LU failures.
/// - [`NumericsError::NoConvergence`] when the budget is exhausted or the
///   line search stagnates.
pub fn solve_newton(
    system: &impl NonlinearSystem,
    x0: &[f64],
    options: NewtonOptions,
) -> Result<NewtonSolution, NumericsError> {
    let mut ws = NewtonWorkspace::new();
    let mut x = x0.to_vec();
    let info = solve_newton_with(system, &mut x, options, &mut ws)?;
    Ok(NewtonSolution {
        x,
        iterations: info.iterations,
        residual_norm: info.residual_norm,
    })
}

/// [`solve_newton`] with caller-owned scratch and an in/out solution
/// buffer: `x` holds the initial guess on entry and the solution on a
/// successful return. Steady-state calls allocate nothing.
///
/// # Errors
///
/// Same contract as [`solve_newton`]; additionally rejects an `x` whose
/// length differs from the system dimension.
pub fn solve_newton_with(
    system: &impl NonlinearSystem,
    x: &mut [f64],
    options: NewtonOptions,
    ws: &mut NewtonWorkspace,
) -> Result<NewtonInfo, NumericsError> {
    let n = system.dimension();
    if x.len() != n {
        return Err(NumericsError::dims(format!(
            "newton: system dimension {n}, initial guess {}",
            x.len()
        )));
    }
    ws.ensure(n);
    let (mut info, jac_at_x) = newton_damped(system, x, options, ws)?;
    if options.polish {
        // Polish against the exact system: the fixed point (and its
        // canonical cluster member) must be a pure function of the system,
        // so a tolerance fast path may not leak into the map here.
        system.set_exact(true);
        (info.polish_iterations, info.cluster_maps) =
            polish_to_fixed_point(system, x, ws, jac_at_x);
        system.set_exact(false);
    }
    Ok(info)
}

/// Evaluates `f(x)` into `f` and, with `fuse`, `J(x)` into `jac` in the
/// same pass. Returns whether `jac` now holds `J(x)`. A failed fused pass
/// is retried residual-only, so a residual failure surfaces exactly as on
/// the residual-only path and a Jacobian failure surfaces from the
/// Jacobian pass that needs it.
fn eval_at(
    system: &impl NonlinearSystem,
    x: &[f64],
    f: &mut [f64],
    jac: &mut Matrix,
    fuse: bool,
) -> Result<bool, NumericsError> {
    if fuse && system.residual_and_jacobian(x, f, jac).is_ok() {
        return Ok(true);
    }
    system.residual(x, f)?;
    Ok(false)
}

/// Re-verifies an accept-candidate residual against the exact system when
/// the current evaluation mode is approximate (device bypass armed).
/// Updates `f` and `fnorm` in place; a no-op for ordinary systems. The
/// caller re-checks its acceptance condition against the refreshed norm and
/// keeps iterating when the exact residual no longer passes — so every
/// *accepted* solution satisfies the convergence test with no bypass
/// shortcuts in effect.
fn exactify(
    system: &impl NonlinearSystem,
    x: &[f64],
    f: &mut [f64],
    fnorm: &mut f64,
) -> Result<(), NumericsError> {
    if !system.residual_is_approximate() {
        return Ok(());
    }
    system.set_exact(true);
    let result = system.residual(x, f);
    system.set_exact(false);
    result?;
    *fnorm = inf_norm(f);
    Ok(())
}

/// [`solve_newton_with`] bracketed by an [`icvbe_trace::SpanKind::Newton`]
/// span on `trace`; the end record carries the damped and polish iteration
/// counts as its payload. With a disabled buffer this is a plain
/// delegation — no clock read, no record.
///
/// # Errors
///
/// Same contract as [`solve_newton_with`].
pub fn solve_newton_traced(
    system: &impl NonlinearSystem,
    x: &mut [f64],
    options: NewtonOptions,
    ws: &mut NewtonWorkspace,
    trace: &mut icvbe_trace::TraceBuf,
) -> Result<NewtonInfo, NumericsError> {
    let span = trace.span(icvbe_trace::SpanKind::Newton);
    let result = solve_newton_with(system, x, options, ws);
    match &result {
        Ok(info) => {
            trace.span_end_with(span, info.iterations as u64, info.polish_iterations as u64)
        }
        Err(_) => trace.span_end(span),
    }
    result
}

/// A damped-phase result: iterations and final residual norm, built with
/// no polish counts yet.
fn damped_info(iterations: usize, residual_norm: f64) -> NewtonInfo {
    NewtonInfo {
        iterations,
        polish_iterations: 0,
        cluster_maps: 0,
        residual_norm,
    }
}

/// The damped phase: the historical `solve_newton` algorithm, with every
/// temporary drawn from the workspace. Returns the outcome and whether
/// the workspace Jacobian holds `J(x)` at the accepted `x`; `ws.f` holds
/// the exact residual there on every successful return.
///
/// With exact evaluations, the initial point and every full-step trial
/// are stamped once for residual and Jacobian together, and an accepted
/// full step hands its Jacobian to the next iteration. Iterates, counts
/// and errors are those of separate residual and Jacobian passes: both
/// routes produce the same bits. Approximate (bypass-armed) evaluations
/// stay residual-only, because an exact re-verification between two
/// passes at one point would leave a Jacobian from other device states.
fn newton_damped(
    system: &impl NonlinearSystem,
    x: &mut [f64],
    options: NewtonOptions,
    ws: &mut NewtonWorkspace,
) -> Result<(NewtonInfo, bool), NumericsError> {
    let n = x.len();
    let Some(jac) = ws.jac.as_mut() else {
        return Err(NumericsError::invalid(
            "newton workspace jacobian not sized",
        ));
    };
    let fuse = !system.residual_is_approximate();
    let mut jac_at_x = eval_at(system, x, &mut ws.f, jac, fuse)?;
    let mut fnorm = inf_norm(&ws.f);

    for iter in 0..options.max_iterations {
        if fnorm <= options.residual_tolerance {
            exactify(system, x, &mut ws.f, &mut fnorm)?;
            if fnorm <= options.residual_tolerance {
                return Ok((damped_info(iter, fnorm), jac_at_x));
            }
            // The exact residual no longer passes: keep iterating on it.
        }
        if !jac_at_x {
            system.jacobian(x, jac)?;
        }
        ws.lu.factor_from(jac)?;
        for i in 0..n {
            ws.neg_f[i] = -ws.f[i];
        }
        ws.lu.solve_into(&ws.neg_f, &mut ws.dx)?;

        // Clamp very large steps before the line search sees them.
        let dx_norm = inf_norm(&ws.dx);
        if dx_norm > options.max_step {
            let scale = options.max_step / dx_norm;
            for d in &mut ws.dx {
                *d *= scale;
            }
        }

        let mut damping = 1.0;
        let mut advanced = false;
        // From here `jac` may hold a trial's Jacobian, not `J(x)`.
        jac_at_x = false;
        for halving in 0..20 {
            for i in 0..n {
                ws.trial[i] = x[i] + damping * ws.dx[i];
            }
            let evaluated = if halving == 0 {
                eval_at(system, &ws.trial, &mut ws.f_trial, jac, fuse)
            } else {
                system.residual(&ws.trial, &mut ws.f_trial).map(|()| false)
            };
            if let Ok(jac_at_trial) = evaluated {
                let t_norm = inf_norm(&ws.f_trial);
                if t_norm.is_finite() && (t_norm < fnorm || t_norm <= options.residual_tolerance) {
                    x.copy_from_slice(&ws.trial);
                    ws.f.copy_from_slice(&ws.f_trial);
                    fnorm = t_norm;
                    jac_at_x = jac_at_trial;
                    advanced = true;
                    break;
                }
            }
            damping *= 0.5;
        }
        if !advanced {
            // Accept the most damped step if it still moves the iterate; a
            // locally increasing residual can still escape a bad region.
            for i in 0..n {
                ws.trial[i] = x[i] + damping * ws.dx[i];
            }
            if ws.trial == x {
                exactify(system, x, &mut ws.f, &mut fnorm)?;
                if fnorm <= options.acceptable_residual {
                    return Ok((damped_info(iter, fnorm), false));
                }
                return Err(NumericsError::NoConvergence {
                    iterations: iter,
                    residual: fnorm,
                });
            }
            system.residual(&ws.trial, &mut ws.f_trial)?;
            let t_norm = inf_norm(&ws.f_trial);
            if !t_norm.is_finite() {
                return Err(NumericsError::NoConvergence {
                    iterations: iter,
                    residual: fnorm,
                });
            }
            x.copy_from_slice(&ws.trial);
            ws.f.copy_from_slice(&ws.f_trial);
            fnorm = t_norm;
        }
        if inf_norm(&ws.dx) * damping <= options.step_tolerance
            && fnorm <= options.residual_tolerance.max(1e-9)
        {
            exactify(system, x, &mut ws.f, &mut fnorm)?;
            if fnorm <= options.residual_tolerance.max(1e-9) {
                return Ok((damped_info(iter + 1, fnorm), jac_at_x));
            }
        }
    }
    if fnorm <= options.acceptable_residual {
        exactify(system, x, &mut ws.f, &mut fnorm)?;
        if fnorm <= options.acceptable_residual {
            return Ok((damped_info(options.max_iterations, fnorm), jac_at_x));
        }
    }
    Err(NumericsError::NoConvergence {
        iterations: options.max_iterations,
        residual: fnorm,
    })
}

/// Cap on polish iterations; quadratic convergence reaches the last-ulp
/// grid in two or three steps, the rest is headroom.
const POLISH_MAX: usize = 16;

/// Cap on the number of terminal points tracked by the last-ulp cluster
/// walk. Observed clusters are a pair of fixed points or a pair of
/// adjacent two-cycles (four points); twelve is deep headroom, and a
/// cluster that overflows it merely falls back to a start-dependent pick.
const CLUSTER_MAX: usize = 12;

/// Largest per-component ulp distance between the two members of a
/// two-cycle the cluster walk still tests. A tight Newton two-cycle keeps
/// both members within the last-ulp grid around the root; a probe that the
/// map throws further than this cannot be one, so the (expensive) second
/// map application is skipped.
const CYCLE_SPAN_ULPS: u64 = 4;

/// Drives a converged iterate to a terminal point of the floating-point
/// Newton map `x ↦ fl(x - J(x)⁻¹ f(x))` and canonicalizes the choice.
///
/// Near a simple root the rounded map collapses onto a tiny terminal set:
/// an attracting fixed point, an adjacent-ulp two-cycle — and sometimes
/// *several* of these side by side (twin fixed points one ulp apart, twin
/// two-cycles), each reached from its own side. Any start-dependence in
/// which terminal point is returned would leak into warm-vs-cold runs, so
/// after the iteration terminates (bitwise stationary or a detected
/// two-cycle) [`canonicalize_cluster`] walks the last-ulp neighbourhood,
/// collects every terminal point reachable from the one found, and keeps a
/// canonical member — smallest residual norm, ties broken lexicographically
/// by `total_cmp` — which is a function of the cluster *set* only, never of
/// the entry side. Failures (singular Jacobian, non-finite residual) end
/// the polish and keep the already-converged iterate; the cap bounds the
/// cost.
///
/// Starts from the damped phase's accepted point: `ws.f` holds its exact
/// residual, and `jac_at_x` says whether `ws.jac` holds its Jacobian, so
/// neither is stamped again. Each trial is stamped once for residual and
/// Jacobian, and the Jacobian serves the next step; a trial that closes a
/// two-cycle is the previous iterate and is not stamped at all. Returns
/// the polish iterations and the cluster walk's map applications.
fn polish_to_fixed_point(
    system: &impl NonlinearSystem,
    x: &mut [f64],
    ws: &mut NewtonWorkspace,
    mut jac_at_x: bool,
) -> (usize, usize) {
    let n = x.len();
    let mut fnorm = inf_norm(&ws.f);
    if !fnorm.is_finite() {
        return (0, 0);
    }
    let mut have_prev = false;
    let mut prev_norm = f64::INFINITY;
    for iter in 0..POLISH_MAX {
        let Some(jac) = ws.jac.as_mut() else {
            return (iter, 0);
        };
        let map_ok =
            (jac_at_x || system.jacobian(x, jac).is_ok()) && ws.lu.factor_from(jac).is_ok() && {
                for i in 0..n {
                    ws.neg_f[i] = -ws.f[i];
                }
                ws.lu.solve_into(&ws.neg_f, &mut ws.dx).is_ok()
            };
        if !map_ok {
            return (iter, 0);
        }
        for i in 0..n {
            ws.trial[i] = x[i] + ws.dx[i];
        }
        if ws.trial[..] == *x {
            // Bitwise stationary. Seed the cluster with this fixed point
            // and canonicalize over the whole last-ulp neighbourhood.
            ws.cluster[..n].copy_from_slice(x);
            ws.cluster_norms[0] = fnorm;
            return (iter, canonicalize_cluster(system, x, ws, 1));
        }
        if have_prev && ws.trial == ws.prev {
            // Two-cycle {x, trial}: seed the cluster with both members.
            // The trial is the previous iterate, whose residual norm is in
            // hand.
            ws.cluster[..n].copy_from_slice(x);
            ws.cluster[n..2 * n].copy_from_slice(&ws.trial);
            ws.cluster_norms[..2].copy_from_slice(&[fnorm, prev_norm]);
            return (iter + 1, canonicalize_cluster(system, x, ws, 2));
        }
        match eval_at(system, &ws.trial, &mut ws.f_trial, jac, true) {
            Ok(jac_at_trial) => jac_at_x = jac_at_trial,
            Err(_) => return (iter, 0),
        }
        let t_norm = inf_norm(&ws.f_trial);
        if !t_norm.is_finite() {
            return (iter, 0);
        }
        ws.prev.copy_from_slice(x);
        prev_norm = fnorm;
        have_prev = true;
        x.copy_from_slice(&ws.trial);
        ws.f.copy_from_slice(&ws.f_trial);
        fnorm = t_norm;
    }
    (POLISH_MAX, 0)
}

/// One application of the rounded Newton map `N(p) = fl(p − J(p)⁻¹ f(p))`
/// into `out`. Returns the residual infinity norm at `p`, or `None` when
/// any stage fails or produces a non-finite value (`out` is then
/// unspecified).
#[allow(clippy::too_many_arguments)]
fn newton_map(
    system: &impl NonlinearSystem,
    p: &[f64],
    out: &mut [f64],
    f: &mut [f64],
    neg_f: &mut [f64],
    dx: &mut [f64],
    jac: &mut Matrix,
    lu: &mut LinearSolver,
) -> Option<f64> {
    let n = p.len();
    system.residual_and_jacobian(p, f, jac).ok()?;
    let norm = inf_norm(f);
    if !norm.is_finite() {
        return None;
    }
    lu.factor_from(jac).ok()?;
    for i in 0..n {
        neg_f[i] = -f[i];
    }
    lu.solve_into(neg_f, dx).ok()?;
    for i in 0..n {
        out[i] = p[i] + dx[i];
        if !out[i].is_finite() {
            return None;
        }
    }
    Some(norm)
}

/// Having reached a terminal point (or two-cycle) of the rounded Newton
/// map, deterministically explores the last-ulp neighbourhood for *other*
/// terminal points and replaces `x` with the canonical member of the
/// discovered cluster: smallest residual infinity norm, ties broken
/// lexicographically by `total_cmp`.
///
/// Rounding can leave several adjacent attractors — twin fixed points one
/// ulp apart, or a pair of adjacent two-cycles — and plain polishing
/// terminates in whichever one its entry side feeds, so warm-started and
/// cold-started solves could disagree by one ulp. The cluster walk closes
/// that hole: every member's ±1-ulp neighbours get a direct terminality
/// test — `N(p) = p` (one map application), or `N(N(p)) = p` for a
/// two-cycle (a second application, attempted only when the first lands
/// within [`CYCLE_SPAN_ULPS`] of the probe), whose both members join — and
/// the walk repeats until the cluster is closed. Terminality is a pure
/// predicate of the probe point and adjacent attractors are direct probes
/// of each other, so every entry side discovers the same set and therefore
/// the same canonical pick. A probe that merely *flows toward* the cluster
/// is not followed — it would only rediscover known members.
///
/// `ws.cluster[..seeded * n]` must hold the terminal points already found
/// by the polish loop (the stationary point, or both two-cycle members),
/// and `ws.cluster_norms[..seeded]` their residual norms. Every member's
/// norm comes from the pass that found it (the map application's
/// residual is bitwise the plain residual), so picking the canonical
/// member stamps nothing. Returns the number of map applications.
fn canonicalize_cluster(
    system: &impl NonlinearSystem,
    x: &mut [f64],
    ws: &mut NewtonWorkspace,
    seeded: usize,
) -> usize {
    let n = x.len();
    let mut count = seeded.min(CLUSTER_MAX);
    let mut maps = 0;
    let mut member = 0;
    while member < count && count < CLUSTER_MAX {
        ws.base
            .copy_from_slice(&ws.cluster[member * n..(member + 1) * n]);
        'probe: for dim in 0..n {
            for up in [false, true] {
                if count == CLUSTER_MAX {
                    break 'probe;
                }
                let neighbour = ulp_neighbour(ws.base[dim], up);
                if !neighbour.is_finite() {
                    continue;
                }
                ws.probe.copy_from_slice(&ws.base);
                ws.probe[dim] = neighbour;
                if is_member(&ws.cluster, count, &ws.probe, n) {
                    continue;
                }
                // Direct terminality test; `trial` holds N(p) and `prev`
                // (free once the polish loop has terminated) holds N(N(p))
                // for the two-cycle test.
                let Some(jac) = ws.jac.as_mut() else {
                    return maps;
                };
                maps += 1;
                let Some(probe_norm) = newton_map(
                    system,
                    &ws.probe,
                    &mut ws.trial,
                    &mut ws.f_trial,
                    &mut ws.neg_f,
                    &mut ws.dx,
                    jac,
                    &mut ws.lu,
                ) else {
                    continue;
                };
                if ws.trial == ws.probe {
                    add_member(
                        &mut ws.cluster,
                        &mut ws.cluster_norms,
                        &mut count,
                        &ws.probe,
                        probe_norm,
                    );
                    continue;
                }
                // If the probe maps onto a known member it cannot be a new
                // terminal point: a fixed point maps to itself, and a
                // two-cycle partner of a known member was added alongside
                // that member. This skips the second map in the common
                // case (the neighbour falls straight back onto the
                // cluster).
                if is_member(&ws.cluster, count, &ws.trial, n) {
                    continue;
                }
                if !within_ulps(&ws.trial, &ws.probe, CYCLE_SPAN_ULPS) {
                    continue;
                }
                let Some(jac) = ws.jac.as_mut() else {
                    return maps;
                };
                maps += 1;
                let Some(trial_norm) = newton_map(
                    system,
                    &ws.trial,
                    &mut ws.prev,
                    &mut ws.f_trial,
                    &mut ws.neg_f,
                    &mut ws.dx,
                    jac,
                    &mut ws.lu,
                ) else {
                    continue;
                };
                if ws.prev == ws.probe {
                    // Two-cycle {probe, trial}: both members join.
                    let (cluster, norms) = (&mut ws.cluster, &mut ws.cluster_norms);
                    add_member(cluster, norms, &mut count, &ws.probe, probe_norm);
                    add_member(cluster, norms, &mut count, &ws.trial, trial_norm);
                }
            }
        }
        member += 1;
    }
    // Canonical member: smallest residual infinity norm, ties broken
    // lexicographically — both are functions of the set, not of the entry.
    let mut best = 0;
    let mut best_norm = ws.cluster_norms[0];
    for m in 1..count {
        let norm = ws.cluster_norms[m];
        if norm < best_norm
            || (norm == best_norm
                && lex_less(
                    &ws.cluster[m * n..(m + 1) * n],
                    &ws.cluster[best * n..(best + 1) * n],
                ))
        {
            best = m;
            best_norm = norm;
        }
    }
    x[..n].copy_from_slice(&ws.cluster[best * n..(best + 1) * n]);
    maps
}

/// Whether `point` is bitwise equal to one of the first `count` cluster
/// members.
fn is_member(cluster: &[f64], count: usize, point: &[f64], n: usize) -> bool {
    (0..count).any(|m| cluster[m * n..(m + 1) * n] == point[..])
}

/// Appends `point` and its residual norm to the flat cluster store unless
/// already present or the store is full.
fn add_member(cluster: &mut [f64], norms: &mut [f64], count: &mut usize, point: &[f64], norm: f64) {
    let n = point.len();
    if *count == CLUSTER_MAX || is_member(cluster, *count, point, n) {
        return;
    }
    let dst = *count * n;
    cluster[dst..dst + n].copy_from_slice(point);
    norms[*count] = norm;
    *count += 1;
}

/// Whether every component of `a` is within `k` representable values of
/// the matching component of `b` (equal bits count as zero; any non-finite
/// component fails).
fn within_ulps(a: &[f64], b: &[f64], k: u64) -> bool {
    a.iter().zip(b).all(|(&x, &y)| {
        if x.to_bits() == y.to_bits() {
            return true;
        }
        if !x.is_finite() || !y.is_finite() {
            return false;
        }
        let d = i128::from(monotone_bits(x)) - i128::from(monotone_bits(y));
        d.unsigned_abs() <= u128::from(k)
    })
}

/// Maps `f64` bit patterns to an `i64` whose integer order matches the
/// total order of the floats (with `-0.0` just below `+0.0`), so ulp
/// distances become integer differences.
fn monotone_bits(v: f64) -> i64 {
    let bits = v.to_bits();
    if bits >> 63 == 1 {
        // Negative floats order opposite their magnitude bits; place them
        // just below the non-negatives (`-0.0` maps to -1, `0.0` to 0).
        -((bits & !(1u64 << 63)) as i64) - 1
    } else {
        bits as i64
    }
}

/// The adjacent representable `f64` in the given direction (`up` = toward
/// `+∞`). NaN and the infinity in the requested direction are returned
/// unchanged; ±0.0 steps to the smallest subnormal of the requested sign.
fn ulp_neighbour(v: f64, up: bool) -> f64 {
    if v.is_nan() || (v.is_infinite() && (v > 0.0) == up) {
        return v;
    }
    if v == 0.0 {
        let tiny = f64::from_bits(1);
        return if up { tiny } else { -tiny };
    }
    let toward_larger_magnitude = (v > 0.0) == up;
    let bits = v.to_bits();
    f64::from_bits(if toward_larger_magnitude {
        bits + 1
    } else {
        bits - 1
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// x^2 + y^2 = 4, x - y = 0  =>  x = y = sqrt(2).
    struct Circle;

    impl NonlinearSystem for Circle {
        fn dimension(&self) -> usize {
            2
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) -> Result<(), NumericsError> {
            out[0] = x[0] * x[0] + x[1] * x[1] - 4.0;
            out[1] = x[0] - x[1];
            Ok(())
        }
        fn jacobian(&self, x: &[f64], out: &mut Matrix) -> Result<(), NumericsError> {
            out[(0, 0)] = 2.0 * x[0];
            out[(0, 1)] = 2.0 * x[1];
            out[(1, 0)] = 1.0;
            out[(1, 1)] = -1.0;
            Ok(())
        }
    }

    #[test]
    fn solves_circle_intersection() {
        let sol = solve_newton(&Circle, &[1.0, 0.5], NewtonOptions::default()).unwrap();
        assert!((sol.x[0] - std::f64::consts::SQRT_2).abs() < 1e-10);
        assert!((sol.x[1] - std::f64::consts::SQRT_2).abs() < 1e-10);
        assert!(sol.residual_norm <= 1e-12);
    }

    /// Stiff exponential resembling a diode: f(v) = 1e-14 (e^{v/.026}-1) - 1e-3.
    struct Diode;

    impl NonlinearSystem for Diode {
        fn dimension(&self) -> usize {
            1
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) -> Result<(), NumericsError> {
            out[0] = 1e-14 * ((x[0] / 0.026).exp() - 1.0) - 1e-3;
            Ok(())
        }
        fn jacobian(&self, x: &[f64], out: &mut Matrix) -> Result<(), NumericsError> {
            out[(0, 0)] = 1e-14 / 0.026 * (x[0] / 0.026).exp();
            Ok(())
        }
    }

    #[test]
    fn damping_handles_stiff_exponential() {
        let opts = NewtonOptions {
            residual_tolerance: 1e-15,
            ..NewtonOptions::default()
        };
        let sol = solve_newton(&Diode, &[0.8], opts).unwrap();
        let expected = 0.026 * (1e-3_f64 / 1e-14 + 1.0).ln();
        assert!((sol.x[0] - expected).abs() < 1e-9);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        assert!(solve_newton(&Circle, &[1.0], NewtonOptions::default()).is_err());
    }

    #[test]
    fn already_converged_returns_zero_iterations() {
        let s = std::f64::consts::SQRT_2;
        let sol = solve_newton(&Circle, &[s, s], NewtonOptions::default()).unwrap();
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn workspace_solve_matches_owned_solve_bitwise() {
        let owned = solve_newton(&Circle, &[1.0, 0.5], NewtonOptions::default()).unwrap();
        let mut ws = NewtonWorkspace::new();
        let mut x = [1.0, 0.5];
        let info = solve_newton_with(&Circle, &mut x, NewtonOptions::default(), &mut ws).unwrap();
        assert_eq!(owned.x, x.to_vec());
        assert_eq!(owned.iterations, info.iterations);
        assert_eq!(owned.residual_norm, info.residual_norm);
    }

    #[test]
    fn workspace_is_reusable_across_systems() {
        let mut ws = NewtonWorkspace::new();
        let mut x2 = [1.0, 0.5];
        solve_newton_with(&Circle, &mut x2, NewtonOptions::default(), &mut ws).unwrap();
        // Same workspace now drives a 1-D system: buffers re-size cleanly.
        let mut x1 = [0.8];
        let opts = NewtonOptions {
            residual_tolerance: 1e-15,
            ..NewtonOptions::default()
        };
        solve_newton_with(&Diode, &mut x1, opts, &mut ws).unwrap();
        let expected = 0.026 * (1e-3_f64 / 1e-14 + 1.0).ln();
        assert!((x1[0] - expected).abs() < 1e-9);
    }

    #[test]
    fn polish_makes_the_result_independent_of_the_start() {
        // Converge from wildly different guesses, polish on: the terminal
        // iterates must agree to the BIT, not merely to tolerance.
        let opts = NewtonOptions {
            residual_tolerance: 1e-9,
            polish: true,
            ..NewtonOptions::default()
        };
        let mut ws = NewtonWorkspace::new();
        let starts: [[f64; 2]; 4] = [[1.0, 0.5], [3.0, 2.5], [0.7, 1.9], [2.0, 0.1]];
        let mut solutions = Vec::new();
        for s in starts {
            let mut x = s;
            solve_newton_with(&Circle, &mut x, opts, &mut ws).unwrap();
            solutions.push(x.to_vec());
        }
        for sol in &solutions[1..] {
            assert_eq!(&solutions[0], sol, "polish must canonicalize the root");
        }
    }

    #[test]
    fn polish_on_stiff_exponential_is_start_independent() {
        let opts = NewtonOptions {
            residual_tolerance: 1e-9,
            polish: true,
            ..NewtonOptions::default()
        };
        let mut ws = NewtonWorkspace::new();
        let mut a = [0.3];
        let mut b = [0.9];
        solve_newton_with(&Diode, &mut a, opts, &mut ws).unwrap();
        solve_newton_with(&Diode, &mut b, opts, &mut ws).unwrap();
        assert_eq!(a[0].to_bits(), b[0].to_bits());
    }

    #[test]
    fn sparse_plan_routing_matches_dense_bitwise() {
        let entries = [(0, 0), (0, 1), (1, 0), (1, 1)];
        let plan = Arc::new(LuSymbolic::analyze(2, &entries).unwrap());
        let opts = NewtonOptions {
            polish: true,
            ..NewtonOptions::default()
        };
        let mut dense_ws = NewtonWorkspace::new();
        let mut sparse_ws = NewtonWorkspace::new();
        sparse_ws.use_sparse_plan(&plan);
        let mut xd = [1.0, 0.5];
        let mut xs = [1.0, 0.5];
        let id = solve_newton_with(&Circle, &mut xd, opts, &mut dense_ws).unwrap();
        let is_ = solve_newton_with(&Circle, &mut xs, opts, &mut sparse_ws).unwrap();
        assert_eq!(xd.map(f64::to_bits), xs.map(f64::to_bits));
        assert_eq!(id.iterations, is_.iterations);
        assert_eq!(id.residual_norm.to_bits(), is_.residual_norm.to_bits());
        // Rebinding the same plan is a no-op; a system of a different
        // dimension silently falls back to dense instead of erroring.
        sparse_ws.use_sparse_plan(&plan);
        let mut x1 = [0.8];
        let opts1 = NewtonOptions {
            residual_tolerance: 1e-15,
            ..NewtonOptions::default()
        };
        solve_newton_with(&Diode, &mut x1, opts1, &mut sparse_ws).unwrap();
        let expected = 0.026 * (1e-3_f64 / 1e-14 + 1.0).ln();
        assert!((x1[0] - expected).abs() < 1e-9);
        sparse_ws.use_dense();
    }

    /// A 1-D system with a deliberately sloppy fast path: in fast mode the
    /// residual is evaluated at `x` quantized to a 1e-6 grid (a stand-in
    /// for tolerance-based device bypass); exact mode uses `x` itself.
    struct Quantized {
        exact: std::cell::Cell<bool>,
    }

    impl NonlinearSystem for Quantized {
        fn dimension(&self) -> usize {
            1
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) -> Result<(), NumericsError> {
            let xe = if self.exact.get() {
                x[0]
            } else {
                (x[0] * 1e6).round() / 1e6
            };
            out[0] = xe - 2.0;
            Ok(())
        }
        fn jacobian(&self, _x: &[f64], out: &mut Matrix) -> Result<(), NumericsError> {
            out[(0, 0)] = 1.0;
            Ok(())
        }
        fn set_exact(&self, exact: bool) {
            self.exact.set(exact);
        }
        fn residual_is_approximate(&self) -> bool {
            !self.exact.get()
        }
    }

    #[test]
    fn approximate_systems_are_reverified_exactly_at_acceptance() {
        // The start sits inside the fast path's quantization cell around
        // the root: the *fast* residual is exactly zero there, so a solver
        // without exact re-verification would accept the start unchanged.
        let sys = Quantized {
            exact: std::cell::Cell::new(false),
        };
        let mut ws = NewtonWorkspace::new();
        let mut x = [2.0 + 3.4e-7];
        let info = solve_newton_with(&sys, &mut x, NewtonOptions::default(), &mut ws).unwrap();
        assert_eq!(x[0], 2.0, "accepted solution must solve the exact system");
        assert!(info.iterations > 0, "fast-path zero must not be accepted");
        assert!(!sys.exact.get(), "solver must leave fast mode re-armed");
    }

    /// x^2 + y^2 = r2, x - y = 0: a family of distinct systems of one
    /// dimension, so a workspace can carry a Jacobian from one to the next.
    struct Circle2(f64);

    impl NonlinearSystem for Circle2 {
        fn dimension(&self) -> usize {
            2
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) -> Result<(), NumericsError> {
            out[0] = x[0] * x[0] + x[1] * x[1] - self.0;
            out[1] = x[0] - x[1];
            Ok(())
        }
        fn jacobian(&self, x: &[f64], out: &mut Matrix) -> Result<(), NumericsError> {
            Circle.jacobian(x, out)
        }
    }

    #[test]
    fn reused_workspace_matches_a_fresh_one_bitwise() {
        // Each solve starts where the previous system's solve ended, some
        // already converged there: a Jacobian left in the workspace from
        // the previous system must never stand in for the current one's.
        let opts = NewtonOptions {
            polish: true,
            ..NewtonOptions::default()
        };
        let mut reused = NewtonWorkspace::new();
        let mut x = [1.0, 0.5];
        for r2 in [4.0, 9.0, 9.0, 2.0, 4.0] {
            let start = x;
            let info = solve_newton_with(&Circle2(r2), &mut x, opts, &mut reused).unwrap();
            let mut fresh_x = start;
            let fresh = solve_newton_with(
                &Circle2(r2),
                &mut fresh_x,
                opts,
                &mut NewtonWorkspace::new(),
            )
            .unwrap();
            assert_eq!(x.map(f64::to_bits), fresh_x.map(f64::to_bits), "r2 = {r2}");
            assert_eq!(info, fresh, "r2 = {r2}");
            // A 1-D solve in between re-sizes the same buffers.
            let mut d = [0.8];
            solve_newton_with(&Diode, &mut d, opts, &mut reused).unwrap();
        }
    }

    /// f(x) = x^2 - 4 whose Jacobian fails wherever `broken(x)` holds,
    /// while the residual stays finite everywhere: by an error, or (with
    /// `inf`) by a non-finite value the LU factorization rejects.
    struct BrittleJacobian {
        broken: fn(f64) -> bool,
        inf: bool,
    }

    impl NonlinearSystem for BrittleJacobian {
        fn dimension(&self) -> usize {
            1
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) -> Result<(), NumericsError> {
            out[0] = x[0] * x[0] - 4.0;
            Ok(())
        }
        fn jacobian(&self, x: &[f64], out: &mut Matrix) -> Result<(), NumericsError> {
            if !(self.broken)(x[0]) {
                out[(0, 0)] = 2.0 * x[0];
            } else if self.inf {
                out[(0, 0)] = f64::INFINITY;
            } else {
                return Err(NumericsError::invalid("jacobian blew up"));
            }
            Ok(())
        }
    }

    #[test]
    fn jacobian_failing_at_an_accepted_trial_fails_where_it_is_needed() {
        let polish = NewtonOptions {
            polish: true,
            ..NewtonOptions::default()
        };
        for inf in [false, true] {
            let expected = if inf {
                NumericsError::invalid("LU input contains non-finite entries")
            } else {
                NumericsError::invalid("jacobian blew up")
            };
            // From 1.0 the first full step lands on 2.5, is accepted, and
            // the next step needs the broken Jacobian there.
            let sys = BrittleJacobian {
                broken: |x| x > 2.4,
                inf,
            };
            let err = solve_newton_with(&sys, &mut [1.0], polish, &mut NewtonWorkspace::new());
            assert_eq!(err, Err(expected), "inf = {inf}");

            // Broken only next to the root: the damped phase never needs
            // the Jacobian at its accepted point, and the polish stops
            // there with the damped iterate, counts and norm unchanged.
            let sys = BrittleJacobian {
                broken: |x| (x - 2.0).abs() < 1e-11,
                inf,
            };
            let mut plain_x = [3.0];
            let plain = solve_newton_with(
                &sys,
                &mut plain_x,
                NewtonOptions::default(),
                &mut NewtonWorkspace::new(),
            )
            .unwrap();
            assert!(plain.iterations > 1);
            let mut x = [3.0];
            let info =
                solve_newton_with(&sys, &mut x, polish, &mut NewtonWorkspace::new()).unwrap();
            assert_eq!(x[0].to_bits(), plain_x[0].to_bits(), "inf = {inf}");
            assert_eq!(info, plain, "inf = {inf}");

            // Accepted one step earlier, at a point whose Jacobian works:
            // the polish takes one step into the broken zone and stops
            // there without a walk.
            let loose = NewtonOptions {
                residual_tolerance: 1e-9,
                ..polish
            };
            let mut x = [3.0];
            let info = solve_newton_with(&sys, &mut x, loose, &mut NewtonWorkspace::new()).unwrap();
            assert!((x[0] - 2.0).abs() < 1e-11, "inf = {inf}: {}", x[0]);
            assert_eq!(
                (info.polish_iterations, info.cluster_maps),
                (1, 0),
                "inf = {inf}"
            );
        }
    }

    /// `S` with its fused pass refused, so every solve takes separate
    /// residual and Jacobian passes.
    struct Unfused<S>(S);

    impl<S: NonlinearSystem> NonlinearSystem for Unfused<S> {
        fn dimension(&self) -> usize {
            self.0.dimension()
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) -> Result<(), NumericsError> {
            self.0.residual(x, out)
        }
        fn jacobian(&self, x: &[f64], out: &mut Matrix) -> Result<(), NumericsError> {
            self.0.jacobian(x, out)
        }
        fn residual_and_jacobian(
            &self,
            _x: &[f64],
            _f: &mut [f64],
            _jac: &mut Matrix,
        ) -> Result<(), NumericsError> {
            Err(NumericsError::invalid("fused pass refused"))
        }
    }

    /// f(x) = x^2 + 1: no root, so line searches fail and the damped
    /// phase takes its most-damped fallback steps until the budget ends.
    struct NoRoot;

    impl NonlinearSystem for NoRoot {
        fn dimension(&self) -> usize {
            1
        }
        fn residual(&self, x: &[f64], out: &mut [f64]) -> Result<(), NumericsError> {
            out[0] = x[0] * x[0] + 1.0;
            Ok(())
        }
        fn jacobian(&self, x: &[f64], out: &mut Matrix) -> Result<(), NumericsError> {
            out[(0, 0)] = 2.0 * x[0];
            Ok(())
        }
    }

    #[test]
    fn fused_damped_passes_follow_the_separate_pass_route_bitwise() {
        fn check<S: NonlinearSystem>(sys: S, start: &[f64], opts: NewtonOptions) {
            let mut fused_x = start.to_vec();
            let fused = solve_newton_with(&sys, &mut fused_x, opts, &mut NewtonWorkspace::new());
            let mut split_x = start.to_vec();
            let split = solve_newton_with(
                &Unfused(sys),
                &mut split_x,
                opts,
                &mut NewtonWorkspace::new(),
            );
            assert_eq!(fused, split, "from {start:?}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&fused_x), bits(&split_x), "from {start:?}");
        }
        let opts = NewtonOptions::default();
        for start in [[1.0, 0.5], [3.0, 2.5], [0.7, 1.9], [-2.0, 0.1]] {
            check(Circle, &start, opts);
        }
        let tight = NewtonOptions {
            residual_tolerance: 1e-15,
            ..opts
        };
        for start in [0.3, 0.8, 1.2] {
            check(Diode, &[start], tight);
        }
        let err = solve_newton(&NoRoot, &[0.5], opts).unwrap_err();
        assert!(
            matches!(err, NumericsError::NoConvergence { .. }),
            "{err:?}"
        );
        check(NoRoot, &[0.5], opts);
        check(NoRoot, &[1e-8], opts);
    }

    #[test]
    fn cluster_walk_reports_its_map_applications() {
        let opts = NewtonOptions {
            polish: true,
            ..NewtonOptions::default()
        };
        let mut x = [1.0, 0.5];
        let info = solve_newton_with(&Circle, &mut x, opts, &mut NewtonWorkspace::new()).unwrap();
        // Two unknowns give four ±1-ulp probes around the first member.
        assert!(info.cluster_maps >= 4, "{info:?}");
        let unpolished = solve_newton(&Circle, &[1.0, 0.5], NewtonOptions::default()).unwrap();
        assert_eq!(unpolished.iterations, info.iterations);
    }

    #[test]
    fn ulp_neighbour_steps_exactly_one_bit() {
        assert_eq!(ulp_neighbour(1.0, true).to_bits(), 1.0_f64.to_bits() + 1);
        assert_eq!(ulp_neighbour(1.0, false).to_bits(), 1.0_f64.to_bits() - 1);
        assert!(ulp_neighbour(-1.0, true) > -1.0);
        assert!(ulp_neighbour(-1.0, false) < -1.0);
        assert!(ulp_neighbour(0.0, true) > 0.0);
        assert!(ulp_neighbour(0.0, false) < 0.0);
        assert!(ulp_neighbour(f64::INFINITY, true).is_infinite());
        // Round-trips: one up then one down is the identity away from zero.
        let v = 5.057_943_526_299_022e-1;
        assert_eq!(
            ulp_neighbour(ulp_neighbour(v, true), false).to_bits(),
            v.to_bits()
        );
    }

    #[test]
    fn within_ulps_measures_representable_distance() {
        let v = 5.057_943_526_299_022e-1;
        let up2 = ulp_neighbour(ulp_neighbour(v, true), true);
        assert!(within_ulps(&[v], &[v], 0));
        assert!(within_ulps(&[v], &[up2], 2));
        assert!(!within_ulps(&[v], &[up2], 1));
        // The distance bridges the sign change: -0.0 and +0.0 are adjacent.
        assert!(within_ulps(&[-0.0], &[0.0], 1));
        assert!(within_ulps(&[f64::from_bits(1)], &[-f64::from_bits(1)], 3));
        // Bitwise-identical components count as distance zero, even NaN;
        // otherwise non-finite components never count as close, and any
        // far component fails the whole vector.
        assert!(within_ulps(&[v, f64::NAN], &[v, f64::NAN], 0));
        assert!(!within_ulps(&[f64::NAN], &[v], 4));
        assert!(!within_ulps(&[v, 1.0], &[v, 2.0], 4));
    }

    #[test]
    fn lex_less_is_a_strict_total_order_on_bits() {
        assert!(lex_less(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!lex_less(&[1.0, 3.0], &[1.0, 2.0]));
        assert!(!lex_less(&[1.0, 2.0], &[1.0, 2.0]));
        // -0.0 and 0.0 differ under total_cmp: the order is still strict.
        assert!(lex_less(&[-0.0], &[0.0]));
    }
}
