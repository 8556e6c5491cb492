//! Batched multi-RHS solves: one matrix stream serving many right-hand
//! sides.
//!
//! [`solve_batch`] accepts `k` right-hand sides against one operator and
//! preconditioner. For standard PCG under [`Engine::Serial`] (with the
//! resilient driver off) it runs a genuinely *blocked* iteration: the `k`
//! conjugate-gradient recurrences advance in lockstep, and every `A·p`
//! becomes a single sparse matrix–multivector product
//! ([`ParKernels::spmm`] / [`ParKernels::spmm_sell`]) that streams the
//! matrix once per iteration instead of once per right-hand side. On a
//! memory-bound SpMV that amortization is where the batch throughput
//! comes from.
//!
//! **Bitwise guarantee.** The blocked iteration keeps every column's
//! arithmetic exactly the scalar PCG arithmetic: the multivector product
//! accumulates each column in CSR row order (bitwise equal to the
//! column's own SpMV — see the kernel tests in `spcg_sparse`), and all
//! dots, AXPYs, preconditioner applications, and stopping checks run
//! per column on that column's own data. Column `j` of a batch therefore
//! produces the **bitwise identical** `x`, history, and [`Counters`] that
//! `solve(Method::Pcg, …)` produces for that right-hand side alone — for
//! any batch width, either sparse format, and any thread count. The
//! per-column parity tests below pin this down.
//!
//! **Frozen columns.** Right-hand sides converge (or break down) at
//! different iterations. A finished column is *frozen*: its result is
//! emitted immediately and the remaining active columns are compacted
//! into narrower multivectors, so late iterations never spend bandwidth
//! on converged columns. Freezing other columns cannot perturb a
//! survivor — columns never mix arithmetically.
//!
//! **Deadlines.** A [`BatchRequest`] may carry a wall-clock deadline.
//! Deadlines are checked once per blocked iteration (and before starting
//! each sequential fallback solve); an expired request freezes with
//! [`Outcome::DeadlineExpired`] and the best iterate so far. Deadline
//! expiry is the one timing-dependent outcome in this crate — everything
//! else about the batch, including every other column of the same batch,
//! remains deterministic.
//!
//! Every other method/engine combination (the s-step methods, ranked
//! execution, resilient solves) falls back to per-request [`solve`]
//! calls — trivially identical to the unbatched path, so the service
//! layer can offer one entry point for the whole method zoo while the
//! blocked kernel covers the latency-critical PCG case.

use crate::engine::Engine;
use crate::method::{solve, Method};
use crate::options::{Outcome, Problem, SolveOptions, SolveResult, StoppingCriterion};
use crate::stopping::{StopState, Verdict};
use spcg_dist::Counters;
use spcg_obs::{Phase, Track};
use spcg_precond::{DistForm, Preconditioner};
use spcg_sparse::{CsrMatrix, MatRef, MultiVector, ParKernels, SellMatrix, SparseFormat};
use std::sync::Arc;
use std::time::Instant;

/// One right-hand side of a batched solve.
#[derive(Debug, Clone, Copy)]
pub struct BatchRequest<'a> {
    /// Right-hand side; length must equal the operator dimension.
    pub b: &'a [f64],
    /// Optional wall-clock deadline. `None` never expires.
    pub deadline: Option<Instant>,
}

impl<'a> BatchRequest<'a> {
    /// A request with no deadline.
    pub fn new(b: &'a [f64]) -> Self {
        BatchRequest { b, deadline: None }
    }

    /// A request that gives up (with [`Outcome::DeadlineExpired`]) once
    /// `deadline` passes.
    pub fn with_deadline(b: &'a [f64], deadline: Instant) -> Self {
        BatchRequest {
            b,
            deadline: Some(deadline),
        }
    }
}

/// Solves `A x_j = b_j` for every request, returning one [`SolveResult`]
/// per request in order.
///
/// `Method::Pcg` + [`Engine::Serial`] + `opts.resilience == None` takes
/// the blocked multi-RHS path (module docs); everything else runs the
/// requests sequentially through [`solve`]. Both paths give each request
/// the bitwise identical result of its own standalone `solve` call.
pub fn solve_batch(
    method: &Method,
    a: &CsrMatrix,
    m: &dyn Preconditioner,
    requests: &[BatchRequest<'_>],
    opts: &SolveOptions,
    engine: Engine,
) -> Vec<SolveResult> {
    if requests.is_empty() {
        return Vec::new();
    }
    let blocked = engine == Engine::Serial && *method == Method::Pcg && opts.resilience.is_none();
    if !blocked {
        return requests
            .iter()
            .map(|req| {
                if req.deadline.is_some_and(|d| Instant::now() >= d) {
                    expired_result(a.nrows())
                } else {
                    solve(method, &Problem::new(a, m, req.b), opts, engine)
                }
            })
            .collect();
    }
    pcg_block(a, m, requests, opts)
}

/// Result for a request whose deadline passed before its solve started.
fn expired_result(n: usize) -> SolveResult {
    SolveResult::new(
        vec![0.0; n],
        Outcome::DeadlineExpired,
        0,
        Vec::new(),
        Counters::new(),
    )
}

/// Per-column solver state carried alongside the multivector blocks.
struct ColState {
    /// Index into the original request slice (columns compact; requests
    /// don't).
    req: usize,
    stop: StopState,
    counters: Counters,
    /// Current `rᵀu` of this column's recurrence.
    rtu: f64,
}

/// Shared immutable context of one blocked solve.
struct Blk<'a> {
    a: &'a CsrMatrix,
    sell: Option<Arc<SellMatrix>>,
    pk: ParKernels,
    tr: Option<Track>,
    spmv_flops: u64,
    nw: u64,
}

impl Blk<'_> {
    /// The system matrix in the format this solve's kernels run on.
    fn op(&self) -> MatRef<'_> {
        MatRef::of(self.a, self.sell.as_deref())
    }

    /// Single-column `y ← A x` (breakdown-path criterion only).
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        let _s = spcg_obs::span(self.tr.as_ref(), Phase::Spmv);
        self.pk.spmv_on(self.op(), x, y);
    }

    /// `u ← M⁻¹ r` for one column, on this solve's operator.
    fn precond(&self, m: &dyn Preconditioner, r: &[f64], u: &mut [f64]) {
        let _s = spcg_obs::span(self.tr.as_ref(), Phase::Precond);
        m.apply_par_on(&self.pk, self.op(), r, u);
    }

    /// `S ← A P` plus per-column `pᵀ·(A·p)`. On the serial CSR path the
    /// Gram fold runs block-fused inside the product
    /// ([`CsrMatrix::spmm_dot`], replicating `blas::dot`'s reduction
    /// shape); otherwise the product is followed by per-column
    /// [`ParKernels::dot`] calls. Identical bits either way.
    fn spmm_dot(&self, x: &MultiVector, y: &mut MultiVector) -> Vec<f64> {
        {
            let _s = spcg_obs::span(self.tr.as_ref(), Phase::Spmm);
            if self.sell.is_none() && self.pk.threads() == 1 {
                return self.a.spmm_dot(x, y);
            }
            self.pk.spmm_on(self.op(), x, y);
        }
        let _g = spcg_obs::span(self.tr.as_ref(), Phase::Gram);
        (0..x.k())
            .map(|j| self.pk.dot(x.col(j), y.col(j)))
            .collect()
    }

    /// Per-column `Σ (b − (AX))²`. On the serial CSR path the diff runs
    /// block-fused inside the product with no stored `A·X` at all
    /// ([`CsrMatrix::spmm_residual_sq`]); otherwise the product lands in
    /// the `y` scratch and the diff is a separate pass. Identical
    /// accumulation chain — and so identical bits — either way.
    fn residual_sq(&self, x: &MultiVector, bs: &[&[f64]], y: &mut MultiVector) -> Vec<f64> {
        let _s = spcg_obs::span(self.tr.as_ref(), Phase::Spmm);
        if self.sell.is_none() && self.pk.threads() == 1 {
            return self.a.spmm_residual_sq(x, bs);
        }
        self.pk.spmm_on(self.op(), x, y);
        let ld = self.a.nrows();
        bs.iter()
            .enumerate()
            .map(|(j, b)| {
                let ax = y.col(j);
                let mut acc = 0.0;
                for i in 0..ld {
                    let d = b[i] - ax[i];
                    acc += d * d;
                }
                acc
            })
            .collect()
    }
}

/// Criterion values for every active column, charging each column's
/// counters exactly as the scalar `StopState::criterion_value` does. The true
/// residual's `A·x` is batched through the multivector kernel — per
/// column bitwise equal to the scalar SpMV — and lands in `scr`, which
/// the caller aliases to the (dead at this point) `A·p` block so the
/// batch keeps one fewer `n×k` buffer resident.
fn crit_all(
    blk: &Blk<'_>,
    criterion: StoppingCriterion,
    requests: &[BatchRequest<'_>],
    cols: &mut [ColState],
    xm: &MultiVector,
    rm: &MultiVector,
    scr: &mut MultiVector,
) -> Vec<f64> {
    match criterion {
        StoppingCriterion::TrueResidual2Norm => {
            let bs: Vec<&[f64]> = cols.iter().map(|col| requests[col.req].b).collect();
            let accs = blk.residual_sq(xm, &bs, scr);
            cols.iter_mut()
                .zip(accs)
                .map(|(col, acc)| {
                    col.counters.record_spmv(blk.spmv_flops);
                    col.counters.record_dots(1, blk.nw);
                    col.counters.blas1_flops += blk.nw;
                    col.counters.piggyback_words(1);
                    acc.sqrt()
                })
                .collect()
        }
        StoppingCriterion::RecursiveResidual2Norm => cols
            .iter_mut()
            .enumerate()
            .map(|(c, col)| {
                col.counters.record_dots(1, blk.nw);
                col.counters.piggyback_words(1);
                let _g = spcg_obs::span(blk.tr.as_ref(), Phase::Gram);
                blk.pk.dot(rm.col(c), rm.col(c)).sqrt()
            })
            .collect(),
        StoppingCriterion::PrecondMNorm => cols.iter().map(|col| col.rtu.max(0.0).sqrt()).collect(),
    }
}

/// Criterion value for one column, used on the breakdown path where a
/// single column needs a value mid-iteration.
#[allow(clippy::too_many_arguments)]
fn crit_one(
    blk: &Blk<'_>,
    criterion: StoppingCriterion,
    b: &[f64],
    x: &[f64],
    r: &[f64],
    rtu: f64,
    scratch: &mut Vec<f64>,
    counters: &mut Counters,
) -> f64 {
    match criterion {
        StoppingCriterion::TrueResidual2Norm => {
            scratch.resize(b.len(), 0.0);
            blk.spmv(x, scratch);
            counters.record_spmv(blk.spmv_flops);
            let mut acc = 0.0;
            for i in 0..b.len() {
                let d = b[i] - scratch[i];
                acc += d * d;
            }
            counters.record_dots(1, blk.nw);
            counters.blas1_flops += blk.nw;
            counters.piggyback_words(1);
            acc.sqrt()
        }
        StoppingCriterion::RecursiveResidual2Norm => {
            counters.record_dots(1, blk.nw);
            counters.piggyback_words(1);
            let _g = spcg_obs::span(blk.tr.as_ref(), Phase::Gram);
            blk.pk.dot(r, r).sqrt()
        }
        StoppingCriterion::PrecondMNorm => rtu.max(0.0).sqrt(),
    }
}

/// Emits results for every column with a `Some` outcome in `freeze` and
/// compacts the carried multivectors down to the survivors. `s` is
/// recomputed every iteration, so it is simply reallocated at the new
/// width.
#[allow(clippy::too_many_arguments)]
fn compact(
    cols: &mut Vec<ColState>,
    freeze: Vec<Option<Outcome>>,
    iterations: usize,
    out: &mut [Option<SolveResult>],
    n: usize,
    xm: &mut MultiVector,
    rm: &mut MultiVector,
    pm: &mut MultiVector,
    sm: &mut MultiVector,
) {
    if freeze.iter().all(|f| f.is_none()) {
        return;
    }
    let keep: Vec<usize> = (0..cols.len()).filter(|&c| freeze[c].is_none()).collect();
    let old = std::mem::take(cols);
    for (c, (col, frozen)) in old.into_iter().zip(freeze).enumerate() {
        match frozen {
            Some(outcome) => {
                out[col.req] = Some(SolveResult::new(
                    xm.col(c).to_vec(),
                    outcome,
                    iterations,
                    col.stop.history,
                    col.counters,
                ));
            }
            None => cols.push(col),
        }
    }
    for mv in [xm, rm, pm] {
        *mv = retain_columns(mv, &keep);
    }
    *sm = MultiVector::zeros(n, keep.len());
}

/// A new multivector holding the listed columns of `mv`, in order.
fn retain_columns(mv: &MultiVector, keep: &[usize]) -> MultiVector {
    let cols: Vec<Vec<f64>> = keep.iter().map(|&c| mv.col(c).to_vec()).collect();
    if cols.is_empty() {
        MultiVector::zeros(mv.n(), 0)
    } else {
        MultiVector::from_columns(&cols)
    }
}

/// The blocked multi-RHS PCG. Per column this is `pcg_g` verbatim —
/// same arithmetic, same counter charges, same stopping sequence — with
/// the `k` SpMVs of each iteration fused into one multivector product.
fn pcg_block(
    a: &CsrMatrix,
    m: &dyn Preconditioner,
    requests: &[BatchRequest<'_>],
    opts: &SolveOptions,
) -> Vec<SolveResult> {
    let n = a.nrows();
    let k0 = requests.len();
    for req in requests {
        // Same dimension validation (and panic message) as a plain solve.
        let _ = Problem::new(a, m, req.b);
    }
    let blk = Blk {
        a,
        sell: match opts.format {
            SparseFormat::Csr => None,
            SparseFormat::Sell => Some(a.sell()),
        },
        pk: ParKernels::new(opts.threads),
        tr: opts.trace.as_ref().map(|t| t.track(0)),
        spmv_flops: a.spmv_flops(),
        nw: n as u64,
    };
    let m_flops = m.flops_per_apply();
    // Pointwise preconditioners (Jacobi, identity) expose their weight
    // vector, unlocking the fused column step: both AXPYs, the apply, and
    // the r·u dot in one cache-hot sweep. The fused kernel reproduces the
    // unfused expressions and reduction shape exactly, so taking this
    // path never changes a bit — only the number of DRAM round trips.
    let pointwise = match m.dist_form() {
        DistForm::Pointwise(w) => Some(w),
        _ => None,
    };
    let any_deadline = requests.iter().any(|r| r.deadline.is_some());

    let mut out: Vec<Option<SolveResult>> = (0..k0).map(|_| None).collect();
    let mut cols: Vec<ColState> = Vec::with_capacity(k0);

    // x0 = 0, r0 = b, u0 = M⁻¹ r0, p0 = u0.
    //
    // `u = M⁻¹r` never carries across iterations — each column's u is
    // consumed by its dot and xpby in the same step — so one shared
    // column buffer replaces an `n×k` block. Together with `sm` doubling
    // as the criterion's `A·X` scratch below, the batch keeps four `n×k`
    // multivectors resident instead of six — the margin that keeps a wide
    // batch inside the last-level cache.
    let mut xm = MultiVector::zeros(n, k0);
    let b_cols: Vec<Vec<f64>> = requests.iter().map(|r| r.b.to_vec()).collect();
    let mut rm = MultiVector::from_columns(&b_cols);
    let mut u = vec![0.0; n];
    let mut pm = MultiVector::zeros(n, k0);
    let mut sm = MultiVector::zeros(n, k0);
    for c in 0..k0 {
        let mut counters = Counters::new();
        blk.precond(m, rm.col(c), &mut u);
        counters.record_precond(m_flops);
        pm.col_mut(c).copy_from_slice(&u);
        let rtu = {
            let _g = spcg_obs::span(blk.tr.as_ref(), Phase::Gram);
            blk.pk.dot(rm.col(c), &u)
        };
        counters.record_dots(1, blk.nw);
        counters.record_collective(1);
        cols.push(ColState {
            req: c,
            stop: StopState::new(opts),
            counters,
            rtu,
        });
    }

    let mut scratch = Vec::new();
    let mut it = 0usize;

    // Initial convergence check (a zero right-hand side converges here).
    let v0 = crit_all(&blk, opts.criterion, requests, &mut cols, &xm, &rm, &mut sm);
    let freeze: Vec<Option<Outcome>> = cols
        .iter_mut()
        .zip(&v0)
        .map(|(col, &v)| match col.stop.check(0, v) {
            Verdict::Continue => None,
            verdict => Some(StopState::outcome(verdict)),
        })
        .collect();
    compact(
        &mut cols, freeze, 0, &mut out, n, &mut xm, &mut rm, &mut pm, &mut sm,
    );

    while !cols.is_empty() && it < opts.max_iters {
        // Deadlines are noticed at iteration boundaries only: the one
        // timing-dependent freeze, and it can only end a column early —
        // never change surviving columns' arithmetic.
        if any_deadline {
            let now = Instant::now();
            let freeze: Vec<Option<Outcome>> = cols
                .iter()
                .map(|col| {
                    requests[col.req]
                        .deadline
                        .is_some_and(|d| now >= d)
                        .then_some(Outcome::DeadlineExpired)
                })
                .collect();
            compact(
                &mut cols, freeze, it, &mut out, n, &mut xm, &mut rm, &mut pm, &mut sm,
            );
            if cols.is_empty() {
                break;
            }
        }

        // S = A P: the batch's one matrix stream this iteration, with the
        // pᵀAp Gram fold fused into it (each column's dot comes out in
        // `blas::dot`'s exact reduction shape, so fusing changes traffic,
        // not bits).
        let pts_all = blk.spmm_dot(&pm, &mut sm);
        for col in &mut cols {
            col.counters.record_spmv(blk.spmv_flops);
        }

        // Scalar and vector work, column by column (pcg_g verbatim).
        let mut freeze: Vec<Option<Outcome>> = (0..cols.len()).map(|_| None).collect();
        for (c, col) in cols.iter_mut().enumerate() {
            let pts = pts_all[c];
            col.counters.record_dots(1, blk.nw);
            col.counters.record_collective(1);
            if !(pts > 0.0) || !pts.is_finite() {
                let v = crit_one(
                    &blk,
                    opts.criterion,
                    requests[col.req].b,
                    xm.col(c),
                    rm.col(c),
                    col.rtu,
                    &mut scratch,
                    &mut col.counters,
                );
                let outcome = col.stop.resolve_breakdown(
                    it,
                    v,
                    format!("non-positive curvature pᵀAp = {pts}"),
                );
                freeze[c] = Some(outcome);
                continue;
            }
            let alpha = col.rtu / pts;
            let rtu_new = if let Some(w) = pointwise {
                let _v = spcg_obs::span(blk.tr.as_ref(), Phase::VecUpdate);
                blk.pk.pcg_step_fused(
                    alpha,
                    pm.col(c),
                    sm.col(c),
                    w,
                    xm.col_mut(c),
                    rm.col_mut(c),
                    &mut u,
                )
            } else {
                {
                    let _v = spcg_obs::span(blk.tr.as_ref(), Phase::VecUpdate);
                    blk.pk.axpy(alpha, pm.col(c), xm.col_mut(c));
                    blk.pk.axpy(-alpha, sm.col(c), rm.col_mut(c));
                }
                blk.precond(m, rm.col(c), &mut u);
                let _g = spcg_obs::span(blk.tr.as_ref(), Phase::Gram);
                blk.pk.dot(rm.col(c), &u)
            };
            col.counters.blas1_flops += 4 * blk.nw;
            col.counters.record_precond(m_flops);
            col.counters.record_dots(1, blk.nw);
            col.counters.record_collective(1);
            if !rtu_new.is_finite() {
                freeze[c] = Some(Outcome::Diverged);
                continue;
            }
            let beta = rtu_new / col.rtu;
            col.rtu = rtu_new;
            {
                let _v = spcg_obs::span(blk.tr.as_ref(), Phase::VecUpdate);
                blk.pk.xpby(&u, beta, pm.col_mut(c));
            }
            col.counters.blas1_flops += 2 * blk.nw;
            col.counters.iterations += 1;
            col.counters.outer_iterations += 1;
        }
        // Mid-iteration freezes report the pre-increment iteration count,
        // exactly like the scalar solver's early returns.
        compact(
            &mut cols, freeze, it, &mut out, n, &mut xm, &mut rm, &mut pm, &mut sm,
        );
        it += 1;
        if cols.is_empty() {
            break;
        }

        let vs = crit_all(&blk, opts.criterion, requests, &mut cols, &xm, &rm, &mut sm);
        let freeze: Vec<Option<Outcome>> = cols
            .iter_mut()
            .zip(&vs)
            .map(|(col, &v)| match col.stop.check(it, v) {
                Verdict::Continue => None,
                verdict => Some(StopState::outcome(verdict)),
            })
            .collect();
        compact(
            &mut cols, freeze, it, &mut out, n, &mut xm, &mut rm, &mut pm, &mut sm,
        );
    }

    // Anything still live hit the iteration cap.
    let freeze: Vec<Option<Outcome>> = cols.iter().map(|_| Some(Outcome::MaxIterations)).collect();
    compact(
        &mut cols, freeze, it, &mut out, n, &mut xm, &mut rm, &mut pm, &mut sm,
    );

    out.into_iter()
        .map(|r| r.expect("solve_batch: every request resolves"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::StoppingCriterion;
    use spcg_basis::BasisType;
    use spcg_precond::{Identity, Jacobi};
    use spcg_sparse::generators::paper_rhs;
    use spcg_sparse::generators::poisson::{poisson_1d, poisson_2d};

    fn rhs_family(a: &CsrMatrix, k: usize) -> Vec<Vec<f64>> {
        let base = paper_rhs(a);
        (0..k)
            .map(|j| {
                base.iter()
                    .enumerate()
                    .map(|(i, &v)| v * (1.0 + j as f64) + ((i + j) % 5) as f64 * 0.01)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn k1_blocked_path_is_bitwise_identical_to_solve() {
        let a = poisson_2d(12);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        for criterion in [
            StoppingCriterion::TrueResidual2Norm,
            StoppingCriterion::RecursiveResidual2Norm,
            StoppingCriterion::PrecondMNorm,
        ] {
            for format in [SparseFormat::Csr, SparseFormat::Sell] {
                let opts = SolveOptions::from_env()
                    .with_criterion(criterion)
                    .with_format(format)
                    .with_history();
                let plain = solve(
                    &Method::Pcg,
                    &Problem::new(&a, &m, &b),
                    &opts,
                    Engine::Serial,
                );
                let batch = solve_batch(
                    &Method::Pcg,
                    &a,
                    &m,
                    &[BatchRequest::new(&b)],
                    &opts,
                    Engine::Serial,
                );
                assert_eq!(batch.len(), 1);
                let res = &batch[0];
                assert_eq!(res.x, plain.x, "{criterion:?}/{format:?} x");
                assert_eq!(res.outcome, plain.outcome, "{criterion:?}/{format:?}");
                assert_eq!(res.iterations, plain.iterations, "{criterion:?}/{format:?}");
                assert_eq!(
                    res.history, plain.history,
                    "{criterion:?}/{format:?} history"
                );
                assert_eq!(
                    res.counters, plain.counters,
                    "{criterion:?}/{format:?} counters"
                );
            }
        }
    }

    #[test]
    fn every_column_of_a_batch_matches_its_standalone_solve_bitwise() {
        // Columns converge at different iterations, so this exercises the
        // frozen-column compaction: survivors must be unperturbed.
        let a = poisson_2d(10);
        let m = Jacobi::new(&a);
        let bs = rhs_family(&a, 4);
        for format in [SparseFormat::Csr, SparseFormat::Sell] {
            let opts = SolveOptions::from_env().with_format(format).with_history();
            let reqs: Vec<BatchRequest<'_>> = bs.iter().map(|b| BatchRequest::new(b)).collect();
            let batch = solve_batch(&Method::Pcg, &a, &m, &reqs, &opts, Engine::Serial);
            for (j, b) in bs.iter().enumerate() {
                let plain = solve(
                    &Method::Pcg,
                    &Problem::new(&a, &m, b),
                    &opts,
                    Engine::Serial,
                );
                assert_eq!(batch[j].x, plain.x, "col {j} x ({format:?})");
                assert_eq!(batch[j].outcome, plain.outcome, "col {j} ({format:?})");
                assert_eq!(
                    batch[j].iterations, plain.iterations,
                    "col {j} ({format:?})"
                );
                assert_eq!(batch[j].history, plain.history, "col {j} ({format:?})");
                assert_eq!(batch[j].counters, plain.counters, "col {j} ({format:?})");
            }
        }
    }

    #[test]
    fn fallback_methods_match_solve_bitwise() {
        let a = poisson_1d(40);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let opts = SolveOptions::from_env().with_history();
        for method in [
            Method::Pcg3,
            Method::SPcg {
                s: 4,
                basis: BasisType::Monomial,
            },
            Method::SPcgMon { s: 3 },
        ] {
            let plain = solve(&method, &Problem::new(&a, &m, &b), &opts, Engine::Serial);
            let batch = solve_batch(
                &method,
                &a,
                &m,
                &[BatchRequest::new(&b)],
                &opts,
                Engine::Serial,
            );
            assert_eq!(batch[0].x, plain.x, "{method:?}");
            assert_eq!(batch[0].counters, plain.counters, "{method:?}");
        }
    }

    #[test]
    fn expired_deadline_freezes_with_deadline_expired() {
        let a = poisson_2d(16);
        let m = Identity::new(a.nrows());
        let b = paper_rhs(&a);
        let past = Instant::now();
        // Blocked path: deadline noticed at the first iteration boundary.
        let batch = solve_batch(
            &Method::Pcg,
            &a,
            &m,
            &[BatchRequest::with_deadline(&b, past)],
            &SolveOptions::from_env(),
            Engine::Serial,
        );
        assert_eq!(batch[0].outcome, Outcome::DeadlineExpired);
        assert_eq!(batch[0].iterations, 0);
        // Fallback path: checked before the solve starts.
        let batch = solve_batch(
            &Method::SPcgMon { s: 2 },
            &a,
            &m,
            &[BatchRequest::with_deadline(&b, past)],
            &SolveOptions::from_env(),
            Engine::Serial,
        );
        assert_eq!(batch[0].outcome, Outcome::DeadlineExpired);
        // A deadline-free column in the same batch still solves.
        let batch = solve_batch(
            &Method::Pcg,
            &a,
            &m,
            &[BatchRequest::with_deadline(&b, past), BatchRequest::new(&b)],
            &SolveOptions::from_env(),
            Engine::Serial,
        );
        assert_eq!(batch[0].outcome, Outcome::DeadlineExpired);
        assert!(batch[1].converged(), "{:?}", batch[1].outcome);
    }

    #[test]
    fn wide_batches_converge_to_tolerance() {
        let a = poisson_2d(12);
        let m = Jacobi::new(&a);
        let bs = rhs_family(&a, 8);
        let opts = SolveOptions::from_env().with_tol(1e-9);
        let reqs: Vec<BatchRequest<'_>> = bs.iter().map(|b| BatchRequest::new(b)).collect();
        let batch = solve_batch(&Method::Pcg, &a, &m, &reqs, &opts, Engine::Serial);
        for (j, (res, b)) in batch.iter().zip(&bs).enumerate() {
            assert!(res.converged(), "col {j}: {:?}", res.outcome);
            assert!(
                res.true_relative_residual(&a, b) < 1e-7,
                "col {j}: {}",
                res.true_relative_residual(&a, b)
            );
        }
    }

    #[test]
    fn empty_batch_returns_empty() {
        let a = poisson_1d(8);
        let m = Identity::new(8);
        let out = solve_batch(
            &Method::Pcg,
            &a,
            &m,
            &[],
            &SolveOptions::from_env(),
            Engine::Serial,
        );
        assert!(out.is_empty());
    }
}
