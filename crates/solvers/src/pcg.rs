//! Preconditioned conjugate gradients (paper Algorithm 1), at any width.
//!
//! The baseline every s-step method is compared against. Per iteration and
//! right-hand side: one SpMV, one preconditioner application, two dot
//! products — and two global reductions, which is what stops PCG from
//! scaling beyond ~32 nodes in the paper's Figure 1. A 2-norm criterion's
//! word rides the `rᵀu` reduction.
//!
//! `pcg_g` is the only Algorithm-1 loop in the crate: `k` independent
//! recurrences in lockstep over any `Exec`. **Shared** per iteration is the
//! one product `S = A·P` (`Exec::spmm`, one matrix stream for all columns);
//! **per column**, on that column's own data, are the dots and reductions,
//! the updates, the preconditioner application, the [`Counters`] and the
//! stopping state. Columns never mix arithmetically and every kernel is
//! bitwise equal per column to its single-vector form, so a column's `x`,
//! history and counters do not depend on the width it ran at. Width 1
//! leaves nothing over — a one-column `Exec::spmm` *is* `Exec::spmv` — and
//! is what `Method::Pcg` runs on every engine (`engine::dispatch`); wider
//! calls come from [`crate::solve_batch`].
//!
//! A column that converges, breaks down or passes its deadline is *frozen*:
//! its result is emitted and the survivors are compacted into narrower
//! multivectors, so late iterations spend no bandwidth on finished columns.

use crate::batch::BatchRequest;
use crate::engine::{allreduce_gram, Exec};
use crate::options::{Outcome, SolveOptions, SolveResult, StoppingCriterion};
use crate::stopping::{column_partial, StopState};
use spcg_dist::Counters;
use spcg_obs::{Phase, Track};
use spcg_sparse::MultiVector;
use std::time::Instant;

/// The live columns of one [`pcg_g`] call: per-column state in parallel
/// vectors beside the `n × k` blocks.
struct Block<'a> {
    /// Index into the request slice (columns compact; requests don't).
    req: Vec<usize>,
    b: Vec<&'a [f64]>,
    stop: Vec<StopState>,
    counters: Vec<Counters>,
    /// Current `rᵀu` of each recurrence and the criterion partial that rode
    /// its reduction.
    rtu: Vec<(f64, Option<f64>)>,
    /// Local `rᵀu` partial of the step in flight.
    ru: Vec<f64>,
    x: MultiVector,
    r: MultiVector,
    p: MultiVector,
    /// `A·P`; once the step has read it, the criterion's `A·X` scratch.
    s: MultiVector,
    /// `M⁻¹R` of the step in flight: one column shared by all unless the
    /// reductions wait for every step ([`pcg_g`]).
    u: MultiVector,
    criterion: StoppingCriterion,
    tr: Option<Track>,
}

impl Block<'_> {
    /// Emits the result of every column with a `Some` outcome and compacts
    /// the rest; `s`, dead at every freeze, is simply reallocated.
    fn freeze(
        &mut self,
        frozen: Vec<Option<Outcome>>,
        iterations: usize,
        out: &mut [Option<SolveResult>],
    ) {
        if frozen.iter().all(Option::is_none) {
            return;
        }
        let live: Vec<bool> = frozen.iter().map(Option::is_none).collect();
        for (c, outcome) in frozen.into_iter().enumerate() {
            if let Some(outcome) = outcome {
                out[self.req[c]] = Some(SolveResult::new(
                    self.x.col(c).to_vec(),
                    outcome,
                    iterations,
                    std::mem::take(&mut self.stop[c].history),
                    std::mem::take(&mut self.counters[c]),
                ));
            }
        }
        retain(&mut self.req, &live);
        retain(&mut self.b, &live);
        retain(&mut self.stop, &live);
        retain(&mut self.counters, &live);
        retain(&mut self.rtu, &live);
        retain(&mut self.ru, &live);
        for mv in [&mut self.x, &mut self.r, &mut self.p, &mut self.u] {
            if mv.k() != live.len() {
                continue; // a shared `u`: nothing to compact
            }
            let mut kept = MultiVector::zeros(mv.n(), self.req.len());
            for (j, c) in (0..live.len()).filter(|&c| live[c]).enumerate() {
                kept.col_mut(j).copy_from_slice(mv.col(c));
            }
            *mv = kept;
        }
        self.s = MultiVector::zeros(self.x.n(), self.req.len());
    }

    /// Column `c`'s `rᵀu`, the criterion partial of its iterate riding it
    /// (the true residual's reads `A·X` from `s`).
    fn reduce<E: Exec>(&mut self, exec: &mut E, c: usize) -> (f64, Option<f64>) {
        let (b, ax, r) = (self.b[c], self.s.col(c), self.r.col(c));
        let ctr = &mut self.counters[c];
        let partial = column_partial(self.criterion, exec, b, ax, r, ctr);
        let _g = spcg_obs::span(self.tr.as_ref(), Phase::Gram);
        ctr.record_dots(1, exec.n_global());
        let mut red = [self.ru[c]];
        let crit = allreduce_gram(exec, &mut [], &mut red, partial, ctr);
        (red[0], crit)
    }

    /// Ends column `c`'s iteration: its reduction, then `p = u + βp`;
    /// `Some(Diverged)` on a non-finite `rᵀu`.
    fn finish<E: Exec>(&mut self, exec: &mut E, c: usize) -> Option<Outcome> {
        let (rtu_new, crit) = self.reduce(exec, c);
        if !rtu_new.is_finite() {
            return Some(Outcome::Diverged);
        }
        let rtu = std::mem::replace(&mut self.rtu[c], (rtu_new, crit)).0;
        let ctr = &mut self.counters[c];
        ctr.blas1_flops += 2 * exec.n_global();
        ctr.iterations += 1;
        ctr.outer_iterations += 1;
        let _v = spcg_obs::span(self.tr.as_ref(), Phase::VecUpdate);
        let u = self.u.col(if self.u.k() == 1 { 0 } else { c });
        exec.kernels().xpby(u, rtu_new / rtu, self.p.col_mut(c));
        None
    }
}

/// Keeps the elements of `v` whose flag in `live` is set.
fn retain<T>(v: &mut Vec<T>, live: &[bool]) {
    let mut flags = live.iter();
    v.retain(|_| *flags.next().expect("one flag per column"));
}

/// PCG on `requests.len()` right-hand sides (local blocks, length
/// [`Exec::nl`]) over any execution substrate; one result per request, in
/// order. Deadlines are read from this rank's clock once per iteration, so
/// only serial callers may set them — ranks must branch alike.
///
/// A column's `rᵀu` reduction carries its criterion partial. The true
/// residual's needs `A·X`, one product over every column's new `x`, so its
/// reductions wait for every step; otherwise a column finishes its
/// iteration while its vectors are hot.
pub(crate) fn pcg_g<E: Exec>(
    exec: &mut E,
    requests: &[BatchRequest<'_>],
    opts: &SolveOptions,
) -> Vec<SolveResult> {
    let n = exec.nl();
    let nw = exec.n_global();
    let (spmv_flops, m_flops) = (exec.spmv_flops(), exec.m_flops());
    let pk = exec.kernels().clone();
    let tr = exec.track().cloned();
    let tr = tr.as_ref();
    let k0 = requests.len();
    let any_deadline = requests.iter().any(|r| r.deadline.is_some());
    let defer = opts.criterion == StoppingCriterion::TrueResidual2Norm;
    let mut out: Vec<Option<SolveResult>> = (0..k0).map(|_| None).collect();

    // x0 = 0, r0 = b, u0 = M⁻¹r0, p0 = u0, r0ᵀu0.
    let mut blk = Block {
        req: (0..k0).collect(),
        b: requests.iter().map(|r| r.b).collect(),
        stop: (0..k0).map(|_| StopState::new(opts)).collect(),
        counters: vec![Counters::new(); k0],
        rtu: Vec::new(),
        ru: vec![0.0; k0],
        x: MultiVector::zeros(n, k0),
        r: MultiVector::zeros(n, k0),
        p: MultiVector::zeros(n, k0),
        s: MultiVector::zeros(n, k0),
        u: MultiVector::zeros(n, if defer { k0 } else { 1 }),
        criterion: opts.criterion,
        tr: tr.cloned(),
    };
    for c in 0..k0 {
        let (ctr, uc) = (&mut blk.counters[c], if defer { c } else { 0 });
        blk.r.col_mut(c).copy_from_slice(blk.b[c]);
        exec.precond(blk.r.col(c), blk.u.col_mut(uc), ctr);
        ctr.record_precond(m_flops);
        blk.p.col_mut(c).copy_from_slice(blk.u.col(uc));
        blk.ru[c] = pk.dot(blk.r.col(c), blk.u.col(uc));
    }
    if defer {
        exec.spmm(&blk.x, &mut blk.s, &mut blk.counters);
    }
    blk.rtu = (0..k0).map(|c| blk.reduce(exec, c)).collect();

    let mut it = 0usize;
    loop {
        // The criterion after `it` iterations (a zero right-hand side
        // converges at the first check), then the iteration cap.
        let decided = (blk.stop.iter_mut().zip(&blk.rtu))
            .map(|(stop, &(rtu, partial))| stop.block_check(it, rtu, partial).err())
            .collect();
        blk.freeze(decided, it, &mut out);
        if blk.req.is_empty() {
            break;
        }

        // Deadlines are noticed at iteration boundaries only: the one
        // timing-dependent freeze, and it can only end a column early —
        // never change a surviving column's arithmetic.
        if any_deadline {
            let now = Instant::now();
            let expired = (blk.req.iter())
                .map(|&q| requests[q].deadline.is_some_and(|d| now >= d))
                .map(|late| late.then_some(Outcome::DeadlineExpired))
                .collect();
            blk.freeze(expired, it, &mut out);
            if blk.req.is_empty() {
                break;
            }
        }

        // S = A P: the one matrix stream of the iteration.
        exec.spmm(&blk.p, &mut blk.s, &mut blk.counters);

        // The step, column by column; a column frozen mid-iteration reports
        // the iterations it completed.
        let mut frozen: Vec<Option<Outcome>> = vec![None; blk.req.len()];
        for c in 0..blk.req.len() {
            let (ctr, uc) = (&mut blk.counters[c], if defer { c } else { 0 });
            let rtu = blk.rtu[c].0;
            ctr.record_spmv(spmv_flops);
            let pts = {
                let _g = spcg_obs::span(tr, Phase::Gram);
                ctr.record_dots(1, nw);
                let mut red = [pk.dot(blk.p.col(c), blk.s.col(c))];
                exec.allreduce(&mut red, ctr);
                red[0]
            };
            if !(pts > 0.0) || !pts.is_finite() {
                // Zero curvature at machine-precision residuals means we are
                // done, not broken; judge by the criterion before failing.
                let (b, x, r) = (blk.b[c], blk.x.col(c), blk.r.col(c));
                let msg = format!("non-positive curvature pᵀAp = {pts}");
                let stop = &mut blk.stop[c];
                frozen[c] = Some(stop.resolve_breakdown(exec, b, it, x, r, rtu, msg, ctr));
                continue;
            }
            let alpha = rtu / pts;
            let (p, s) = (blk.p.col(c), blk.s.col(c));
            let (x, r, u) = (blk.x.col_mut(c), blk.r.col_mut(c), blk.u.col_mut(uc));
            // x += αp, r −= αs, u = M⁻¹r, rᵀu. A pointwise M⁻¹ (Jacobi,
            // identity) takes all four in one cache-hot sweep whose
            // expressions and reduction shape are the unfused ones —
            // fewer passes over the column, never a different bit.
            blk.ru[c] = if let Some(w) = exec.pointwise() {
                let _v = spcg_obs::span(tr, Phase::VecUpdate);
                pk.pcg_step_fused(alpha, p, s, w, x, r, u)
            } else {
                {
                    let _v = spcg_obs::span(tr, Phase::VecUpdate);
                    pk.axpy(alpha, p, x);
                    pk.axpy(-alpha, s, r);
                }
                exec.precond(r, u, ctr);
                pk.dot(r, u)
            };
            ctr.blas1_flops += 4 * nw;
            ctr.record_precond(m_flops);
            if !defer {
                frozen[c] = blk.finish(exec, c);
            }
        }
        blk.freeze(frozen, it, &mut out);
        if defer {
            exec.spmm(&blk.x, &mut blk.s, &mut blk.counters);
            let frozen = (0..blk.req.len()).map(|c| blk.finish(exec, c)).collect();
            blk.freeze(frozen, it, &mut out);
        }
        it += 1;
    }
    out.into_iter()
        .map(|r| r.expect("pcg: every column resolves"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{Problem, StoppingCriterion};
    use crate::{solve, Engine::Serial, Method};
    use spcg_precond::{Identity, Jacobi};
    use spcg_sparse::generators::paper_rhs;
    use spcg_sparse::generators::poisson::{poisson_1d, poisson_2d};

    #[test]
    fn solves_small_poisson_exactly() {
        let a = poisson_1d(32);
        let m = Identity::new(32);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let res = solve(&Method::Pcg, &problem, &SolveOptions::from_env(), Serial);
        assert!(res.converged(), "{:?}", res.outcome);
        assert!(res.true_relative_residual(&a, &b) < 1e-8);
        // Solution entries are 1/√n.
        let want = 1.0 / 32f64.sqrt();
        for v in &res.x {
            assert!((v - want).abs() < 1e-7);
        }
    }

    #[test]
    fn cg_converges_in_at_most_n_iterations() {
        let a = poisson_1d(24);
        let m = Identity::new(24);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env().with_tol(1e-12);
        let res = solve(&Method::Pcg, &problem, &opts, Serial);
        assert!(res.converged());
        assert!(
            res.iterations <= 24,
            "CG finite termination violated: {}",
            res.iterations
        );
    }

    #[test]
    fn jacobi_preconditioning_reduces_iterations_on_scaled_problem() {
        // Badly scaled diagonal blocks: Jacobi fixes the scaling.
        let mut a = poisson_2d(16);
        // Scale rows/cols: D A D with D = diag(1..): do it via COO rebuild.
        let n = a.nrows();
        let mut coo = spcg_sparse::CooMatrix::new(n, n);
        for i in 0..n {
            let (cols, vals) = a.row(i);
            let di = 1.0 + (i % 7) as f64;
            for (&c, &v) in cols.iter().zip(vals) {
                let dc = 1.0 + (c % 7) as f64;
                coo.push(i, c, v * di * dc);
            }
        }
        a = coo.to_csr();
        let b = paper_rhs(&a);
        let ident = Identity::new(n);
        let jac = Jacobi::new(&a);
        let p1 = Problem::new(&a, &ident, &b);
        let p2 = Problem::new(&a, &jac, &b);
        let opts = SolveOptions::from_env().with_tol(1e-8);
        let r1 = solve(&Method::Pcg, &p1, &opts, Serial);
        let r2 = solve(&Method::Pcg, &p2, &opts, Serial);
        assert!(r1.converged() && r2.converged());
        assert!(
            r2.iterations < r1.iterations,
            "jacobi ({}) not better than identity ({})",
            r2.iterations,
            r1.iterations
        );
    }

    #[test]
    fn counters_match_table1_per_iteration() {
        let a = poisson_1d(50);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        // M-norm criterion: no extra instrumented work per check.
        let opts = SolveOptions::from_env()
            .with_criterion(StoppingCriterion::PrecondMNorm)
            .with_tol(1e-10);
        let res = solve(&Method::Pcg, &problem, &opts, Serial);
        assert!(res.converged());
        let it = res.iterations as u64;
        let n = 50u64;
        // Per iteration: 1 SpMV, 1 precond, 2 dots, 2 collectives, 6n
        // update FLOPs (Table 1 row "PCG").
        assert_eq!(res.counters.spmv_count, it);
        assert_eq!(res.counters.precond_count, it + 1); // +1 setup
        assert_eq!(res.counters.dot_count, 2 * it + 1); // +1 setup rtu
        assert_eq!(res.counters.global_collectives, 2 * it + 1);
        assert_eq!(res.counters.blas1_flops, 6 * n * it);
        assert_eq!(res.counters.iterations, it);
    }

    #[test]
    fn all_criteria_converge() {
        let a = poisson_2d(12);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        for crit in [
            StoppingCriterion::TrueResidual2Norm,
            StoppingCriterion::RecursiveResidual2Norm,
            StoppingCriterion::PrecondMNorm,
        ] {
            let opts = SolveOptions::from_env().with_criterion(crit);
            let res = solve(&Method::Pcg, &problem, &opts, Serial);
            assert!(res.converged(), "{crit:?} failed: {:?}", res.outcome);
            assert!(res.true_relative_residual(&a, &b) < 1e-6, "{crit:?}");
        }
    }

    #[test]
    fn max_iterations_is_respected() {
        let a = poisson_2d(24);
        let m = Identity::new(a.nrows());
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env().with_tol(1e-14).with_max_iters(3);
        let res = solve(&Method::Pcg, &problem, &opts, Serial);
        assert_eq!(res.outcome, Outcome::MaxIterations);
        assert_eq!(res.iterations, 3);
    }

    #[test]
    fn history_is_monotone_for_easy_problem() {
        let a = poisson_1d(16);
        let m = Identity::new(16);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env().with_history();
        let res = solve(&Method::Pcg, &problem, &opts, Serial);
        assert!(res.history.len() >= 2);
        // True residual of CG on SPD decreases monotonically in A-norm; the
        // 2-norm may wiggle, so only check overall reduction.
        let first = res.history.first().unwrap().1;
        let last = res.history.last().unwrap().1;
        assert!(last < first * 1e-8);
    }
}
