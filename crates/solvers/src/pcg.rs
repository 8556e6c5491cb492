//! Preconditioned conjugate gradients (paper Algorithm 1), at any width.
//!
//! The baseline every s-step method is compared against. Per iteration and
//! right-hand side: one SpMV, one preconditioner application, two dot
//! products — and two global reductions, which is what stops PCG from
//! scaling beyond ~32 nodes in the paper's Figure 1.
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
use crate::engine::Exec;
use crate::options::{Outcome, SolveOptions, SolveResult};
use crate::stopping::{StopState, Verdict};
use spcg_dist::Counters;
use spcg_obs::Phase;
use spcg_sparse::MultiVector;
use std::time::Instant;

/// The live columns of one [`pcg_g`] call: per-column state in parallel
/// vectors beside the four carried `n × k` blocks.
struct Block<'a> {
    /// Index into the request slice (columns compact; requests don't).
    req: Vec<usize>,
    b: Vec<&'a [f64]>,
    stop: Vec<StopState>,
    counters: Vec<Counters>,
    /// Current `rᵀu` of each recurrence.
    rtu: Vec<f64>,
    x: MultiVector,
    r: MultiVector,
    p: MultiVector,
    /// `A·P`; dead between iterations, where it doubles as the criterion's
    /// `A·X` scratch.
    s: MultiVector,
}

impl Block<'_> {
    /// Emits the result of every column with a `Some` outcome and compacts
    /// the rest. `s` is recomputed every iteration, so it is simply
    /// reallocated at the new width.
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
        for mv in [&mut self.x, &mut self.r, &mut self.p] {
            let mut kept = MultiVector::zeros(mv.n(), self.req.len());
            for (j, c) in (0..live.len()).filter(|&c| live[c]).enumerate() {
                kept.col_mut(j).copy_from_slice(mv.col(c));
            }
            *mv = kept;
        }
        self.s = MultiVector::zeros(self.x.n(), self.req.len());
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
    let mut out: Vec<Option<SolveResult>> = (0..k0).map(|_| None).collect();
    // One dot product summed over ranks: its charges, and one Gram span
    // over the local partial and the allreduce.
    let reduce = |exec: &mut E, ctr: &mut Counters, local: &dyn Fn() -> f64| {
        let _g = spcg_obs::span(tr, Phase::Gram);
        ctr.record_dots(1, nw);
        ctr.record_collective(1);
        let mut red = [local()];
        exec.allreduce(&mut red);
        red[0]
    };

    // x0 = 0, r0 = b, u0 = M⁻¹r0, p0 = u0. `u = M⁻¹r` never carries across
    // iterations — each column's u is consumed by its dot and xpby in the
    // same step — so one shared column replaces an `n × k` block.
    let mut blk = Block {
        req: (0..k0).collect(),
        b: requests.iter().map(|r| r.b).collect(),
        stop: (0..k0).map(|_| StopState::new(opts)).collect(),
        counters: vec![Counters::new(); k0],
        rtu: vec![0.0; k0],
        x: MultiVector::zeros(n, k0),
        r: MultiVector::zeros(n, k0),
        p: MultiVector::zeros(n, k0),
        s: MultiVector::zeros(n, k0),
    };
    let mut u = vec![0.0; n];
    for c in 0..k0 {
        let ctr = &mut blk.counters[c];
        blk.r.col_mut(c).copy_from_slice(blk.b[c]);
        exec.precond(blk.r.col(c), &mut u, ctr);
        ctr.record_precond(m_flops);
        blk.p.col_mut(c).copy_from_slice(&u);
        // rtu = rᵀu (reduced together with the first pᵀs next iteration in
        // real MPI; charged as part of the 2 collectives/iter).
        blk.rtu[c] = reduce(exec, ctr, &|| pk.dot(blk.r.col(c), &u));
    }

    let mut it = 0usize;
    loop {
        // The criterion after `it` iterations (a zero right-hand side
        // converges at the first check), then the iteration cap.
        if !blk.req.is_empty() {
            let values = StopState::criterion_values(
                opts.criterion,
                exec,
                &blk.b,
                &blk.x,
                &blk.r,
                &blk.rtu,
                &mut blk.s,
                &mut blk.counters,
            );
            let decided = (blk.stop.iter_mut().zip(values))
                .map(|(stop, v)| match stop.check(it, v) {
                    Verdict::Continue => None,
                    verdict => Some(StopState::outcome(verdict)),
                })
                .collect();
            blk.freeze(decided, it, &mut out);
        }
        if blk.req.is_empty() || it >= opts.max_iters {
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

        // Scalar and vector work, column by column.
        let mut frozen: Vec<Option<Outcome>> = vec![None; blk.req.len()];
        for c in 0..blk.req.len() {
            let ctr = &mut blk.counters[c];
            let rtu = blk.rtu[c];
            ctr.record_spmv(spmv_flops);
            let pts = reduce(exec, ctr, &|| pk.dot(blk.p.col(c), blk.s.col(c)));
            if !(pts > 0.0) || !pts.is_finite() {
                // Zero curvature at machine-precision residuals means we are
                // done, not broken; judge by the criterion before failing.
                let (b, x, r) = (blk.b[c], blk.x.col(c), blk.r.col(c));
                let v = blk.stop[c].criterion_value(exec, b, x, r, rtu, ctr);
                let msg = format!("non-positive curvature pᵀAp = {pts}");
                frozen[c] = Some(blk.stop[c].resolve_breakdown(it, v, msg));
                continue;
            }
            let alpha = rtu / pts;
            let (p, s) = (blk.p.col(c), blk.s.col(c));
            let (x, r) = (blk.x.col_mut(c), blk.r.col_mut(c));
            // x += αp, r −= αs, u = M⁻¹r, rᵀu. A pointwise M⁻¹ (Jacobi,
            // identity) takes all four in one cache-hot sweep whose
            // expressions and reduction shape are the unfused ones —
            // fewer passes over the column, never a different bit.
            let ru = if let Some(w) = exec.pointwise() {
                let _v = spcg_obs::span(tr, Phase::VecUpdate);
                pk.pcg_step_fused(alpha, p, s, w, x, r, &mut u)
            } else {
                {
                    let _v = spcg_obs::span(tr, Phase::VecUpdate);
                    pk.axpy(alpha, p, x);
                    pk.axpy(-alpha, s, r);
                }
                exec.precond(r, &mut u, ctr);
                pk.dot(r, &u)
            };
            let rtu_new = reduce(exec, ctr, &|| ru);
            ctr.blas1_flops += 4 * nw;
            ctr.record_precond(m_flops);
            if !rtu_new.is_finite() {
                frozen[c] = Some(Outcome::Diverged);
                continue;
            }
            blk.rtu[c] = rtu_new;
            ctr.blas1_flops += 2 * nw;
            ctr.iterations += 1;
            ctr.outer_iterations += 1;
            let _v = spcg_obs::span(tr, Phase::VecUpdate);
            pk.xpby(&u, rtu_new / rtu, blk.p.col_mut(c)); // p = u + βp
        }
        // A column frozen mid-iteration reports the iterations it completed.
        blk.freeze(frozen, it, &mut out);
        it += 1;
    }

    // Anything still live hit the iteration cap.
    let capped = vec![Some(Outcome::MaxIterations); blk.req.len()];
    blk.freeze(capped, it, &mut out);
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
