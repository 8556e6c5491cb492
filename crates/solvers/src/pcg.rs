//! Standard preconditioned conjugate gradients (paper Algorithm 1).
//!
//! The baseline every s-step method is compared against. Per iteration:
//! one SpMV, one preconditioner application, two dot products — and two
//! global reductions, which is what stops PCG from scaling beyond ~32 nodes
//! in the paper's Figure 1.

use crate::engine::Exec;
use crate::options::{Outcome, SolveOptions, SolveResult};
use crate::stopping::{StopState, Verdict};
use spcg_dist::Counters;
use spcg_obs::Phase;

/// PCG over any execution substrate (see [`crate::engine`]).
pub(crate) fn pcg_g<E: Exec>(exec: &mut E, opts: &SolveOptions) -> SolveResult {
    let n = exec.nl();
    let nw = exec.n_global();
    let pk = exec.kernels().clone();
    let tr = exec.track().cloned();
    let mut counters = Counters::new();
    let mut stop = StopState::new(opts);

    // r0 = b − A x0 = b for x0 = 0.
    let mut x = vec![0.0; n];
    let mut r = exec.b_local().to_vec();
    let mut u = vec![0.0; n];
    exec.precond(&r, &mut u, &mut counters);
    counters.record_precond(exec.m_flops());
    let mut p = u.clone();
    let mut s = vec![0.0; n];

    // rtu = rᵀu (reduced globally together with the first pᵀs next
    // iteration in real MPI; charged as part of the 2 collectives/iter).
    let mut red = [exec.dot(&r, &u)];
    {
        let _g = spcg_obs::span(tr.as_ref(), Phase::Gram);
        exec.allreduce(&mut red);
    }
    let mut rtu = red[0];
    counters.record_dots(1, nw);
    counters.record_collective(1);

    let v0 = stop.criterion_value(exec, &x, &r, rtu, &mut counters);
    let mut verdict = stop.check(0, v0);

    let mut iterations = 0usize;
    while verdict == Verdict::Continue && iterations < opts.max_iters {
        // s = A p.
        exec.spmv(&p, &mut s, &mut counters);
        counters.record_spmv(exec.spmv_flops());
        let mut red = [exec.dot(&p, &s)];
        {
            let _g = spcg_obs::span(tr.as_ref(), Phase::Gram);
            exec.allreduce(&mut red);
        }
        let pts = red[0];
        counters.record_dots(1, nw);
        counters.record_collective(1);
        if !(pts > 0.0) || !pts.is_finite() {
            // Zero curvature at machine-precision residuals means we are
            // done, not broken; judge by the criterion before failing.
            let v = stop.criterion_value(exec, &x, &r, rtu, &mut counters);
            let outcome = stop.resolve_breakdown(
                iterations,
                v,
                format!("non-positive curvature pᵀAp = {pts}"),
            );
            return SolveResult::new(x, outcome, iterations, stop.history, counters);
        }
        let alpha = rtu / pts;
        {
            let _v = spcg_obs::span(tr.as_ref(), Phase::VecUpdate);
            pk.axpy(alpha, &p, &mut x);
            pk.axpy(-alpha, &s, &mut r);
        }
        counters.blas1_flops += 4 * nw;
        exec.precond(&r, &mut u, &mut counters);
        counters.record_precond(exec.m_flops());
        let mut red = [exec.dot(&r, &u)];
        {
            let _g = spcg_obs::span(tr.as_ref(), Phase::Gram);
            exec.allreduce(&mut red);
        }
        let rtu_new = red[0];
        counters.record_dots(1, nw);
        counters.record_collective(1);
        if !rtu_new.is_finite() {
            return SolveResult::new(x, Outcome::Diverged, iterations, stop.history, counters);
        }
        let beta = rtu_new / rtu;
        rtu = rtu_new;
        {
            let _v = spcg_obs::span(tr.as_ref(), Phase::VecUpdate);
            pk.xpby(&u, beta, &mut p);
        }
        counters.blas1_flops += 2 * nw;

        iterations += 1;
        counters.iterations += 1;
        counters.outer_iterations += 1;
        let v = stop.criterion_value(exec, &x, &r, rtu, &mut counters);
        verdict = stop.check(iterations, v);
    }

    SolveResult::new(
        x,
        StopState::outcome(verdict),
        iterations,
        stop.history,
        counters,
    )
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
