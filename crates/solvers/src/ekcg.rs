//! EkCG — enlarged-Krylov conjugate gradients (Grigori & Moufawad's
//! MSDO-CG family, PAPERS.md).
//!
//! The residual is split by a t-way contiguous block partition of the
//! *global* rows into a [`MultiVector`] of t search directions per
//! iteration: `Z = T(M⁻¹r)` where the splitting operator `T(·)` keeps
//! component `i` in column `j` iff row `i` falls in block `j`. Each
//! iteration A-orthogonalizes the new block against **every** previous
//! direction block and minimizes over all t directions at once:
//!
//! 1. `Z = T(M⁻¹r)`, `AZ = A·Z` (one SpMM — t SpMVs of one matrix stream).
//! 2. Reduction #1: `Wⱼ = APⱼᵀZ` for every stored block `j` (k blocks of
//!    t×t), plus `rᵀu` for the stopping test — one allreduce, one payload.
//! 3. `Φⱼ = Gⱼ⁻¹Wⱼ` via each block's rank-revealing factorization;
//!    `P = Z − Σⱼ Pⱼ·Φⱼ`, `AP = AZ − Σⱼ APⱼ·Φⱼ` (blocked updates).
//! 4. Reduction #2: `G = PᵀAP` (t×t) plus `c = Pᵀr`.
//! 5. `γ = G⁻¹c`, `x += P·γ`, `r −= AP·γ`; push `(P, AP, G)` onto the
//!    history.
//!
//! The full-history orthogonalization is load-bearing, not pedantry:
//! unlike classical CG, the split residual `T(r_k)` does *not* live in the
//! enlarged Krylov subspace built so far (coordinate restriction doesn't
//! preserve Krylov structure), so the CG-style previous-block-only short
//! recurrence silently loses global A-orthogonality and converges *slower*
//! than plain PCG. MSDO-CG is a long-recurrence method by construction;
//! its payoff is that the enlarged space cuts the iteration count enough
//! that the O(k·t) memory and the growing reduction payload stay small.
//!
//! Per iteration that is t SpMVs and exactly **two** global reductions —
//! the same collective count as PCG but t Krylov directions of progress,
//! which is the enlarged-Krylov trade: more local flops and bandwidth per
//! synchronization point (reduction #1's payload grows by t² words per
//! iteration, but stays a single latency-bound collective).
//!
//! Near convergence the t directions collapse onto each other and the t×t
//! Gram `G` goes numerically rank-deficient; the
//! [`spcg_sparse::smallsolve::PivotedCholesky`] pseudo-solve keeps only the
//! directions above the pivot threshold and returns exact zeros for the
//! rest, so deficiency degrades gracefully toward plain PCG instead of
//! breaking down.
//!
//! `t = 1` is mathematically plain PCG but would compute different
//! floating-point expressions; `engine::dispatch` maps it to the PCG body
//! outright, making the degenerate case bitwise identical by construction.

use crate::engine::{allreduce_gram, Exec};
use crate::options::{Outcome, SolveOptions, SolveResult};
use crate::stopping::StopState;
use spcg_dist::Counters;
use spcg_obs::Phase;
use spcg_sparse::smallsolve::PivotedCholesky;
use spcg_sparse::MultiVector;

/// Relative pivot threshold for the rank-revealing t×t Gram factorization.
const GRAM_EPS: f64 = 1e-12;

/// EkCG over any execution substrate (see [`crate::engine`]).
pub(crate) fn ekcg_g<E: Exec>(
    exec: &mut E,
    b: &[f64],
    t: usize,
    opts: &SolveOptions,
) -> SolveResult {
    assert!(t >= 1, "ekcg: t must be at least 1");
    let n = exec.nl();
    let nw = exec.n_global();
    let ng = nw as usize;
    assert!(t <= ng, "ekcg: t = {t} exceeds global rows {ng}");
    let lo = exec.row_offset();
    let tw = t as u64;
    let pk = exec.kernels().clone();
    let tr = exec.track().cloned();
    let mut counters = Counters::new();
    let mut stop = StopState::new(opts);

    // Global block boundaries of the splitting operator: block j owns rows
    // [j·n/t, (j+1)·n/t) — a pure function of (n, t), independent of the
    // rank partition, so serial and any-rank executions split identically.
    let cut = |j: usize| j * ng / t;

    let mut x = vec![0.0; n];
    let mut r = b.to_vec(); // x0 = 0
    let mut u = vec![0.0; n];
    exec.precond(&r, &mut u, &mut counters);
    counters.record_precond(exec.m_flops());

    let mut z_mat = MultiVector::zeros(n, t);
    let mut az_mat = MultiVector::zeros(n, t);
    let mut p_mat = MultiVector::zeros(n, t);
    let mut ap_mat = MultiVector::zeros(n, t);
    // Direction-block history: (Pⱼ, APⱼ, factorization of PⱼᵀAPⱼ). MSDO-CG
    // orthogonalizes every new split block against all of it (see module
    // docs) — memory grows by 2·n·t per iteration.
    let mut hist: Vec<(MultiVector, MultiVector, PivotedCholesky)> = Vec::new();

    let mut iterations = 0usize;
    let outcome = loop {
        // --- Z = T(u): split the preconditioned residual ---
        {
            let _v = spcg_obs::span(tr.as_ref(), Phase::VecUpdate);
            z_mat.fill_zero();
            for j in 0..t {
                let (gs, ge) = (cut(j), cut(j + 1));
                // Intersection with this rank's rows [lo, lo+n).
                let s = gs.saturating_sub(lo).min(n);
                let e = ge.saturating_sub(lo).min(n);
                if s < e {
                    z_mat.col_mut(j)[s..e].copy_from_slice(&u[s..e]);
                }
            }
        }

        // --- AZ = A·Z: one matrix stream, t columns ---
        exec.spmm(&z_mat, &mut az_mat, std::slice::from_mut(&mut counters));
        for _ in 0..t {
            counters.record_spmv(exec.spmv_flops());
        }

        // --- reduction #1: Wⱼ = APⱼᵀZ for every stored block, + rᵀu ---
        let partial = stop.partial(exec, b, &x, &r, &mut counters);
        let gram_span = spcg_obs::span(tr.as_ref(), Phase::Gram);
        let mut extra = [pk.dot(&r, &u)];
        let mut ws: Vec<_> = hist
            .iter()
            .map(|(_, apj, _)| pk.gram(apj, &z_mat))
            .collect();
        let kh = hist.len() as u64;
        counters.record_dots(kh * tw * tw + 1, nw);
        let mut refs: Vec<&mut spcg_sparse::DenseMat> = ws.iter_mut().collect();
        let crit = allreduce_gram(exec, &mut refs, &mut extra, partial, &mut counters);
        drop(gram_span);
        let rtu = extra[0];

        // --- convergence check ---
        if let Err(outcome) = stop.block_check(iterations, rtu, crit) {
            break outcome;
        }
        if !rtu.is_finite() {
            break Outcome::Diverged;
        }

        // --- P = Z − Σⱼ Pⱼ·Φⱼ, AP = AZ − Σⱼ APⱼ·Φⱼ ---
        let update_span = spcg_obs::span(tr.as_ref(), Phase::VecUpdate);
        p_mat.copy_from(&z_mat);
        ap_mat.copy_from(&az_mat);
        for ((pj, apj, factj), wj) in hist.iter().zip(&ws) {
            let mut phi = {
                let _ss = spcg_obs::span(tr.as_ref(), Phase::SmallSolve);
                factj.pseudo_solve_mat(wj)
            };
            phi.scale(-1.0);
            pk.gemm_small_acc(pj, &phi, &mut p_mat);
            pk.gemm_small_acc(apj, &phi, &mut ap_mat);
            counters.blas3_flops += 4 * tw * tw * nw;
            counters.small_flops += 2 * tw * tw * tw;
        }
        drop(update_span);

        // --- reduction #2: G = PᵀAP (t×t) + c = Pᵀr ---
        let gram_span = spcg_obs::span(tr.as_ref(), Phase::Gram);
        let mut g = pk.gram(&p_mat, &ap_mat);
        let mut c = vec![0.0; t];
        for (j, cj) in c.iter_mut().enumerate() {
            *cj = pk.dot(p_mat.col(j), &r);
        }
        counters.record_dots(tw * tw + tw, nw);
        allreduce_gram(exec, &mut [&mut g], &mut c, None, &mut counters);
        drop(gram_span);

        g.symmetrize();
        if g.has_non_finite() {
            break Outcome::Breakdown("non-finite enlarged Gram data".into());
        }
        let scalar_span = spcg_obs::span(tr.as_ref(), Phase::ScalarWork);
        let fact = {
            let _ss = spcg_obs::span(tr.as_ref(), Phase::SmallSolve);
            PivotedCholesky::factor(&g, GRAM_EPS)
        };
        counters.small_flops += 2 * tw * tw * tw;
        if fact.rank() == 0 {
            // Every direction fell below the pivot threshold: the block has
            // no usable curvature left. Judge by the criterion first, the
            // same way PCG treats vanished pᵀAp.
            let msg = "enlarged direction Gram has numerical rank 0".into();
            let c = &mut counters;
            break stop.resolve_breakdown(exec, b, iterations, &x, &r, rtu, msg, c);
        }
        let gamma = fact.pseudo_solve(&c);
        drop(scalar_span);

        // --- x += P·γ, r −= AP·γ ---
        {
            let _v = spcg_obs::span(tr.as_ref(), Phase::VecUpdate);
            pk.gemv_acc(&p_mat, 1.0, &gamma, &mut x);
            pk.gemv_acc(&ap_mat, -1.0, &gamma, &mut r);
        }
        counters.blas2_flops += 4 * tw * nw;

        exec.precond(&r, &mut u, &mut counters);
        counters.record_precond(exec.m_flops());

        hist.push((p_mat.clone(), ap_mat.clone(), fact));
        iterations += 1;
        counters.iterations += 1;
        counters.outer_iterations += 1;
    };

    SolveResult::new(x, outcome, iterations, stop.history, counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{Problem, StoppingCriterion};
    use crate::{solve, Engine::Serial, Method};
    use spcg_precond::{Identity, Jacobi};
    use spcg_sparse::generators::paper_rhs;
    use spcg_sparse::generators::poisson::{poisson_1d, poisson_2d};

    /// A deterministic all-nonzero rhs. `paper_rhs` is a near-impulse
    /// (almost every entry zero), which collapses the split `T(u)` onto a
    /// couple of columns and defeats the enlarged-space premise the
    /// convergence tests probe.
    fn dense_rhs(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 1.0 + 0.5 * ((i as f64) * 0.7).sin())
            .collect()
    }

    #[test]
    fn solves_small_poisson() {
        let a = poisson_1d(48);
        let m = Identity::new(48);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env();
        for t in [2usize, 3, 4, 8] {
            let res = solve(&Method::EkCg { t }, &problem, &opts, Serial);
            assert!(res.converged(), "t={t}: {:?}", res.outcome);
            assert!(res.true_relative_residual(&a, &b) < 1e-8, "t={t}");
        }
    }

    #[test]
    fn t_equal_one_is_bitwise_pcg() {
        let a = poisson_2d(14);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env().with_history();
        let r_pcg = solve(&Method::Pcg, &problem, &opts, Serial);
        let r_ek = solve(&Method::EkCg { t: 1 }, &problem, &opts, Serial);
        assert_eq!(r_ek.x, r_pcg.x);
        assert_eq!(r_ek.iterations, r_pcg.iterations);
        assert_eq!(r_ek.history, r_pcg.history);
        assert_eq!(r_ek.counters, r_pcg.counters);
    }

    #[test]
    fn more_blocks_fewer_iterations() {
        // The enlarged-subspace payoff: t directions per iteration should
        // cut the outer iteration count well below PCG's.
        let a = poisson_2d(20);
        let m = Jacobi::new(&a);
        let b = dense_rhs(a.nrows());
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env().with_tol(1e-8);
        let r_pcg = solve(&Method::Pcg, &problem, &opts, Serial);
        let mut prev = r_pcg.iterations;
        for t in [2usize, 4, 8] {
            let res = solve(&Method::EkCg { t }, &problem, &opts, Serial);
            assert!(res.converged(), "t={t}: {:?}", res.outcome);
            assert!(
                res.iterations < prev,
                "t={t}: {} not below {}",
                res.iterations,
                prev
            );
            prev = res.iterations;
        }
    }

    #[test]
    fn two_collectives_per_iteration() {
        let a = poisson_2d(14);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env().with_criterion(StoppingCriterion::PrecondMNorm);
        let res = solve(&Method::EkCg { t: 4 }, &problem, &opts, Serial);
        assert!(res.converged(), "{:?}", res.outcome);
        let it = res.counters.outer_iterations;
        // Two reductions per completed iteration, one for the final
        // check-only entry (its W-Gram rides reduction #1).
        assert_eq!(res.counters.global_collectives, 2 * it + 1);
        // t SpMVs per entered iteration.
        assert_eq!(res.counters.spmv_count, 4 * (it + 1));
    }

    #[test]
    fn split_reconstructs_preconditioned_residual() {
        // Σ_j Z[:,j] must equal u exactly — the split is a partition.
        // Indirect check: with an all-nonzero rhs, Identity M, and t = n
        // blocks, T(u) spans ℝⁿ, so one Galerkin step solves the system.
        let a = poisson_1d(30);
        let b = dense_rhs(30);
        let ident = Identity::new(30);
        let p2 = Problem::new(&a, &ident, &b);
        let opts = SolveOptions::from_env().with_tol(1e-10);
        let res = solve(&Method::EkCg { t: 30 }, &p2, &opts, Serial);
        assert!(res.converged(), "{:?}", res.outcome);
        assert!(
            res.iterations <= 2,
            "t = n must converge in ≤ 2 iterations, took {}",
            res.iterations
        );
    }

    #[test]
    fn deep_tolerance_survives_rank_deficiency() {
        // Near machine precision the t directions collapse; the pivoted
        // pseudo-solve must keep the iteration alive (no breakdown, no NaN).
        let a = poisson_2d(12);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env().with_tol(1e-13).with_max_iters(500);
        let res = solve(&Method::EkCg { t: 8 }, &problem, &opts, Serial);
        assert!(
            matches!(res.outcome, Outcome::Converged | Outcome::Stagnated),
            "{:?}",
            res.outcome
        );
        assert!(res.x.iter().all(|v| v.is_finite()));
        assert!(res.true_relative_residual(&a, &b) < 1e-10);
    }

    #[test]
    fn respects_max_iters() {
        let a = poisson_2d(20);
        let m = Identity::new(a.nrows());
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env().with_tol(1e-15).with_max_iters(5);
        let res = solve(&Method::EkCg { t: 4 }, &problem, &opts, Serial);
        assert!(matches!(
            res.outcome,
            Outcome::MaxIterations | Outcome::Stagnated
        ));
        assert!(res.iterations <= 5);
    }
}
