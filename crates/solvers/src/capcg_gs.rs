//! CA-PCG-GS — the s-step PCG body with the small Gram systems solved by a
//! seeded Gauss-Seidel iteration instead of Cholesky (D'Ambra et al.,
//! "Scalable s-step Preconditioned Conjugate Gradient with Chebyshev Basis
//! and Gauss-Seidel Gram Solve").
//!
//! The recurrence is exactly [`crate::spcg()`]'s Algorithm 5/6 — one MPK plus
//! one fused Gram reduction per s steps — but the replicated `O(s³)` scalar
//! work changes character: where Cholesky *fails* on a Gram matrix that
//! round-off has pushed out of positive definiteness (the breakdown class
//! the resilience layer survives only by shrinking s), Gauss-Seidel has no
//! pivot and simply iterates. For every SPD matrix it converges; for the
//! near-singular ones it returns the best fixed-point iterate its sweep cap
//! allows, which keeps the outer Krylov recurrence moving at full s instead
//! of aborting.
//!
//! Determinism contract: the Gram data entering the sweeps is replicated
//! post-allreduce state, the sweep order is fixed, and the early exit is a
//! pure function of that state — so every rank runs the *same* number of
//! sweeps. That invariant is verified at run time by piggybacking the two
//! sweep counts of block `k` on block `k+1`'s Gram allreduce
//! ([`spcg_adapt::consensus::pack_sweeps`]), costing zero extra collectives.
//! Sweeps are seeded with the previous block's solution (the coefficient
//! systems change slowly along the iteration), which typically cuts the
//! sweep count severalfold once the method settles.

use crate::blockops::{gram_stacked, sstep_update};
use crate::engine::{allreduce_gram, Exec, SerialExec};
use crate::options::{Outcome, Problem, SolveOptions, SolveResult};
use crate::stopping::{criterion_value, StopState, Verdict};
use spcg_adapt::consensus;
use spcg_basis::cob::b_small;
use spcg_basis::BasisType;
use spcg_dist::Counters;
use spcg_obs::Phase;
use spcg_sparse::smallsolve::{gs_solve, gs_solve_mat, GS_MAX_SWEEPS, GS_TOL};
use spcg_sparse::{DenseMat, MultiVector};

/// Consecutive blocks without a new best criterion value before the stall
/// rescue fires (residual replacement + recurrence restart). Healthy
/// convergence sets a new best almost every block — even the oscillating
/// tail of a marginal run recovers within a block or two — so a run of
/// this many flat blocks reliably means the recurrence is grinding noise.
const GS_STALL_BLOCKS: usize = 4;

/// Solves `A x = b` with CA-PCG-GS: s-step blocking with Gauss-Seidel Gram
/// solves.
///
/// # Panics
/// Panics if `s < 1` or the Newton basis provides fewer than `s` shifts.
pub fn capcg_gs(
    problem: &Problem<'_>,
    s: usize,
    basis: &BasisType,
    opts: &SolveOptions,
) -> SolveResult {
    capcg_gs_g(&mut SerialExec::new(problem, opts), s, basis, opts)
}

/// CA-PCG-GS over any execution substrate (see [`crate::engine`]).
pub(crate) fn capcg_gs_g<E: Exec>(
    exec: &mut E,
    s: usize,
    basis: &BasisType,
    opts: &SolveOptions,
) -> SolveResult {
    assert!(s >= 1, "capcg_gs: s must be at least 1");
    let n = exec.nl();
    let nw = exec.n_global();
    let sw = s as u64;
    let pk = exec.kernels().clone();
    let tr = exec.track().cloned();
    let mut counters = Counters::new();
    let mut stop = StopState::new(opts);
    let mut scratch_vec = Vec::new();

    let params = basis.params(s);
    let b_cob = b_small(&params, s + 1); // (s+1) × s

    let mut x = vec![0.0; n];
    let mut r = exec.b_local().to_vec(); // x0 = 0

    let mut s_mat = MultiVector::zeros(n, s + 1);
    let mut u_mat = MultiVector::zeros(n, s);
    let mut p_mat = MultiVector::zeros(n, s);
    let mut ap_mat = MultiVector::zeros(n, s);
    let mut w_prev: Option<DenseMat> = None;
    // Warm-start seeds: previous block's coefficient solutions.
    let mut b_seed: Option<DenseMat> = None;
    let mut a_seed: Option<Vec<f64>> = None;
    // Sweep counts of the previous block, awaiting consensus verification
    // on this block's allreduce.
    let mut prev_sweeps: Option<(usize, usize)> = None;
    // Residual-replacement state: ‖r‖² at the last replacement.
    let mut rr_anchor: Option<f64> = None;
    // Stall-rescue state: best criterion value seen and the run of blocks
    // without a new best.
    let mut best_val = f64::INFINITY;
    let mut stall_blocks = 0usize;
    let mut restarts = 0usize;

    let mut iterations = 0usize;
    let final_verdict;
    loop {
        // --- s-step basis (neighbour communication only) ---
        exec.mpk(&r, None, &params, &mut s_mat, &mut u_mat, &mut counters);

        // --- the single global reduction: [UᵀS ; PᵀS] (+ sweep consensus) ---
        let gram_span = spcg_obs::span(tr.as_ref(), Phase::Gram);
        // Both s × (s+1) blocks from one pass over S.
        let (mut g1, mut g2) = gram_stacked(&pk, &u_mat, w_prev.as_ref().map(|_| &p_mat), &s_mat);
        let blocks = 1 + g2.is_some() as u64;
        counters.record_dots(blocks * sw * (sw + 1), nw);
        let mut words = blocks * sw * (sw + 1);
        let mut extra_buf = [0.0; consensus::SWEEP_WORDS];
        let extra: &mut [f64] = match prev_sweeps {
            Some((sb, sa)) => {
                extra_buf = consensus::pack_sweeps(sb, sa);
                words += consensus::SWEEP_WORDS as u64;
                &mut extra_buf
            }
            None => &mut [],
        };
        counters.record_collective(words);
        match g2.as_mut() {
            Some(g2) => allreduce_gram(exec, &mut [&mut g1, g2], extra),
            None => allreduce_gram(exec, &mut [&mut g1], extra),
        }
        drop(gram_span);
        if let Some((sb, sa)) = prev_sweeps.take() {
            match consensus::check_sweeps(&extra_buf, sb, sa) {
                consensus::Verdict::Agree => {}
                // A poisoned reduction also poisons the Gram matrices; the
                // finiteness checks below own that path.
                consensus::Verdict::Poisoned => {}
                consensus::Verdict::Disagree => {
                    panic!(
                        "capcg_gs: Gauss-Seidel sweep counts diverged across ranks \
                         (local ({sb}, {sa}), reduced {extra_buf:?}) — \
                         the replicated-Gram determinism contract is broken"
                    );
                }
            }
        }
        let (g1, g2) = (g1, g2);

        // --- convergence check every s steps ---
        let rtu = g1[(0, 0)];
        let value = criterion_value(
            exec,
            opts.criterion,
            &x,
            &r,
            rtu,
            &mut scratch_vec,
            &mut counters,
        );
        let verdict = stop.check(iterations, value);
        if verdict != Verdict::Continue {
            final_verdict = StopState::outcome(verdict);
            break;
        }
        if iterations >= opts.max_iters {
            final_verdict = Outcome::MaxIterations;
            break;
        }

        // --- stall rescue: residual replacement + recurrence restart ---
        // At the method's accuracy floor the recursively updated residual
        // drifts from `b − A·x` and the blocks optimize a phantom; the
        // Cholesky path's pivoted-LU noise happens to wander below tight
        // tolerances, the bounded minimal-residual sweeps do not. When a
        // run of blocks produces no new best criterion value, replace the
        // residual with the true one and cold-restart the block recurrence
        // (one extra SpMV). Keyed off the replicated criterion value, so
        // every rank restarts at the same block.
        if value < best_val {
            best_val = value;
            stall_blocks = 0;
        } else {
            stall_blocks += 1;
            if stall_blocks >= GS_STALL_BLOCKS {
                stall_blocks = 0;
                scratch_vec.resize(n, 0.0);
                exec.spmv(&x, &mut scratch_vec, &mut counters);
                counters.record_spmv(exec.spmv_flops());
                pk.sub(exec.b_local(), &scratch_vec, &mut r);
                counters.blas1_flops += nw;
                w_prev = None;
                b_seed = None;
                a_seed = None;
                restarts += 1;
                // Regenerate the basis from the replaced residual; this
                // block's Gram work is discarded (its sweeps never ran, so
                // the consensus chain is unaffected).
                continue;
            }
        }

        // --- Scalar Work, replicated on each rank: GS instead of Cholesky ---
        let scalar_span = spcg_obs::span(tr.as_ref(), Phase::ScalarWork);
        let m_vec = g1.col(0); // Rᵀu
        let uau = g1.matmul(&b_cob); // UᵀAU = (UᵀS)·B, s × s
        let mut sweeps_b = 0usize;
        let (b_k, mut w) = match (&w_prev, &g2) {
            (Some(wp), Some(g2)) => {
                let d = g2.matmul(&b_cob); // P^(k-1)ᵀAU
                let mut rhs = d.clone();
                rhs.scale(-1.0);
                let solved = {
                    let _gs = spcg_obs::span(tr.as_ref(), Phase::GramSweep);
                    gs_solve_mat(wp, &rhs, b_seed.as_ref(), GS_MAX_SWEEPS, GS_TOL)
                };
                let (b_k, sb) = match solved {
                    Ok(v) => v,
                    Err(e) => {
                        final_verdict =
                            Outcome::Breakdown(format!("W^(k-1) Gauss-Seidel undefined: {e}"));
                        break;
                    }
                };
                sweeps_b = sb;
                if b_k.has_non_finite() {
                    final_verdict =
                        Outcome::Breakdown("non-finite W^(k-1) Gauss-Seidel iterate".into());
                    break;
                }
                // W = UᵀAU + Dᵀ·B^(k)  (Alg. 6 line 6).
                let mut w = uau;
                w.axpy(1.0, &d.transpose().matmul(&b_k));
                (Some(b_k), w)
            }
            _ => (None, uau),
        };
        w.symmetrize();
        if w.has_non_finite() {
            final_verdict = Outcome::Breakdown("non-finite Gram data".into());
            break;
        }
        let solved = {
            let _gs = spcg_obs::span(tr.as_ref(), Phase::GramSweep);
            gs_solve(&w, &m_vec, a_seed.as_deref(), GS_MAX_SWEEPS, GS_TOL)
        };
        let (a_vec, sweeps_a) = match solved {
            Ok(v) => v,
            Err(e) => {
                final_verdict = Outcome::Breakdown(format!("W^(k) Gauss-Seidel undefined: {e}"));
                break;
            }
        };
        if a_vec.iter().any(|v| !v.is_finite()) {
            final_verdict = Outcome::Breakdown("non-finite W^(k) Gauss-Seidel iterate".into());
            break;
        }
        // One GS sweep costs ~2s² FLOPs per right-hand-side column.
        counters.small_flops += 2 * sw * sw * (sweeps_b as u64 * sw + sweeps_a as u64);
        prev_sweeps = Some((sweeps_b, sweeps_a));
        drop(scalar_span);

        // --- AU = S·B and the blocked updates, one pass over row tiles ---
        let update_span = spcg_obs::span(tr.as_ref(), Phase::VecUpdate);
        sstep_update(
            &pk,
            &params,
            &s_mat,
            &u_mat,
            b_k.as_ref(),
            &a_vec,
            &mut p_mat,
            &mut ap_mat,
            &mut x,
            &mut r,
            nw,
            &mut counters,
        );
        drop(update_span);

        // Residual replacement (Carson & Demmel), same policy as sPCG.
        if let Some(factor) = opts.residual_replacement {
            let mut red = [exec.dot(&r, &r)];
            exec.allreduce(&mut red);
            let rr = red[0];
            counters.record_dots(1, nw);
            let anchor = *rr_anchor.get_or_insert(rr);
            if rr <= factor * factor * anchor {
                scratch_vec.resize(n, 0.0);
                exec.spmv(&x, &mut scratch_vec, &mut counters);
                counters.record_spmv(exec.spmv_flops());
                pk.sub(exec.b_local(), &scratch_vec, &mut r);
                counters.blas1_flops += nw;
                let mut red = [exec.dot(&r, &r)];
                exec.allreduce(&mut red);
                rr_anchor = Some(red[0]);
            }
        }

        b_seed = b_k;
        a_seed = Some(a_vec);
        w_prev = Some(w);
        iterations += s;
        counters.iterations += sw;
        counters.outer_iterations += 1;
    }

    SolveResult {
        x,
        outcome: final_verdict,
        iterations,
        history: stop.history,
        counters,
        collectives_per_rank: None,
        restarts,
        s_schedule: Vec::new(),
        faults_absorbed: 0,
        adaptive: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::StoppingCriterion;
    use crate::spcg::spcg;
    use spcg_precond::{Identity, Jacobi};
    use spcg_sparse::generators::paper_rhs;
    use spcg_sparse::generators::poisson::{poisson_1d, poisson_2d};

    #[test]
    fn small_s_monomial_solves_easy_poisson() {
        let a = poisson_1d(64);
        let m = Identity::new(64);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let res = capcg_gs(&problem, 2, &BasisType::Monomial, &SolveOptions::default());
        assert!(res.converged(), "{:?}", res.outcome);
        assert!(res.true_relative_residual(&a, &b) < 1e-8);
    }

    #[test]
    fn matches_spcg_iterations_on_well_conditioned_problem() {
        // With a well-conditioned Gram system the GS inner solve hits its
        // 1e-14 early exit in a handful of sweeps, so the outer iteration
        // count should match the Cholesky path closely.
        let a = poisson_2d(16);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = crate::setup::chebyshev_basis(&problem, 20, 0.1);
        let opts = SolveOptions::default().with_tol(1e-7);
        for s in [2usize, 4, 8] {
            let r_ch = spcg(&problem, s, &basis, &opts);
            let r_gs = capcg_gs(&problem, s, &basis, &opts);
            assert!(r_gs.converged(), "s={s}: {:?}", r_gs.outcome);
            assert!(
                r_gs.iterations <= r_ch.iterations + 2 * s,
                "s={s}: GS took {} vs Cholesky {}",
                r_gs.iterations,
                r_ch.iterations
            );
        }
    }

    #[test]
    fn one_collective_per_outer_iteration() {
        let a = poisson_2d(14);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = crate::setup::chebyshev_basis(&problem, 20, 0.1);
        let opts = SolveOptions::default().with_criterion(StoppingCriterion::PrecondMNorm);
        let res = capcg_gs(&problem, 5, &basis, &opts);
        assert!(res.converged());
        let outer = res.counters.outer_iterations;
        // Sweep-consensus words ride on the existing reduction: still one
        // collective per outer iteration (+ the final check-only one).
        assert_eq!(res.counters.global_collectives, outer + 1);
        assert_eq!(res.counters.spmv_count, 5 * (outer + 1));
    }

    #[test]
    fn charges_gram_sweep_flops() {
        let a = poisson_2d(12);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let res = capcg_gs(&problem, 4, &BasisType::Monomial, &SolveOptions::default());
        assert!(res.converged(), "{:?}", res.outcome);
        assert!(res.counters.small_flops > 0, "GS sweeps must be charged");
    }

    #[test]
    fn s_equal_one_still_works() {
        let a = poisson_1d(40);
        let m = Identity::new(40);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let res = capcg_gs(&problem, 1, &BasisType::Monomial, &SolveOptions::default());
        assert!(res.converged(), "{:?}", res.outcome);
    }

    #[test]
    fn respects_max_iters() {
        let a = poisson_2d(20);
        let m = Identity::new(a.nrows());
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::default().with_tol(1e-15).with_max_iters(20);
        let res = capcg_gs(&problem, 5, &BasisType::Monomial, &opts);
        assert!(matches!(
            res.outcome,
            Outcome::MaxIterations | Outcome::Stagnated
        ));
        assert!(res.iterations <= 20);
    }
}
