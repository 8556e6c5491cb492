//! sPCG — the paper's contribution (Algorithms 5 and 6): the
//! Chronopoulos/Gear s-step PCG generalized to arbitrary polynomial bases.
//!
//! Per outer iteration (= s PCG-equivalent steps):
//!
//! 1. **MPK** builds `S^(k)` (`n × (s+1)`, basis of `K_{s+1}(AM⁻¹, r)`) and
//!    `U^(k) = M⁻¹S^(k)[:, :s]` — s SpMVs + s preconditioner applications,
//!    no global communication.
//! 2. `AU^(k) = S^(k)·B` via the tridiagonal change-of-basis matrix
//!    (eq. 9) — a local column combination, free for the monomial basis,
//!    formed tile by tile inside step 4 and never stored.
//! 3. **Scalar Work** (Alg. 6): one Gram computation
//!    `[Uᵀ S ; P^(k-1)ᵀ S]` = **one global reduction of 2s(s+1) words**,
//!    from which `m = Rᵀu`, `UᵀAU = (UᵀS)·B` and
//!    `D = P^(k-1)ᵀAU = (P^(k-1)ᵀS)·B` follow locally. Then
//!    `W^(k-1)·B^(k) = −D` (A-orthogonality of consecutive blocks) and
//!    `W^(k)·a^(k) = m` are s×s solves replicated on every rank.
//! 4. **Blocked updates** (BLAS3/BLAS2): `P ← U + P·B^(k)`,
//!    `AP ← AU + AP·B^(k)`, `x += P·a`, `r −= AP·a` — one pass over row
//!    tiles (`ParKernels::sstep_block_update`).
//!
//! With the monomial basis this is *mathematically* the same as sPCG_mon
//! but computes the Gram blocks directly instead of via the moment vector —
//! the small numerical edge §3.2 notes.

use crate::blockops::{gram_stacked, sstep_update};
use crate::engine::{allreduce_gram, Exec, SerialExec};
use crate::options::{Outcome, Problem, SolveOptions, SolveResult};
use crate::stopping::{criterion_value, StopState, Verdict};
use spcg_basis::cob::b_small;
use spcg_basis::BasisType;
use spcg_dist::Counters;
use spcg_obs::Phase;
use spcg_sparse::smallsolve::{solve_spd_mat_with_fallback, solve_spd_with_fallback};
use spcg_sparse::{DenseMat, MultiVector};

/// Solves `A x = b` with sPCG (Alg. 5), blocking `s` steps per global
/// reduction and building the s-step bases with `basis`.
///
/// # Panics
/// Panics if `s < 1` or the Newton basis provides fewer than `s` shifts.
pub fn spcg(
    problem: &Problem<'_>,
    s: usize,
    basis: &BasisType,
    opts: &SolveOptions,
) -> SolveResult {
    spcg_g(&mut SerialExec::new(problem, opts), s, basis, opts)
}

/// sPCG over any execution substrate (see [`crate::engine`]).
pub(crate) fn spcg_g<E: Exec>(
    exec: &mut E,
    s: usize,
    basis: &BasisType,
    opts: &SolveOptions,
) -> SolveResult {
    assert!(s >= 1, "spcg: s must be at least 1");
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
    // Residual-replacement state: ‖r‖² at the last replacement.
    let mut rr_anchor: Option<f64> = None;

    let mut iterations = 0usize;
    let final_verdict;
    loop {
        // --- s-step basis (neighbour communication only) ---
        exec.mpk(&r, None, &params, &mut s_mat, &mut u_mat, &mut counters);

        // --- the single global reduction: [UᵀS ; PᵀS] ---
        let gram_span = spcg_obs::span(tr.as_ref(), Phase::Gram);
        // Both s × (s+1) blocks from one pass over S.
        let (mut g1, mut g2) = gram_stacked(&pk, &u_mat, w_prev.as_ref().map(|_| &p_mat), &s_mat);
        let blocks = 1 + g2.is_some() as u64;
        counters.record_dots(blocks * sw * (sw + 1), nw);
        let words = blocks * sw * (sw + 1);
        counters.record_collective(words);
        match g2.as_mut() {
            Some(g2) => allreduce_gram(exec, &mut [&mut g1, g2], &mut []),
            None => allreduce_gram(exec, &mut [&mut g1], &mut []),
        }
        drop(gram_span);
        let (g1, g2) = (g1, g2);

        // --- convergence check every s steps ---
        // rᵀu is the (0,0) Gram entry (m-vector head) — free for the M-norm.
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

        // --- Scalar Work (Alg. 6), replicated O(s³) on each rank ---
        let scalar_span = spcg_obs::span(tr.as_ref(), Phase::ScalarWork);
        let m_vec = g1.col(0); // Rᵀu
        let uau = g1.matmul(&b_cob); // UᵀAU = (UᵀS)·B, s × s
        let (b_k, mut w) = match (&w_prev, &g2) {
            (Some(wp), Some(g2)) => {
                let d = g2.matmul(&b_cob); // P^(k-1)ᵀAU
                let mut rhs = d.clone();
                rhs.scale(-1.0);
                let solved = {
                    let _ss = spcg_obs::span(tr.as_ref(), Phase::SmallSolve);
                    solve_spd_mat_with_fallback(wp, &rhs)
                };
                let b_k = match solved {
                    Ok(b) => b,
                    Err(e) => {
                        final_verdict = Outcome::Breakdown(format!("W^(k-1) solve failed: {e}"));
                        break;
                    }
                };
                // W = UᵀAU + Dᵀ·B^(k)  (Alg. 6 line 6).
                let mut w = uau;
                w.axpy(1.0, &d.transpose().matmul(&b_k));
                (Some(b_k), w)
            }
            _ => (None, uau),
        };
        w.symmetrize();
        counters.small_flops += 4 * sw * sw * sw;
        if w.has_non_finite() {
            final_verdict = Outcome::Breakdown("non-finite Gram data".into());
            break;
        }
        let solved = {
            let _ss = spcg_obs::span(tr.as_ref(), Phase::SmallSolve);
            solve_spd_with_fallback(&w, &m_vec)
        };
        let a_vec = match solved {
            Ok(a) => a,
            Err(e) => {
                final_verdict = Outcome::Breakdown(format!("W^(k) solve failed: {e}"));
                break;
            }
        };
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

        // Residual replacement (Carson & Demmel): once the recursive
        // residual has shrunk far enough, re-anchor it to b − A·x so the
        // recursion's accumulated drift cannot cap the attainable accuracy.
        if let Some(factor) = opts.residual_replacement {
            // The ‖r‖² partials piggyback on existing traffic (only the dot
            // is charged), matching the serial instrumentation.
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
        restarts: 0,
        s_schedule: Vec::new(),
        faults_absorbed: 0,
        adaptive: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::StoppingCriterion;
    use crate::pcg::pcg;
    use spcg_basis::ritz::estimate_spectrum;
    use spcg_precond::{Identity, Jacobi, Preconditioner};
    use spcg_sparse::generators::paper_rhs;
    use spcg_sparse::generators::poisson::{poisson_1d, poisson_2d};

    fn chebyshev_basis(problem: &Problem<'_>) -> BasisType {
        let est = estimate_spectrum(problem.a, problem.m, problem.b, 20);
        let (lo, hi) = est.chebyshev_interval(0.1);
        BasisType::Chebyshev {
            lambda_min: lo,
            lambda_max: hi,
        }
    }

    #[test]
    fn small_s_monomial_solves_easy_poisson() {
        let a = poisson_1d(64);
        let m = Identity::new(64);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let res = spcg(&problem, 2, &BasisType::Monomial, &SolveOptions::default());
        assert!(res.converged(), "{:?}", res.outcome);
        assert!(res.true_relative_residual(&a, &b) < 1e-8);
    }

    #[test]
    fn chebyshev_basis_matches_pcg_iterations() {
        let a = poisson_2d(16);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = chebyshev_basis(&problem);
        // tol 1e-7 keeps the comparison above the s-step attainable-accuracy
        // floor, which at s = 8 sits near 1e-9 relative on this problem.
        let opts = SolveOptions::default().with_tol(1e-7);
        let r_pcg = pcg(&problem, &opts);
        for s in [2usize, 4, 8] {
            let r_s = spcg(&problem, s, &basis, &opts);
            assert!(r_s.converged(), "s={s}: {:?}", r_s.outcome);
            // s-step methods check every s steps: allow the s-rounding plus
            // a small slack (the paper's "not significant" margin).
            let cap = ((r_pcg.iterations + s) / s) * s + 2 * s;
            assert!(
                r_s.iterations <= cap,
                "s={s}: sPCG took {} vs PCG {}",
                r_s.iterations,
                r_pcg.iterations
            );
        }
    }

    #[test]
    fn newton_basis_converges() {
        let a = poisson_2d(12);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let est = estimate_spectrum(&a, problem.m, &b, 24);
        let shifts = spcg_basis::leja::newton_shifts(&est.ritz, 6);
        let opts = SolveOptions::default().with_tol(1e-7);
        let res = spcg(&problem, 6, &BasisType::Newton { shifts }, &opts);
        assert!(res.converged(), "{:?}", res.outcome);
        assert!(res.true_relative_residual(&a, &b) < 1e-6);
    }

    #[test]
    fn one_collective_per_outer_iteration() {
        let a = poisson_2d(14);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = chebyshev_basis(&problem);
        let opts = SolveOptions::default().with_criterion(StoppingCriterion::PrecondMNorm);
        let res = spcg(&problem, 5, &basis, &opts);
        assert!(res.converged());
        // One reduction per outer iteration, including the final check-only
        // iteration.
        let outer = res.counters.outer_iterations;
        assert_eq!(res.counters.global_collectives, outer + 1);
        // s SpMVs and s preconds per outer iteration (+ the final check).
        assert_eq!(res.counters.spmv_count, 5 * (outer + 1));
        assert_eq!(res.counters.precond_count, 5 * (outer + 1));
    }

    #[test]
    fn counters_match_table1_row() {
        // Table 1, sPCG row: per s steps, local reductions 2s(s+1) dots,
        // monomial-basis vector ops 4s² + 4s FLOPs/n (BLAS2+BLAS3).
        let a = poisson_2d(14);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let s = 4usize;
        let basis = chebyshev_basis(&problem);
        let opts = SolveOptions::default().with_criterion(StoppingCriterion::PrecondMNorm);
        let res = spcg(&problem, s, &basis, &opts);
        assert!(res.converged());
        let outer = res.counters.outer_iterations;
        assert!(outer >= 2);
        let n = problem.n() as u64;
        let sw = s as u64;
        // Dots: first outer has s(s+1), later ones 2s(s+1); plus the final
        // check-only Gram of s(s+1)... conservatively bound both sides.
        let dots = res.counters.dot_count;
        assert!(dots >= 2 * sw * (sw + 1) * (outer - 1));
        assert!(dots <= 2 * sw * (sw + 1) * (outer + 1));
        // BLAS3: 4s²n per outer iteration after the first.
        assert_eq!(res.counters.blas3_flops, 4 * sw * sw * n * (outer - 1));
        // BLAS2: 4sn per outer + the S·B application (bounded by (5s−2)n).
        assert!(res.counters.blas2_flops >= 4 * sw * n * outer);
        assert!(res.counters.blas2_flops <= (4 * sw + 5 * sw) * n * (outer + 1));
    }

    #[test]
    fn monomial_high_s_fails_on_hard_problem() {
        // The headline instability: monomial basis with s = 10 on an
        // ill-conditioned problem must NOT converge like PCG does.
        use spcg_sparse::generators::random_spd::{spd_with_spectrum, SpectrumShape};
        let a = spd_with_spectrum(600, &SpectrumShape::Uniform { kappa: 1e6 }, 1.0, 3, 5);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::default().with_max_iters(4000);
        let r_pcg = pcg(&problem, &opts);
        assert!(
            r_pcg.converged(),
            "baseline PCG should converge: {:?}",
            r_pcg.outcome
        );
        let r_mono = spcg(&problem, 10, &BasisType::Monomial, &opts);
        assert!(
            !r_mono.converged() || r_mono.iterations > 2 * r_pcg.iterations,
            "monomial s=10 unexpectedly healthy: {:?} in {}",
            r_mono.outcome,
            r_mono.iterations
        );
        // And the Chebyshev basis repairs it.
        let basis = chebyshev_basis(&problem);
        let r_cheb = spcg(&problem, 10, &basis, &opts);
        assert!(
            r_cheb.converged(),
            "chebyshev basis should fix it: {:?}",
            r_cheb.outcome
        );
    }

    #[test]
    fn s_equal_one_still_works() {
        let a = poisson_1d(40);
        let m = Identity::new(40);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let res = spcg(&problem, 1, &BasisType::Monomial, &SolveOptions::default());
        assert!(res.converged(), "{:?}", res.outcome);
    }

    #[test]
    fn respects_max_iters() {
        let a = poisson_2d(20);
        let m = Identity::new(a.nrows());
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::default().with_tol(1e-15).with_max_iters(20);
        let res = spcg(&problem, 5, &BasisType::Monomial, &opts);
        assert!(matches!(
            res.outcome,
            Outcome::MaxIterations | Outcome::Stagnated
        ));
        assert!(res.iterations <= 20);
    }

    #[test]
    fn identity_preconditioner_and_jacobi_agree_on_unit_diagonal() {
        // For a matrix with unit diagonal, Jacobi == identity; solver paths
        // must give bit-identical iterates.
        let mut a = poisson_1d(30);
        a.scale(0.5); // diagonal becomes 1.0
        let b = paper_rhs(&a);
        let ident = Identity::new(30);
        let jac = Jacobi::new(&a);
        assert_eq!(jac.apply_alloc(&b), ident.apply_alloc(&b));
        let p1 = Problem::new(&a, &ident, &b);
        let p2 = Problem::new(&a, &jac, &b);
        let r1 = spcg(&p1, 3, &BasisType::Monomial, &SolveOptions::default());
        let r2 = spcg(&p2, 3, &BasisType::Monomial, &SolveOptions::default());
        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(r1.x, r2.x);
    }
}

#[cfg(test)]
mod residual_replacement_tests {
    use super::*;
    use crate::options::{Problem, SolveOptions, StoppingCriterion};
    use spcg_precond::Jacobi;
    use spcg_sparse::generators::paper_rhs;
    use spcg_sparse::generators::poisson::poisson_3d;

    #[test]
    fn replacement_converges_and_charges_extra_spmvs() {
        let a = poisson_3d(10);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = crate::setup::chebyshev_basis(&problem, 20, 0.05);
        let base = SolveOptions::default()
            .with_criterion(StoppingCriterion::PrecondMNorm)
            .with_tol(1e-8);
        let plain = spcg(&problem, 5, &basis, &base);
        let rr = spcg(
            &problem,
            5,
            &basis,
            &base.clone().with_residual_replacement(1e-3),
        );
        assert!(plain.converged() && rr.converged());
        // Replacement costs at least one extra SpMV per replacement event.
        assert!(rr.counters.spmv_count > plain.counters.spmv_count);
        // And the final true residual is at least as good.
        assert!(rr.true_relative_residual(&a, &b) < 1e-6);
    }

    #[test]
    fn replacement_improves_or_matches_attainable_accuracy() {
        // Deep-tolerance run where the recursive residual drifts: the
        // replaced variant must reach at least the same true accuracy.
        let a = poisson_3d(12);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = crate::setup::chebyshev_basis(&problem, 20, 0.05);
        let opts = SolveOptions::default()
            .with_criterion(StoppingCriterion::PrecondMNorm)
            .with_tol(1e-10)
            .with_max_iters(2000);
        let plain = spcg(&problem, 8, &basis, &opts);
        let rr = spcg(
            &problem,
            8,
            &basis,
            &opts.clone().with_residual_replacement(1e-2),
        );
        let tp = plain.true_relative_residual(&a, &b);
        let tr = rr.true_relative_residual(&a, &b);
        assert!(
            tr <= tp * 10.0,
            "replacement degraded accuracy: {tr:.2e} vs {tp:.2e}"
        );
    }
}
