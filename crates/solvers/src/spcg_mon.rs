//! sPCG_mon — the original monomial-only s-step PCG of Chronopoulos & Gear
//! (paper Algorithm 2).
//!
//! Structurally identical to [`mod@crate::spcg`] with the monomial basis, but
//! its "Scalar Work" builds the small matrices from the **moment vector**
//! (eq. 13): the 2s scalars `μ_l = rᵀ(M⁻¹A)^l u` are the only local
//! reductions, and `UᵀAU` is assembled as the Hankel matrix
//! `UᵀAU[i][j] = μ_{i+j+1}`. Hankel moment matrices are notoriously
//! ill-conditioned — this, on top of the monomial basis itself, is why
//! sPCG_mon converges for almost none of the paper's Table-2 matrices.
//!
//! Implementation note (see DESIGN.md): the original algorithm computes the
//! cross term `C^(k) = −P^(k-1)ᵀAU^(k)` through a scalar recurrence in the
//! moments and `a^(k-1)`. We compute the numerically equivalent Gram product
//! directly but *charge the instrumentation with the original algorithm's
//! cost* (2s local reduction units, one 2s-word collective per s steps —
//! Table 1 row sPCG_mon), so performance modeling reflects the published
//! method.

use crate::blockops::sstep_update;
use crate::engine::{allreduce_gram, Exec, SerialExec};
use crate::options::{Outcome, Problem, SolveOptions, SolveResult};
use crate::stopping::{criterion_value, StopState, Verdict};
use spcg_basis::poly::BasisParams;
use spcg_dist::Counters;
use spcg_obs::Phase;
use spcg_sparse::smallsolve::{solve_spd_mat_with_fallback, solve_spd_with_fallback};
use spcg_sparse::{DenseMat, MultiVector};

/// Solves `A x = b` with the monomial-basis s-step PCG of \[7\] (Alg. 2).
///
/// # Panics
/// Panics if `s < 1`.
pub fn spcg_mon(problem: &Problem<'_>, s: usize, opts: &SolveOptions) -> SolveResult {
    spcg_mon_g(&mut SerialExec::new(problem, opts), s, opts)
}

/// sPCG_mon over any execution substrate (see [`crate::engine`]).
pub(crate) fn spcg_mon_g<E: Exec>(exec: &mut E, s: usize, opts: &SolveOptions) -> SolveResult {
    assert!(s >= 1, "spcg_mon: s must be at least 1");
    let n = exec.nl();
    let nw = exec.n_global();
    let sw = s as u64;
    let pk = exec.kernels().clone();
    let tr = exec.track().cloned();
    let mut counters = Counters::new();
    let mut stop = StopState::new(opts);
    let mut scratch_vec = Vec::new();

    let params = BasisParams::monomial(s);

    let mut x = vec![0.0; n];
    let mut r = exec.b_local().to_vec();

    let mut s_mat = MultiVector::zeros(n, s + 1);
    let mut u_mat = MultiVector::zeros(n, s);
    let mut p_mat = MultiVector::zeros(n, s);
    let mut ap_mat = MultiVector::zeros(n, s);
    let mut w_prev: Option<DenseMat> = None;

    let mut iterations = 0usize;
    let final_verdict;
    loop {
        // --- monomial s-step basis: S = [r, (AM⁻¹)r, …, (AM⁻¹)^s r] ---
        exec.mpk(&r, None, &params, &mut s_mat, &mut u_mat, &mut counters);

        // --- moments μ_l = rᵀ(M⁻¹A)^l u, l = 0 … 2s−1 (eq. 13) ---
        let gram_span = spcg_obs::span(tr.as_ref(), Phase::Gram);
        // μ_l = (S col i)ᵀ(U col l−i) for any split; take i = min(l, s).
        let mut moments = vec![0.0; 2 * s];
        for (l, slot) in moments.iter_mut().enumerate() {
            let i = l.min(s);
            let j = l - i;
            *slot = exec.dot(s_mat.col(i), u_mat.col(j));
        }
        // The cross-term Gram (original: moment recurrence — see module
        // docs; charged as the moment vector only).
        let mut g2 = w_prev.as_ref().map(|_| pk.gram(&p_mat, &s_mat));
        counters.record_dots(2 * sw, nw);
        counters.record_collective(2 * sw);
        match g2.as_mut() {
            Some(g2) => allreduce_gram(exec, &mut [g2], &mut moments),
            None => exec.allreduce(&mut moments),
        }
        drop(gram_span);

        // --- convergence check every s steps ---
        let rtu = moments[0];
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

        // --- Scalar Work from moments (monomial Hankel structure) ---
        let scalar_span = spcg_obs::span(tr.as_ref(), Phase::ScalarWork);
        let m_vec: Vec<f64> = moments[..s].to_vec(); // Rᵀu
        let uau = DenseMat::from_fn(s, s, |i, j| moments[i + j + 1]); // Hankel
        let (b_k, mut w) = match (&w_prev, &g2) {
            (Some(wp), Some(g2)) => {
                // Monomial B is the down-shift: (G2·B)[i][j] = G2[i][j+1].
                let d = DenseMat::from_fn(s, s, |i, j| g2[(i, j + 1)]);
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
                let mut w = uau;
                w.axpy(1.0, &d.transpose().matmul(&b_k));
                (Some(b_k), w)
            }
            _ => (None, uau),
        };
        w.symmetrize();
        counters.small_flops += 4 * sw * sw * sw;
        if w.has_non_finite() {
            final_verdict = Outcome::Breakdown("non-finite moment data".into());
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

        // --- blocked updates (BLAS3 + BLAS2, same as sPCG); monomial AU is
        // the last s columns of S, so its tile is a copy and costs nothing ---
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
    use crate::spcg::spcg;
    use spcg_basis::BasisType;
    use spcg_precond::{Identity, Jacobi};
    use spcg_sparse::generators::paper_rhs;
    use spcg_sparse::generators::poisson::{poisson_1d, poisson_2d};

    #[test]
    fn converges_for_small_s_on_easy_problem() {
        let a = poisson_2d(12);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let r_pcg = pcg(&problem, &SolveOptions::default());
        for s in [2usize, 3] {
            let res = spcg_mon(&problem, s, &SolveOptions::default());
            assert!(res.converged(), "s={s}: {:?}", res.outcome);
            let cap = ((r_pcg.iterations + s) / s) * s + 2 * s;
            assert!(
                res.iterations <= cap,
                "s={s}: {} vs PCG {}",
                res.iterations,
                r_pcg.iterations
            );
        }
    }

    #[test]
    fn agrees_with_spcg_monomial_in_easy_regime() {
        // Mathematically identical methods: on a well-conditioned problem
        // the iterates coincide to high precision.
        let a = poisson_1d(48);
        let m = Identity::new(48);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::default();
        let r1 = spcg_mon(&problem, 3, &opts);
        let r2 = spcg(&problem, 3, &BasisType::Monomial, &opts);
        assert!(r1.converged() && r2.converged());
        assert_eq!(r1.iterations, r2.iterations);
        for (p, q) in r1.x.iter().zip(&r2.x) {
            assert!((p - q).abs() < 1e-7, "{p} vs {q}");
        }
    }

    #[test]
    fn moment_collective_is_2s_words() {
        let a = poisson_2d(10);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let s = 4;
        let opts = SolveOptions::default().with_criterion(StoppingCriterion::PrecondMNorm);
        let res = spcg_mon(&problem, s, &opts);
        assert!(res.converged());
        let outer = res.counters.outer_iterations;
        assert_eq!(res.counters.global_collectives, outer + 1);
        assert_eq!(res.counters.allreduce_words, 2 * s as u64 * (outer + 1));
        assert_eq!(res.counters.dot_count, 2 * s as u64 * (outer + 1));
    }

    #[test]
    fn large_s_collapses_where_pcg_succeeds() {
        use spcg_sparse::generators::random_spd::{spd_with_spectrum, SpectrumShape};
        let a = spd_with_spectrum(500, &SpectrumShape::Uniform { kappa: 1e5 }, 1.0, 3, 11);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::default().with_max_iters(3000);
        assert!(pcg(&problem, &opts).converged());
        let res = spcg_mon(&problem, 10, &opts);
        assert!(
            !res.converged(),
            "monomial s=10 should fail here, got {:?}",
            res.outcome
        );
    }
}
