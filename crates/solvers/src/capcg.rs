//! CA-PCG — communication-avoiding PCG (Toledo \[21\], paper Algorithm 3).
//!
//! Transforms the PCG vectors into a `(2s+1)`-dimensional coordinate space
//! spanned by `Y^(k) = [Q^(k), R̂^(k)]` and runs s inner PCG steps entirely
//! on coordinate vectors, with matrix products replaced by the
//! change-of-basis matrix `B` (§2.3). One Gram reduction of `(2s+1)²` words
//! per outer iteration.
//!
//! The cost signature the paper highlights: building the *two* Krylov bases
//! (from `q^(sk)` and `r^(sk)`) takes `2s−1` SpMVs and `2s−1` preconditioner
//! applications per s steps — nearly double everyone else — which is why
//! CA-PCG never achieves speedup over PCG in the paper's Table 3 and
//! Figure 1 despite its excellent stability in Table 2.

use crate::blockops::{gemv_concat, gemv_concat_acc, gram_concat};
use crate::engine::{allreduce_gram, Exec, SerialExec};
use crate::options::{Outcome, Problem, SolveOptions, SolveResult};
use crate::stopping::{criterion_value, StopState, Verdict};
use spcg_basis::cob::b_capcg;
use spcg_basis::BasisType;
use spcg_dist::Counters;
use spcg_obs::Phase;
use spcg_sparse::{blas, GemvOut, MultiVector};

/// Solves `A x = b` with CA-PCG (Alg. 3).
///
/// # Panics
/// Panics if `s < 2` (the coordinate-space layout needs at least two inner
/// steps; use plain PCG for `s = 1`).
pub fn capcg(
    problem: &Problem<'_>,
    s: usize,
    basis: &BasisType,
    opts: &SolveOptions,
) -> SolveResult {
    capcg_g(&mut SerialExec::new(problem, opts), s, basis, opts)
}

/// CA-PCG over any execution substrate (see [`crate::engine`]).
pub(crate) fn capcg_g<E: Exec>(
    exec: &mut E,
    s: usize,
    basis: &BasisType,
    opts: &SolveOptions,
) -> SolveResult {
    assert!(s >= 2, "capcg: s must be at least 2");
    let n = exec.nl();
    let nw = exec.n_global();
    let sw = s as u64;
    let dim = 2 * s + 1;
    let pk = exec.kernels().clone();
    let tr = exec.track().cloned();
    let mut counters = Counters::new();
    let mut stop = StopState::new(opts);
    let mut scratch_vec = Vec::new();

    let params = basis.params(s);
    let b_mat = b_capcg(&params, s);

    let mut x = vec![0.0; n];
    let mut r = exec.b_local().to_vec();
    let mut u = vec![0.0; n];
    exec.precond(&r, &mut u, &mut counters);
    counters.record_precond(exec.m_flops());
    let mut q = r.clone();
    let mut p = u.clone();

    // Y = [Q | R̂], Z = [P | U] kept as separate blocks.
    let mut q_mat = MultiVector::zeros(n, s + 1);
    let mut p_mat = MultiVector::zeros(n, s + 1);
    let mut r_mat = MultiVector::zeros(n, s);
    let mut u_mat = MultiVector::zeros(n, s);

    let mut iterations = 0usize;
    let final_verdict;
    'outer: loop {
        // --- the two s-step bases (2s−1 SpMVs, 2s−1 precond total) ---
        exec.mpk(&q, Some(&p), &params, &mut q_mat, &mut p_mat, &mut counters);
        exec.mpk(&r, Some(&u), &params, &mut r_mat, &mut u_mat, &mut counters);

        // --- single global reduction: G = ZᵀY, (2s+1)² words ---
        let gram_span = spcg_obs::span(tr.as_ref(), Phase::Gram);
        let mut g = gram_concat(&pk, &p_mat, &u_mat, &q_mat, &r_mat);
        counters.record_dots((dim * dim) as u64, nw);
        counters.record_collective((dim * dim) as u64);
        allreduce_gram(exec, &mut [&mut g], &mut []);
        drop(gram_span);
        let g = g;

        // --- convergence check every s steps ---
        let rtu = g[(s + 1, s + 1)]; // uᵀr
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

        // --- coordinate-space inner loop (no communication) ---
        let scalar_span = spcg_obs::span(tr.as_ref(), Phase::ScalarWork);
        let mut p_c = vec![0.0; dim];
        p_c[0] = 1.0;
        let mut r_c = vec![0.0; dim];
        r_c[s + 1] = 1.0;
        let mut x_c = vec![0.0; dim];
        let mut rho = quad_form(&g, &r_c, &r_c); // r'ᵀGr' = rᵀu
        for _ in 0..s {
            let bp = b_mat.matvec(&p_c);
            let gbp = g.matvec(&bp);
            let denom = blas::dot(&p_c, &gbp);
            if !(denom > 0.0) || !denom.is_finite() || !(rho > 0.0) || !rho.is_finite() {
                // Recover the mid-block iterate, then judge: breakdown at a
                // converged residual is convergence.
                gemv_concat_acc(&pk, &p_mat, &u_mat, &x_c, &mut x);
                gemv_concat(&pk, &q_mat, &r_mat, &r_c, &mut r);
                let v = criterion_value(
                    exec,
                    opts.criterion,
                    &x,
                    &r,
                    rho,
                    &mut scratch_vec,
                    &mut counters,
                );
                final_verdict = stop.resolve_breakdown(
                    iterations,
                    v,
                    format!("coordinate-space curvature pᵀGBp = {denom}, rᵀGr = {rho}"),
                );
                break 'outer;
            }
            let alpha = rho / denom;
            for i in 0..dim {
                x_c[i] += alpha * p_c[i];
                r_c[i] -= alpha * bp[i];
            }
            let rho_new = quad_form(&g, &r_c, &r_c);
            let beta = rho_new / rho;
            rho = rho_new;
            for i in 0..dim {
                p_c[i] = r_c[i] + beta * p_c[i];
            }
        }
        counters.small_flops += 8 * (dim * dim) as u64 * sw;
        drop(scalar_span);

        // --- recover the full vectors (BLAS2, lines 14–16) ---
        let update_span = spcg_obs::span(tr.as_ref(), Phase::VecUpdate);
        // Each basis block is read once for all the vectors it yields.
        pk.gemv_multi(
            &[&q_mat, &r_mat],
            &mut [GemvOut::Set(&p_c, &mut q), GemvOut::Set(&r_c, &mut r)],
        );
        pk.gemv_multi(
            &[&p_mat, &u_mat],
            &mut [
                GemvOut::Set(&p_c, &mut p),
                GemvOut::Set(&r_c, &mut u),
                GemvOut::Acc(&x_c, &mut x),
            ],
        );
        counters.blas2_flops += 5 * 2 * dim as u64 * nw;
        drop(update_span);

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

/// `aᵀ G b` for small vectors.
fn quad_form(g: &spcg_sparse::DenseMat, a: &[f64], b: &[f64]) -> f64 {
    let gb = g.matvec(b);
    blas::dot(a, &gb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::StoppingCriterion;
    use crate::pcg::pcg;
    use spcg_basis::ritz::estimate_spectrum;
    use spcg_precond::{Identity, Jacobi};
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
    fn monomial_small_s_solves_poisson() {
        let a = poisson_1d(64);
        let m = Identity::new(64);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let res = capcg(&problem, 3, &BasisType::Monomial, &SolveOptions::default());
        assert!(res.converged(), "{:?}", res.outcome);
        assert!(res.true_relative_residual(&a, &b) < 1e-8);
    }

    #[test]
    fn chebyshev_matches_pcg_iterations() {
        let a = poisson_2d(16);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = chebyshev_basis(&problem);
        let r_pcg = pcg(&problem, &SolveOptions::default());
        for s in [2usize, 5, 10] {
            let res = capcg(&problem, s, &basis, &SolveOptions::default());
            assert!(res.converged(), "s={s}: {:?}", res.outcome);
            let cap = ((r_pcg.iterations + s) / s) * s + 2 * s;
            assert!(
                res.iterations <= cap,
                "s={s}: {} vs {}",
                res.iterations,
                r_pcg.iterations
            );
        }
    }

    #[test]
    fn costs_2s_minus_1_mv_and_precond_per_outer() {
        let a = poisson_2d(12);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let s = 4;
        let basis = chebyshev_basis(&problem);
        let opts = SolveOptions::default().with_criterion(StoppingCriterion::PrecondMNorm);
        let res = capcg(&problem, s, &basis, &opts);
        assert!(res.converged());
        let outer = res.counters.outer_iterations;
        // Setup costs 1 precond; each outer (incl. final check) 2s−1 each.
        let per = (2 * s - 1) as u64;
        assert_eq!(res.counters.spmv_count, per * (outer + 1));
        assert_eq!(res.counters.precond_count, per * (outer + 1) + 1);
        assert_eq!(res.counters.global_collectives, outer + 1);
        let dim = (2 * s + 1) as u64;
        assert_eq!(res.counters.allreduce_words, dim * dim * (outer + 1));
    }

    #[test]
    fn monomial_s10_degrades_on_hard_problem() {
        use spcg_sparse::generators::random_spd::{spd_with_spectrum, SpectrumShape};
        let kappa = 1e5;
        let a = spd_with_spectrum(500, &SpectrumShape::Uniform { kappa }, 1.0, 3, 21);
        let m = Identity::new(a.nrows());
        // A rhs with uniform eigencomponent weights (unlike `paper_rhs`,
        // whose `b = A·x*` damps the small-eigenvalue components) so the
        // full κ difficulty is exposed to the basis conditioning.
        let n = a.nrows();
        let b = vec![1.0 / (n as f64).sqrt(); n];
        let problem = Problem::new(&a, &m, &b);
        // tol 1e-7: above the s-step attainable-accuracy floor at this κ
        // (at 1e-9 even the Chebyshev basis stalls — the behaviour the
        // paper's Table 2 hyphens record for its hardest matrices).
        let opts = SolveOptions::default().with_max_iters(8000).with_tol(1e-7);
        let r_pcg = pcg(&problem, &opts);
        assert!(r_pcg.converged());
        // The generator pins the spectrum to [1/κ, 1] exactly, so the
        // Chebyshev basis interval needs no Ritz estimation here.
        let basis = BasisType::Chebyshev {
            lambda_min: 1.0 / kappa,
            lambda_max: 1.0,
        };
        let r_mono = capcg(&problem, 10, &BasisType::Monomial, &opts);
        let r_cheb = capcg(&problem, 10, &basis, &opts);
        assert!(
            r_cheb.converged(),
            "chebyshev should converge: {:?}",
            r_cheb.outcome
        );
        // Monomial either fails or is significantly delayed (Table 2's
        // CA-PCG column shows delays up to 3×).
        if r_mono.converged() {
            assert!(
                r_mono.iterations > r_cheb.iterations + 20,
                "monomial {} vs chebyshev {}",
                r_mono.iterations,
                r_cheb.iterations
            );
        }
    }

    #[test]
    fn respects_max_iters() {
        let a = poisson_2d(20);
        let m = Identity::new(a.nrows());
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::default().with_tol(1e-15).with_max_iters(10);
        let res = capcg(&problem, 5, &BasisType::Monomial, &opts);
        assert!(matches!(
            res.outcome,
            Outcome::MaxIterations | Outcome::Stagnated
        ));
    }
}
