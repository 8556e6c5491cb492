//! CA-PCG3 — communication-avoiding three-term PCG (Hoemmen \[14\], paper
//! Algorithm 4).
//!
//! Built on PCG3's three-term recurrence. Per outer iteration it extends
//! the basis `W^(k)` spanning `K_{s+1}(AM⁻¹, r^(sk))` (s SpMVs + s
//! preconditioner applications), reduces one `(2s+1)²` Gram matrix against
//! the *previous* outer iteration's residual block `[R^(k-1), W^(k)]`, and
//! then forms every `A·u^(sk+j)` and `M⁻¹A·u^(sk+j)` of the inner loop as
//! GEMVs with coordinate vectors `d` (eq. 10) — no further SpMV or
//! preconditioner work.
//!
//! The coordinate operator `D` maps `g` (coordinates of `r^(sk+j)`) to `d`
//! (coordinates of `A·u^(sk+j)`): on the `W` block it is the change-of-basis
//! matrix `B_{s+1}` (eq. 9); on the `R^(k-1)` block it inverts the previous
//! block's three-term recurrence,
//! `A·u_i = (1/γ_i)·r_i + ((1−ρ_i)/(ρ_i γ_i))·r_{i-1} − (1/(ρ_i γ_i))·r_{i+1}`,
//! using the γ/ρ scalars saved from that block. A support argument
//! (asserted in debug builds) shows the two out-of-basis columns — old
//! residual `r^(s(k-1)-1)` and basis vector `P_{s+1}` — are never touched
//! with nonzero weight during the s inner steps.
//!
//! The x/r/u updates are unblockable BLAS1 three-term combinations — the
//! performance drawback the paper holds against CA-PCG3 (§4.1).

use crate::blockops::{gemv_concat, gram_concat, quad_form};
use crate::engine::{allreduce_gram, Exec};
use crate::options::{SolveOptions, SolveResult};
use crate::stopping::StopState;
use spcg_basis::cob::b_small;
use spcg_basis::BasisType;
use spcg_dist::Counters;
use spcg_obs::Phase;
use spcg_sparse::{DenseMat, MultiVector};

/// CA-PCG3 over any execution substrate (see [`crate::engine`]).
pub(crate) fn capcg3_g<E: Exec>(
    exec: &mut E,
    b: &[f64],
    s: usize,
    basis: &BasisType,
    opts: &SolveOptions,
) -> SolveResult {
    assert!(s >= 2, "capcg3: s must be at least 2");
    let n = exec.nl();
    let nw = exec.n_global();
    let sw = s as u64;
    let dim = 2 * s + 1;
    let pk = exec.kernels().clone();
    let tr = exec.track().cloned();
    let mut counters = Counters::new();
    let mut stop = StopState::new(opts);

    let params = basis.params(s);
    let b_w = b_small(&params, s + 1); // (s+1) × s, the W-block operator

    // Full-length three-term state.
    let mut x_prev = vec![0.0; n];
    let mut x = vec![0.0; n];
    let mut r_prev = vec![0.0; n];
    let mut r = b.to_vec();
    let mut u_prev = vec![0.0; n];
    let mut u = vec![0.0; n];
    exec.precond(&r, &mut u, &mut counters);
    counters.record_precond(exec.m_flops());

    // Previous residual block R^(k-1) / U^(k-1) and its recurrence scalars.
    let mut r_old = MultiVector::zeros(n, s);
    let mut u_old = MultiVector::zeros(n, s);
    let mut gamma_hist: Vec<f64> = Vec::new();
    let mut rho_hist: Vec<f64> = Vec::new();

    // Cross-iteration scalars of the three-term recurrence.
    let mut mu_prev = 0.0f64;
    let mut gamma_prev = 0.0f64;
    let mut rho_prev = 1.0f64;

    let mut w_mat = MultiVector::zeros(n, s + 1);
    let mut v_mat = MultiVector::zeros(n, s + 1);
    let mut w_vec = vec![0.0; n];
    let mut v_vec = vec![0.0; n];
    let mut next = vec![0.0; n];

    let mut iterations = 0usize;
    let outcome = 'outer: loop {
        // --- basis W^(k) = K_{s+1}(AM⁻¹, r^(sk)), V = M⁻¹W ---
        // u is refreshed from the recursive residual instead of reusing the
        // recursively updated preconditioned residual: the three-term u
        // recursion compounds drift across blocks and, at s ≳ 10, costs
        // several digits of attainable accuracy. One extra preconditioner
        // application per s steps.
        exec.mpk(&r, None, &params, &mut w_mat, &mut v_mat, &mut counters);
        u.copy_from_slice(v_mat.col(0));
        let partial = stop.partial(exec, b, &x, &r, &mut counters);

        // --- single global reduction: G = [U_old|V]ᵀ[R_old|W] ---
        let gram_span = spcg_obs::span(tr.as_ref(), Phase::Gram);
        let mut g_mat = gram_concat(&pk, &u_old, &v_mat, &r_old, &w_mat);
        counters.record_dots((dim * dim) as u64, nw);
        let crit = allreduce_gram(exec, &mut [&mut g_mat], &mut [], partial, &mut counters);
        drop(gram_span);
        let g_mat = g_mat;

        // --- convergence check every s steps ---
        let rtu = g_mat[(s, s)]; // uᵀr (V col 0 · W col 0)
        if let Err(outcome) = stop.block_check(iterations, rtu, crit) {
            break outcome;
        }

        // --- coordinate operator D for this outer iteration ---
        let d_op = {
            let _sw = spcg_obs::span(tr.as_ref(), Phase::ScalarWork);
            build_d_operator(s, &gamma_hist, &rho_hist, &b_w)
        };

        // Coordinates of r^(sk) and r^(sk-1) in [R_old | W].
        let mut g_c = vec![0.0; dim];
        g_c[s] = 1.0;
        let mut g_c_prev = vec![0.0; dim];
        if iterations > 0 {
            g_c_prev[s - 1] = 1.0; // r^(sk-1) = last column of R_old
        }

        // New residual block collected during the inner loop.
        let mut r_new = MultiVector::zeros(n, s);
        let mut u_new = MultiVector::zeros(n, s);
        let mut gamma_new = Vec::with_capacity(s);
        let mut rho_new = Vec::with_capacity(s);

        for j in 0..s {
            r_new.col_mut(j).copy_from_slice(&r);
            u_new.col_mut(j).copy_from_slice(&u);

            // Out-of-basis columns must carry zero weight (support lemma).
            debug_assert_eq!(g_c[0], 0.0, "support leaked onto r^(s(k-1)-1)");
            debug_assert_eq!(g_c[dim - 1], 0.0, "support leaked onto P_(s+1)");
            let scalar_span = spcg_obs::span(tr.as_ref(), Phase::ScalarWork);
            let d_c = d_op.matvec(&g_c);
            let mu = quad_form(&g_mat, &g_c, &g_c);
            let nu = quad_form(&g_mat, &g_c, &d_c);
            if !(nu > 0.0) || !(mu > 0.0) || !nu.is_finite() || !mu.is_finite() {
                // x, r, u are live full vectors; judge before failing.
                let msg = format!("coordinate moments uᵀAu = {nu}, rᵀu = {mu}");
                let c = &mut counters;
                break 'outer stop.resolve_breakdown(exec, b, iterations + j, &x, &r, mu, msg, c);
            }
            let gamma = mu / nu;
            let prev = (gamma_prev, mu_prev, rho_prev);
            let rho = match crate::pcg3::rho_step(iterations + j == 0, gamma, mu, prev) {
                Ok(rho) => rho,
                Err(outcome) => break 'outer outcome,
            };

            drop(scalar_span);
            let update_span = spcg_obs::span(tr.as_ref(), Phase::VecUpdate);
            // w = A·u, v = M⁻¹A·u via GEMV with the stored blocks (eq. 10).
            gemv_concat(&pk, &r_old, &w_mat, &d_c, &mut w_vec);
            gemv_concat(&pk, &u_old, &v_mat, &d_c, &mut v_vec);
            counters.blas2_flops += 2 * 2 * dim as u64 * nw;

            // Three-term BLAS1 updates (lines 17–19); `+(−γ)` is bitwise
            // `−γ·` in the r and u combinations.
            pk.three_term(rho, gamma, &x, &u, &x_prev, &mut next);
            std::mem::swap(&mut x_prev, &mut x);
            std::mem::swap(&mut x, &mut next);
            pk.three_term(rho, -gamma, &r, &w_vec, &r_prev, &mut next);
            std::mem::swap(&mut r_prev, &mut r);
            std::mem::swap(&mut r, &mut next);
            pk.three_term(rho, -gamma, &u, &v_vec, &u_prev, &mut next);
            std::mem::swap(&mut u_prev, &mut u);
            std::mem::swap(&mut u, &mut next);
            counters.blas1_flops += 15 * nw;
            drop(update_span);

            // Coordinate recurrence for the next g.
            let mut g_next = vec![0.0; dim];
            for i in 0..dim {
                g_next[i] = rho * (g_c[i] - gamma * d_c[i]) + (1.0 - rho) * g_c_prev[i];
            }
            g_c_prev = std::mem::replace(&mut g_c, g_next);

            mu_prev = mu;
            gamma_prev = gamma;
            rho_prev = rho;
            gamma_new.push(gamma);
            rho_new.push(rho);
        }
        counters.small_flops += 10 * (dim * dim) as u64 * sw;

        r_old = r_new;
        u_old = u_new;
        gamma_hist = gamma_new;
        rho_hist = rho_new;

        iterations += s;
        counters.iterations += sw;
        counters.outer_iterations += 1;
    };

    SolveResult::new(x, outcome, iterations, stop.history, counters)
}

/// Builds the `(2s+1)²` operator mapping residual coordinates `g` to the
/// coordinates `d` of `A·u` in `[R^(k-1), W^(k)]`.
fn build_d_operator(s: usize, gamma_hist: &[f64], rho_hist: &[f64], b_w: &DenseMat) -> DenseMat {
    let dim = 2 * s + 1;
    let mut d = DenseMat::zeros(dim, dim);
    // Old block, columns 1..s (column 0 would need the out-of-basis residual
    // r^(s(k-1)-1) and is provably never applied to nonzero weight).
    if !gamma_hist.is_empty() {
        debug_assert_eq!(gamma_hist.len(), s);
        debug_assert_eq!(rho_hist.len(), s);
        for i in 1..s {
            let (gi, ri) = (gamma_hist[i], rho_hist[i]);
            d[(i, i)] = 1.0 / gi;
            d[(i - 1, i)] = (1.0 - ri) / (ri * gi);
            // r_{i+1}: old column i+1, or W column 0 (= r^(sk)) for i = s−1.
            let up = if i + 1 < s { i + 1 } else { s };
            d[(up, i)] = -1.0 / (ri * gi);
        }
    }
    // W block: columns s..2s-1 via B_{s+1} (column 2s never applied).
    for l in 0..s {
        for m in 0..=s {
            let v = b_w[(m, l)];
            if v != 0.0 {
                d[(s + m, s + l)] = v;
            }
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{Outcome, Problem, StoppingCriterion};
    use crate::{solve, Engine::Serial, Method};
    use spcg_precond::{Identity, Jacobi};
    use spcg_sparse::generators::paper_rhs;
    use spcg_sparse::generators::poisson::{poisson_1d, poisson_2d};

    #[test]
    fn monomial_small_s_solves_poisson() {
        let a = poisson_1d(64);
        let m = Identity::new(64);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = BasisType::Monomial;
        let opts = SolveOptions::from_env();
        let res = solve(&Method::CaPcg3 { s: 3, basis }, &problem, &opts, Serial);
        assert!(res.converged(), "{:?}", res.outcome);
        assert!(res.true_relative_residual(&a, &b) < 1e-8);
    }

    #[test]
    fn matches_pcg3_iterations_with_chebyshev_basis() {
        let a = poisson_2d(14);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = crate::setup::chebyshev_basis(&problem, 20, 0.1);
        let opts = SolveOptions::from_env();
        let r3 = solve(&Method::Pcg3, &problem, &opts, Serial);
        let capcg3 = Method::CaPcg3 { s: 2, basis };
        for s in [2usize, 5] {
            let res = solve(&capcg3.with_s(s), &problem, &opts, Serial);
            assert!(res.converged(), "s={s}: {:?}", res.outcome);
            let cap = ((r3.iterations + s) / s) * s + 2 * s;
            assert!(
                res.iterations <= cap,
                "s={s}: {} vs PCG3 {}",
                res.iterations,
                r3.iterations
            );
        }
    }

    #[test]
    fn first_outer_block_matches_pcg3_exactly() {
        // With a monomial basis and exact arithmetic the first s steps are
        // identical to PCG3; in f64 they agree to ~1e-12 on an easy
        // problem.
        let a = poisson_1d(20);
        let m = Identity::new(20);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let o = SolveOptions::from_env().with_max_iters(4).with_tol(1e-30);
        let r3 = solve(&Method::Pcg3, &problem, &o, Serial);
        let basis = BasisType::Monomial;
        let rc = solve(&Method::CaPcg3 { s: 4, basis }, &problem, &o, Serial);
        for (p, q) in r3.x.iter().zip(&rc.x) {
            assert!((p - q).abs() < 1e-10, "{p} vs {q}");
        }
    }

    #[test]
    fn s_mv_and_precond_per_outer() {
        let a = poisson_2d(12);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let s = 4;
        let basis = crate::setup::chebyshev_basis(&problem, 20, 0.1);
        let opts = SolveOptions::from_env().with_criterion(StoppingCriterion::PrecondMNorm);
        let res = solve(&Method::CaPcg3 { s, basis }, &problem, &opts, Serial);
        assert!(res.converged(), "{:?}", res.outcome);
        let outer = res.counters.outer_iterations;
        assert_eq!(res.counters.spmv_count, s as u64 * (outer + 1));
        // s+1 preconds per outer round: the per-block refresh of u = M⁻¹r
        // (see the solver body) costs one beyond the paper's s.
        assert_eq!(res.counters.precond_count, (s as u64 + 1) * (outer + 1) + 1);
        assert_eq!(res.counters.global_collectives, outer + 1);
        let dimw = (2 * s + 1) as u64;
        assert_eq!(res.counters.allreduce_words, dimw * dimw * (outer + 1));
    }

    #[test]
    fn monomial_s10_fails_where_pcg_converges() {
        use spcg_sparse::generators::random_spd::{spd_with_spectrum, SpectrumShape};
        let a = spd_with_spectrum(500, &SpectrumShape::Uniform { kappa: 1e5 }, 1.0, 3, 31);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env().with_max_iters(3000);
        assert!(solve(&Method::Pcg, &problem, &opts, Serial).converged());
        let basis = BasisType::Monomial;
        let res = solve(&Method::CaPcg3 { s: 10, basis }, &problem, &opts, Serial);
        assert!(
            !res.converged(),
            "monomial s=10 should fail, got {:?}",
            res.outcome
        );
    }

    #[test]
    fn respects_max_iters() {
        let a = poisson_2d(20);
        let m = Identity::new(a.nrows());
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env().with_tol(1e-15).with_max_iters(8);
        let basis = BasisType::Monomial;
        let res = solve(&Method::CaPcg3 { s: 4, basis }, &problem, &opts, Serial);
        assert!(matches!(
            res.outcome,
            Outcome::MaxIterations | Outcome::Stagnated
        ));
    }
}
