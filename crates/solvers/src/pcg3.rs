//! Three-term recurrence PCG (Rutishauser \[17\]), the method underlying
//! CA-PCG3.
//!
//! PCG3 eliminates the search directions of standard PCG and updates the
//! residuals (and solutions) directly through a three-term recurrence:
//!
//! ```text
//! γ_i = (r_iᵀu_i) / (u_iᵀA u_i),    ρ_0 = 1,
//! ρ_i = (1 − (γ_i/γ_{i-1})·(μ_i/μ_{i-1})·(1/ρ_{i-1}))⁻¹
//! x_{i+1} = ρ_i·(x_i + γ_i·u_i) + (1−ρ_i)·x_{i-1}
//! r_{i+1} = ρ_i·(r_i − γ_i·A u_i) + (1−ρ_i)·r_{i-1}
//! ```
//!
//! Mathematically equivalent to PCG, but its rounding behaviour is worse
//! (Gutknecht & Strakoš \[13\]) — the reason the paper flags CA-PCG3's
//! three-term foundation as a stability liability.
//!
//! One collective per iteration, at the top of the loop: `[(r,u), (u,Au)]`,
//! the criterion's partial riding it, and the criterion judged on that `μ`.
//! The pass that judges the exit has formed `A·u` too, so `k` iterations
//! take `k + 1` SpMVs and `k + 1` collectives.

use crate::engine::{allreduce_gram, Exec};
use crate::options::{Outcome, SolveOptions, SolveResult};
use crate::stopping::StopState;
use spcg_dist::Counters;
use spcg_obs::Phase;

/// PCG3 over any execution substrate (see [`crate::engine`]).
pub(crate) fn pcg3_g<E: Exec>(exec: &mut E, b: &[f64], opts: &SolveOptions) -> SolveResult {
    let n = exec.nl();
    let nw = exec.n_global();
    let pk = exec.kernels().clone();
    let tr = exec.track().cloned();
    let mut counters = Counters::new();
    let mut stop = StopState::new(opts);

    let mut x_prev = vec![0.0; n];
    let mut x = vec![0.0; n];
    let mut r_prev = vec![0.0; n];
    let mut r = b.to_vec();
    let mut u = vec![0.0; n];
    exec.precond(&r, &mut u, &mut counters);
    counters.record_precond(exec.m_flops());
    let mut au = vec![0.0; n];
    let mut next = vec![0.0; n];

    let mut mu_prev = 0.0f64;
    let mut gamma_prev = 0.0f64;
    let mut rho_prev = 1.0f64;

    let mut iterations = 0usize;
    let outcome = loop {
        exec.spmv(&u, &mut au, &mut counters);
        counters.record_spmv(exec.spmv_flops());
        let partial = stop.partial(exec, b, &x, &r, &mut counters);
        let mut red = [pk.dot(&r, &u), pk.dot(&u, &au)];
        let crit = {
            let _g = spcg_obs::span(tr.as_ref(), Phase::Gram);
            allreduce_gram(exec, &mut [], &mut red, partial, &mut counters)
        };
        let [mu, nu] = red;
        counters.record_dots(2, nw);
        if let Err(outcome) = stop.block_check(iterations, mu, crit) {
            break outcome;
        }
        if !(nu > 0.0) || !mu.is_finite() || !nu.is_finite() {
            break Outcome::Breakdown(format!("uᵀAu = {nu}, rᵀu = {mu}"));
        }
        let gamma = mu / nu;
        let rho = match rho_step(iterations == 0, gamma, mu, (gamma_prev, mu_prev, rho_prev)) {
            Ok(rho) => rho,
            Err(outcome) => break outcome,
        };

        {
            let _v = spcg_obs::span(tr.as_ref(), Phase::VecUpdate);
            // x_{i+1} = ρ(x + γu) + (1−ρ)x_prev
            pk.three_term(rho, gamma, &x, &u, &x_prev, &mut next);
            std::mem::swap(&mut x_prev, &mut x);
            std::mem::swap(&mut x, &mut next);
            // r_{i+1} = ρ(r − γ·Au) + (1−ρ)r_prev; `+(−γ)` is bitwise `−γ·`.
            pk.three_term(rho, -gamma, &r, &au, &r_prev, &mut next);
            std::mem::swap(&mut r_prev, &mut r);
            std::mem::swap(&mut r, &mut next);
        }
        counters.blas1_flops += 10 * nw;

        exec.precond(&r, &mut u, &mut counters);
        counters.record_precond(exec.m_flops());

        mu_prev = mu;
        gamma_prev = gamma;
        rho_prev = rho;
        iterations += 1;
        counters.iterations += 1;
        counters.outer_iterations += 1;
    };

    SolveResult::new(x, outcome, iterations, stop.history, counters)
}

/// The three-term recurrence's `ρ = 1 / (1 − (γ/γ₋)(μ/μ₋)(1/ρ₋))` from this
/// step's `γ`, `μ` and the previous step's `(γ₋, μ₋, ρ₋)` — 1 on the first
/// step. A zero or non-finite denominator is a breakdown. Shared by PCG3 and
/// CA-PCG3.
pub(crate) fn rho_step(
    first: bool,
    gamma: f64,
    mu: f64,
    (gamma_prev, mu_prev, rho_prev): (f64, f64, f64),
) -> Result<f64, Outcome> {
    if first {
        return Ok(1.0);
    }
    let denom = 1.0 - (gamma / gamma_prev) * (mu / mu_prev) * (1.0 / rho_prev);
    if denom == 0.0 || !denom.is_finite() {
        return Err(Outcome::Breakdown(format!("rho denominator {denom}")));
    }
    Ok(1.0 / denom)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Problem;
    use crate::{solve, Engine::Serial, Method};
    use spcg_precond::{Identity, Jacobi};
    use spcg_sparse::generators::paper_rhs;
    use spcg_sparse::generators::poisson::{poisson_1d, poisson_2d};

    #[test]
    fn solves_poisson() {
        let a = poisson_2d(10);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let res = solve(&Method::Pcg3, &problem, &SolveOptions::from_env(), Serial);
        assert!(res.converged(), "{:?}", res.outcome);
        assert!(res.true_relative_residual(&a, &b) < 1e-8);
    }

    #[test]
    fn matches_pcg_iteration_count_closely() {
        // Mathematical equivalence: iteration counts agree up to round-off
        // effects (±2 on a well-conditioned problem).
        let a = poisson_2d(14);
        let m = Identity::new(a.nrows());
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env().with_tol(1e-8);
        let r2 = solve(&Method::Pcg, &problem, &opts, Serial);
        let r3 = solve(&Method::Pcg3, &problem, &opts, Serial);
        assert!(r2.converged() && r3.converged());
        let d = r2.iterations.abs_diff(r3.iterations);
        assert!(d <= 2, "PCG {} vs PCG3 {}", r2.iterations, r3.iterations);
    }

    #[test]
    fn first_iteration_matches_pcg_exactly() {
        // With ρ_0 = 1 the first PCG3 step is the first PCG step.
        let a = poisson_1d(12);
        let m = Identity::new(12);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let o = SolveOptions::from_env().with_max_iters(1).with_tol(1e-30);
        let r2 = solve(&Method::Pcg, &problem, &o, Serial);
        let r3 = solve(&Method::Pcg3, &problem, &o, Serial);
        for (p, q) in r2.x.iter().zip(&r3.x) {
            assert!((p - q).abs() < 1e-14);
        }
    }

    #[test]
    fn one_collective_per_iteration() {
        let a = poisson_1d(30);
        let m = Identity::new(30);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env()
            .with_criterion(crate::options::StoppingCriterion::PrecondMNorm);
        let res = solve(&Method::Pcg3, &problem, &opts, Serial);
        assert!(res.converged());
        // One reduction per pass of the loop; the last pass judges the exit
        // after forming A·u.
        let it = res.counters.iterations;
        assert_eq!(res.counters.global_collectives, it + 1);
        assert_eq!(res.counters.spmv_count, it + 1);
    }
}
