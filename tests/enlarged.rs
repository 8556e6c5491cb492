//! Integration tests for the enlarged-Krylov family: `Method::EkCg`
//! (MSDO-CG block directions) and `Method::CaPcgGs` (s-step body with
//! Gauss-Seidel Gram solves).
//!
//! Three claims are pinned down here. First, degenerate parameters
//! collapse to the classical methods *bitwise* (t = 1 enlarges nothing).
//! Second, the Gauss-Seidel Gram path survives the monomial high-s regime
//! that breaks the Cholesky-factored s-step solver — the robustness the
//! method exists for. Third, both methods ride the ranked engine and the
//! resilience driver like every other `Method`, so the engine plumbing
//! (halo exchange, fused allreduce, fault sites) is exercised end to end.

use spcg::basis::BasisType;
use spcg::dist::FaultPlan;
use spcg::precond::Jacobi;
use spcg::solvers::{chebyshev_basis, solve, Engine, Method, Problem, SolveOptions, SolveResult};
use spcg::sparse::generators::paper_rhs;
use spcg::sparse::generators::poisson::poisson_2d;
use spcg::sparse::generators::random_spd::{spd_with_spectrum, SpectrumShape};
use spcg::sparse::CsrMatrix;

/// A rhs exciting every coordinate block: enlarged-space methods split the
/// residual by contiguous index ranges, so a near-impulse rhs (like
/// `paper_rhs`) would make most split blocks zero and the test vacuous.
fn dense_rhs(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 1.0 + 0.5 * ((i as f64) * 0.7).sin())
        .collect()
}

fn system() -> (CsrMatrix, Vec<f64>) {
    let a = poisson_2d(12);
    let b = dense_rhs(a.nrows());
    (a, b)
}

#[test]
fn ekcg_with_one_block_is_bitwise_pcg() {
    // t = 1 splits nothing: T(r) = r, the enlarged subspace is the Krylov
    // subspace, and the implementation delegates to the scalar PCG kernel.
    let (a, b) = system();
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let opts = SolveOptions::from_env().with_tol(1e-9);
    let p = solve(&Method::Pcg, &problem, &opts, Engine::Serial);
    let e = solve(&Method::EkCg { t: 1 }, &problem, &opts, Engine::Serial);
    assert!(p.converged() && e.converged());
    assert_eq!(p.iterations, e.iterations, "t=1 must walk PCG's iterates");
    assert_eq!(p.x, e.x, "t=1 solution not bitwise PCG");
    assert_eq!(p.history, e.history, "t=1 residual history");
}

#[test]
fn ekcg_converges_for_uneven_and_even_splits() {
    // The t-split is by balanced contiguous ranges; t need not divide n
    // (n = 144 here, t = 5 gives ranges of 28/29 rows). Every t must reach
    // the same solution of the same system.
    let (a, b) = system();
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let opts = SolveOptions::from_env().with_tol(1e-9);
    let reference = solve(&Method::Pcg, &problem, &opts, Engine::Serial);
    assert!(reference.converged());
    for t in [2usize, 3, 5, 8] {
        let res = solve(&Method::EkCg { t }, &problem, &opts, Engine::Serial);
        assert!(res.converged(), "t={t}: {:?}", res.outcome);
        assert!(
            res.true_relative_residual(&a, &b) < 1e-7,
            "t={t}: residual too large"
        );
        for (i, (p, q)) in res.x.iter().zip(&reference.x).enumerate() {
            assert!(
                (p - q).abs() < 1e-6,
                "t={t}: x[{i}] = {p} disagrees with PCG's {q}"
            );
        }
    }
}

#[test]
fn ekcg_enlarging_cuts_iterations() {
    // The point of enlarging: t block directions per iteration buy a
    // shorter outer iteration. Monotonicity is not guaranteed step to
    // step, but t = 4 must beat t = 1 clearly.
    let (a, b) = system();
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let opts = SolveOptions::from_env().with_tol(1e-9);
    let t1 = solve(&Method::EkCg { t: 1 }, &problem, &opts, Engine::Serial);
    let t4 = solve(&Method::EkCg { t: 4 }, &problem, &opts, Engine::Serial);
    assert!(t1.converged() && t4.converged());
    assert!(
        t4.iterations < t1.iterations,
        "t=4 ({}) should beat t=1 ({})",
        t4.iterations,
        t1.iterations
    );
}

#[test]
fn capcg_gs_survives_monomial_high_s_where_cholesky_breaks_down() {
    // The headline robustness claim: on the ill-conditioned problem where
    // the Cholesky-factored monomial s = 10 solver loses convergence
    // (crates/solvers spcg tests pin the breakdown), the Gauss-Seidel Gram
    // path — never factoring the near-singular moment matrix, restarting
    // its recurrence on stagnation — still reaches the tolerance.
    // κ = 1e6 at tol = 1e-6: the monomial s = 10 Gram matrices are
    // numerically singular (the Cholesky path stalls at relres ~1e-2),
    // while the inexact GS path still grinds to the tolerance.
    let a = spd_with_spectrum(600, &SpectrumShape::Uniform { kappa: 1e6 }, 1.0, 3, 5);
    let m = Jacobi::new(&a);
    let b = paper_rhs(&a);
    let problem = Problem::new(&a, &m, &b);
    let opts = SolveOptions::from_env().with_max_iters(4000).with_tol(1e-6);
    let r_pcg = solve(&Method::Pcg, &problem, &opts, Engine::Serial);
    assert!(r_pcg.converged(), "baseline PCG: {:?}", r_pcg.outcome);
    let basis = BasisType::Monomial;
    let chol = Method::SPcg { s: 10, basis };
    let r_chol = solve(&chol, &problem, &opts, Engine::Serial);
    assert!(
        !r_chol.converged() || r_chol.iterations > 2 * r_pcg.iterations,
        "cholesky path unexpectedly healthy: {:?} in {}",
        r_chol.outcome,
        r_chol.iterations
    );
    let r_gs = solve(
        &chol.gs_analogue().unwrap(),
        &problem,
        &opts,
        Engine::Serial,
    );
    assert!(
        r_gs.converged(),
        "GS path should survive s=10 monomial: {:?} in {}",
        r_gs.outcome,
        r_gs.iterations
    );
    assert!(
        r_gs.true_relative_residual(&a, &b) < 1e-5,
        "GS path converged to a false solution"
    );
}

fn assert_ranked_family_matches_serial(method: &Method, problem: &Problem<'_>) {
    // Serial solves never inject, so iteration parity with them is a claim
    // about clean ranked solves: an armed `SPCG_FAULTS` would charge the
    // ranked side its recovery stages.
    let opts = SolveOptions::from_env().with_tol(1e-8).with_faults(None);
    let serial = solve(method, problem, &opts, Engine::Serial);
    assert!(
        serial.converged(),
        "{} serial: {:?}",
        method.name(),
        serial.outcome
    );
    for ranks in [1usize, 2, 4] {
        let ranked = solve(method, problem, &opts, Engine::Ranked { ranks });
        assert!(
            ranked.converged(),
            "{} ranks={ranks}: {:?}",
            method.name(),
            ranked.outcome
        );
        if ranks == 1 {
            assert_eq!(
                ranked.x,
                serial.x,
                "{} ranks=1 not bitwise serial",
                method.name()
            );
        }
        // Partitioned reductions round differently; allow a block or two
        // of drift but no regime change.
        let slack = 2 * method.s().max(4);
        assert!(
            ranked.iterations.abs_diff(serial.iterations) <= slack,
            "{} ranks={ranks}: {} vs serial {}",
            method.name(),
            ranked.iterations,
            serial.iterations
        );
    }
}

#[test]
fn enlarged_family_rides_the_ranked_engine() {
    let (a, b) = system();
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let basis = chebyshev_basis(&problem, 20, 0.05);
    assert_ranked_family_matches_serial(&Method::EkCg { t: 4 }, &problem);
    assert_ranked_family_matches_serial(&Method::CaPcgGs { s: 4, basis }, &problem);
}

#[test]
fn enlarged_family_self_heals_under_injected_faults() {
    // Deterministic fault injection: same seed → bitwise-identical faulted
    // solve, with at least one fault actually absorbed (else the test is
    // vacuous) and a genuine solution at the end.
    let (a, b) = system();
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let basis = chebyshev_basis(&problem, 20, 0.05);
    let run = |method: &Method| -> SolveResult {
        let plan = FaultPlan::new(7, 0.05);
        let o = SolveOptions::from_env()
            .with_tol(1e-8)
            .with_faults(Some(plan));
        solve(method, &problem, &o, Engine::Ranked { ranks: 2 })
    };
    for method in [Method::EkCg { t: 4 }, Method::CaPcgGs { s: 4, basis }] {
        let first = run(&method);
        let second = run(&method);
        assert!(
            first.faults_absorbed > 0,
            "{}: plan injected nothing — weak test",
            method.name()
        );
        assert!(first.converged(), "{}: {:?}", method.name(), first.outcome);
        assert_eq!(
            first.x,
            second.x,
            "{}: faulted solve not reproducible",
            method.name()
        );
        assert_eq!(first.faults_absorbed, second.faults_absorbed);
        assert!(
            first.true_relative_residual(&a, &b) < 1e-6,
            "{}: faulted residual too large",
            method.name()
        );
    }
}
