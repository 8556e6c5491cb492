//! Cross-crate integration tests: every solver on every problem family,
//! verified against the true residual and against each other.

use spcg::basis::BasisType;
use spcg::precond::{BlockJacobi, ChebyshevPrecond, Identity, Jacobi, Preconditioner, Ssor};
use spcg::solvers::{solve, Engine, Method, Problem, SolveOptions, StoppingCriterion};
use spcg::sparse::generators::anisotropic::anisotropic_2d;
use spcg::sparse::generators::paper_rhs;
use spcg::sparse::generators::poisson::{poisson_1d, poisson_2d, poisson_3d};
use spcg::sparse::generators::random_spd::{spd_with_spectrum, SpectrumShape};
use std::sync::Arc;

fn all_methods(problem: &Problem<'_>, s: usize) -> Vec<Method> {
    let basis = spcg::solvers::chebyshev_basis(problem, 25, 0.1);
    vec![
        Method::Pcg,
        Method::Pcg3,
        Method::SPcg {
            s,
            basis: basis.clone(),
        },
        Method::SPcgMon { s },
        Method::CaPcg {
            s,
            basis: basis.clone(),
        },
        Method::CaPcg3 { s, basis },
    ]
}

#[test]
fn every_method_solves_every_easy_family() {
    let problems: Vec<(&str, spcg::sparse::CsrMatrix)> = vec![
        ("poisson1d", poisson_1d(200)),
        ("poisson2d", poisson_2d(20)),
        ("poisson3d", poisson_3d(8)),
        ("anisotropic", anisotropic_2d(16, 0.3)),
        (
            "random_spd",
            spd_with_spectrum(400, &SpectrumShape::Geometric { kappa: 200.0 }, 1.0, 3, 1),
        ),
    ];
    for (name, a) in problems {
        let b = paper_rhs(&a);
        let m = Jacobi::new(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env().with_tol(1e-7);
        for method in all_methods(&problem, 4) {
            let res = solve(&method, &problem, &opts, Engine::Serial);
            assert!(
                res.converged(),
                "{name}/{}: {:?}",
                method.name(),
                res.outcome
            );
            assert!(
                res.true_relative_residual(&a, &b) < 1e-6,
                "{name}/{}: residual {:.2e}",
                method.name(),
                res.true_relative_residual(&a, &b)
            );
        }
    }
}

#[test]
fn all_preconditioners_work_with_spcg() {
    let a = Arc::new(poisson_2d(18));
    let b = paper_rhs(&a);
    let preconds: Vec<Box<dyn Preconditioner>> = vec![
        Box::new(Identity::new(a.nrows())),
        Box::new(Jacobi::new(&a)),
        Box::new(BlockJacobi::new(&a, 18)),
        Box::new(Ssor::new(&a, 1.0)),
        Box::new(ChebyshevPrecond::from_matrix(Arc::clone(&a), 3, 30.0)),
    ];
    let opts = SolveOptions::from_env().with_tol(1e-7);
    for m in &preconds {
        let problem = Problem::new(&a, m.as_ref(), &b);
        let basis = spcg::solvers::chebyshev_basis(&problem, 25, 0.1);
        let res = solve(
            &Method::SPcg { s: 5, basis },
            &problem,
            &opts,
            Engine::Serial,
        );
        assert!(res.converged(), "{}: {:?}", m.name(), res.outcome);
    }
}

#[test]
fn solution_matches_across_methods() {
    // All methods solve the same system: solutions agree to the tolerance.
    let a = poisson_2d(16);
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let opts = SolveOptions::from_env().with_tol(1e-9);
    let reference = solve(&Method::Pcg, &problem, &opts, Engine::Serial);
    for method in all_methods(&problem, 5) {
        let res = solve(&method, &problem, &opts, Engine::Serial);
        assert!(res.converged(), "{}", method.name());
        let diff: f64 = res
            .x
            .iter()
            .zip(&reference.x)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        assert!(
            diff < 1e-6,
            "{}: solutions differ by {diff:.2e}",
            method.name()
        );
    }
}

#[test]
fn s_step_methods_use_one_collective_per_s_steps() {
    let a = poisson_2d(16);
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let opts = SolveOptions::from_env()
        .with_criterion(StoppingCriterion::PrecondMNorm)
        .with_tol(1e-8);
    let pcg = solve(&Method::Pcg, &problem, &opts, Engine::Serial);
    let s = 8;
    for method in all_methods(&problem, s).into_iter().skip(2) {
        let res = solve(&method, &problem, &opts, Engine::Serial);
        if !res.converged() {
            continue; // monomial may legitimately fail
        }
        let per_step = res.counters.global_collectives as f64 / res.iterations as f64;
        let pcg_per_step = pcg.counters.global_collectives as f64 / pcg.iterations as f64;
        assert!(
            per_step < pcg_per_step / (s as f64),
            "{}: {per_step} vs PCG {pcg_per_step}",
            method.name()
        );
    }
}

#[test]
fn matrix_market_roundtrip_preserves_solve() {
    let a = poisson_2d(12);
    let path = std::env::temp_dir().join("spcg_e2e_roundtrip.mtx");
    spcg::sparse::io::write_matrix_market(&a, &path).unwrap();
    let a2 = spcg::sparse::io::read_matrix_market(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let m2 = Jacobi::new(&a2);
    let (p1, p2) = (Problem::new(&a, &m, &b), Problem::new(&a2, &m2, &b));
    let opts = SolveOptions::from_env();
    let r1 = solve(&Method::Pcg, &p1, &opts, Engine::Serial);
    let r2 = solve(&Method::Pcg, &p2, &opts, Engine::Serial);
    assert_eq!(r1.iterations, r2.iterations);
}

#[test]
fn parallel_and_serial_agree_end_to_end() {
    let a = poisson_2d(20);
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let opts = SolveOptions::from_env()
        .with_criterion(StoppingCriterion::RecursiveResidual2Norm)
        .with_tol(1e-8)
        .with_max_iters(12_000);
    let serial = solve(&Method::Pcg, &problem, &opts, Engine::Serial);
    let par = solve(&Method::Pcg, &problem, &opts, Engine::Ranked { ranks: 6 });
    assert!(serial.converged() && par.converged());
    // Under injected faults (SPCG_FAULTS) the ranked solve restarts its way
    // to convergence; the equality checks below hold fault-free.
    let faulted = SolveOptions::from_env().faults.is_some_and(|p| p.active());
    if !faulted {
        assert_eq!(serial.iterations, par.iterations);
    }
    let basis = spcg::solvers::chebyshev_basis(&problem, 25, 0.1);
    let par_s = solve(
        &Method::SPcg {
            s: 5,
            basis: basis.clone(),
        },
        &problem,
        &opts,
        Engine::Ranked { ranks: 6 },
    );
    assert!(par_s.converged());
    if !faulted {
        for (p, q) in par_s.x.iter().zip(&serial.x) {
            assert!((p - q).abs() < 1e-5);
        }
    }
}

#[test]
fn adaptive_spcg_end_to_end() {
    let a = spd_with_spectrum(
        600,
        &SpectrumShape::LogUniform {
            kappa: 1e4,
            jitter: 0.1,
        },
        1.0,
        3,
        3,
    );
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let out = solve(
        &Method::SPcg {
            s: 10,
            basis: BasisType::Monomial,
        },
        &problem,
        &SolveOptions::from_env()
            .with_tol(1e-6)
            .with_max_iters(30_000)
            .with_history()
            .with_resilience(spcg::solvers::Resilience::default().with_shrink_s(true)),
        Engine::Serial,
    );
    // Monomial s=10 breaks; the shrink-s schedule must fall back and the
    // final answer (if converged) must be genuine.
    if out.converged() {
        assert!(out.true_relative_residual(&a, &b) < 1e-4);
    }
    assert_eq!(out.s_schedule.first(), Some(&10));
}
