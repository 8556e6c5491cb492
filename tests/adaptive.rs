//! Determinism and composition suite for the adaptive-s subsystem
//! (`Method::AdaptiveCaPcg` + the `spcg-adapt` controller).
//!
//! The controller's decisions (shrink, grow, rebuild) are functions of
//! *allreduced* scalars only, so they must replay identically wherever
//! the reduction order is identical: serial ≡ one rank, and — for a fixed
//! rank count — across thread counts, transport backends, and sparse
//! formats, the whole solve is owed **bitwise**: iterate, history,
//! counters, s-schedule, and shift history. Across *different* rank
//! counts the reductions round differently, so only the decision
//! structure (schedule, rebuild targets) is owed, with the Ritz intervals
//! agreeing to rounding.
//!
//! The suite also checks the two shrink paths compose: adaptive shrink
//! (controller) under injected faults (resilience stages) must still
//! converge against one shared iteration budget, bitwise identical across
//! backends.

#![cfg(unix)]

use spcg::obs::Phase;
use spcg::prelude::*;
use spcg::sparse::generators::paper_rhs;
use spcg::sparse::generators::poisson::poisson_2d;
use spcg::sparse::generators::random_spd::{spd_with_spectrum, SpectrumShape};
use spcg::sparse::{CsrMatrix, SparseFormat};

/// True when `SPCG_FAULTS` arms deterministic fault injection (the CI
/// fault job): exact-equality assertions stand down to residual quality.
fn faulted() -> bool {
    SolveOptions::from_env().faults.is_some_and(|p| p.active())
}

fn adaptive_method(s0: usize, basis: spcg::basis::BasisType) -> Method {
    Method::AdaptiveCaPcg { s: s0, basis }
}

/// The Table 2 acceptance problem: uniform spectrum at κ = 1e5 with a
/// flat rhs — fixed monomial s-step bases degrade here, so the adaptive
/// run exercises shrink *and* dynamic basis rebuilds.
fn hard_problem() -> (CsrMatrix, Vec<f64>) {
    let a = spd_with_spectrum(500, &SpectrumShape::Uniform { kappa: 1e5 }, 1.0, 3, 21);
    let n = a.nrows();
    let b = vec![1.0 / (n as f64).sqrt(); n];
    (a, b)
}

fn opts(backend: Backend, threads: usize, format: SparseFormat) -> SolveOptions {
    SolveOptions::from_env()
        .with_tol(1e-7)
        .with_max_iters(8000)
        .with_history()
        .with_backend(backend)
        .with_threads(threads)
        .with_format(format)
        .with_faults(None)
}

#[test]
fn serial_equals_one_rank_bitwise() {
    let a = poisson_2d(12);
    let b = paper_rhs(&a);
    let m = spcg::precond::Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let basis = spcg::solvers::chebyshev_basis(&problem, 20, 0.05);
    let method = adaptive_method(4, basis);
    let o = opts(Backend::Thread, 1, SparseFormat::Csr);
    let serial = solve(&method, &problem, &o, Engine::Serial);
    let ranked = solve(&method, &problem, &o, Engine::Ranked { ranks: 1 });
    assert!(serial.converged(), "{:?}", serial.outcome);
    if faulted() {
        assert!(ranked.true_relative_residual(&a, &b) < 1e-6);
        return;
    }
    assert_eq!(serial.x, ranked.x, "ranks=1 must be bitwise serial");
    assert_eq!(serial.iterations, ranked.iterations);
    assert_eq!(serial.history, ranked.history);
    assert_eq!(serial.s_schedule, ranked.s_schedule);
    assert_eq!(serial.adaptive, ranked.adaptive);
}

/// For a fixed rank count the decision replay is owed bitwise across
/// every thread count × transport backend × sparse format.
#[test]
fn decisions_bitwise_across_backends_threads_and_formats() {
    assert!(spcg::solvers::procexec::rankd_path().is_some());
    let (a, b) = hard_problem();
    let m = spcg::precond::Identity::new(a.nrows());
    let problem = Problem::new(&a, &m, &b);
    let method = adaptive_method(10, spcg::basis::BasisType::Monomial);
    let engine = Engine::Ranked { ranks: 2 };

    let reference = solve(
        &method,
        &problem,
        &opts(Backend::Thread, 1, SparseFormat::Csr),
        engine,
    );
    assert!(reference.converged(), "{:?}", reference.outcome);
    let ref_report = reference.adaptive.as_ref().expect("adaptive report");
    assert!(
        !ref_report.shift_history.is_empty(),
        "hard problem must force at least one rebuild — weak test otherwise"
    );
    assert!(reference.s_schedule.len() > 1, "expected s changes");

    for backend in [Backend::Thread, Backend::Proc] {
        for threads in [1usize, 2] {
            for format in [SparseFormat::Csr, SparseFormat::Sell] {
                let res = solve(&method, &problem, &opts(backend, threads, format), engine);
                let tag = format!("{backend:?} threads={threads} {format:?}");
                if faulted() {
                    assert!(res.true_relative_residual(&a, &b) < 1e-6, "{tag}");
                    continue;
                }
                assert_eq!(reference.x, res.x, "{tag}: x not bitwise");
                assert_eq!(reference.iterations, res.iterations, "{tag}: iterations");
                assert_eq!(reference.history, res.history, "{tag}: history");
                assert_eq!(reference.counters, res.counters, "{tag}: counters");
                assert_eq!(reference.s_schedule, res.s_schedule, "{tag}: s_schedule");
                assert_eq!(reference.adaptive, res.adaptive, "{tag}: adaptive report");
                assert_eq!(
                    reference.collectives_per_rank, res.collectives_per_rank,
                    "{tag}: collectives"
                );
            }
        }
    }
}

/// Across rank counts the reductions round differently; the decision
/// *structure* must still replay: same s-schedule, same rebuild count and
/// targets, Ritz intervals equal to rounding.
#[test]
fn decision_structure_stable_across_rank_counts() {
    let (a, b) = hard_problem();
    let m = spcg::precond::Identity::new(a.nrows());
    let problem = Problem::new(&a, &m, &b);
    let method = adaptive_method(10, spcg::basis::BasisType::Monomial);
    let o = opts(Backend::Thread, 1, SparseFormat::Csr);
    let serial = solve(&method, &problem, &o, Engine::Serial);
    assert!(serial.converged(), "{:?}", serial.outcome);
    let sref = serial.adaptive.as_ref().unwrap();
    for ranks in [1usize, 2, 4] {
        let res = solve(&method, &problem, &o, Engine::Ranked { ranks });
        let tag = format!("ranks={ranks}");
        assert!(res.converged(), "{tag}: {:?}", res.outcome);
        if faulted() {
            assert!(res.true_relative_residual(&a, &b) < 1e-6, "{tag}");
            continue;
        }
        assert_eq!(serial.s_schedule, res.s_schedule, "{tag}: s_schedule");
        let rep = res.adaptive.as_ref().unwrap();
        assert_eq!(
            sref.shift_history.len(),
            rep.shift_history.len(),
            "{tag}: rebuild count"
        );
        for (su, ru) in sref.shift_history.iter().zip(&rep.shift_history) {
            assert_eq!(su.iteration, ru.iteration, "{tag}: rebuild iteration");
            assert_eq!(su.basis, ru.basis, "{tag}: rebuild target");
            let rel = |p: f64, q: f64| (p - q).abs() / p.abs().max(q.abs()).max(f64::MIN_POSITIVE);
            assert!(
                rel(su.lambda_min, ru.lambda_min) < 1e-6,
                "{tag}: λ_min {} vs {}",
                su.lambda_min,
                ru.lambda_min
            );
            assert!(
                rel(su.lambda_max, ru.lambda_max) < 1e-6,
                "{tag}: λ_max {} vs {}",
                su.lambda_max,
                ru.lambda_max
            );
        }
    }
}

/// Adaptive shrink (controller) and resilience shrink (stage driver)
/// share one escalating iteration budget: a seeded-fault adaptive run
/// must converge within `max_iters` total charged iterations, stay
/// bitwise reproducible across backends, and credit the absorbed faults.
#[test]
fn adaptive_and_resilience_shrink_compose_under_faults() {
    assert!(spcg::solvers::procexec::rankd_path().is_some());
    let a = poisson_2d(12);
    let b = paper_rhs(&a);
    let m = spcg::precond::Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let method = adaptive_method(4, spcg::basis::BasisType::Monomial);
    let engine = Engine::Ranked { ranks: 2 };
    let run = |backend| {
        let plan = spcg::dist::FaultPlan::new(7, 0.05);
        let o = SolveOptions::from_env()
            .with_tol(1e-8)
            .with_backend(backend)
            .with_threads(1)
            .with_faults(Some(plan));
        solve(&method, &problem, &o, engine)
    };
    let t = run(Backend::Thread);
    let p = run(Backend::Proc);
    assert!(t.faults_absorbed > 0, "plan injected nothing — weak test");
    assert!(t.converged(), "{:?}", t.outcome);
    assert!(t.true_relative_residual(&a, &b) < 1e-6);
    // One budget: the stage driver deducts each stage's iterations once;
    // the body's internal shrink restarts charge inside the stage. Total
    // charged work can therefore never exceed the configured budget.
    assert!(
        t.iterations <= SolveOptions::from_env().max_iters,
        "budget overdrawn: {} iterations",
        t.iterations
    );
    assert_eq!(
        t.x, p.x,
        "faulted adaptive solve not bitwise across backends"
    );
    assert_eq!(t.faults_absorbed, p.faults_absorbed, "fault crediting");
    assert_eq!(t.restarts, p.restarts, "restart counts");
    assert_eq!(t.s_schedule, p.s_schedule, "s_schedule");
    assert_eq!(t.adaptive, p.adaptive, "adaptive report");
}

/// The tracer sees the new phases: every rebuild recorded in the shift
/// history appears as a `BasisRebuild` span on every rank, `SpectralEst`
/// runs once per outer block, and the Chrome export stays well-formed
/// (matched, properly nested B/E pairs — `tracecheck`'s validator).
#[test]
fn rebuild_spans_trace_and_validate() {
    let (a, b) = hard_problem();
    let m = spcg::precond::Identity::new(a.nrows());
    let problem = Problem::new(&a, &m, &b);
    let method = adaptive_method(10, spcg::basis::BasisType::Monomial);
    let tracer = spcg::obs::Tracer::new();
    let o = opts(Backend::Thread, 1, SparseFormat::Csr).with_trace(Some(tracer.clone()));
    let res = solve(&method, &problem, &o, Engine::Ranked { ranks: 2 });
    assert!(res.converged(), "{:?}", res.outcome);
    let report = res.adaptive.as_ref().unwrap();
    assert!(!report.shift_history.is_empty(), "weak test: no rebuilds");

    let tracks = tracer.tracks();
    let solver_tracks: Vec<_> = tracks.iter().filter(|t| !t.spans.is_empty()).collect();
    assert!(!solver_tracks.is_empty());
    for track in &solver_tracks {
        let rebuilds = track.phase_spans(Phase::BasisRebuild);
        if rebuilds.is_empty() {
            continue; // helper-thread tracks carry no solver control flow
        }
        assert_eq!(
            rebuilds.len(),
            report.shift_history.len(),
            "rank {}: one BasisRebuild span per shift update",
            track.rank
        );
        // Every completed block ran one SpectralEst (rejected blocks add
        // more, so ≥), and every rebuild decision had an estimate behind it.
        let spectral = track.phase_spans(Phase::SpectralEst);
        assert!(
            spectral.len() >= res.counters.outer_iterations as usize,
            "rank {}: {} SpectralEst spans for {} blocks",
            track.rank,
            spectral.len(),
            res.counters.outer_iterations
        );
        for s in rebuilds.iter().chain(&spectral) {
            assert!(s.end_s >= s.begin_s);
        }
    }
    // Controller decisions are SPMD: every solver rank replays the same
    // rebuild spans.
    let counts: Vec<usize> = solver_tracks
        .iter()
        .map(|t| t.phase_spans(Phase::BasisRebuild).len())
        .filter(|&c| c > 0)
        .collect();
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");

    let export = tracer.export_json(None);
    let stats = spcg::obs::validate_chrome_trace(&export).expect("export must validate");
    assert!(stats.spans > 0);
}
