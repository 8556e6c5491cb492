//! Cross-backend parity: the proc backend (worker processes over
//! Unix-domain sockets) must be **bitwise identical** to the thread
//! backend — same iterates, same history, same operation counters — for
//! every method, rank count, and thread count.
//!
//! Backends are selected explicitly via [`SolveOptions::with_backend`],
//! never via `SPCG_BACKEND`, so the suite behaves identically under the
//! CI proc job's environment. The suite requires the `spcg-rankd` worker
//! binary (built alongside the test by any workspace build); a missing
//! binary fails loudly instead of silently testing thread-vs-thread.

#![cfg(unix)]

use spcg::prelude::*;
use spcg::sparse::generators::paper_rhs;
use spcg::sparse::generators::poisson::poisson_2d;

fn all_methods(problem: &Problem<'_>) -> Vec<(&'static str, Method)> {
    let basis = spcg::solvers::chebyshev_basis(problem, 20, 0.05);
    vec![
        ("pcg", Method::Pcg),
        ("pcg3", Method::Pcg3),
        (
            "spcg",
            Method::SPcg {
                s: 4,
                basis: basis.clone(),
            },
        ),
        ("spcg_mon", Method::SPcgMon { s: 4 }),
        (
            "capcg",
            Method::CaPcg {
                s: 4,
                basis: basis.clone(),
            },
        ),
        (
            "capcg3",
            Method::CaPcg3 {
                s: 4,
                basis: basis.clone(),
            },
        ),
        ("capcg_gs", Method::CaPcgGs { s: 4, basis }),
        ("ekcg", Method::EkCg { t: 4 }),
    ]
}

fn opts(backend: Backend, threads: usize) -> SolveOptions {
    SolveOptions::from_env()
        .with_tol(1e-8)
        .with_history()
        .with_backend(backend)
        .with_threads(threads)
        .with_faults(None)
}

/// The proc tests are meaningless if `run_proc` silently falls back to
/// threads, so the worker binary must be locatable.
#[test]
fn rankd_binary_is_available() {
    assert!(
        spcg::solvers::procexec::rankd_path().is_some(),
        "spcg-rankd not found: run a workspace build first (or set SPCG_RANKD)"
    );
}

#[test]
fn proc_backend_is_bitwise_identical_to_thread_backend() {
    assert!(spcg::solvers::procexec::rankd_path().is_some());
    let a = poisson_2d(12);
    let b = paper_rhs(&a);
    let m = spcg::precond::Jacobi::new(&a);
    let problem = Problem::try_new(&a, &m, &b).unwrap();
    for (name, method) in all_methods(&problem) {
        for ranks in [1, 2, 4] {
            for threads in [1, 2] {
                let engine = Engine::Ranked { ranks };
                let t = solve(&method, &problem, &opts(Backend::Thread, threads), engine);
                let p = solve(&method, &problem, &opts(Backend::Proc, threads), engine);
                let tag = format!("{name} ranks={ranks} threads={threads}");
                assert_eq!(t.outcome, p.outcome, "{tag}: outcome");
                assert_eq!(t.iterations, p.iterations, "{tag}: iterations");
                assert_eq!(t.x, p.x, "{tag}: solution not bitwise identical");
                assert_eq!(t.history, p.history, "{tag}: residual history");
                assert_eq!(t.counters, p.counters, "{tag}: counters");
                assert_eq!(
                    t.collectives_per_rank, p.collectives_per_rank,
                    "{tag}: collectives per rank"
                );
                assert!(t.converged(), "{tag}: did not converge");
            }
        }
    }
}

/// Other-preconditioner coverage for the Setup codec: every serializable
/// spec kind round-trips through a worker process and still matches the
/// thread backend bitwise.
#[test]
fn proc_backend_parity_holds_for_every_preconditioner() {
    assert!(spcg::solvers::procexec::rankd_path().is_some());
    let a = std::sync::Arc::new(poisson_2d(12));
    let b = paper_rhs(&a);
    let engine = Engine::Ranked { ranks: 2 };
    let preconds: Vec<(&str, Box<dyn spcg::precond::Preconditioner>)> = vec![
        (
            "identity",
            Box::new(spcg::precond::Identity::new(a.nrows())),
        ),
        ("jacobi", Box::new(spcg::precond::Jacobi::new(&a))),
        (
            "block_jacobi",
            Box::new(spcg::precond::BlockJacobi::new(&a, 12)),
        ),
        (
            "chebyshev",
            Box::new(spcg::precond::ChebyshevPrecond::new(
                std::sync::Arc::clone(&a),
                3,
                0.05,
                8.0,
            )),
        ),
        ("ssor", Box::new(spcg::precond::Ssor::new(&a, 1.2))),
        ("ic0", Box::new(spcg::precond::Ic0::new(&a))),
    ];
    for (name, m) in &preconds {
        let problem = Problem::try_new(&a, m.as_ref(), &b).unwrap();
        let t = solve(&Method::Pcg, &problem, &opts(Backend::Thread, 1), engine);
        let p = solve(&Method::Pcg, &problem, &opts(Backend::Proc, 1), engine);
        assert_eq!(t.x, p.x, "{name}: solution not bitwise identical");
        assert_eq!(t.counters, p.counters, "{name}: counters");
        assert!(t.converged(), "{name}: did not converge");
    }
}

/// Injected faults decide from `(seed, site, rank, round)` on the worker
/// side exactly as on the thread side, so even a faulted, self-healing
/// solve is bitwise reproducible across backends — and the absorbed
/// faults are credited back to the parent's plan.
#[test]
fn proc_backend_parity_holds_under_injected_faults() {
    assert!(spcg::solvers::procexec::rankd_path().is_some());
    let a = poisson_2d(12);
    let b = paper_rhs(&a);
    let m = spcg::precond::Jacobi::new(&a);
    let problem = Problem::try_new(&a, &m, &b).unwrap();
    let engine = Engine::Ranked { ranks: 2 };
    let run = |backend| {
        let plan = spcg::dist::FaultPlan::new(7, 0.05);
        let o = SolveOptions::from_env()
            .with_tol(1e-8)
            .with_backend(backend)
            .with_threads(1)
            .with_faults(Some(plan));
        solve(&Method::SPcgMon { s: 4 }, &problem, &o, engine)
    };
    let t = run(Backend::Thread);
    let p = run(Backend::Proc);
    assert!(t.faults_absorbed > 0, "plan injected nothing — weak test");
    assert_eq!(t.x, p.x, "faulted solve not bitwise identical");
    assert_eq!(t.faults_absorbed, p.faults_absorbed, "fault crediting");
    assert_eq!(t.restarts, p.restarts, "restart counts");
    assert!(t.converged() && p.converged());
}

/// Span tracing crosses the process boundary: a traced proc solve imports
/// one track per rank, with the same phase vocabulary as a thread solve.
#[test]
fn proc_backend_ships_trace_tracks_home() {
    assert!(spcg::solvers::procexec::rankd_path().is_some());
    let a = poisson_2d(12);
    let b = paper_rhs(&a);
    let m = spcg::precond::Jacobi::new(&a);
    let problem = Problem::try_new(&a, &m, &b).unwrap();
    let tracer = spcg::obs::Tracer::new();
    let o = SolveOptions::from_env()
        .with_tol(1e-8)
        .with_backend(Backend::Proc)
        .with_threads(1)
        .with_faults(None)
        .with_trace(Some(tracer.clone()));
    let res = solve(&Method::Pcg, &problem, &o, Engine::Ranked { ranks: 2 });
    assert!(res.converged());
    let tracks = tracer.tracks();
    let ranks: std::collections::BTreeSet<usize> = tracks.iter().map(|t| t.rank).collect();
    assert_eq!(
        ranks,
        [0usize, 1].into_iter().collect(),
        "one track per rank"
    );
    assert!(
        tracks.iter().all(|t| !t.spans.is_empty()),
        "remote tracks carry spans"
    );
}
