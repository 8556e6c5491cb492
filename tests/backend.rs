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

/// Other-preconditioner coverage for the `SOLVE` codec: every serializable
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

/// Everything of a result that must match across backends, by bits.
fn key(r: &SolveResult) -> impl PartialEq + std::fmt::Debug {
    let x: Vec<u64> = r.x.iter().map(|v| v.to_bits()).collect();
    let history: Vec<(usize, u64)> = r.history.iter().map(|&(i, v)| (i, v.to_bits())).collect();
    let rest = (r.collectives_per_rank, r.outcome.clone(), r.iterations);
    (x, history, r.counters.clone(), rest)
}

/// Solves `a` with PCG and sPCG(5) on 2 ranks of each backend and checks
/// that the two agree bitwise.
fn assert_proc_matches_thread(a: &spcg::sparse::CsrMatrix, tag: &str) {
    let b = paper_rhs(a);
    let m = spcg::precond::Jacobi::new(a);
    let problem = Problem::try_new(a, &m, &b).unwrap();
    let basis = spcg::solvers::chebyshev_basis(&problem, 20, 0.05);
    let engine = Engine::Ranked { ranks: 2 };
    for method in [Method::Pcg, Method::SPcg { s: 5, basis }] {
        let t = solve(&method, &problem, &opts(Backend::Thread, 1), engine);
        let p = solve(&method, &problem, &opts(Backend::Proc, 1), engine);
        let tag = format!("{tag} {}", method.name());
        assert_eq!(p.backend, Some(Backend::Proc), "{tag}: fell back");
        assert_eq!(key(&t), key(&p), "{tag}");
        assert!(t.converged(), "{tag}: did not converge");
    }
}

/// The resident world follows the matrix it is handed: a new matrix, the
/// old one again, the old one edited in place, and a clone of it all solve
/// exactly as on threads — the world never solves a stale copy.
#[test]
fn resident_world_follows_a_sequence_of_matrices() {
    assert!(spcg::solvers::procexec::rankd_path().is_some());
    let (mut a, b) = (poisson_2d(12), poisson_2d(10));
    assert_proc_matches_thread(&a, "A");
    assert_proc_matches_thread(&b, "B");
    assert_proc_matches_thread(&a, "A again");
    a.scale(2.0);
    assert_proc_matches_thread(&a, "A scaled in place");
    assert_proc_matches_thread(&a.clone(), "a clone of A");
}

/// Two threads solving on proc ranks at once: one takes the idle world,
/// the other spawns its own, and both match the thread backend.
#[test]
fn concurrent_proc_solves_match_the_thread_backend() {
    assert!(spcg::solvers::procexec::rankd_path().is_some());
    std::thread::scope(|scope| {
        for grid in [11, 13] {
            scope.spawn(move || {
                let a = poisson_2d(grid);
                for round in 0..3 {
                    assert_proc_matches_thread(&a, &format!("grid {grid} round {round}"));
                }
            });
        }
    });
}

/// Set in the copy of this binary that
/// `no_worker_outlives_its_parent` starts.
const REEXEC: &str = "BACKEND_TEST_REEXEC";

/// No worker outlives its parent, not even as a zombie: this binary runs
/// again in a process group of its own, does one proc solve (which leaves
/// its world parked) and returns. Once that process has been waited for,
/// no process of its group may be left in the process table.
#[test]
fn no_worker_outlives_its_parent() {
    assert!(spcg::solvers::procexec::rankd_path().is_some());
    if std::env::var_os(REEXEC).is_some() {
        let a = poisson_2d(8);
        let b = paper_rhs(&a);
        let m = spcg::precond::Jacobi::new(&a);
        let problem = Problem::try_new(&a, &m, &b).unwrap();
        let engine = Engine::Ranked { ranks: 2 };
        let res = solve(&Method::Pcg, &problem, &opts(Backend::Proc, 1), engine);
        assert_eq!(res.backend, Some(Backend::Proc));
        return;
    }
    use std::os::unix::process::CommandExt;
    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .args([
            "--exact",
            "no_worker_outlives_its_parent",
            "--test-threads=1",
        ])
        .env(REEXEC, "1")
        .stdout(std::process::Stdio::null())
        .process_group(0)
        .spawn()
        .unwrap();
    let group = child.id();
    assert!(
        child.wait().unwrap().success(),
        "the re-executed solve failed"
    );
    // `/proc/<pid>/stat` is `pid (comm) state ppid pgrp ...`; the name may
    // hold spaces, so fields are counted after its closing parenthesis.
    let left: Vec<String> = std::fs::read_dir("/proc")
        .unwrap()
        .filter_map(|entry| std::fs::read_to_string(entry.ok()?.path().join("stat")).ok())
        .filter(|stat| {
            let fields = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
            fields.split_whitespace().nth(2) == Some(group.to_string().as_str())
        })
        .collect();
    assert!(left.is_empty(), "left in the process table: {left:?}");
}

/// Jacobi without a recipe: the proc transport cannot ship it.
struct Unshippable(spcg::precond::Jacobi);

impl spcg::precond::Preconditioner for Unshippable {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.0.apply(r, z);
    }
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn flops_per_apply(&self) -> u64 {
        self.0.flops_per_apply()
    }
    fn name(&self) -> String {
        "unshippable".into()
    }
}

/// A result names the transport that ran its ranks: proc when it could,
/// thread when the preconditioner has no recipe to ship, none serially.
#[test]
fn result_reports_the_backend_that_ran() {
    assert!(spcg::solvers::procexec::rankd_path().is_some());
    use spcg::precond::Preconditioner;
    let a = poisson_2d(12);
    let b = paper_rhs(&a);
    let jacobi = spcg::precond::Jacobi::new(&a);
    let unshippable = Unshippable(spcg::precond::Jacobi::new(&a));
    assert!(unshippable.spec().is_none());
    let proc = opts(Backend::Proc, 1);
    let run = |m: &dyn Preconditioner, engine| {
        let problem = Problem::try_new(&a, m, &b).unwrap();
        solve(&Method::Pcg, &problem, &proc, engine).backend
    };
    let ranked = Engine::Ranked { ranks: 2 };
    assert_eq!(run(&jacobi, ranked), Some(Backend::Proc));
    assert_eq!(run(&unshippable, ranked), Some(Backend::Thread));
    assert_eq!(
        run(&jacobi, Engine::Ranked { ranks: 1 }),
        Some(Backend::Thread)
    );
    assert_eq!(run(&jacobi, Engine::Serial), None);
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
