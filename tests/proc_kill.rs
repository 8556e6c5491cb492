//! Real rank-failure recovery under the proc backend.
//!
//! `SPCG_PROC_KILL=<rank>:<nth>` makes the targeted worker process of the
//! first world incarnation exit — no farewell frame, just a dead socket —
//! right before its nth allreduce. The parent must detect the death,
//! reap the dead world, respawn one, and converge anyway, charging the
//! incarnation as a restart — and the respawned world stays resident for
//! the next solve.
//!
//! This lives in its own integration-test binary because the kill
//! directive is process-wide environment state: it must not leak into the
//! parity suite, and Rust runs each test file in its own process.

#![cfg(unix)]

use spcg::prelude::*;
use spcg::sparse::generators::paper_rhs;
use spcg::sparse::generators::poisson::poisson_2d;

#[test]
fn killed_rank_process_is_healed_by_world_respawn() {
    assert!(
        spcg::solvers::procexec::rankd_path().is_some(),
        "spcg-rankd not found: run a workspace build first (or set SPCG_RANKD)"
    );
    // Safety: set before any solve runs in this (single-test) process.
    std::env::set_var("SPCG_PROC_KILL", "1:3");
    let a = poisson_2d(12);
    let b = paper_rhs(&a);
    let m = spcg::precond::Jacobi::new(&a);
    let problem = Problem::try_new(&a, &m, &b).unwrap();
    let opts = SolveOptions::from_env()
        .with_tol(1e-8)
        .with_backend(Backend::Proc)
        .with_threads(1)
        .with_faults(None);
    let res = solve(&Method::Pcg, &problem, &opts, Engine::Ranked { ranks: 2 });
    assert!(
        res.converged(),
        "solve did not converge after rank death: {:?}",
        res.outcome
    );
    assert!(
        res.restarts >= 1,
        "rank was killed but no restart was charged"
    );
    assert!(res.counters.restarts >= 1);

    // The dead world was reaped; the respawned one stayed resident.
    let respawned = workers();
    #[cfg(target_os = "linux")]
    assert_eq!(respawned.len(), 2, "live workers after the healed solve");

    // With the directive gone the same configuration runs clean — the
    // respawn path leaves no persistent state behind.
    std::env::remove_var("SPCG_PROC_KILL");
    let clean = solve(&Method::Pcg, &problem, &opts, Engine::Ranked { ranks: 2 });
    assert!(clean.converged());
    assert_eq!(clean.restarts, 0, "clean solve charged a restart");
    // It ran on the respawned world: no further worker was spawned.
    assert_eq!(workers(), respawned, "the clean solve spawned a new world");
    // And the healed solution matches the clean one bitwise: the respawned
    // world restarted from the same initial state.
    assert_eq!(res.x, clean.x, "healed solution differs from clean solve");
}

/// The pids of this process's live `spcg-rankd` children, from `/proc`
/// (empty where there is none).
fn workers() -> std::collections::BTreeSet<u32> {
    let me = std::process::id();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Default::default();
    };
    dir.filter_map(|entry| {
        let pid: u32 = entry.ok()?.file_name().to_str()?.parse().ok()?;
        // `pid (comm) state ppid …`
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
        let (head, tail) = stat.rsplit_once(')')?;
        let ppid: u32 = tail.split_whitespace().nth(1)?.parse().ok()?;
        (head.ends_with("(spcg-rankd") && ppid == me).then_some(pid)
    })
    .collect()
}
