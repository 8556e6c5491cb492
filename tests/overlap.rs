//! Parity suite for communication–computation overlap: for every method
//! and every rank/thread combination, the overlapped schedule must produce
//! the **bitwise-identical** solution, the same iteration count, and the
//! same counter set (message count, halo volume, reductions, FLOP classes)
//! as the blocking schedule — overlap may only move *when* the one
//! exchange per round is waited on, never what is exchanged or computed.
//!
//! The rank sweep covers {1, 2, 4} plus the value of `SPCG_RANKS` when the
//! environment sets one (the CI overlap job runs the suite at
//! `SPCG_RANKS=2 SPCG_THREADS=2`).

use spcg::precond::Jacobi;
use spcg::solvers::{
    chebyshev_basis, solve, Engine, Method, Problem, SolveOptions, StoppingCriterion,
};
use spcg::sparse::generators::paper_rhs;
use spcg::sparse::generators::poisson::poisson_2d;

const S: usize = 4;

fn all_methods(problem: &Problem<'_>) -> Vec<Method> {
    let basis = chebyshev_basis(problem, 20, 0.05);
    vec![
        Method::Pcg,
        Method::Pcg3,
        Method::SPcg {
            s: S,
            basis: basis.clone(),
        },
        Method::SPcgMon { s: S },
        Method::CaPcg {
            s: S,
            basis: basis.clone(),
        },
        Method::CaPcg3 { s: S, basis },
    ]
}

fn rank_counts() -> Vec<usize> {
    let mut ranks = vec![1usize, 2, 4];
    if let Some(r) = std::env::var("SPCG_RANKS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&r| r > 0)
    {
        if !ranks.contains(&r) {
            ranks.push(r);
        }
    }
    ranks
}

/// The tentpole acceptance gate: all six methods × overlap {on, off} ×
/// ranks {1, 2, 4} × threads {1, 2} — bitwise-identical `x`, identical
/// iteration counts, and equal counters (halo messages, halo words,
/// collectives, allreduce words, and every FLOP class compare via the
/// `Counters` equality).
#[test]
fn overlap_on_off_is_bitwise_and_counter_identical_for_all_methods() {
    let a = poisson_2d(12);
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    for method in all_methods(&problem) {
        for ranks in rank_counts() {
            for threads in [1usize, 2] {
                let base = SolveOptions::from_env()
                    .with_tol(1e-8)
                    .with_threads(threads);
                let on = solve(
                    &method,
                    &problem,
                    &base.clone().with_overlap(true),
                    Engine::Ranked { ranks },
                );
                let off = solve(
                    &method,
                    &problem,
                    &base.with_overlap(false),
                    Engine::Ranked { ranks },
                );
                let tag = format!("{} ranks={ranks} threads={threads}", method.name());
                assert!(on.converged(), "{tag} overlap=on: {:?}", on.outcome);
                assert_eq!(on.x, off.x, "{tag}: x must be bitwise identical");
                assert_eq!(on.iterations, off.iterations, "{tag}: iterations");
                assert_eq!(on.outcome, off.outcome, "{tag}: outcome");
                // Spell out the communication fields for readable failures,
                // then require full counter equality.
                assert_eq!(
                    on.counters.halo_exchanges, off.counters.halo_exchanges,
                    "{tag}: halo message count"
                );
                assert_eq!(
                    on.counters.halo_words, off.counters.halo_words,
                    "{tag}: halo volume"
                );
                assert_eq!(
                    on.counters.global_collectives, off.counters.global_collectives,
                    "{tag}: reduction count"
                );
                assert_eq!(
                    on.counters.allreduce_words, off.counters.allreduce_words,
                    "{tag}: reduction payload"
                );
                assert_eq!(on.counters, off.counters, "{tag}: full counter set");
                assert_eq!(
                    on.collectives_per_rank, off.collectives_per_rank,
                    "{tag}: per-rank collectives"
                );
            }
        }
    }
}

/// Overlap must leave the ranked-vs-serial relationship untouched: one
/// rank with overlap on is still bitwise equal to the serial engine.
#[test]
fn single_rank_overlap_matches_serial_bitwise() {
    let a = poisson_2d(12);
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let opts = SolveOptions::from_env().with_tol(1e-8).with_overlap(true);
    for method in all_methods(&problem) {
        let serial = solve(&method, &problem, &opts, Engine::Serial);
        let ranked = solve(&method, &problem, &opts, Engine::Ranked { ranks: 1 });
        assert_eq!(serial.x, ranked.x, "{}", method.name());
        assert_eq!(serial.iterations, ranked.iterations, "{}", method.name());
    }
}

/// The replicated fallback paths (non-pointwise preconditioners) have no
/// overlap window; both modes must still agree bitwise and in counters.
#[test]
fn overlap_parity_holds_for_non_pointwise_preconditioners() {
    use spcg::precond::{BlockJacobi, ChebyshevPrecond, Preconditioner};
    use std::sync::Arc;
    let a = Arc::new(poisson_2d(10));
    let b = paper_rhs(&a);
    let preconds: Vec<(&str, Box<dyn Preconditioner>)> = vec![
        ("block_jacobi", Box::new(BlockJacobi::new(&a, 10))),
        (
            "chebyshev",
            Box::new(ChebyshevPrecond::from_matrix(Arc::clone(&a), 3, 30.0)),
        ),
    ];
    for (name, m) in &preconds {
        let problem = Problem::new(&a, m.as_ref(), &b);
        let basis = chebyshev_basis(&problem, 20, 0.05);
        let method = Method::SPcg { s: S, basis };
        for ranks in [2usize, 4] {
            let base = SolveOptions::from_env().with_tol(1e-8);
            let on = solve(
                &method,
                &problem,
                &base.clone().with_overlap(true),
                Engine::Ranked { ranks },
            );
            let off = solve(
                &method,
                &problem,
                &base.with_overlap(false),
                Engine::Ranked { ranks },
            );
            assert_eq!(on.x, off.x, "{name} ranks={ranks}");
            assert_eq!(on.counters, off.counters, "{name} ranks={ranks}");
        }
    }
}

/// Overlap must not change the communication *structure* the paper models:
/// s-step methods still do one halo exchange per s-block.
#[test]
fn overlap_keeps_one_exchange_per_s_block() {
    if SolveOptions::from_env().faults.is_some_and(|p| p.active()) {
        // Restart stages of the self-healing driver re-anchor the residual
        // with extra exchanges; the exact per-block count holds fault-free.
        // (The bitwise overlap-parity tests above stay armed: injection
        // decisions depend only on board rounds and reduce sequence
        // numbers, which the two schedules share.)
        return;
    }
    let a = poisson_2d(12);
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let basis = chebyshev_basis(&problem, 20, 0.05);
    let method = Method::SPcg { s: S, basis };
    let opts = SolveOptions::from_env()
        .with_tol(1e-8)
        .with_criterion(StoppingCriterion::PrecondMNorm)
        .with_overlap(true);
    let r = solve(&method, &problem, &opts, Engine::Ranked { ranks: 4 });
    assert!(r.converged());
    // One depth-s exchange per entered block, including the final check round.
    let blocks = r.counters.outer_iterations + 1;
    assert_eq!(r.counters.halo_exchanges, blocks);
    assert!(r.counters.halo_words > 0);
}
