//! Integration tests for the unified execution engine: every method run
//! through `Engine::Ranked` must reproduce the serial solver — same
//! iteration count, matching iterates — while exhibiting the distributed
//! communication structure the paper models (one global collective and one
//! ghost-zone exchange per s-block).

use spcg::precond::Jacobi;
use spcg::solvers::{
    chebyshev_basis, solve, Engine, Method, Problem, SolveOptions, StoppingCriterion,
};
use spcg::sparse::generators::paper_rhs;
use spcg::sparse::generators::poisson::{poisson_2d, poisson_3d};
use spcg::sparse::generators::random_spd::{spd_with_spectrum, SpectrumShape};
use spcg::sparse::CsrMatrix;

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

/// True when `SPCG_FAULTS` arms deterministic fault injection (the CI
/// fault job): ranked solves then self-heal through restarts, so the
/// exact-equality and exact-count assertions stand down — convergence and
/// residual quality are what a faulted run owes.
fn faulted() -> bool {
    SolveOptions::from_env().faults.is_some_and(|p| p.active())
}

fn assert_ranked_matches_serial(a: &CsrMatrix, opts: &SolveOptions, x_tol: f64) {
    let b = paper_rhs(a);
    let m = Jacobi::new(a);
    let problem = Problem::new(a, &m, &b);
    for method in all_methods(&problem) {
        let serial = solve(&method, &problem, opts, Engine::Serial);
        assert!(
            serial.converged(),
            "{} serial: {:?}",
            method.name(),
            serial.outcome
        );
        assert_eq!(serial.collectives_per_rank, None);
        for ranks in [1usize, 2, 4] {
            let ranked = solve(&method, &problem, opts, Engine::Ranked { ranks });
            assert!(
                ranked.converged(),
                "{} ranks={ranks}: {:?}",
                method.name(),
                ranked.outcome
            );
            assert!(ranked.collectives_per_rank.is_some(), "{}", method.name());
            if faulted() {
                // Under injected faults the solve restarts its way to the
                // answer; iteration counts and counters legitimately differ,
                // but the solution must still be genuine.
                assert!(
                    ranked.true_relative_residual(a, &b) < 1e-6,
                    "{} ranks={ranks}: faulted residual too large",
                    method.name()
                );
                continue;
            }
            // Rank-partitioned reductions round differently from the serial
            // accumulation, which can flip the stopping test by an s-block
            // or two. sPCG_mon's Hankel moment matrices amplify the
            // perturbation hardest (the instability the paper's Table 2
            // documents), so it gets a wider allowance; anything beyond is
            // a real divergence.
            let blocks = if matches!(method, Method::SPcgMon { .. }) {
                4
            } else {
                2
            };
            let drift = ranked.iterations.abs_diff(serial.iterations);
            assert!(
                drift <= blocks * method.s(),
                "{} ranks={ranks}: iterations {} vs serial {}",
                method.name(),
                ranked.iterations,
                serial.iterations
            );
            if ranks == 1 {
                // One rank is the serial algorithm verbatim: bitwise equal.
                assert_eq!(drift, 0, "{}", method.name());
                assert_eq!(ranked.x, serial.x, "{} ranks=1 not bitwise", method.name());
            }
            if drift == 0 {
                for (i, (p, q)) in ranked.x.iter().zip(&serial.x).enumerate() {
                    assert!(
                        (p - q).abs() <= x_tol,
                        "{} ranks={ranks}: x[{i}] {p} vs {q}",
                        method.name()
                    );
                }
                // The engine records collectives with global sizes, so the
                // instrumented totals agree with the serial run exactly.
                assert_eq!(
                    ranked.counters.global_collectives,
                    serial.counters.global_collectives,
                    "{} ranks={ranks}",
                    method.name()
                );
                assert_eq!(
                    ranked.counters.allreduce_words,
                    serial.counters.allreduce_words,
                    "{} ranks={ranks}",
                    method.name()
                );
                assert_eq!(
                    ranked.counters.spmv_count,
                    serial.counters.spmv_count,
                    "{} ranks={ranks}",
                    method.name()
                );
            }
        }
    }
}

/// Truncated-run parity: with the solve cut off after two s-blocks the
/// accumulated reduction-rounding drift is below 1e-12, so the ranked
/// engine demonstrably walks the *same iterate sequence* as the serial
/// solver (not merely converging to the same limit).
fn assert_iterate_sequence_matches(a: &CsrMatrix) {
    if faulted() {
        // Truncated runs leave no room to restart within budget; the
        // sequence comparison is meaningful only fault-free.
        return;
    }
    let b = paper_rhs(a);
    let m = Jacobi::new(a);
    let problem = Problem::new(a, &m, &b);
    let opts = SolveOptions::from_env()
        .with_tol(1e-30)
        .with_max_iters(2 * S);
    for method in all_methods(&problem) {
        let serial = solve(&method, &problem, &opts, Engine::Serial);
        for ranks in [1usize, 2, 4] {
            let ranked = solve(&method, &problem, &opts, Engine::Ranked { ranks });
            assert_eq!(
                ranked.iterations,
                serial.iterations,
                "{} ranks={ranks}",
                method.name()
            );
            for (i, (p, q)) in ranked.x.iter().zip(&serial.x).enumerate() {
                assert!(
                    (p - q).abs() <= 1e-12,
                    "{} ranks={ranks}: x[{i}] {p} vs {q}",
                    method.name()
                );
            }
        }
    }
}

#[test]
fn ranked_matches_serial_on_poisson_2d() {
    let a = poisson_2d(12);
    let opts = SolveOptions::from_env().with_tol(1e-8);
    assert_ranked_matches_serial(&a, &opts, 1e-8);
    assert_iterate_sequence_matches(&a);
}

#[test]
fn all_methods_solve_poisson_3d_on_four_ranks() {
    // The acceptance scenario: every method solves a 3D Poisson system via
    // Engine::Ranked { ranks: 4 } with iterates matching serial execution.
    let a = poisson_3d(8);
    let opts = SolveOptions::from_env().with_tol(1e-8);
    assert_ranked_matches_serial(&a, &opts, 1e-8);
    assert_iterate_sequence_matches(&a);
}

#[test]
fn ranked_matches_serial_on_random_spd_property() {
    // Hand-rolled property test (no proptest in the tree): random SPD
    // systems across seeds and spectrum shapes, R ∈ {1, 2, 4}.
    let opts = SolveOptions::from_env().with_tol(1e-8);
    for (seed, kappa) in [(1u64, 50.0), (2, 200.0), (3, 80.0)] {
        let a = spd_with_spectrum(160, &SpectrumShape::Geometric { kappa }, 1.0, 3, seed);
        assert_ranked_matches_serial(&a, &opts, 1e-8);
        assert_iterate_sequence_matches(&a);
    }
}

#[test]
fn spcg_collectives_are_one_per_s_block() {
    if faulted() {
        // Restart stages add collectives; the exact count holds fault-free.
        return;
    }
    // sPCG's collective count under ranked execution is ⌈iters/s⌉ blocks
    // plus the final check round — one fused allreduce per s steps, under
    // the free M-norm and under the default criterion, whose true-residual
    // norm rides the same reduction.
    let a = poisson_2d(14);
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let basis = chebyshev_basis(&problem, 20, 0.05);
    for criterion in [
        StoppingCriterion::PrecondMNorm,
        SolveOptions::default().criterion,
    ] {
        let opts = SolveOptions::from_env()
            .with_tol(1e-8)
            .with_criterion(criterion);
        for s in [2usize, 5, 10] {
            let method = Method::SPcg {
                s,
                basis: basis.clone(),
            };
            let res = solve(&method, &problem, &opts, Engine::Ranked { ranks: 4 });
            assert!(res.converged(), "s={s} {criterion:?}: {:?}", res.outcome);
            let blocks = res.iterations.div_ceil(s) as u64;
            let want = Some(blocks + 1);
            assert_eq!(res.collectives_per_rank, want, "s={s} {criterion:?}");
        }
    }
}

#[test]
fn s_step_methods_do_one_halo_exchange_per_block() {
    if faulted() {
        // Restart stages re-anchor the residual with extra exchanges; the
        // per-block accounting holds fault-free.
        return;
    }
    // The MPK runs on depth-s ghost zones: one ghost exchange per s-block,
    // not one per SpMV. PCG by contrast exchanges once per iteration.
    let a = poisson_3d(8);
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let basis = chebyshev_basis(&problem, 20, 0.05);
    let opts = SolveOptions::from_env()
        .with_tol(1e-8)
        .with_criterion(StoppingCriterion::PrecondMNorm);

    let pcg = solve(&Method::Pcg, &problem, &opts, Engine::Ranked { ranks: 4 });
    assert!(pcg.converged());
    // One exchange per SpMV, one SpMV per iteration.
    assert_eq!(pcg.counters.halo_exchanges, pcg.counters.spmv_count);

    for (method, exchanges_per_block) in [
        (
            Method::SPcg {
                s: S,
                basis: basis.clone(),
            },
            1,
        ),
        (Method::SPcgMon { s: S }, 1),
        // CA-PCG builds two Krylov bases per outer iteration.
        (
            Method::CaPcg {
                s: S,
                basis: basis.clone(),
            },
            2,
        ),
        (
            Method::CaPcg3 {
                s: S,
                basis: basis.clone(),
            },
            1,
        ),
    ] {
        let res = solve(&method, &problem, &opts, Engine::Ranked { ranks: 4 });
        assert!(res.converged(), "{}: {:?}", method.name(), res.outcome);
        // Each entered block (including the final check round) exchanges
        // ghosts a fixed number of times, independent of s.
        let blocks = res.counters.outer_iterations + 1;
        assert_eq!(
            res.counters.halo_exchanges,
            exchanges_per_block * blocks,
            "{}: expected one ghost exchange per s-block",
            method.name()
        );
        assert!(
            res.counters.halo_words > 0,
            "{}: ghost exchange should move data on 4 ranks",
            method.name()
        );
    }
}

#[test]
fn ranked_works_with_non_pointwise_preconditioners() {
    // Block-Jacobi falls back to rank-local application when blocks align
    // (or replication when they don't); Chebyshev runs its SpMV polynomial
    // through the distributed operator. Both must match serial.
    use spcg::precond::{BlockJacobi, ChebyshevPrecond, Preconditioner};
    use std::sync::Arc;
    let a = Arc::new(poisson_2d(12));
    let b = paper_rhs(&a);
    let opts = SolveOptions::from_env().with_tol(1e-8);
    let preconds: Vec<Box<dyn Preconditioner>> = vec![
        Box::new(BlockJacobi::new(&a, 12)),
        Box::new(ChebyshevPrecond::from_matrix(Arc::clone(&a), 3, 30.0)),
    ];
    for m in &preconds {
        let problem = Problem::new(&a, m.as_ref(), &b);
        let basis = chebyshev_basis(&problem, 20, 0.05);
        let method = Method::SPcg { s: S, basis };
        let serial = solve(&method, &problem, &opts, Engine::Serial);
        assert!(serial.converged(), "{:?}", serial.outcome);
        for ranks in [1usize, 3] {
            let ranked = solve(&method, &problem, &opts, Engine::Ranked { ranks });
            assert!(ranked.converged(), "ranks={ranks}: {:?}", ranked.outcome);
            if faulted() {
                continue;
            }
            assert_eq!(ranked.iterations, serial.iterations, "ranks={ranks}");
            for (p, q) in ranked.x.iter().zip(&serial.x) {
                assert!((p - q).abs() <= 1e-11, "ranks={ranks}: {p} vs {q}");
            }
        }
    }
}

#[test]
fn problem_try_new_round_trips_through_solve() {
    let a = poisson_2d(8);
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::try_new(&a, &m, &b).expect("valid system");
    let opts = SolveOptions::from_env().with_tol(1e-8);
    let res = solve(&Method::Pcg, &problem, &opts, Engine::Ranked { ranks: 2 });
    assert!(res.converged());

    let short = vec![1.0; 7];
    assert!(Problem::try_new(&a, &m, &short).is_err());
    assert!(matches!(
        Problem::try_new(&a, &m, &short),
        Err(spcg::solvers::ProblemError::RhsLen { .. })
    ));
}

/// Cache-state independence: whatever ghost zones a matrix object holds
/// from earlier ranked solves — shallower, deeper, of another partition —
/// a solve on it is the solve on a freshly cloned matrix, bit for bit and
/// count for count (`halo_words` is the counter a wrongly cut gather plan
/// would move). Every option is set here, so the case runs the same under
/// any `SPCG_*` environment.
#[cfg(unix)]
#[test]
fn ranked_solves_do_not_depend_on_the_matrix_zone_cache() {
    use spcg::dist::Backend;
    use spcg::solvers::AdaptivePolicy;
    assert!(
        spcg::solvers::procexec::rankd_path().is_some(),
        "spcg-rankd not found: run a workspace build first (or set SPCG_RANKD)"
    );
    let a = poisson_3d(8);
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let basis = chebyshev_basis(&Problem::new(&a, &m, &b), 20, 0.05);
    let spcg5 = Method::SPcg {
        s: 5,
        basis: basis.clone(),
    };
    // Depths on the shared matrix: 1 (cold), 5, 16 (the adaptive policy's
    // s_max — the whole matrix here), 1 and 3 on the depth-16 zones, then
    // another partition, then the first one again.
    let steps = [
        (Method::Pcg, 2usize),
        (spcg5.clone(), 2),
        (
            Method::AdaptiveCaPcg {
                s: 4,
                basis: basis.clone(),
            },
            2,
        ),
        (Method::Pcg, 2),
        (Method::CaPcg3 { s: 3, basis }, 2),
        (spcg5.clone(), 3),
        (Method::Pcg, 3),
        (Method::Pcg, 2),
        (spcg5, 2),
    ];
    for overlap in [true, false] {
        for backend in [Backend::Thread, Backend::Proc] {
            let opts = SolveOptions::from_env()
                .with_tol(1e-8)
                .with_history()
                .with_threads(1)
                .with_overlap(overlap)
                .with_backend(backend)
                .with_trace(None)
                .with_faults(None)
                .with_adaptive(AdaptivePolicy::default());
            let shared = a.clone();
            for (step, (method, ranks)) in steps.iter().enumerate() {
                let engine = Engine::Ranked { ranks: *ranks };
                let fresh = a.clone();
                let on = |a: &CsrMatrix| solve(method, &Problem::new(a, &m, &b), &opts, engine);
                let (got, want) = (on(&shared), on(&fresh));
                let tag = format!(
                    "step {step} ({} on {ranks} ranks) overlap={overlap} {backend:?}",
                    method.name()
                );
                assert!(want.converged(), "{tag}: {:?}", want.outcome);
                assert_eq!(got.outcome, want.outcome, "{tag}: outcome");
                assert_eq!(got.iterations, want.iterations, "{tag}: iterations");
                let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got.x), bits(&want.x), "{tag}: x bits");
                assert_eq!(got.history, want.history, "{tag}: history");
                assert_eq!(got.counters, want.counters, "{tag}: counters");
                assert_eq!(got.s_schedule, want.s_schedule, "{tag}: s schedule");
            }
        }
    }
}
