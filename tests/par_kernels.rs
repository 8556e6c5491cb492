//! Determinism sweep for the intra-rank parallel kernel layer.
//!
//! Every reduction in the threaded kernels uses the fixed-shape blocked
//! pairwise summation of `spcg_sparse::par`, so the floating-point result
//! depends only on the block layout — never on the thread count. These
//! tests pin that contract at the solver level: each of the six methods
//! must produce a **bitwise identical** `SolveResult` for any number of
//! intra-rank threads, alone and composed with `Engine::Ranked`.

use spcg::precond::Jacobi;
use spcg::solvers::{
    chebyshev_basis, solve, solve_batch, BatchRequest, Engine, Method, Problem, SolveOptions,
};
use spcg::sparse::generators::poisson::poisson_3d;
use spcg::sparse::generators::{paper_rhs, perturb_diagonal};

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

fn assert_bitwise_equal(
    a: &spcg::solvers::SolveResult,
    b: &spcg::solvers::SolveResult,
    what: &str,
) {
    assert_eq!(a.outcome, b.outcome, "{what}: outcome");
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.x, b.x, "{what}: iterate not bitwise equal");
    // Parallelization must not change what work is charged.
    assert_eq!(a.counters, b.counters, "{what}: counters");
}

/// Serial engine, threads ∈ {1, 2, 4, 8}: bitwise identical solves.
///
/// n = 14³ = 2744 spans multiple reduction blocks (`REDUCE_BLOCK` = 1024),
/// so the threaded partial sums genuinely exercise the pairwise combine.
/// The stencil runs SELL's diagonal encoding and its variable-coefficient
/// twin the slots.
#[test]
fn all_methods_bitwise_identical_across_thread_counts() {
    let stencil = poisson_3d(14);
    let twin = perturb_diagonal(&stencil, 14);
    for (a, diagonal) in [(stencil, true), (twin, false)] {
        assert_eq!(a.sell().is_diagonal(), diagonal);
        let b = paper_rhs(&a);
        let m = Jacobi::new(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env();
        for method in all_methods(&problem) {
            let base = solve(
                &method,
                &problem,
                &opts.clone().with_threads(1),
                Engine::Serial,
            );
            let tag = format!("{} diagonal={diagonal}", method.name());
            assert!(base.converged(), "{tag} threads=1: {:?}", base.outcome);
            for t in [2usize, 4, 8] {
                let res = solve(
                    &method,
                    &problem,
                    &opts.clone().with_threads(t),
                    Engine::Serial,
                );
                assert_bitwise_equal(&base, &res, &format!("{tag} threads={t}"));
            }
        }
    }
}

/// Threads compose with rank parallelism: for each rank count, every
/// thread count reproduces the single-threaded ranked run bit for bit.
#[test]
fn threads_compose_with_ranked_engine() {
    let a = poisson_3d(12);
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let opts = SolveOptions::from_env();
    for method in all_methods(&problem) {
        for ranks in [2usize, 4] {
            let engine = Engine::Ranked { ranks };
            let base = solve(&method, &problem, &opts.clone().with_threads(1), engine);
            assert!(
                base.converged(),
                "{} ranks={ranks} threads=1: {:?}",
                method.name(),
                base.outcome
            );
            for t in [2usize, 4] {
                let res = solve(&method, &problem, &opts.clone().with_threads(t), engine);
                assert_bitwise_equal(
                    &base,
                    &res,
                    &format!("{} ranks={ranks} threads={t}", method.name()),
                );
            }
        }
    }
}

/// The blocked multi-RHS path keeps the determinism contract at every
/// batch width: for k ∈ {2, 4, 8} the batched solve is bitwise identical
/// across thread counts — and every column matches its own
/// single-threaded standalone solve. The stencil's products run on SELL's
/// diagonal encoding; its variable-coefficient twin's SpMVs on the slots
/// and its SpMM on the interleaved CSR kernel.
#[test]
fn batched_multi_rhs_bitwise_identical_across_thread_counts() {
    let stencil = poisson_3d(14);
    let twin = perturb_diagonal(&stencil, 14);
    for (a, diagonal) in [(stencil, true), (twin, false)] {
        assert_eq!(a.sell().is_diagonal(), diagonal);
        let m = Jacobi::new(&a);
        let base_b = paper_rhs(&a);
        for k in [2usize, 4, 8] {
            let bs: Vec<Vec<f64>> = (0..k)
                .map(|j| base_b.iter().map(|v| v * (1.0 + j as f64)).collect())
                .collect();
            let reqs: Vec<BatchRequest<'_>> = bs.iter().map(|b| BatchRequest::new(b)).collect();
            let opts = SolveOptions::from_env();
            let base = solve_batch(
                &Method::Pcg,
                &a,
                &m,
                &reqs,
                &opts.clone().with_threads(1),
                Engine::Serial,
            );
            for (j, (res, b)) in base.iter().zip(&bs).enumerate() {
                assert!(res.converged(), "k={k} col {j}: {:?}", res.outcome);
                let standalone = solve(
                    &Method::Pcg,
                    &Problem::new(&a, &m, b),
                    &opts.clone().with_threads(1),
                    Engine::Serial,
                );
                assert_bitwise_equal(
                    res,
                    &standalone,
                    &format!("k={k} col {j} diagonal={diagonal} vs standalone"),
                );
            }
            for t in [2usize, 4, 8] {
                let threaded = solve_batch(
                    &Method::Pcg,
                    &a,
                    &m,
                    &reqs,
                    &opts.clone().with_threads(t),
                    Engine::Serial,
                );
                for (j, (res, one)) in threaded.iter().zip(&base).enumerate() {
                    assert_bitwise_equal(
                        res,
                        one,
                        &format!("k={k} col {j} diagonal={diagonal} threads={t}"),
                    );
                }
            }
        }
    }
}
