//! Parity suite for the batched solve service.
//!
//! The service's contract is that putting it in front of a solver changes
//! throughput and nothing else: a width-1 batch — and every individual
//! column of a wider batch — must be **bitwise identical** (iterate,
//! history, counters) to the standalone `solve()` of that right-hand side,
//! for every method, engine, and sparse format. The suite honours
//! `SPCG_RANKS` (extra rank count), `SPCG_THREADS`, and `SPCG_FORMAT`
//! like the other integration suites, so the CI service job can sweep
//! configurations without code changes.

use spcg::precond::{Jacobi, Preconditioner};
use spcg::service::{fingerprint, ServiceConfig, SolveService, SolveSpec, SolverHandle};
use spcg::solvers::{
    chebyshev_basis, solve, solve_batch, BatchRequest, Engine, Method, Outcome, Problem,
    SolveOptions, SolveResult, StoppingCriterion,
};
use spcg::sparse::generators::paper_rhs;
use spcg::sparse::generators::poisson::poisson_2d;
use spcg::sparse::{CsrMatrix, SparseFormat};
use std::sync::Arc;

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

fn engines() -> Vec<Engine> {
    let mut engines = vec![Engine::Serial, Engine::Ranked { ranks: 2 }];
    let extra = std::env::var("SPCG_RANKS").ok();
    if let Some(r) = extra.and_then(|v| v.trim().parse().ok()) {
        let e = Engine::Ranked { ranks: r };
        if !engines.contains(&e) {
            engines.push(e);
        }
    }
    engines
}

fn assert_bitwise(batched: &SolveResult, plain: &SolveResult, what: &str) {
    assert_eq!(batched.outcome, plain.outcome, "{what}: outcome");
    assert_eq!(batched.iterations, plain.iterations, "{what}: iterations");
    assert_eq!(batched.x, plain.x, "{what}: iterate not bitwise equal");
    // By bit pattern: under `SPCG_FAULTS` a discarded stage leaves its NaN
    // criterion value in the history, and `NaN != NaN` would fail two
    // identical histories.
    let bits = |h: &[(usize, f64)]| -> Vec<(usize, u64)> {
        h.iter().map(|&(it, v)| (it, v.to_bits())).collect()
    };
    assert_eq!(
        bits(&batched.history),
        bits(&plain.history),
        "{what}: history"
    );
    assert_eq!(batched.counters, plain.counters, "{what}: counters");
}

/// A small family of distinct right-hand sides.
fn rhs_family(a: &CsrMatrix, k: usize) -> Vec<Vec<f64>> {
    let base = paper_rhs(a);
    (0..k)
        .map(|j| {
            base.iter()
                .enumerate()
                .map(|(i, &v)| v * (1.0 + j as f64) + ((i + 3 * j) % 7) as f64 * 0.01)
                .collect()
        })
        .collect()
}

/// k = 1 through the service is bitwise identical to `solve()` for every
/// method × engine × format — both the blocked PCG fast path and the
/// sequential fallback the other methods take.
#[test]
fn k1_service_solve_is_bitwise_identical_to_plain_solve() {
    let a = Arc::new(poisson_2d(14));
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    for format in [SparseFormat::Csr, SparseFormat::Sell] {
        let opts = SolveOptions::from_env().with_format(format).with_history();
        for engine in engines() {
            for method in all_methods(&problem) {
                let what = format!("{} {engine:?} {format:?}", method.name());
                let plain = solve(&method, &problem, &opts, engine);
                assert!(plain.converged(), "{what}: {:?}", plain.outcome);
                let spec = SolveSpec::new(method, m.spec().unwrap())
                    .with_opts(opts.clone())
                    .with_engine(engine);
                let handle = SolverHandle::build(Arc::clone(&a), spec);
                assert_bitwise(&handle.solve_one(&b), &plain, &what);
            }
        }
    }
}

/// Wider batches: every column converges to the shared tolerance, and
/// each is bitwise identical to its standalone solve.
#[test]
fn wide_batches_converge_and_match_standalone_solves() {
    let a = Arc::new(poisson_2d(12));
    let m = Jacobi::new(&a);
    let bs = rhs_family(&a, 4);
    for format in [SparseFormat::Csr, SparseFormat::Sell] {
        let opts = SolveOptions::from_env().with_format(format).with_history();
        for method in [Method::Pcg, Method::SPcgMon { s: S }] {
            let reqs: Vec<BatchRequest<'_>> = bs.iter().map(|b| BatchRequest::new(b)).collect();
            let batch = solve_batch(&method, &a, &m, &reqs, &opts, Engine::Serial);
            for (j, b) in bs.iter().enumerate() {
                let what = format!("{} col {j} {format:?}", method.name());
                let plain = solve(&method, &Problem::new(&a, &m, b), &opts, Engine::Serial);
                assert!(batch[j].converged(), "{what}: {:?}", batch[j].outcome);
                assert!(
                    batch[j].true_relative_residual(&a, b) < opts.tol * 10.0,
                    "{what}: residual {}",
                    batch[j].true_relative_residual(&a, b)
                );
                assert_bitwise(&batch[j], &plain, &what);
            }
        }
    }
}

/// Hostile columns share a batch with ordinary ones: each freezes alone,
/// with the outcome and iteration count of its own standalone solve, and
/// leaves every other column bitwise intact.
#[test]
fn hostile_columns_freeze_alone() {
    let g = 20;
    let a = poisson_2d(g);
    let m = Jacobi::new(&a);
    // A sum of `q` eigenvectors of M⁻¹A: PCG is exact after `q` steps.
    let modes = |q: usize| -> Vec<f64> {
        let wave = |p: usize, i: usize| {
            (std::f64::consts::PI * (p * (i + 1)) as f64 / (g + 1) as f64).sin()
        };
        (0..g * g)
            .map(|i| (1..=q).map(|p| wave(p, i % g) * wave(p + 1, i / g)).sum())
            .collect()
    };
    let mut nan = modes(2);
    nan[7] = f64::NAN;
    let bs = [vec![0.0; g * g], modes(2), nan, paper_rhs(&a), modes(3)];
    let want = [
        (Outcome::Converged, 0),
        (Outcome::Converged, 2),
        (Outcome::Diverged, 0),
        (Outcome::MaxIterations, 6),
        (Outcome::Converged, 3),
    ];
    let reqs: Vec<BatchRequest<'_>> = bs.iter().map(|b| BatchRequest::new(b)).collect();
    for criterion in [
        StoppingCriterion::TrueResidual2Norm,
        StoppingCriterion::RecursiveResidual2Norm,
        StoppingCriterion::PrecondMNorm,
    ] {
        for format in [SparseFormat::Csr, SparseFormat::Sell] {
            for threads in [1, 2] {
                let opts = SolveOptions::from_env()
                    .with_criterion(criterion)
                    .with_format(format)
                    .with_threads(threads)
                    .with_max_iters(6)
                    .with_history();
                let batch = solve_batch(&Method::Pcg, &a, &m, &reqs, &opts, Engine::Serial);
                for (j, res) in batch.iter().enumerate() {
                    let what = format!("col {j} {criterion:?} {format:?} t{threads}");
                    assert_eq!((res.outcome.clone(), res.iterations), want[j], "{what}");
                    let problem = Problem::new(&a, &m, &bs[j]);
                    let plain = solve(&Method::Pcg, &problem, &opts, Engine::Serial);
                    assert_bitwise(res, &plain, &what);
                }
            }
        }
    }
}

/// The fingerprint cache: repeats hit; any change to values, recipe, or
/// options misses.
#[test]
fn fingerprint_cache_hits_and_misses() {
    let a = Arc::new(poisson_2d(10));
    let b = paper_rhs(&a);
    let spec = SolveSpec::new(Method::Pcg, Jacobi::new(&a).spec().unwrap());
    // A resident service is configured by its caller, never by the
    // environment the process happened to start in.
    assert_eq!(
        format!("{:?}", spec.opts),
        format!("{:?}", SolveOptions::default())
    );
    let spec = spec.with_opts(SolveOptions::from_env());
    let svc = SolveService::new(ServiceConfig {
        max_batch: 8,
        cache_capacity: 8,
    });

    svc.submit(&a, &spec, &b, None);
    svc.submit(&a, &spec, &b, None);
    let s = svc.stats();
    assert_eq!((s.misses, s.hits), (1, 1), "repeat must hit");

    // Perturbing one matrix value by one ulp is a different operator.
    let n = a.nrows();
    let mut coo = spcg::sparse::CooMatrix::new(n, n);
    for i in 0..n {
        let (cols, vals) = a.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            let v = if i == n / 2 && c == n / 2 {
                f64::from_bits(v.to_bits() + 1)
            } else {
                v
            };
            coo.push(i, c, v);
        }
    }
    let a2 = Arc::new(coo.to_csr());
    assert_ne!(fingerprint(&a, &spec), fingerprint(&a2, &spec));
    svc.submit(&a2, &spec, &b, None);
    assert_eq!(svc.stats().misses, 2, "value change must miss");

    // A different preconditioner recipe misses.
    let mut ic0 = spec.clone();
    ic0.precond = spcg::precond::PrecondSpec::Ic0;
    svc.submit(&a, &ic0, &b, None);
    assert_eq!(svc.stats().misses, 3, "recipe change must miss");

    // A different tolerance misses.
    let mut tight = spec.clone();
    tight.opts.tol = 1e-11;
    svc.submit(&a, &tight, &b, None);
    assert_eq!(svc.stats().misses, 4, "option change must miss");

    // And the original is still resident.
    svc.submit(&a, &spec, &b, None);
    assert_eq!(svc.stats().hits, 2);
}

/// Batches through the admission queue under concurrency: every
/// submission gets the bitwise result of its own standalone solve.
#[test]
fn concurrent_submissions_reproduce_standalone_solves() {
    let a = Arc::new(poisson_2d(12));
    let m = Jacobi::new(&a);
    let spec = SolveSpec::new(Method::Pcg, m.spec().unwrap()).with_opts(SolveOptions::from_env());
    let svc = Arc::new(SolveService::default());
    let bs = rhs_family(&a, 6);
    let expected: Vec<SolveResult> = bs
        .iter()
        .map(|b| {
            solve(
                &Method::Pcg,
                &Problem::new(&a, &m, b),
                &spec.opts,
                Engine::Serial,
            )
        })
        .collect();
    let got: Vec<SolveResult> = std::thread::scope(|scope| {
        let joins: Vec<_> = bs
            .iter()
            .map(|b| {
                let svc = Arc::clone(&svc);
                let a = Arc::clone(&a);
                let spec = spec.clone();
                scope.spawn(move || svc.submit(&a, &spec, b, None))
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    for (j, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_bitwise(g, e, &format!("concurrent request {j}"));
    }
    let s = svc.stats();
    assert_eq!(s.misses, 1, "one operator, one handle build");
    assert_eq!(s.requests, 6);
}
