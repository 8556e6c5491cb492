//! Instrumentation and performance-model integration tests: measured
//! counters against the paper's Table-1 formulas, and model monotonicity.

use spcg::dist::MachineTopology;
use spcg::perf::table1::{verify_against_counters, Algorithm};
use spcg::perf::{predict_time, MachineParams};
use spcg::precond::Jacobi;
use spcg::solvers::{solve, Engine, Method, Problem, SolveOptions, StoppingCriterion};
use spcg::sparse::generators::{paper_rhs, poisson::poisson_2d};

fn run_capped(
    method: &Method,
    problem: &Problem<'_>,
    max_iters: usize,
) -> spcg::solvers::SolveResult {
    let opts = SolveOptions::from_env()
        .with_criterion(StoppingCriterion::PrecondMNorm)
        .with_tol(1e-8)
        .with_max_iters(max_iters);
    solve(method, problem, &opts, Engine::Serial)
}

fn run(method: &Method, problem: &Problem<'_>) -> spcg::solvers::SolveResult {
    run_capped(method, problem, SolveOptions::default().max_iters)
}

#[test]
fn measured_counters_track_table1_formulas() {
    let a = poisson_2d(48);
    let n = a.nrows();
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let basis = spcg::solvers::chebyshev_basis(&problem, 20, 0.05);
    let s = 6usize;
    // (formula row, method, arbitrary basis, every charge exact)
    let cases = [
        (Algorithm::Pcg, Method::Pcg, false, true),
        (Algorithm::SPcgMon, Method::SPcgMon { s }, false, true),
        (
            Algorithm::SPcg,
            Method::SPcg {
                s,
                basis: basis.clone(),
            },
            true,
            true,
        ),
        (
            Algorithm::CaPcg,
            Method::CaPcg {
                s,
                basis: basis.clone(),
            },
            true,
            false,
        ),
        (Algorithm::CaPcg3, Method::CaPcg3 { s, basis }, true, false),
    ];
    for (alg, method, arb, exact) in cases {
        // One full block, by difference of the solve capped at one block
        // and at two (see `verify_against_counters`).
        let [one, two] = [1, 2].map(|blocks| run_capped(&method, &problem, blocks * s));
        assert_eq!(
            two.iterations,
            2 * s,
            "{}: {:?}",
            method.name(),
            two.outcome
        );
        let check = verify_against_counters(alg, s as u64, n, arb, &one.counters, &two.counters);
        assert_eq!(
            check.measured_reductions,
            check.formula_reductions,
            "{}: {check:?}",
            method.name()
        );
        // Table 1's collective column, the synchronisation count the
        // paper's scaling argument rests on, holds exactly for every row.
        assert_eq!(
            check.measured_collectives,
            check.formula_collectives,
            "{}: {check:?}",
            method.name()
        );
        // The coordinate-space methods charge a few vector FLOPs per row
        // beyond the formulas, and CA-PCG3 one more M⁻¹ apply per block.
        let bound = if exact { 0.0 } else { 0.1 };
        assert!(
            check.max_relative_error() <= bound,
            "{}: {check:?}",
            method.name()
        );
    }
}

#[test]
fn model_speedup_ordering_matches_paper_at_scale() {
    // At 64 nodes the modeled ordering must be the paper's: sPCG fastest,
    // CA-PCG slowest of the s-step methods, PCG behind all of them.
    let a = poisson_2d(32);
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let basis = spcg::solvers::chebyshev_basis(&problem, 20, 0.05);
    let s = 10;
    let machine = MachineParams::default();
    let topo = MachineTopology::paper(64);
    let t = |method: &Method| {
        let res = run(method, &problem);
        assert!(res.converged(), "{}", method.name());
        // Scale counters as if the problem were paper-sized: the model is
        // linear in counts, so relative ordering is preserved; use as-is.
        predict_time(&res.counters, &machine, &topo, 64.0).total()
    };
    let t_pcg = t(&Method::Pcg);
    let t_spcg = t(&Method::SPcg {
        s,
        basis: basis.clone(),
    });
    let t_capcg = t(&Method::CaPcg {
        s,
        basis: basis.clone(),
    });
    assert!(t_spcg < t_pcg, "sPCG {t_spcg} vs PCG {t_pcg}");
    assert!(t_spcg < t_capcg, "sPCG {t_spcg} vs CA-PCG {t_capcg}");
}

#[test]
fn allreduce_words_match_gram_sizes() {
    let a = poisson_2d(16);
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let basis = spcg::solvers::chebyshev_basis(&problem, 20, 0.05);
    for s in [4usize, 7] {
        let res = run(
            &Method::CaPcg {
                s,
                basis: basis.clone(),
            },
            &problem,
        );
        assert!(res.converged());
        let rounds = res.counters.global_collectives;
        let dim = (2 * s + 1) as u64;
        assert_eq!(res.counters.allreduce_words, rounds * dim * dim);
    }
}
