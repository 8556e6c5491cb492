//! End-to-end solver benchmark: wall-clock per fixed iteration budget for
//! every method on one mid-size problem (the local-computation side of
//! Figure 1, measured rather than modeled).

use spcg_bench::harness::bench;
use spcg_precond::Jacobi;
use spcg_solvers::{solve, Engine, Method, Problem, SolveOptions, StoppingCriterion};
use spcg_sparse::generators::paper_rhs;
use spcg_sparse::generators::poisson::poisson_3d;
use std::hint::black_box;

fn main() {
    let a = poisson_3d(20);
    let m = Jacobi::new(&a);
    let b = paper_rhs(&a);
    let problem = Problem::new(&a, &m, &b);
    let basis = spcg_solvers::chebyshev_basis(&problem, 20, 0.05);
    let opts = SolveOptions::default()
        .with_tol(1e-30) // never reached: fixed 100-iteration budget
        .with_max_iters(100)
        .with_criterion(StoppingCriterion::PrecondMNorm);
    let methods = [
        ("pcg", Method::Pcg),
        ("pcg3", Method::Pcg3),
        (
            "spcg_s10",
            Method::SPcg {
                s: 10,
                basis: basis.clone(),
            },
        ),
        ("spcg_mon_s10", Method::SPcgMon { s: 10 }),
        (
            "capcg_s10",
            Method::CaPcg {
                s: 10,
                basis: basis.clone(),
            },
        ),
        (
            "capcg3_s10",
            Method::CaPcg3 {
                s: 10,
                basis: basis.clone(),
            },
        ),
    ];
    for (name, method) in &methods {
        bench(&format!("solve_100_iters_poisson20/{name}"), || {
            black_box(solve(method, &problem, &opts, Engine::Serial));
        });
    }
}
