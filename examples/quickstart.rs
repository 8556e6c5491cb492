//! Quickstart: solve a 2D Poisson system with sPCG and compare the
//! communication footprint against standard PCG — then run the same solve
//! on the rank-parallel engine.
//!
//! Run: `cargo run --release --example quickstart`

use spcg::basis::BasisType;
use spcg::precond::Jacobi;
use spcg::prelude::*;
use spcg::sparse::generators::{paper_rhs, poisson::poisson_2d};

fn main() {
    // 1. A sparse SPD system: 5-point Poisson on a 200x200 grid.
    let a = poisson_2d(200);
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::try_new(&a, &m, &b).expect("dimensions match");
    println!("system: n = {}, nnz = {}", a.nrows(), a.nnz());

    // 2. Baseline: standard PCG.
    //    `from_env()` is `default()` overlaid with SPCG_THREADS / FORMAT /
    //    BACKEND / TRACE / FAULTS / OVERLAP: a binary opts in to the
    //    environment, the library itself never reads it.
    let opts = SolveOptions::from_env().with_tol(1e-9);
    let r_pcg = solve(&Method::Pcg, &problem, &opts, Engine::Serial);
    println!(
        "PCG : {:?} in {} iterations, {} global reductions",
        r_pcg.outcome, r_pcg.iterations, r_pcg.counters.global_collectives
    );

    // 3. sPCG with a Chebyshev basis estimated from a short warm-up run
    //    (the paper's setup), s = 10: same convergence, ~20x fewer
    //    synchronizations.
    let basis = spcg::solvers::chebyshev_basis(&problem, 20, 0.05);
    if let BasisType::Chebyshev {
        lambda_min,
        lambda_max,
    } = &basis
    {
        println!("estimated spectrum of M⁻¹A: [{lambda_min:.4}, {lambda_max:.4}]");
    }
    let method = Method::SPcg { s: 10, basis };
    let r_spcg = solve(&method, &problem, &opts, Engine::Serial);
    println!(
        "sPCG: {:?} in {} iterations, {} global reductions",
        r_spcg.outcome, r_spcg.iterations, r_spcg.counters.global_collectives
    );
    println!(
        "true relative residuals: PCG {:.2e}, sPCG {:.2e}",
        r_pcg.true_relative_residual(&a, &b),
        r_spcg.true_relative_residual(&a, &b)
    );
    assert!(r_pcg.converged() && r_spcg.converged());

    // 4. The same solve on 4 real communicating ranks: block-row partition,
    //    one depth-s ghost-zone exchange per s-block, real collectives.
    let r_ranked = solve(&method, &problem, &opts, Engine::Ranked { ranks: 4 });
    println!(
        "sPCG on 4 ranks: {:?} in {} iterations, {} collectives/rank, {} halo exchanges",
        r_ranked.outcome,
        r_ranked.iterations,
        r_ranked.collectives_per_rank.unwrap_or(0),
        r_ranked.counters.halo_exchanges
    );
    assert!(r_ranked.converged());
}
