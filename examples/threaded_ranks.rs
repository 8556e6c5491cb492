//! Real parallel execution: PCG and sPCG on the rank-parallel engine — OS
//! threads with actual allreduce collectives and ghost-zone halo exchanges,
//! the shared-memory stand-in for the paper's MPI runs — demonstrating the
//! factor-2s reduction in synchronization frequency and the one-exchange-
//! per-s-block halo amortization.
//!
//! Run: `cargo run --release --example threaded_ranks`

use spcg::precond::Jacobi;
use spcg::prelude::*;
use spcg::sparse::generators::{paper_rhs, poisson::poisson_2d};

fn report(label: &str, r: &SolveResult) {
    let collectives = r.collectives_per_rank.unwrap_or(0);
    println!(
        "{label}: {:?} in {} iterations, {} collectives/rank ({:.2}/iteration), \
         {} halo exchanges ({:.2}/iteration)",
        r.outcome,
        r.iterations,
        collectives,
        collectives as f64 / r.iterations as f64,
        r.counters.halo_exchanges,
        r.counters.halo_exchanges as f64 / r.iterations as f64,
    );
}

fn main() {
    let a = poisson_2d(160);
    let b = paper_rhs(&a);
    let ranks = 8;
    let s = 10;

    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let basis = spcg::solvers::chebyshev_basis(&problem, 20, 0.05);
    // from_env(): `SPCG_BACKEND=proc` moves the ranks into worker processes.
    let opts = SolveOptions::from_env()
        .with_tol(1e-9)
        .with_max_iters(20_000);
    let engine = Engine::Ranked { ranks };

    println!(
        "n = {}, {ranks} ranks (threads), block-row partition\n",
        a.nrows()
    );
    let r_pcg = solve(&Method::Pcg, &problem, &opts, engine);
    report("PCG ", &r_pcg);
    let r_spcg = solve(&Method::SPcg { s, basis }, &problem, &opts, engine);
    report("sPCG", &r_spcg);

    let rate = |r: &SolveResult| r.collectives_per_rank.unwrap_or(0) as f64 / r.iterations as f64;
    println!(
        "\nsynchronization frequency reduced {:.1}x (theory: 2s = {})",
        rate(&r_pcg) / rate(&r_spcg),
        2 * s
    );
}
