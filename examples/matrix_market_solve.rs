//! Solve a system from a Matrix Market file — drop in any SuiteSparse SPD
//! matrix to rerun the paper's experiments on the real data.
//!
//! Run: `cargo run --release --example matrix_market_solve [file.mtx]`
//! Without an argument, a sample file is generated and solved.

use spcg::precond::Jacobi;
use spcg::solvers::{solve, Engine, Method, Problem, SolveOptions};
use spcg::sparse::generators::paper_rhs;
use spcg::sparse::io::{read_matrix_market, write_matrix_market};

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| {
        let sample = std::env::temp_dir().join("spcg_sample.mtx");
        let a = spcg::sparse::generators::poisson::poisson_2d(64);
        write_matrix_market(&a, &sample).expect("cannot write sample");
        println!("no file given; generated sample {}", sample.display());
        sample.to_string_lossy().into_owned()
    });
    let a = read_matrix_market(&path).expect("cannot read matrix market file");
    println!("loaded {}: n = {}, nnz = {}", path, a.nrows(), a.nnz());
    assert!(a.is_symmetric(1e-10), "matrix must be symmetric");

    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let opts = SolveOptions::default().with_tol(1e-9);

    let r1 = solve(&Method::Pcg, &problem, &opts, Engine::Serial);
    println!("PCG : {:?} in {} iterations", r1.outcome, r1.iterations);
    let basis = spcg::solvers::chebyshev_basis(&problem, 20, 0.05);
    let r2 = solve(
        &Method::SPcg { s: 10, basis },
        &problem,
        &opts,
        Engine::Serial,
    );
    println!("sPCG: {:?} in {} iterations", r2.outcome, r2.iterations);
}
