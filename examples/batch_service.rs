//! Batched solve service: one resident operator, many right-hand sides.
//!
//! Demonstrates the three layers of `spcg::service`:
//! 1. the operator fingerprint cache — setup (preconditioner build, SELL
//!    conversion, Ritz warm-up) is paid once, then every submission for
//!    the same operator is a cache hit;
//! 2. the wide entry point — a batch of k right-hand sides runs as one
//!    blocked solve streaming the matrix once per iteration;
//! 3. the bitwise contract — every column of a batch equals the
//!    standalone solve of that right-hand side, bit for bit.
//!
//! Run: `cargo run --release --example batch_service`

use spcg::precond::{Jacobi, Preconditioner};
use spcg::prelude::*;
use spcg::service::{ServiceConfig, SolveService, SolveSpec};
use spcg::sparse::generators::{paper_rhs, poisson::poisson_3d};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // An operator the service will keep resident: 3D Poisson, 32^3 rows.
    let a = Arc::new(poisson_3d(32));
    println!("operator: n = {}, nnz = {}", a.nrows(), a.nnz());

    let spec = SolveSpec::new(
        Method::Pcg,
        Jacobi::new(&a).spec().expect("Jacobi always has a spec"),
    )
    .with_opts(SolveOptions::default().with_tol(1e-8));

    let service = SolveService::new(ServiceConfig::default());

    // 1. Cold start: the first touch of a fingerprint builds the handle
    //    (setup) and solves; afterwards the handle answers from the LRU.
    let b = paper_rhs(&a);
    let t = Instant::now();
    let cold = service.submit(&a, &spec, &b, None);
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    let setup = service.handle_for(&a, &spec).setup_cost();
    let t = Instant::now();
    let _ = service.handle_for(&a, &spec); // LRU hit: one content hash
    let hit_ms = t.elapsed().as_secs_f64() * 1e3;
    println!(
        "cold submit {cold_ms:.1} ms ({} iters) of which setup {:.1} ms; \
         further setups are cache hits at {hit_ms:.2} ms",
        cold.iterations,
        setup.total.as_secs_f64() * 1e3,
    );

    // 2. A batch of distinct right-hand sides through the wide entry
    //    point: one matrix stream per iteration serves all columns.
    let k = 8;
    let family: Vec<Vec<f64>> = (0..k)
        .map(|j| {
            b.iter()
                .enumerate()
                .map(|(i, &v)| v * (1.0 + 0.5 * j as f64) + ((i + j) % 7) as f64 * 0.01)
                .collect()
        })
        .collect();
    let refs: Vec<&[f64]> = family.iter().map(Vec::as_slice).collect();
    let t = Instant::now();
    let batch = service.submit_batch(&a, &spec, &refs, None);
    let batch_s = t.elapsed().as_secs_f64();
    println!(
        "batch of {k}: {:.3} s total, {:.1} req/s",
        batch_s,
        k as f64 / batch_s
    );

    // 3. Bitwise contract: column j of the batch IS the standalone solve
    //    of right-hand side j — same x, same iteration count, same
    //    instrumentation. The service changes throughput, not numerics.
    let handle = service.handle_for(&a, &spec);
    for (j, rhs) in family.iter().enumerate() {
        let alone = handle.solve_one(rhs);
        assert_eq!(batch[j].x, alone.x, "column {j} diverged from solo solve");
        assert_eq!(batch[j].iterations, alone.iterations);
    }
    println!("bitwise check: all {k} batch columns equal their standalone solves");

    let stats = service.stats();
    println!(
        "service stats: {} requests, {} batches, {} cache hits, {} misses",
        stats.requests, stats.batches, stats.hits, stats.misses
    );
}
