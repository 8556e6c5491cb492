//! Saturation bench for the batched multi-RHS solve service. Emits
//! `BENCH_service.json`: requests/s and GF/s of the blocked PCG path at
//! batch widths k ∈ {1, 2, 4, 8, 16} on a 7-point 3D Poisson matrix,
//! the cold-start vs cache-hit setup cost of the fingerprint cache, a
//! plain `solve()` baseline for the width-1 overhead gate, and the
//! headline comparison: the same 8 right-hand sides solved sequentially
//! vs as one width-8 batch (`speedup_k8_batched_vs_sequential`).
//!
//! Run: `cargo run --release -p spcg-bench --bin service`
//!
//! `SPCG_QUICK=1` shrinks the grid and repetition count for smoke runs;
//! `SPCG_GRID=G` overrides the grid edge. Reported numbers are
//! best-of-reps wall-clock.
//!
//! The solve uses the explicit true-residual criterion, so each
//! iteration runs two matrix streams (A·P and A·X for the check) — both
//! batched through the `spmm` kernels, which is exactly the traffic the
//! service amortizes across a batch. Per-column vector work (dots,
//! axpys, preconditioner applies) is replicated verbatim per right-hand
//! side to keep every column bitwise identical to its standalone solve,
//! so the k-scaling curve isolates the matrix-stream amortization alone.
//! The requests/s curve must be monotone non-decreasing in k — that (and
//! the width-1 overhead vs plain `solve()`) is what `benchcheck` gates.
//! This stencil takes SELL's diagonal encoding, whose products stream no
//! matrix, so the curve has nothing to amortize and fails that gate
//! (ROADMAP 13(c)).

use spcg_bench::{quick_mode, write_results};
use spcg_precond::{Jacobi, Preconditioner};
use spcg_service::{ServiceConfig, SolveService, SolveSpec};
use spcg_solvers::{solve, Method, Problem, StoppingCriterion};
use spcg_sparse::generators::paper_rhs;
use spcg_sparse::generators::poisson::poisson_3d;
use spcg_sparse::CsrMatrix;
use std::sync::Arc;
use std::time::Instant;

const WIDTHS: [usize; 5] = [1, 2, 4, 8, 16];

/// Distinct right-hand sides: the paper vector, rescaled and perturbed
/// per column so columns are not trivially collinear.
fn rhs_family(a: &CsrMatrix, k: usize) -> Vec<Vec<f64>> {
    let base = paper_rhs(a);
    (0..k)
        .map(|j| {
            base.iter()
                .enumerate()
                .map(|(i, &v)| v * (1.0 + 0.25 * j as f64) + ((i + 5 * j) % 11) as f64 * 0.01)
                .collect()
        })
        .collect()
}

fn json_array(values: &[f64]) -> String {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!("[{}]", cells.join(", "))
}

fn main() {
    let quick = quick_mode();
    let default_grid = if quick { 20 } else { 48 };
    let grid = spcg_bench::grid_or(default_grid);
    // Quick-mode solves take milliseconds: enough repetitions that the
    // best of them can carry benchcheck's 1.25× width-1 gate.
    let reps = if quick { 5 } else { 7 };
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());

    eprintln!(
        "[service] building 3D Poisson {grid}^3 ({} rows), reps = {reps}",
        grid * grid * grid
    );
    let a = Arc::new(poisson_3d(grid));
    let n = a.nrows();
    let nnz = a.nnz();

    let spec = SolveSpec::new(
        Method::Pcg,
        Jacobi::new(&a).spec().expect("Jacobi always has a spec"),
    )
    .with_opts(
        // Service-typical tolerance: shorter solves keep each timed
        // window small enough that best-of-reps can dodge co-tenant
        // interference at every batch width, and the per-iteration work
        // mix (and hence the k-scaling curve) is tolerance-independent.
        spcg_solvers::SolveOptions::default()
            .with_criterion(StoppingCriterion::TrueResidual2Norm)
            .with_tol(1e-6),
    )
    .with_tuned_basis();

    // Cold start: the first submission pays the whole setup (fingerprint,
    // preconditioner build, row schedule, Ritz warm-up) plus the solve.
    let svc = SolveService::new(ServiceConfig::default());
    let b0 = paper_rhs(&a);
    let t0 = Instant::now();
    let handle = svc.handle_for(&a, &spec);
    let cold_setup_s = t0.elapsed().as_secs_f64();
    let cold = handle.solve_one(&b0);
    let cold_start_solve_s = t0.elapsed().as_secs_f64();
    assert!(cold.converged(), "cold solve: {:?}", cold.outcome);
    // Cache hit: the same fingerprint answered from the LRU — the cost is
    // one content hash plus the lookup.
    let mut hit_setup_s = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let _ = svc.handle_for(&a, &spec);
        hit_setup_s = hit_setup_s.min(t.elapsed().as_secs_f64());
    }
    let sc = handle.setup_cost();
    eprintln!(
        "[service] setup: cold {:.1}ms (precond {:.1}ms, layout {:.1}ms, warmup {:.1}ms), \
         hit {:.3}ms, cold-start solve {:.1}ms",
        cold_setup_s * 1e3,
        sc.precond.as_secs_f64() * 1e3,
        sc.layout.as_secs_f64() * 1e3,
        sc.warmup.as_secs_f64() * 1e3,
        hit_setup_s * 1e3,
        cold_start_solve_s * 1e3,
    );

    // Plain solve() baseline with the identical configuration: benchcheck
    // holds the width-1 service solve (same body, plus one content hash)
    // to 1.25× of this.
    let m = spec.precond.build(&a);
    let problem = Problem::new(&a, m.as_ref(), &b0);
    let mut plain_solve_s = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let res = solve(handle.method(), &problem, &spec.opts, spec.engine);
        plain_solve_s = plain_solve_s.min(t.elapsed().as_secs_f64());
        assert!(res.converged(), "plain solve: {:?}", res.outcome);
    }

    // Batch-width sweep through the service's wide entry point. All
    // submissions hit the resident handle; per width, requests/s is the
    // batch width over the best-of-reps wall-clock and GF/s uses the
    // instrumented per-column counters.
    let mut requests_per_s = Vec::new();
    let mut gflops = Vec::new();
    let mut batch_k1_s = 0.0;
    let mut batch_k8_s = 0.0;
    for &k in &WIDTHS {
        let bs = rhs_family(&a, k);
        let refs: Vec<&[f64]> = bs.iter().map(Vec::as_slice).collect();
        let mut best = f64::INFINITY;
        let mut flops = 0u64;
        for _ in 0..reps {
            let t = Instant::now();
            let results = svc.submit_batch(&a, &spec, &refs, None);
            let dt = t.elapsed().as_secs_f64();
            for (j, res) in results.iter().enumerate() {
                assert!(res.converged(), "k={k} col {j}: {:?}", res.outcome);
            }
            if dt < best {
                best = dt;
                flops = results.iter().map(|r| r.counters.total_flops()).sum();
            }
        }
        if k == 1 {
            batch_k1_s = best;
        }
        if k == 8 {
            batch_k8_s = best;
        }
        requests_per_s.push(k as f64 / best);
        gflops.push(flops as f64 / best / 1e9);
        eprintln!(
            "[service] k={k}: {:.3} req/s, {:.2} GF/s ({best:.3}s per batch)",
            requests_per_s.last().unwrap(),
            gflops.last().unwrap(),
        );
    }

    // Headline comparison: the same 8 right-hand sides solved one
    // request at a time through the resident handle (the k = 1
    // sequential baseline the batched path is measured against). Same
    // work, same cache state — the only difference is batching.
    let seq_family = rhs_family(&a, 8);
    let mut seq_k8_s = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        for b in &seq_family {
            let refs = [b.as_slice()];
            let results = svc.submit_batch(&a, &spec, &refs, None);
            assert!(
                results[0].converged(),
                "sequential: {:?}",
                results[0].outcome
            );
        }
        seq_k8_s = seq_k8_s.min(t.elapsed().as_secs_f64());
    }
    let speedup_k8 = seq_k8_s / batch_k8_s;
    eprintln!(
        "[service] 8 RHS sequential {seq_k8_s:.3}s vs batched {batch_k8_s:.3}s \
         -> {speedup_k8:.3}x batched speedup"
    );

    let widths_list: Vec<String> = WIDTHS.iter().map(|w| w.to_string()).collect();
    let out = format!(
        "{{\n  \"matrix\": \"poisson3d_{grid}\",\n  \"n\": {n},\n  \"nnz\": {nnz},\n  \"reps\": {reps},\n  \"nproc\": {nproc},\n  \"batch_widths\": [{}],\n  \"requests_per_s\": {},\n  \"gflops\": {{\n    \"batched_pcg\": {}\n  }},\n  \"plain_solve_seconds\": {:.4},\n  \"batch_k1_seconds\": {:.4},\n  \"sequential_8rhs_seconds\": {:.4},\n  \"batch_8rhs_seconds\": {:.4},\n  \"speedup_k8_batched_vs_sequential\": {:.4},\n  \"setup\": {{\n    \"cold_seconds\": {:.4},\n    \"hit_seconds\": {:.6},\n    \"cold_start_solve_seconds\": {:.4},\n    \"hit_over_cold_solve\": {:.6}\n  }}\n}}\n",
        widths_list.join(", "),
        json_array(&requests_per_s),
        json_array(&gflops),
        plain_solve_s,
        batch_k1_s,
        seq_k8_s,
        batch_k8_s,
        speedup_k8,
        cold_setup_s,
        hit_setup_s,
        cold_start_solve_s,
        hit_setup_s / cold_start_solve_s,
    );
    write_results("BENCH_service.json", &out);
}
