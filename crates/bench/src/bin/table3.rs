//! Regenerates the paper's **Table 3**: modeled runtimes of standard PCG
//! and speedups of the s-step methods on four nodes (512 ranks), for the
//! seven largest Table-2 matrices where at least two s-step methods
//! converged — once with the Chebyshev preconditioner (recursive 2-norm
//! criterion) and once with Jacobi (M-norm criterion), s = 10, Chebyshev
//! basis.
//!
//! Runtimes come from the α-β cluster model applied to the instrumented
//! operation counts (DESIGN.md §3); the paper's ordering claims — sPCG
//! fastest everywhere, CA-PCG never faster than PCG — are what the model
//! must reproduce.
//!
//! Run: `cargo run --release -p spcg-bench --bin table3`
//!
//! With `--ranks R` the solves execute on the real rank-parallel engine
//! (`Engine::Ranked { ranks: R }`) instead of the serial reference; the
//! counters the model prices are then the globally merged counts measured
//! across the R communicating ranks, and output goes to
//! `table3_ranks<R>.txt`.
//!
//! With `--trace <path>` (or `SPCG_TRACE=1`) every solve records per-rank
//! phase spans; the combined Chrome trace-event export is written to
//! `path` (default `results/TRACE_table3*.json`).

use spcg_bench::{
    no_overlap_arg, paper, prepare_instance, ranks_arg, results_dir, threads_arg, trace_arg,
    tracer_from_args, write_results, write_trace, Precond, TextTable,
};
use spcg_dist::{Counters, MachineTopology};
use spcg_obs::Tracer;
use spcg_perf::{predict_time, MachineParams};
use spcg_solvers::{solve, Engine, Method, SolveOptions, SolveResult, StoppingCriterion};
use spcg_sparse::generators::suite::suite_matrices;

const MATRICES: [&str; 7] = [
    "parabolic_fem",
    "apache2",
    "audikw_1",
    "ldoor",
    "ecology2",
    "Geo_1438",
    "G3_circuit",
];

fn run(
    method: &Method,
    inst: &spcg_bench::Instance,
    crit: StoppingCriterion,
    engine: Engine,
    threads: Option<usize>,
    overlap: bool,
    tracer: Option<&Tracer>,
) -> SolveResult {
    let base = SolveOptions::from_env();
    let opts = SolveOptions {
        tol: paper::TOL,
        max_iters: paper::MAX_ITERS,
        criterion: crit,
        overlap,
        threads: threads.unwrap_or(base.threads),
        trace: tracer.cloned(),
        ..base
    };
    solve(method, &inst.problem(), &opts, engine)
}

/// Prices the stand-in's measured counters at the *original* SuiteSparse
/// matrix size: iteration counts come from the scaled-down solve, but all
/// size-proportional work is multiplied by `paper_n / n` so the
/// compute/communication balance matches the paper's problem sizes (the
/// model is linear in each count).
fn scale_to_paper_size(c: &Counters, factor: f64) -> Counters {
    let mut out = c.clone();
    let scale = |v: u64| (v as f64 * factor).round() as u64;
    out.spmv_flops = scale(c.spmv_flops);
    out.precond_flops = scale(c.precond_flops);
    out.blas1_flops = scale(c.blas1_flops);
    out.blas2_flops = scale(c.blas2_flops);
    out.blas3_flops = scale(c.blas3_flops);
    out.local_reduction_flops = scale(c.local_reduction_flops);
    out
}

fn speedup_cell(pcg_time: f64, res: &SolveResult, time: f64) -> String {
    if res.converged() {
        format!("{:.2}", pcg_time / time)
    } else {
        "-".into()
    }
}

fn main() {
    let s = paper::S;
    let ranks = ranks_arg();
    let threads = threads_arg();
    let overlap = !no_overlap_arg();
    let trace_path = trace_arg();
    let tracer = tracer_from_args(&trace_path);
    let mut traced_counters = Counters::new();
    let engine = match ranks {
        Some(r) => Engine::Ranked { ranks: r },
        None => Engine::Serial,
    };
    let machine = MachineParams::default();
    let topo = MachineTopology::paper(4); // 4 nodes × 128 ranks
    let suite = suite_matrices();

    let mut out = String::new();
    out.push_str(&format!(
        "Table 3 — modeled PCG runtime and s-step speedups on {} nodes x {} ranks\n\
         (alpha-beta model on instrumented counters; s = {s}, Chebyshev basis)\n\n",
        topo.nodes, topo.ranks_per_node
    ));

    for (precond, crit, label) in [
        (
            Precond::Chebyshev,
            StoppingCriterion::RecursiveResidual2Norm,
            "Chebyshev preconditioner (degree 3), recursive 2-norm criterion",
        ),
        (
            Precond::Jacobi,
            StoppingCriterion::PrecondMNorm,
            "Jacobi preconditioner, M-norm criterion",
        ),
    ] {
        out.push_str(&format!("{label}\n"));
        let mut t = TextTable::new(&["Matrix", "PCG time", "sPCG", "CA-PCG", "CA-PCG3"]);
        for name in MATRICES {
            let entry = suite
                .iter()
                .find(|e| e.name == name)
                .expect("matrix in suite");
            eprintln!("[table3] {name} ({label})");
            let inst = prepare_instance(name, entry.build(), precond);
            // Banded stand-ins: per-rank halo ≈ the band width each side.
            let halo = (4 * entry.rounds) as f64;
            let size_factor = entry.paper_n as f64 / entry.n as f64;
            let pcg = run(
                &Method::Pcg,
                &inst,
                crit,
                engine,
                threads,
                overlap,
                tracer.as_ref(),
            );
            traced_counters.merge(&pcg.counters);
            let pcg_time = predict_time(
                &scale_to_paper_size(&pcg.counters, size_factor),
                &machine,
                &topo,
                halo,
            )
            .total();
            let basis = inst.chebyshev.clone();
            let mut cells = vec![name.to_string(), format!("{:.3}s", pcg_time)];
            for method in [
                Method::SPcg {
                    s,
                    basis: basis.clone(),
                },
                Method::CaPcg {
                    s,
                    basis: basis.clone(),
                },
                Method::CaPcg3 {
                    s,
                    basis: basis.clone(),
                },
            ] {
                let res = run(
                    &method,
                    &inst,
                    crit,
                    engine,
                    threads,
                    overlap,
                    tracer.as_ref(),
                );
                traced_counters.merge(&res.counters);
                let time = predict_time(
                    &scale_to_paper_size(&res.counters, size_factor),
                    &machine,
                    &topo,
                    halo,
                )
                .total();
                cells.push(speedup_cell(pcg_time, &res, time));
            }
            t.row(cells);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out.push_str(
        "Paper reference (shape): sPCG has the best speedup wherever it converges\n\
         (1.05-1.63x); CA-PCG is below 1.0x everywhere; CA-PCG3 lands between.\n",
    );

    match ranks {
        Some(r) => write_results(&format!("table3_ranks{r}.txt"), &out),
        None => write_results("table3.txt", &out),
    }

    if let Some(tracer) = &tracer {
        let path = trace_path.unwrap_or_else(|| {
            let name = match ranks {
                Some(r) => format!("TRACE_table3_ranks{r}.json"),
                None => "TRACE_table3.json".to_string(),
            };
            results_dir().join(name)
        });
        write_trace(&path, tracer, &traced_counters);
    }
}
