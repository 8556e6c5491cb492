//! Trace-calibrated strong-scaling replay (`results/BENCH_scale.json`).
//!
//! `fig1` prices one solve's counters with the *hand-picked* default
//! cluster. This check closes the loop: it **measures** each
//! communication backend — thread (shared memory) and proc (worker
//! processes over Unix-domain sockets) — by running traced PCG + Jacobi
//! calibration solves over a grid/rank sweep, fits the α-β-γ constants
//! from the span distributions (`spcg_perf::calib`), and replays the
//! paper's 128-node × 128-rank Figure-1 strong-scaling sweep on the
//! *fitted* machine for PCG and sPCG(s=10).
//!
//! The proc backend is **required**: a missing `spcg-rankd` worker binary
//! fails the run (exit 1) instead of silently calibrating the thread
//! transport twice. Build the workspace first (or set `SPCG_RANKD`).
//!
//! Calibration solves disable overlap so `ExchangeWait` spans measure the
//! transport, not the overlapped compute scheduled around it, and disable
//! fault injection so stall faults cannot contaminate the fit.
//!
//! Run: `cargo run --release -p spcg-bench --bin scalecheck`
//! (`SPCG_QUICK=1` shrinks the sweep for CI smoke runs.)

use spcg_bench::{prepare_instance, quick_mode, write_results, Instance, Precond};
use spcg_dist::Backend;
use spcg_obs::Tracer;
use spcg_perf::scaling::{poisson3d_halo_per_rank, strong_scaling};
use spcg_perf::{Calibration, Calibrator};
use spcg_solvers::{solve, Engine, Method, SolveOptions, SolveResult};
use spcg_sparse::generators::poisson::poisson_3d;

const NODES: [usize; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
const RANKS_PER_NODE: usize = 128;
const RANKS: [usize; 2] = [2, 4];

fn calibration_solve(
    inst: &Instance,
    method: &Method,
    backend: Backend,
    ranks: usize,
) -> (SolveResult, Tracer) {
    let tracer = Tracer::new();
    let opts = SolveOptions {
        tol: 1e-6,
        overlap: false,
        backend,
        trace: Some(tracer.clone()),
        ..SolveOptions::default()
    };
    let res = solve(method, &inst.problem(), &opts, Engine::Ranked { ranks });
    (res, tracer)
}

/// Calibrates one backend over the grid sweep: the α-β transport fit and γ,
/// the rate of the ranks' SpMV on their ghost zones.
fn calibrate(grids: &[usize], backend: Backend) -> (Calibration, Vec<Instance>) {
    let mut cal = Calibrator::new();
    let mut instances = Vec::new();
    for &grid in grids {
        let inst = prepare_instance(
            &format!("poisson3d_{grid}"),
            poisson_3d(grid),
            Precond::Jacobi,
        );
        for ranks in RANKS {
            let (res, tracer) = calibration_solve(&inst, &Method::Pcg, backend, ranks);
            assert!(
                res.converged(),
                "calibration solve diverged: {} {} ranks={ranks}",
                backend.as_str(),
                inst.name,
            );
            cal.ingest(&tracer, &res.counters);
            eprintln!(
                "[scalecheck] {} {} ranks={ranks}: {} iters, {} exchanges",
                backend.as_str(),
                inst.name,
                res.iterations,
                res.counters.halo_exchanges,
            );
        }
        instances.push(inst);
    }
    (cal.fit(backend.as_str()), instances)
}

fn json_array_sci(values: &[f64]) -> String {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:.3e}")).collect();
    format!("[{}]", cells.join(", "))
}

fn json_array(values: &[f64]) -> String {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!("[{}]", cells.join(", "))
}

/// One fitted-constants JSON object (the `calibration` block).
fn calibration_json(cal: &Calibration) -> String {
    format!(
        "{{\n        \"alpha_seconds\": {:.3e},\n        \"beta_seconds_per_word\": {:.3e},\n        \"gamma_flops\": {:.3e},\n        \"samples\": {}\n      }}",
        cal.alpha, cal.beta, cal.gamma, cal.samples,
    )
}

/// One backend's JSON block: the fitted constants plus the replayed
/// Figure 1 curves priced with them.
fn backend_block(
    cal: &Calibration,
    replay_inst: &Instance,
    grid: usize,
    backend: Backend,
) -> String {
    let machine = cal.machine_params();
    // Counter blocks for the replay: the calibrated transport prices a
    // fresh PCG and sPCG(s=10) solve of the largest calibration problem.
    let (pcg, _) = calibration_solve(replay_inst, &Method::Pcg, backend, RANKS[0]);
    let spcg = {
        let method = Method::SPcg {
            s: 10,
            basis: replay_inst.chebyshev.clone(),
        };
        calibration_solve(replay_inst, &method, backend, RANKS[0]).0
    };
    assert!(pcg.converged() && spcg.converged(), "replay solve diverged");
    let halo = |ranks: usize| poisson3d_halo_per_rank(grid, ranks);
    let pcg_pts = strong_scaling(&pcg.counters, &machine, &NODES, RANKS_PER_NODE, halo);
    let spcg_pts = strong_scaling(&spcg.counters, &machine, &NODES, RANKS_PER_NODE, halo);
    let pcg_t: Vec<f64> = pcg_pts.iter().map(|p| p.time.total()).collect();
    let spcg_t: Vec<f64> = spcg_pts.iter().map(|p| p.time.total()).collect();
    let pcg_1n = pcg_t[0];
    let speedup = |ts: &[f64]| -> Vec<f64> { ts.iter().map(|t| pcg_1n / t).collect() };
    format!(
        "    \"{}\": {{\n      \"calibration\": {},\n      \"modeled_seconds\": {{\n        \"pcg\": {},\n        \"spcg_s10\": {}\n      }},\n      \"speedup_over_pcg_1node\": {{\n        \"pcg\": {},\n        \"spcg_s10\": {}\n      }}\n    }}",
        cal.backend,
        calibration_json(cal),
        json_array_sci(&pcg_t),
        json_array_sci(&spcg_t),
        json_array(&speedup(&pcg_t)),
        json_array(&speedup(&spcg_t)),
    )
}

fn main() {
    #[cfg(unix)]
    if spcg_solvers::procexec::rankd_path().is_none() {
        eprintln!(
            "scalecheck: spcg-rankd not found — build the workspace first \
             (cargo build --release) or set SPCG_RANKD"
        );
        std::process::exit(1);
    }
    #[cfg(not(unix))]
    {
        eprintln!("scalecheck: the proc backend requires a Unix platform");
        std::process::exit(1);
    }
    let grids: &[usize] = if quick_mode() {
        &[16, 20]
    } else {
        &[24, 32, 40]
    };
    let mut blocks = Vec::new();
    for backend in [Backend::Thread, Backend::Proc] {
        eprintln!("[scalecheck] calibrating {} backend", backend.as_str());
        let (cal, instances) = calibrate(grids, backend);
        eprintln!(
            "[scalecheck] {}: alpha={:.3e}s beta={:.3e}s/word gamma={:.3e}flop/s ({} samples)",
            cal.backend, cal.alpha, cal.beta, cal.gamma, cal.samples
        );
        let replay_inst = instances.last().unwrap();
        blocks.push(backend_block(
            &cal,
            replay_inst,
            *grids.last().unwrap(),
            backend,
        ));
    }
    let grids_list: Vec<String> = grids.iter().map(|g| g.to_string()).collect();
    let nodes_list: Vec<String> = NODES.iter().map(|n| n.to_string()).collect();
    let ranks_list: Vec<String> = RANKS.iter().map(|r| r.to_string()).collect();
    let out = format!(
        "{{\n  \"calibration_grids\": [{}],\n  \"calibration_ranks\": [{}],\n  \"nodes\": [{}],\n  \"ranks_per_node\": {RANKS_PER_NODE},\n  \"backends\": {{\n{}\n  }}\n}}\n",
        grids_list.join(", "),
        ranks_list.join(", "),
        nodes_list.join(", "),
        blocks.join(",\n"),
    );
    write_results("BENCH_scale.json", &out);
}
