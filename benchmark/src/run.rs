//! One benchmark run: set-up, guards, passes, metrics.
//!
//! An untraced run measures the end-to-end metrics with `trace: None` in
//! every solve. A traced run is a separate run that first times a few
//! untraced passes (the base of `obs.trace_overhead_frac` and the derived
//! ratios), then traces as many, then probes the layers, and reports the
//! per-layer metrics.

use crate::attribution::{phase_metric, SolveTrace, TraceSink};
use crate::harness::{
    check_env, check_ranked, median, nproc, quantile, quiet_mean, run_passes, summarize, times,
    Driver, Ops, Pass, Sample, SolverDriver, Summary,
};
use crate::metrics::{Values, END_TO_END, PER_LAYER};
use crate::probes::run_probes;
use crate::service::ServiceDriver;
use crate::workloads::{
    build_service, kind, solver_workload, Inputs, Roles, Scale, ServiceInputs, SolverWorkload,
    NAMES, RTOL,
};
use spcg::obs::{validate_chrome_trace, Phase};
use std::path::PathBuf;
use std::time::Instant;

/// From-scratch input builds behind `setup_s`: at least this many, and
/// more while they have taken less than `SETUP_MIN_S` in all, so that the
/// millisecond set-up of `strong_limit` is a median of many.
const SETUP_REPS: usize = 9;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 200;
/// Fewest timed passes of an untraced run.
const MIN_PASSES: usize = 3;
/// A traced run spends this share of `--seconds` on its untraced passes
/// and as much on its traced ones; the rest is left for the probes.
const TRACED_SHARE: f64 = 0.35;
const TRACED_MIN_PASSES: usize = 2;
const TRACED_MAX_PASSES: usize = 10;
/// Traced passes written to the Chrome trace file (all are attributed).
const EXPORT_PASSES: usize = 2;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// `RTOL` except in the test that an unreachable tolerance is counted
    /// as failed.
    pub rtol: f64,
    /// Where a traced run writes its Chrome trace; `None` keeps it in
    /// memory (it is validated either way).
    pub trace_path: Option<PathBuf>,
}

impl RunConfig {
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Self {
        RunConfig {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            scale: Scale::Full,
            rtol: RTOL,
            trace_path: None,
        }
    }
}

/// What a run produced.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub notes: Vec<String>,
    pub metrics: Values,
    /// Seed, machine and working set, as a JSON object.
    pub context: String,
    /// Per member (or request kind): iterations in one pass, and `n`,
    /// minimum and quartiles of its time over the untraced passes.
    pub timings: Vec<(&'static str, u64, Summary)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

enum Built {
    Solver(&'static SolverWorkload, Inputs),
    Service(Box<ServiceInputs>),
}

impl Built {
    fn new(cfg: &RunConfig) -> Result<Built, String> {
        match solver_workload(&cfg.workload) {
            Some(wl) => Ok(Built::Solver(wl, wl.build(cfg.seed, cfg.scale))),
            None if cfg.workload == "service_batch" => {
                Ok(Built::Service(Box::new(build_service(cfg.seed, cfg.scale))))
            }
            None => Err(format!(
                "unknown workload {:?}; choose one of {}",
                cfg.workload,
                NAMES.join(", ")
            )),
        }
    }

    fn guard(&self) -> Result<(), String> {
        match self {
            Built::Solver(wl, inputs) => check_ranked(wl.members, inputs.m.as_ref()),
            Built::Service(_) => Ok(()),
        }
    }

    fn driver<'a>(&'a self, rtol: f64, sink: Option<&TraceSink>) -> Box<dyn Driver + 'a> {
        match self {
            Built::Solver(wl, inputs) => Box::new(SolverDriver::new(wl, inputs, rtol)),
            Built::Service(inputs) => Box::new(ServiceDriver::new(inputs, rtol, sink)),
        }
    }

    /// Computed working set in MiB: the operators plus the widest member's
    /// vectors (an s-step block of 2s+1 columns twice over, or the batch).
    fn working_set_mib(&self) -> f64 {
        match self {
            Built::Solver(wl, inputs) => inputs.working_set_mib(4 * wl.s + 6),
            Built::Service(s) => s
                .ops
                .iter()
                .map(|op| op.inputs.working_set_mib(8 * 5))
                .sum(),
        }
    }
}

/// Runs one workload once. `Err` is a refusal to start (environment,
/// missing worker binary, unknown workload): no result exists.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    check_env()?;
    let mut ops = Ops::default();

    let mut setup_s: Vec<f64> = Vec::new();
    let mut built = None;
    loop {
        // Drop the previous build first: peak memory is one set of inputs.
        drop(built.take());
        let t0 = Instant::now();
        built = Some(Built::new(cfg)?);
        setup_s.push(t0.elapsed().as_secs_f64());
        let n = setup_s.len();
        let enough = n >= SETUP_REPS && setup_s.iter().sum::<f64>() >= SETUP_MIN_S;
        if cfg.trace || enough || n >= SETUP_MAX_REPS {
            break;
        }
    }
    let built = built.expect("at least one set-up");
    built.guard()?;

    let mut driver = built.driver(cfg.rtol, None);
    // Warm-up: caches fill, lazy schedules get built; not timed, not counted.
    driver.pass(0, None, &mut Ops::default());
    let roles = driver.roles();

    let (mut metrics, untraced) = if cfg.trace {
        let budget = cfg.seconds * TRACED_SHARE;
        let (lo, hi) = (TRACED_MIN_PASSES, TRACED_MAX_PASSES);
        let untraced = run_passes(driver.as_mut(), budget, lo, hi, None, &mut ops);
        let mut sink = TraceSink::new(EXPORT_PASSES);
        let mut traced_driver = built.driver(cfg.rtol, Some(&sink));
        let traced = run_passes(
            traced_driver.as_mut(),
            budget,
            lo,
            hi,
            Some(&mut sink),
            &mut ops,
        );
        // Spans only observe: a traced pass repeats an untraced one exactly.
        ops.check(traced[0].signature() == untraced[0].signature(), || {
            "tracing changed iterations or counters".to_string()
        });

        let mut m = Values::new(PER_LAYER);
        let (inputs, s) = driver.probe_target();
        run_probes(inputs, s, &mut sink, &mut m);
        layer_metrics(&mut m, &untraced, &traced, roles);

        let json = sink.finish();
        let invalid = validate_chrome_trace(&json).err();
        ops.record(
            invalid
                .map(|e| format!("trace does not validate: {e}"))
                .into_iter()
                .collect(),
        );
        if let Some(path) = &cfg.trace_path {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(path, &json).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        (m, untraced)
    } else {
        let passes = run_passes(
            driver.as_mut(),
            cfg.seconds,
            MIN_PASSES,
            usize::MAX,
            None,
            &mut ops,
        );
        let walls: Vec<f64> = passes.iter().map(Pass::wall).collect();
        let mut m = Values::new(END_TO_END);
        m.set("setup_s", median(&setup_s));
        // Timings are the quiet mean across passes, not the median: see
        // `quiet_mean`. Every pass solves the same right-hand sides, so
        // the throughput is that count over the quiet pass time.
        m.set("tts_pcg_s", quiet_mean(&times(&passes, roles.pcg)));
        m.set("tts_sstep_s", quiet_mean(&times(&passes, roles.sstep)));
        m.set("tts_alt_s", quiet_mean(&times(&passes, roles.alt)));
        let mix = quiet_mean(&walls);
        m.set("mix_s", mix);
        m.set("rhs_per_s", passes[0].rhs() as f64 / mix);
        (m, passes)
    };

    let mut keys: Vec<&'static str> = Vec::new();
    for s in &untraced[0].samples {
        if !keys.contains(&s.key) {
            keys.push(s.key);
        }
    }
    let iters_of = |k: &str| -> u64 {
        let first = &untraced[0].samples;
        first.iter().filter(|s| s.key == k).map(|s| s.iters).sum()
    };
    let timings = keys
        .into_iter()
        .map(|k| (k, iters_of(k), summarize(&times(&untraced, k))))
        .collect();
    let context = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"caches\":\"{}\",\"working_set_mib\":{:.1},\"passes\":{}}}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        nproc(),
        cache_sizes(),
        built.working_set_mib(),
        untraced.len(),
    );
    drop(driver);

    if !cfg.trace {
        // Last, so the high-water mark covers the whole run.
        metrics.set("peak_rss_mb", peak_rss_mib());
    }
    Ok(Outcome {
        attempted: ops.attempted,
        failed: ops.failed,
        notes: ops.notes,
        metrics,
        context,
        timings,
    })
}

/// The per-layer metrics that come from passes: span self time per traced
/// pass (median over traced passes), exact counts of one pass, and ratios
/// of the untraced passes' quiet means.
fn layer_metrics(m: &mut Values, untraced: &[Pass], traced: &[Pass], roles: Roles) {
    // T: self time per phase, summed over a pass's solves.
    let per_pass = |f: &dyn Fn(&SolveTrace) -> f64| -> Vec<f64> {
        traced
            .iter()
            .map(|p| {
                p.samples
                    .iter()
                    .filter_map(|s| s.trace.as_ref())
                    .map(f)
                    .sum()
            })
            .collect()
    };
    for phase in Phase::ALL {
        let secs = median(&per_pass(&|t| t.self_s[phase.index()]));
        m.add(phase_metric(phase), secs);
    }
    let unattributed = median(&per_pass(&|t| t.unattributed_s));
    let roots = median(&per_pass(&|t| t.root_s));
    m.set("solvers.unattributed_s", unattributed);
    m.set("solvers.unattributed_frac", unattributed / roots);
    let skews: Vec<f64> = traced
        .iter()
        .flat_map(|p| &p.samples)
        .filter_map(|s| s.trace.as_ref()?.rank_skew)
        .collect();
    if !skews.is_empty() {
        m.set(
            "dist.rank_skew_frac",
            skews.iter().sum::<f64>() / skews.len() as f64,
        );
    }
    m.set("dist.retries", median(&per_pass(&|t| t.retries as f64)));
    m.set("obs.events", median(&per_pass(&|t| t.events as f64)));
    m.set("obs.dropped", per_pass(&|t| t.dropped as f64).iter().sum());

    // C: exact counts of one pass (every pass repeats it, see run_passes).
    let first = &untraced[0];
    let sum =
        |f: &dyn Fn(&Sample) -> u64| -> f64 { first.samples.iter().map(f).sum::<u64>() as f64 };
    m.set("sparse.spmv_count", sum(&|s| s.counters.spmv_count));
    m.set("precond.apply_count", sum(&|s| s.counters.precond_count));
    m.set("dist.collectives", sum(&|s| s.counters.global_collectives));
    m.set("dist.allreduce_words", sum(&|s| s.counters.allreduce_words));
    m.set("dist.halo_exchanges", sum(&|s| s.counters.halo_exchanges));
    m.set("dist.halo_words", sum(&|s| s.counters.halo_words));
    m.set("solvers.restarts", sum(&|s| s.counters.restarts));
    m.set("solvers.iters_total", sum(&|s| s.iters));
    let iters_of = |key: &str| sum(&|s| if s.key == key { s.iters } else { 0 });
    m.set("solvers.iters.pcg", iters_of(roles.pcg));
    m.set("solvers.iters.sstep", iters_of(roles.sstep));
    let adaptive: Vec<&(usize, Vec<usize>)> = first
        .samples
        .iter()
        .filter_map(|s| s.adaptive.as_ref())
        .collect();
    if !adaptive.is_empty() {
        m.set(
            "adapt.rebuilds",
            adaptive.iter().map(|a| a.0).sum::<usize>() as f64,
        );
        let blocks: Vec<usize> = adaptive.iter().flat_map(|a| a.1.iter().copied()).collect();
        m.set(
            "adapt.s_mean",
            blocks.iter().sum::<usize>() as f64 / blocks.len().max(1) as f64,
        );
    }
    if let Some(stats) = &first.service {
        m.set("service.hits", stats.hits as f64);
        m.set("service.misses", stats.misses as f64);
        m.set("service.evictions", stats.evictions as f64);
        m.set("service.batches", stats.batches as f64);
    }

    // Derived from the untraced passes of this same run.
    let all = untraced.iter().chain(traced).flat_map(|p| &p.samples);
    m.set(
        "solvers.true_relres_max",
        all.map(|s| s.relres).fold(0.0, f64::max),
    );
    let med = |key: &str| {
        let t = times(untraced, key);
        (!t.is_empty()).then(|| quiet_mean(&t))
    };
    if let (Some(pcg), Some(sstep)) = (med(roles.pcg), med(roles.sstep)) {
        m.set("solvers.sstep_speedup", pcg / sstep);
    }
    for (metric, serial, thread) in [
        ("solvers.par_eff_2.pcg", "pcg.serial", "pcg.thread"),
        ("solvers.par_eff_2.sstep", "spcg5.serial", "spcg5.thread"),
    ] {
        if let (Some(one), Some(two)) = (med(serial), med(thread)) {
            m.set(metric, one / (2.0 * two));
        }
    }
    if let (Some(proc), Some(thread)) = (med("pcg.proc"), med("pcg.thread").or(med("pcg"))) {
        m.set("dist.proc_overhead_s", proc - thread);
    }
    if let (Some(single), Some(batch)) = (med(kind::SINGLE), med(kind::BATCH8)) {
        m.set("solvers.batch_speedup_k8", 8.0 * single / batch);
        let mut singles = times(untraced, kind::SINGLE);
        singles.sort_by(f64::total_cmp);
        m.set("service.single_s.p90", quantile(&singles, 0.9));
    }
    if let Some(cold) = med(kind::COLD) {
        m.set("service.cold_s.p50", cold);
    }
    let wall = |passes: &[Pass]| median(&passes.iter().map(Pass::wall).collect::<Vec<_>>());
    m.set(
        "obs.trace_overhead_frac",
        wall(traced) / wall(untraced) - 1.0,
    );
}

/// `VmHWM` of this process in MiB; 0 where `/proc` does not say.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Data and unified cache sizes of cpu0 from `/sys`, e.g. `L1 48K, L2 2048K`.
fn cache_sizes() -> String {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    let read = |i: usize, f: &str| {
        std::fs::read_to_string(format!("{dir}/index{i}/{f}"))
            .ok()
            .map(|s| s.trim().to_string())
    };
    let mut out = Vec::new();
    for i in 0..8 {
        if let (Some(level), Some(ty), Some(size)) =
            (read(i, "level"), read(i, "type"), read(i, "size"))
        {
            if ty != "Instruction" {
                out.push(format!("L{level} {size}"));
            }
        }
    }
    out.join(", ")
}
