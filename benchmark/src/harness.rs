//! The measuring loop shared by all workloads: explicit options, start-up
//! guards, the output check on every timed solve, passes, and statistics.

use crate::attribution::{SolveTrace, TraceSink};
use crate::workloads::{Inputs, Member, Roles, SolverWorkload, MAX_ITERS, RANKS, RTOL};
use spcg::dist::{Backend, Counters};
use spcg::obs::Tracer;
use spcg::precond::Preconditioner;
use spcg::service::ServiceStats;
use spcg::solvers::{
    solve, AdaptivePolicy, Engine, Method, SolveOptions, SolveResult, StoppingCriterion,
};
use spcg::sparse::CsrMatrix;
use std::time::Instant;

/// Every `SolveOptions` field, from the member definition — never from
/// `SolveOptions::default()`, which reads ten `SPCG_*` variables.
pub fn solve_options(member: &Member, trace: Option<Tracer>) -> SolveOptions {
    SolveOptions {
        tol: RTOL,
        max_iters: MAX_ITERS,
        criterion: StoppingCriterion::PrecondMNorm,
        divergence_factor: 1e8,
        stall_checks: 4000,
        keep_history: false,
        residual_replacement: None,
        threads: 1,
        overlap: true,
        format: member.format,
        backend: member.backend,
        trace,
        faults: None,
        resilience: None,
        adaptive: AdaptivePolicy {
            s_min: 2,
            s_max: 16,
            cond_grow: 1e4,
            cond_shrink: 1e7,
            cond_reject: 1e10,
            gap_tol: 0.5,
            drift_tol: 0.25,
            grow_patience: 3,
            min_ritz: 6,
            max_ritz: 64,
            margin: 0.05,
        },
    }
}

/// Refuses to start when any `SPCG_*` variable other than `SPCG_RANKD` is
/// set: they silently change defaults inside the library, and the two
/// fault-drill ones change what a solve does.
pub fn check_env() -> Result<(), String> {
    let names = std::env::vars_os().filter_map(|(k, _)| k.into_string().ok());
    check_env_names(names)
}

/// [`check_env`] over an explicit list of variable names.
pub fn check_env_names(names: impl Iterator<Item = String>) -> Result<(), String> {
    let stray: Vec<String> = names
        .filter(|k| k.starts_with("SPCG_") && k != "SPCG_RANKD")
        .collect();
    if stray.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to start with {} set: unset every SPCG_* variable but SPCG_RANKD",
            stray.join(", ")
        ))
    }
}

/// Cores the process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Start-up guards of the ranked members. A ranked solve that cannot use
/// the proc backend falls back to threads with only a line on stderr, so
/// a `.proc` metric would silently time the thread backend: check here
/// everything that fallback tests — the worker binary, the
/// preconditioner's recipe, and that a rendezvous socket binds where the
/// library will put it.
pub fn check_ranked(members: &[Member], m: &dyn Preconditioner) -> Result<(), String> {
    if members.iter().all(|mb| mb.engine == Engine::Serial) {
        return Ok(());
    }
    if nproc() < RANKS {
        return Err(format!(
            "{RANKS} ranks need {RANKS} cores, this machine offers {}",
            nproc()
        ));
    }
    if members.iter().all(|mb| mb.backend != Backend::Proc) {
        return Ok(());
    }
    #[cfg(unix)]
    {
        if spcg::solvers::procexec::rankd_path().is_none() {
            return Err(
                "spcg-rankd not found: run through benchmark/run.sh, which builds it \
                        and exports SPCG_RANKD"
                    .into(),
            );
        }
        if m.spec().is_none() {
            return Err(format!("preconditioner {} has no PrecondSpec", m.name()));
        }
        // Same directory and name shape as the library's rendezvous socket.
        let probe = std::env::temp_dir().join(format!(
            "spcg-rankd-{}-probe-000000.sock",
            std::process::id()
        ));
        let bound = std::os::unix::net::UnixListener::bind(&probe);
        let _ = std::fs::remove_file(&probe);
        bound.map_err(|e| format!("cannot bind a socket at {}: {e}", probe.display()))?;
        Ok(())
    }
    #[cfg(not(unix))]
    Err("the proc backend needs a Unix platform".into())
}

/// Operations attempted and failed; an operation is one checked solve or
/// request (or one whole-run consistency check).
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Ops {
    /// One operation; it failed if any of its checks left a note.
    pub fn record(&mut self, failures: Vec<String>) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            self.notes.extend(failures);
        }
    }

    /// One operation with a single check.
    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.record(if ok { Vec::new() } else { vec![note()] });
    }
}

/// The output check of one solve: converged, and the true residual within
/// ten times the tolerance. Returns the residual and what failed.
pub fn check_result(
    what: &str,
    res: &SolveResult,
    a: &CsrMatrix,
    b: &[f64],
    rtol: f64,
) -> (f64, Vec<String>) {
    let mut failures = Vec::new();
    if !res.converged() {
        failures.push(format!("{what}: {:?}", res.outcome));
    }
    // Recomputed from the returned x, not taken from the solver's own
    // criterion value.
    let relres = res.true_relative_residual(a, b);
    // A NaN residual is not within the tolerance either.
    let within = relres <= 10.0 * rtol;
    if !within {
        failures.push(format!(
            "{what}: true residual {relres:e} > {:e}",
            10.0 * rtol
        ));
    }
    (relres, failures)
}

/// One timed solve or service request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Member name, or request kind on `service_batch`.
    pub key: &'static str,
    pub secs: f64,
    /// Right-hand sides solved.
    pub rhs: usize,
    pub iters: u64,
    /// Summed over the right-hand sides of a batch.
    pub counters: Counters,
    pub relres: f64,
    /// Basis rebuilds and block-size trajectory of an adaptive solve.
    pub adaptive: Option<(usize, Vec<usize>)>,
    pub trace: Option<SolveTrace>,
}

#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub samples: Vec<Sample>,
    /// What the pass added to the service's counters.
    pub service: Option<ServiceStats>,
}

impl Pass {
    /// Time inside the system: the sum of the pass's solves.
    pub fn wall(&self) -> f64 {
        self.samples.iter().map(|s| s.secs).sum()
    }

    pub fn rhs(&self) -> usize {
        self.samples.iter().map(|s| s.rhs).sum()
    }

    /// Everything that must repeat bit for bit from pass to pass.
    pub fn signature(&self) -> Vec<(&'static str, u64, &Counters)> {
        self.samples
            .iter()
            .map(|s| (s.key, s.iters, &s.counters))
            .collect()
    }
}

/// Something that can run one pass of a workload.
pub trait Driver {
    fn roles(&self) -> Roles;
    /// Operator and block size the per-layer probes run on.
    fn probe_target(&self) -> (&Inputs, usize);
    /// Runs every member (or one request cycle set) once. With a sink,
    /// every solve is traced under a root span `<key>#<index>`.
    fn pass(&mut self, index: usize, sink: Option<&mut TraceSink>, ops: &mut Ops) -> Pass;
}

/// Runs passes until the next one would overrun `budget_s`, at least
/// `min` and at most `max` of them.
pub fn run_passes(
    driver: &mut dyn Driver,
    budget_s: f64,
    min: usize,
    max: usize,
    mut sink: Option<&mut TraceSink>,
    ops: &mut Ops,
) -> Vec<Pass> {
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        passes.push(driver.pass(passes.len(), sink.as_deref_mut(), ops));
        let n = passes.len();
        let elapsed = t0.elapsed().as_secs_f64();
        if n >= max || (n >= min && elapsed + elapsed / n as f64 > budget_s) {
            break;
        }
    }
    // Same inputs, same arithmetic: every pass must reproduce the first.
    let mut failures = Vec::new();
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.signature() != passes[0].signature() {
            failures.push(format!(
                "pass {i} did not repeat pass 0's iterations/counters"
            ));
        }
    }
    ops.record(failures);
    passes
}

/// Direct `solve` calls over a workload's members.
pub struct SolverDriver<'a> {
    wl: &'static SolverWorkload,
    inputs: &'a Inputs,
    methods: Vec<Method>,
    rtol: f64,
}

impl<'a> SolverDriver<'a> {
    pub fn new(wl: &'static SolverWorkload, inputs: &'a Inputs, rtol: f64) -> Self {
        let methods = wl
            .members
            .iter()
            .map(|m| m.sel.method(&inputs.basis))
            .collect();
        SolverDriver {
            wl,
            inputs,
            methods,
            rtol,
        }
    }
}

impl Driver for SolverDriver<'_> {
    fn roles(&self) -> Roles {
        self.wl.roles
    }

    fn probe_target(&self) -> (&Inputs, usize) {
        (self.inputs, self.wl.s)
    }

    fn pass(&mut self, index: usize, mut sink: Option<&mut TraceSink>, ops: &mut Ops) -> Pass {
        let problem = self.inputs.problem();
        let mut samples: Vec<Sample> = Vec::new();
        // Solutions of this pass, for the bitwise parity check.
        let mut xs: Vec<Vec<f64>> = Vec::new();
        for (member, method) in self.wl.members.iter().zip(&self.methods) {
            let root_begin = sink.as_ref().map(|s| s.now());
            let tracer = sink.as_ref().map(|_| Tracer::new());
            let mut opts = solve_options(member, tracer.clone());
            opts.tol = self.rtol;

            let t0 = Instant::now();
            let res = solve(method, &problem, &opts, member.engine);
            let secs = t0.elapsed().as_secs_f64();

            // Everything below is outside the timed region.
            let (relres, mut failures) =
                check_result(member.name, &res, &self.inputs.a, &self.inputs.b, self.rtol);
            // One method on one engine gives one x, whatever the format
            // and backend: the repo's parity suites guarantee it.
            if let Some(twin) = self.wl.members[..xs.len()]
                .iter()
                .position(|o| (o.sel, o.engine) == (member.sel, member.engine))
            {
                if xs[twin] != res.x {
                    failures.push(format!(
                        "{}: x differs bitwise from {}",
                        member.name, self.wl.members[twin].name
                    ));
                }
            }
            let trace = sink.as_deref_mut().map(|s| {
                let name = format!("{}#{index}", member.name);
                let tracks = tracer.as_ref().expect("traced solve").tracks();
                let begin = root_begin.expect("traced solve");
                let st = s.record_solve(&name, index, begin, secs, begin, &tracks);
                if let Err(e) = &st.consistent {
                    failures.push(e.clone());
                }
                st
            });
            ops.record(failures);
            samples.push(Sample {
                key: member.name,
                secs,
                rhs: 1,
                iters: res.iterations as u64,
                counters: res.counters.clone(),
                relres,
                adaptive: res
                    .adaptive
                    .as_ref()
                    .map(|r| (r.shift_history.len(), res.s_schedule.clone())),
                trace,
            });
            xs.push(res.x);
        }
        Pass {
            samples,
            service: None,
        }
    }
}

/// `n`, minimum, quartiles, median and [`quiet_mean`] of a sample set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub quiet: f64,
}

/// Quantile `p` of sorted `v` by linear interpolation; 0 when empty.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = p * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

pub fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Summary {
        n: v.len(),
        min: v.first().copied().unwrap_or(0.0),
        q1: quantile(&v, 0.25),
        median: quantile(&v, 0.5),
        q3: quantile(&v, 0.75),
        quiet: quiet_mean(values),
    }
}

/// Mean of the fastest quarter of the samples (at least one): the time a
/// solve takes while the host leaves the process alone. What disturbs a
/// run on a shared host — a neighbour's cache traffic, a third runnable
/// thread while both ranks are busy — only ever adds time, and comes in
/// spells of seconds that can cover more or less than half of a run, so
/// the median jumps between the two levels from run to run where the fast
/// quarter stays put (README, "Noise"). 0 when empty.
pub fn quiet_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = (v.len() as f64 / 4.0).round().max(1.0) as usize;
    v[..k].iter().sum::<f64>() / k as f64
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Solve times of one member or request kind across passes.
pub fn times(passes: &[Pass], key: &str) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| &p.samples)
        .filter(|s| s.key == key)
        .map(|s| s.secs)
        .collect()
}
