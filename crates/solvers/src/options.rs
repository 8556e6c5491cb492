//! Problem definition, solver options, and results.

use crate::resilience::Resilience;
use spcg_adapt::{AdaptivePolicy, AdaptiveReport, ShiftUpdate};
use spcg_dist::wire::{WireReader, WireResult, WireWriter};
use spcg_dist::{Backend, Counters, FaultPlan};
use spcg_obs::Tracer;
use spcg_precond::Preconditioner;
use spcg_sparse::{CsrMatrix, SparseFormat};

/// The linear system `A x = b` with preconditioner `M⁻¹`.
pub struct Problem<'a> {
    /// Sparse SPD system matrix.
    pub a: &'a CsrMatrix,
    /// Preconditioner (a fixed SPD linear operator).
    pub m: &'a dyn Preconditioner,
    /// Right-hand side.
    pub b: &'a [f64],
}

/// Why a [`Problem`] could not be assembled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProblemError {
    /// The system matrix is not square.
    NotSquare {
        /// Matrix row count.
        nrows: usize,
        /// Matrix column count.
        ncols: usize,
    },
    /// The preconditioner's dimension does not match the matrix.
    PrecondDim {
        /// Matrix dimension.
        matrix: usize,
        /// Preconditioner dimension.
        preconditioner: usize,
    },
    /// The right-hand side's length does not match the matrix.
    RhsLen {
        /// Matrix dimension.
        matrix: usize,
        /// Right-hand-side length.
        rhs: usize,
    },
}

impl std::fmt::Display for ProblemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProblemError::NotSquare { nrows, ncols } => {
                write!(f, "matrix must be square (got {nrows}×{ncols})")
            }
            ProblemError::PrecondDim { matrix, preconditioner } => write!(
                f,
                "preconditioner dimension mismatch (matrix {matrix}, preconditioner {preconditioner})"
            ),
            ProblemError::RhsLen { matrix, rhs } => {
                write!(f, "rhs length mismatch (matrix {matrix}, rhs {rhs})")
            }
        }
    }
}

impl std::error::Error for ProblemError {}

impl<'a> Problem<'a> {
    /// Bundles a system, validating dimensions.
    ///
    /// # Panics
    /// Panics on any dimension mismatch; use [`Problem::try_new`] to handle
    /// invalid input without unwinding.
    pub fn new(a: &'a CsrMatrix, m: &'a dyn Preconditioner, b: &'a [f64]) -> Self {
        Self::try_new(a, m, b).unwrap_or_else(|e| panic!("Problem: {e}"))
    }

    /// Bundles a system, returning the specific mismatch on invalid input.
    pub fn try_new(
        a: &'a CsrMatrix,
        m: &'a dyn Preconditioner,
        b: &'a [f64],
    ) -> Result<Self, ProblemError> {
        if a.nrows() != a.ncols() {
            return Err(ProblemError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        if a.nrows() != m.dim() {
            return Err(ProblemError::PrecondDim {
                matrix: a.nrows(),
                preconditioner: m.dim(),
            });
        }
        if a.nrows() != b.len() {
            return Err(ProblemError::RhsLen {
                matrix: a.nrows(),
                rhs: b.len(),
            });
        }
        Ok(Problem { a, m, b })
    }

    /// System dimension.
    pub fn n(&self) -> usize {
        self.a.nrows()
    }
}

/// How convergence is measured.
///
/// The paper uses all three: Table 2 stops on the *true* relative residual,
/// Table 3 columns 2–5 on the recursively computed residual's 2-norm, and
/// Table 3 columns 6–9 / Figure 1 on the `M`-norm `√(rᵀM⁻¹r)` of the
/// recursive residual (which every solver computes anyway, making the check
/// free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoppingCriterion {
    /// `‖b − A·x^(i)‖₂ / ‖b − A·x^(0)‖₂ < tol` — costs one extra SpMV per
    /// check.
    TrueResidual2Norm,
    /// `‖r^(i)‖₂ / ‖r^(0)‖₂ < tol` on the recursively updated residual —
    /// one extra dot product per check, piggybacked on an existing
    /// reduction.
    RecursiveResidual2Norm,
    /// `√(r^(i)ᵀ M⁻¹ r^(i))` reduced by `tol` — free, the solvers already
    /// reduce `rᵀu`.
    PrecondMNorm,
}

/// Solver options shared by all methods.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Relative reduction required by the stopping criterion (e.g. `1e-9`).
    pub tol: f64,
    /// Cap on fine-grained (PCG-equivalent) iterations.
    pub max_iters: usize,
    /// Stopping criterion.
    pub criterion: StoppingCriterion,
    /// Relative growth of the criterion value that is declared divergence.
    pub divergence_factor: f64,
    /// Convergence checks without improvement of the best value before the
    /// solve is declared stagnated.
    pub stall_checks: usize,
    /// Record the criterion value at every check into the result's history.
    pub keep_history: bool,
    /// Residual replacement (Carson & Demmel \[3\]) for the s-step solvers
    /// on the Alg. 5 body — sPCG, sPCG_mon and CA-PCG-GS: when the
    /// recursive residual has shrunk by this factor since the last
    /// replacement, recompute `r = b − A·x` explicitly (one extra SpMV).
    /// `None` disables replacement (the paper's configuration). CA-PCG
    /// (fixed and adaptive), CA-PCG3 and the non-blocked methods (PCG,
    /// PCG3, EkCG) do not implement it and ignore the field.
    pub residual_replacement: Option<f64>,
    /// Intra-rank worker threads for the parallel kernel layer
    /// (`spcg_sparse::ParKernels`). Under [`crate::Engine::Ranked`] each
    /// rank gets its own pool of this width (`T·R` workers total). Results
    /// are bitwise identical for any thread count; `1` (the default) runs
    /// every kernel inline. The default honours the `SPCG_THREADS`
    /// environment variable so test suites can sweep thread counts without
    /// code changes.
    pub threads: usize,
    /// Overlap halo exchange with interior computation under
    /// [`crate::Engine::Ranked`]: each rank posts its chunk, computes the
    /// SpMV rows that reference no ghost entries while the exchange is in
    /// flight, then completes the exchange and finishes the frontier rows.
    /// Results are **bitwise identical** with overlap on or off (the same
    /// rows run the same per-row arithmetic; only the execution order of
    /// two disjoint row sets changes), and communication counters are
    /// unchanged (the same one exchange per round happens either way).
    /// Defaults to `true` — set the `SPCG_OVERLAP` environment variable to
    /// `0` to default it off. Ignored by [`crate::Engine::Serial`], which
    /// has no exchanges to hide.
    pub overlap: bool,
    /// Sparse format driving the SpMV and matrix-powers kernels:
    /// [`SparseFormat::Csr`] (the default) streams rows from the assembled
    /// CSR arrays, [`SparseFormat::Sell`] converts once to the SELL-C-σ
    /// sliced layout (cached on the matrix) whose padded column-major
    /// slices multiply at unit stride with eight-way independent
    /// accumulators, and enables the cache-fused multi-level matrix powers
    /// sweep where applicable. Solutions, iteration counts, and
    /// [`Counters`] are **bitwise identical** across formats for every
    /// engine, rank count, thread count, and overlap setting — the sliced
    /// kernels accumulate each row's entries in the same CSR order. The
    /// default honours the `SPCG_FORMAT` environment variable
    /// (`csr` | `sell`), so `SPCG_FORMAT=sell cargo test` moves a whole
    /// suite onto the sliced layout.
    pub format: SparseFormat,
    /// Communication backend under [`crate::Engine::Ranked`]:
    /// [`Backend::Thread`] (the default) runs ranks as OS threads over
    /// shared memory, [`Backend::Proc`] runs each rank as a `spcg-rankd`
    /// worker process exchanging halos and reductions over Unix-domain
    /// sockets. Solutions and [`Counters`] are **bitwise identical**
    /// across backends; the proc transport additionally survives a rank
    /// process dying mid-solve (the driver respawns the world and
    /// re-solves, charging a restart). The default honours the
    /// `SPCG_BACKEND` environment variable (`thread` | `proc`), so
    /// `SPCG_BACKEND=proc cargo test` moves a whole suite onto the
    /// process transport. Ranked solves fall back to the thread backend
    /// — with a diagnostic on stderr — when the proc transport cannot
    /// run (missing `spcg-rankd` binary, single rank, or a
    /// preconditioner without a [`spcg_precond::PrecondSpec`] recipe).
    /// Ignored by [`crate::Engine::Serial`].
    pub backend: Backend,
    /// Span tracer recording a per-rank phase timeline of the solve (see
    /// `spcg_obs`). `None` (the default) disables tracing entirely: every
    /// instrumentation site branches on the `Option` and takes no
    /// timestamp, and results and [`Counters`] are bitwise identical with
    /// tracing on, off, or absent — spans only observe. The default
    /// honours the `SPCG_TRACE` environment variable (any value but `0`
    /// enables a fresh tracer; `SPCG_TRACE_CAP` bounds per-rank events),
    /// so `SPCG_TRACE=1 cargo test` traces a whole suite without code
    /// changes. Read the timeline back from this handle after the solve
    /// (`tracer.export_json(...)`).
    pub trace: Option<Tracer>,
    /// Deterministic fault-injection plan for the distributed substrate
    /// (see `spcg_dist::fault`): seeded rank stalls at exchange
    /// boundaries, duplicated epoch publishes, and NaN payload poisoning.
    /// `None` (the default) injects nothing and leaves every code path
    /// bitwise identical to an unfaulted build. The default honours the
    /// `SPCG_FAULTS=<seed>:<rate>` environment variable, so
    /// `SPCG_FAULTS=101:0.05 cargo test` fault-sweeps a whole suite.
    /// Single-rank and serial runs never inject regardless of the plan.
    pub faults: Option<FaultPlan>,
    /// Self-healing policy (see [`Resilience`]): breakdown detection with
    /// residual-replacement restart for every method. `None` (the default)
    /// disables the resilient
    /// driver **explicitly configured here** — ranked solves with an
    /// active fault plan arm [`Resilience::default`] on their own, since
    /// injected poison must be survivable. Serial solves only restart
    /// when this is `Some`.
    pub resilience: Option<Resilience>,
    /// Policy for the adaptive controller of [`crate::Method::AdaptiveCaPcg`]
    /// (see `spcg_adapt::AdaptivePolicy`): the `s` range, the Gram
    /// conditioning thresholds of the grow/shrink rule, and the Ritz-drift
    /// tolerance for mid-solve basis rebuilds. Ignored by the fixed-s
    /// methods. The default honours the `SPCG_ADAPTIVE_SMIN`,
    /// `SPCG_ADAPTIVE_SMAX`, `SPCG_ADAPTIVE_COND`, and
    /// `SPCG_ADAPTIVE_PATIENCE` environment variables.
    pub adaptive: AdaptivePolicy,
}

/// Default adaptive policy: `spcg_adapt::AdaptivePolicy::default()` with
/// the `SPCG_ADAPTIVE_*` environment overrides applied (see [`env`]).
fn default_adaptive() -> AdaptivePolicy {
    let mut p = AdaptivePolicy::default();
    let s_min = env::parsed::<usize>("SPCG_ADAPTIVE_SMIN").unwrap_or(p.s_min);
    let s_max = env::parsed::<usize>("SPCG_ADAPTIVE_SMAX").unwrap_or(p.s_max);
    p = p.with_s_range(s_min, s_max);
    if let Some(c) = env::parsed::<f64>("SPCG_ADAPTIVE_COND").filter(|c| *c > 1.0) {
        let (grow, reject) = (p.cond_grow.min(c), p.cond_reject.max(c));
        p = p.with_cond_thresholds(grow, c, reject);
    }
    if let Some(n) = env::parsed::<usize>("SPCG_ADAPTIVE_PATIENCE") {
        p = p.with_grow_patience(n);
    }
    p
}

/// Default thread count: `SPCG_THREADS` if set to a positive integer, else 1.
fn default_threads() -> usize {
    env::parsed::<usize>("SPCG_THREADS")
        .filter(|&t| t > 0)
        .unwrap_or(1)
}

/// Default overlap mode: on, unless `SPCG_OVERLAP=0` turns it off (the
/// escape hatch for comparing the blocking schedule without code changes).
fn default_overlap() -> bool {
    env::flag("SPCG_OVERLAP", true)
}

/// Centralized `SPCG_*` environment-variable handling — the one table of
/// every knob the workspace reads from the environment.
///
/// All variables are read at **configuration time** (`SolveOptions::
/// default()`, tool startup), never mid-solve, and every one of them is
/// optional: unset — or set to something unparseable — always falls back
/// to the documented default. None of them can change *results* except
/// `SPCG_FAULTS` (which injects recoverable faults by design); the rest
/// select execution shape or observation, all covered by the workspace's
/// bitwise-determinism guarantee.
///
/// | Variable | Values | Default | Read by | Effect |
/// |---|---|---|---|---|
/// | `SPCG_THREADS` | integer ≥ 1 | `1` | [`SolveOptions::threads`] default | Intra-rank worker threads per rank. |
/// | `SPCG_OVERLAP` | `0` \| `1` | `1` | [`SolveOptions::overlap`] default | Halo-exchange/compute overlap under ranked execution. |
/// | `SPCG_FORMAT` | `csr` \| `sell` | `csr` | `spcg_sparse::SparseFormat::from_env` → [`SolveOptions::format`] default | Sparse kernel layout (CSR vs SELL-C-σ). |
/// | `SPCG_BACKEND` | `thread` \| `proc` | `thread` | `spcg_dist::Backend::from_env` → [`SolveOptions::backend`] default | Ranked transport: OS threads vs worker processes. |
/// | `SPCG_TRACE` | `0` \| anything else | off | `spcg_obs::Tracer::from_env` → [`SolveOptions::trace`] default | Span tracing (observational only). |
/// | `SPCG_TRACE_CAP` | integer | tracer default | `spcg_obs::Tracer::from_env`, `spcg-bench` | Per-rank traced-event cap. |
/// | `SPCG_FAULTS` | `<seed>:<rate>` | none | `spcg_dist::FaultPlan::from_env` → [`SolveOptions::faults`] default | Deterministic fault injection under ranked execution. |
/// | `SPCG_RANKS` | integer ≥ 1 | suite-specific | integration test suites | Extra rank count added to the test sweeps. |
/// | `SPCG_RANKD` | path | auto-discovered | `spcg_solvers::procexec` | Explicit location of the `spcg-rankd` worker binary. |
/// | `SPCG_PROC_KILL` | `<rank>:<nth>` | none | `spcg_solvers::procexec` | Fault drill: the rank exits before its nth allreduce. |
/// | `SPCG_QUICK` | `0` \| `1` | `0` | `spcg-bench` | Shrink benchmark sweeps for smoke runs. |
/// | `SPCG_GRID` | integer ≥ 1 | bin-specific | `spcg-bench` bins | Poisson grid edge override. |
/// | `SPCG_ADAPTIVE_SMIN` | integer ≥ 2 | `2` | [`SolveOptions::adaptive`] default | Smallest `s` the adaptive controller shrinks to. |
/// | `SPCG_ADAPTIVE_SMAX` | integer ≥ smin | `16` | [`SolveOptions::adaptive`] default | Largest `s` the adaptive controller grows to (also the ghost-zone depth of adaptive ranked solves). |
/// | `SPCG_ADAPTIVE_COND` | float > 1 | `1e7` | [`SolveOptions::adaptive`] default | Gram conditioning estimate above which a block shrinks `s`. |
/// | `SPCG_ADAPTIVE_PATIENCE` | integer ≥ 1 | `3` | [`SolveOptions::adaptive`] default | Consecutive healthy blocks before `s` doubles. |
///
/// Crates below this one in the dependency graph (`spcg_sparse`,
/// `spcg_dist`, `spcg_obs`) parse their variables locally — they cannot
/// call up into this module — but every variable is documented here, and
/// all parsing in this crate and the tools layer goes through
/// [`parsed`](env::parsed) / [`flag`](env::flag) / [`raw`](env::raw).
pub mod env {
    use std::str::FromStr;

    /// `Some(value)` when `name` is set and its trimmed value parses as
    /// `T`. Unset, empty, or unparseable all yield `None`: a malformed
    /// setting behaves like an absent one, so the documented default is
    /// always reachable.
    pub fn parsed<T: FromStr>(name: &str) -> Option<T> {
        raw(name)?.trim().parse().ok()
    }

    /// Boolean knob: unset or empty yields `default`; `0` and `false`
    /// (case-insensitive) are off; anything else is on.
    pub fn flag(name: &str, default: bool) -> bool {
        match raw(name) {
            None => default,
            Some(v) => {
                let v = v.trim();
                if v.is_empty() {
                    default
                } else {
                    v != "0" && !v.eq_ignore_ascii_case("false")
                }
            }
        }
    }

    /// The raw string, `None` when unset — for values with their own
    /// grammar (`SPCG_FAULTS=<seed>:<rate>`, paths).
    pub fn raw(name: &str) -> Option<String> {
        std::env::var(name).ok()
    }
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            tol: 1e-9,
            max_iters: 12_000,
            criterion: StoppingCriterion::TrueResidual2Norm,
            divergence_factor: 1e8,
            stall_checks: 4000,
            keep_history: false,
            residual_replacement: None,
            threads: default_threads(),
            overlap: default_overlap(),
            format: SparseFormat::from_env().unwrap_or_default(),
            backend: Backend::from_env().unwrap_or_default(),
            trace: Tracer::from_env(),
            faults: FaultPlan::from_env(),
            resilience: None,
            adaptive: default_adaptive(),
        }
    }
}

impl SolveOptions {
    /// The paper's Table-2 configuration: true residual, `tol = 1e-9`,
    /// failure declared beyond 12 000 iterations.
    pub fn table2() -> Self {
        Self::default()
    }

    /// Starts a [`SolveOptionsBuilder`] seeded with the defaults.
    pub fn builder() -> SolveOptionsBuilder {
        SolveOptionsBuilder {
            opts: Self::default(),
        }
    }

    /// Builder-style tolerance override.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Builder-style iteration cap override.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Builder-style criterion override.
    pub fn with_criterion(mut self, criterion: StoppingCriterion) -> Self {
        self.criterion = criterion;
        self
    }

    /// Builder-style history recording.
    pub fn with_history(mut self) -> Self {
        self.keep_history = true;
        self
    }

    /// Builder-style residual replacement (see the field docs).
    pub fn with_residual_replacement(mut self, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor < 1.0,
            "replacement factor must be in (0, 1)"
        );
        self.residual_replacement = Some(factor);
        self
    }

    /// Builder-style intra-rank thread count (see the field docs).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "threads must be positive");
        self.threads = threads;
        self
    }

    /// Builder-style halo-exchange overlap (see [`SolveOptions::overlap`]).
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap = overlap;
        self
    }

    /// Builder-style sparse format (see [`SolveOptions::format`]).
    pub fn with_format(mut self, format: SparseFormat) -> Self {
        self.format = format;
        self
    }

    /// Builder-style communication backend (see [`SolveOptions::backend`]).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Builder-style span tracer (see [`SolveOptions::trace`]).
    pub fn with_trace(mut self, trace: Option<Tracer>) -> Self {
        self.trace = trace;
        self
    }

    /// Builder-style fault plan (see [`SolveOptions::faults`]). Pass
    /// `None` to force faults off even when `SPCG_FAULTS` is set.
    pub fn with_faults(mut self, faults: Option<FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// Builder-style resilience policy (see [`SolveOptions::resilience`]).
    pub fn with_resilience(mut self, resilience: Resilience) -> Self {
        self.resilience = Some(resilience);
        self
    }

    /// Builder-style adaptive policy (see [`SolveOptions::adaptive`]).
    pub fn with_adaptive(mut self, adaptive: AdaptivePolicy) -> Self {
        self.adaptive = adaptive;
        self
    }
}

/// Wire order of the fieldless option enums (see [`WireWriter::variant`]).
const CRITERIA: [StoppingCriterion; 3] = [
    StoppingCriterion::TrueResidual2Norm,
    StoppingCriterion::RecursiveResidual2Norm,
    StoppingCriterion::PrecondMNorm,
];
const FORMATS: [SparseFormat; 2] = [SparseFormat::Csr, SparseFormat::Sell];
const BACKENDS: [Backend; 2] = [Backend::Thread, Backend::Proc];

impl SolveOptions {
    /// Appends the options, whole, to a proc-backend frame: a worker solves
    /// with exactly what the caller configured and never consults its own
    /// environment. The destructuring is exhaustive on purpose — a new field
    /// does not compile until it is shipped. The two handles travel as what
    /// rebuilds them: a tracer as its capacity, a fault plan as its seed,
    /// rate and site mask.
    pub fn encode(&self, w: &mut WireWriter) {
        let SolveOptions {
            tol,
            max_iters,
            criterion,
            divergence_factor,
            stall_checks,
            keep_history,
            residual_replacement,
            threads,
            overlap,
            format,
            backend,
            trace,
            faults,
            resilience,
            adaptive,
        } = self;
        w.f64(*tol);
        w.usize(*max_iters);
        w.variant(&CRITERIA, criterion);
        w.f64(*divergence_factor);
        w.usize(*stall_checks);
        w.bool(*keep_history);
        w.option(*residual_replacement, WireWriter::f64);
        w.usize(*threads);
        w.bool(*overlap);
        w.variant(&FORMATS, format);
        w.variant(&BACKENDS, backend);
        w.option(trace.as_ref(), |w, tracer| w.usize(tracer.capacity()));
        w.option(faults.as_ref(), |w, plan| {
            w.u64(plan.seed());
            w.f64(plan.rate());
            w.u8(plan.sites_mask());
        });
        w.option(resilience.as_ref(), |w, res| res.encode(w));
        let AdaptivePolicy {
            s_min,
            s_max,
            cond_grow,
            cond_shrink,
            cond_reject,
            gap_tol,
            drift_tol,
            grow_patience,
            min_ritz,
            max_ritz,
            margin,
        } = adaptive;
        w.usize(*s_min);
        w.usize(*s_max);
        w.f64(*cond_grow);
        w.f64(*cond_shrink);
        w.f64(*cond_reject);
        w.f64(*gap_tol);
        w.f64(*drift_tol);
        w.usize(*grow_patience);
        w.usize(*min_ritz);
        w.usize(*max_ritz);
        w.f64(*margin);
    }

    /// Reads what [`SolveOptions::encode`] wrote; the tracer and the fault
    /// plan come back as fresh handles of the shipped configuration.
    pub fn decode(r: &mut WireReader<'_>) -> WireResult<SolveOptions> {
        Ok(SolveOptions {
            tol: r.f64()?,
            max_iters: r.usize()?,
            criterion: r.variant(&CRITERIA, "stopping criterion")?,
            divergence_factor: r.f64()?,
            stall_checks: r.usize()?,
            keep_history: r.bool()?,
            residual_replacement: r.option(WireReader::f64)?,
            threads: r.usize()?,
            overlap: r.bool()?,
            format: r.variant(&FORMATS, "sparse format")?,
            backend: r.variant(&BACKENDS, "backend")?,
            trace: r.option(|r| Ok(Tracer::with_capacity(r.usize()?)))?,
            faults: r
                .option(|r| Ok(FaultPlan::new(r.u64()?, r.f64()?).with_sites_mask(r.u8()?)))?,
            resilience: r.option(Resilience::decode)?,
            adaptive: AdaptivePolicy {
                s_min: r.usize()?,
                s_max: r.usize()?,
                cond_grow: r.f64()?,
                cond_shrink: r.f64()?,
                cond_reject: r.f64()?,
                gap_tol: r.f64()?,
                drift_tol: r.f64()?,
                grow_patience: r.usize()?,
                min_ritz: r.usize()?,
                max_ritz: r.usize()?,
                margin: r.f64()?,
            },
        })
    }
}

/// Fluent constructor for [`SolveOptions`] (see [`SolveOptions::builder`]).
///
/// ```
/// use spcg_solvers::{SolveOptions, StoppingCriterion};
/// let opts = SolveOptions::builder()
///     .tol(1e-9)
///     .max_iters(500)
///     .criterion(StoppingCriterion::RecursiveResidual2Norm)
///     .build();
/// assert_eq!(opts.max_iters, 500);
/// ```
#[derive(Debug, Clone)]
pub struct SolveOptionsBuilder {
    opts: SolveOptions,
}

impl SolveOptionsBuilder {
    /// Relative reduction required by the stopping criterion.
    pub fn tol(mut self, tol: f64) -> Self {
        self.opts.tol = tol;
        self
    }

    /// Cap on fine-grained (PCG-equivalent) iterations.
    pub fn max_iters(mut self, max_iters: usize) -> Self {
        self.opts.max_iters = max_iters;
        self
    }

    /// Stopping criterion.
    pub fn criterion(mut self, criterion: StoppingCriterion) -> Self {
        self.opts.criterion = criterion;
        self
    }

    /// Relative growth of the criterion value that is declared divergence.
    pub fn divergence_factor(mut self, factor: f64) -> Self {
        self.opts.divergence_factor = factor;
        self
    }

    /// Convergence checks without improvement before declaring stagnation.
    pub fn stall_checks(mut self, checks: usize) -> Self {
        self.opts.stall_checks = checks;
        self
    }

    /// Record the criterion value at every check into the result's history.
    pub fn keep_history(mut self, keep: bool) -> Self {
        self.opts.keep_history = keep;
        self
    }

    /// Residual replacement factor (see [`SolveOptions::residual_replacement`]).
    pub fn residual_replacement(mut self, factor: f64) -> Self {
        assert!(
            factor > 0.0 && factor < 1.0,
            "replacement factor must be in (0, 1)"
        );
        self.opts.residual_replacement = Some(factor);
        self
    }

    /// Intra-rank thread count (see [`SolveOptions::threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "threads must be positive");
        self.opts.threads = threads;
        self
    }

    /// Halo-exchange overlap under ranked execution (see
    /// [`SolveOptions::overlap`]).
    pub fn overlap(mut self, overlap: bool) -> Self {
        self.opts.overlap = overlap;
        self
    }

    /// Sparse format for the SpMV and matrix-powers kernels (see
    /// [`SolveOptions::format`]).
    pub fn format(mut self, format: SparseFormat) -> Self {
        self.opts.format = format;
        self
    }

    /// Communication backend under ranked execution (see
    /// [`SolveOptions::backend`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.opts.backend = backend;
        self
    }

    /// Span tracer for a per-rank phase timeline (see
    /// [`SolveOptions::trace`]). Pass `None` to force tracing off even
    /// when `SPCG_TRACE` is set.
    pub fn trace(mut self, trace: Option<Tracer>) -> Self {
        self.opts.trace = trace;
        self
    }

    /// Fault-injection plan (see [`SolveOptions::faults`]). Pass `None`
    /// to force faults off even when `SPCG_FAULTS` is set.
    pub fn faults(mut self, faults: Option<FaultPlan>) -> Self {
        self.opts.faults = faults;
        self
    }

    /// Resilience policy (see [`SolveOptions::resilience`]).
    pub fn resilience(mut self, resilience: Resilience) -> Self {
        self.opts.resilience = Some(resilience);
        self
    }

    /// Adaptive-controller policy (see [`SolveOptions::adaptive`]).
    pub fn adaptive(mut self, adaptive: AdaptivePolicy) -> Self {
        self.opts.adaptive = adaptive;
        self
    }

    /// Finalizes the options.
    pub fn build(self) -> SolveOptions {
        self.opts
    }
}

/// Why a solve ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Criterion satisfied.
    Converged,
    /// Iteration cap reached without convergence.
    MaxIterations,
    /// Criterion value blew up or became non-finite.
    Diverged,
    /// No improvement for `stall_checks` consecutive checks.
    Stagnated,
    /// An internal computation failed (e.g. a singular scalar-work system or
    /// a non-positive curvature/denominator) — the classic s-step basis
    /// breakdown.
    Breakdown(String),
    /// The request's wall-clock deadline passed before the criterion was
    /// met. Only produced by the batched solve path
    /// ([`crate::solve_batch`]) for requests carrying a deadline; the
    /// iterate is the best one available when the deadline was noticed
    /// (deadlines are checked at iteration boundaries). Unlike every
    /// other outcome this one is timing-dependent, so it is excluded
    /// from the bitwise-determinism guarantee.
    DeadlineExpired,
}

impl Outcome {
    /// True only for [`Outcome::Converged`].
    pub fn converged(&self) -> bool {
        matches!(self, Outcome::Converged)
    }
}

/// Result of a solve.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// Final approximate solution.
    pub x: Vec<f64>,
    /// How the solve ended.
    pub outcome: Outcome,
    /// Fine-grained (PCG-equivalent) iterations performed. s-step solvers
    /// advance this by s per outer iteration, so Table-2-style comparisons
    /// are in the same unit across methods.
    pub iterations: usize,
    /// `(iteration, criterion value)` at each check, if requested.
    pub history: Vec<(usize, f64)>,
    /// Instrumented operation counts.
    pub counters: Counters,
    /// Global collectives observed by each rank under ranked execution
    /// ([`crate::Engine::Ranked`]); `None` for serial solves. Every rank
    /// participates in every collective, so this is also the per-rank
    /// synchronization count the paper's Table 1 models.
    pub collectives_per_rank: Option<u64>,
    /// Residual-replacement restarts the resilience driver took. Zero for
    /// undisturbed solves and whenever [`SolveOptions::resilience`] was
    /// off (also mirrored into `counters.restarts`).
    pub restarts: usize,
    /// The `s` parameter of each stage the resilience driver ran, in
    /// order — `[8, 4]` records one restart that halved s. A single entry
    /// (or empty, when the driver was off) means no breakdown forced a
    /// reduction. Standard PCG records its stages with `s = 1`.
    pub s_schedule: Vec<usize>,
    /// Faults the active [`SolveOptions::faults`] plan injected during
    /// this solve (all sites, all ranks) — every one of them absorbed,
    /// since the solve returned. Zero without a plan.
    pub faults_absorbed: u64,
    /// Adaptive-control telemetry (`spcg_adapt::AdaptiveReport`): every
    /// mid-solve basis rebuild with the Ritz interval it used, plus the
    /// final running Ritz values. `Some` exactly when the method was
    /// [`crate::Method::AdaptiveCaPcg`]; the block-size trajectory itself
    /// is in [`SolveResult::s_schedule`].
    pub adaptive: Option<AdaptiveReport>,
}

impl SolveResult {
    /// The result of one undriven solver body: no rank engine
    /// (`collectives_per_rank`), resilience driver (`restarts`,
    /// `s_schedule`, `faults_absorbed`) or controller (`adaptive`) has
    /// contributed yet; whoever does overwrites its field.
    pub(crate) fn new(
        x: Vec<f64>,
        outcome: Outcome,
        iterations: usize,
        history: Vec<(usize, f64)>,
        counters: Counters,
    ) -> Self {
        SolveResult {
            x,
            outcome,
            iterations,
            history,
            counters,
            collectives_per_rank: None,
            restarts: 0,
            s_schedule: Vec::new(),
            faults_absorbed: 0,
            adaptive: None,
        }
    }

    /// Appends the result to a proc-backend frame (a worker's `RESULT`).
    /// Exhaustive destructuring, like [`SolveOptions::encode`].
    pub fn encode(&self, w: &mut WireWriter) {
        let SolveResult {
            x,
            outcome,
            iterations,
            history,
            counters,
            collectives_per_rank,
            restarts,
            s_schedule,
            faults_absorbed,
            adaptive,
        } = self;
        w.f64s(x);
        let kind = match outcome {
            Outcome::Converged => 0,
            Outcome::MaxIterations => 1,
            Outcome::Diverged => 2,
            Outcome::Stagnated => 3,
            Outcome::Breakdown(_) => 4,
            Outcome::DeadlineExpired => 5,
        };
        w.u8(kind);
        if let Outcome::Breakdown(msg) = outcome {
            w.str(msg);
        }
        w.usize(*iterations);
        w.seq(history, |w, &(iteration, value)| {
            w.usize(iteration);
            w.f64(value);
        });
        counters.encode(w);
        w.option(*collectives_per_rank, WireWriter::u64);
        w.usize(*restarts);
        w.usizes(s_schedule);
        w.u64(*faults_absorbed);
        w.option(adaptive.as_ref(), |w, report| {
            let AdaptiveReport {
                shift_history,
                ritz,
            } = report;
            w.seq(shift_history, |w, update| {
                let ShiftUpdate {
                    iteration,
                    basis,
                    lambda_min,
                    lambda_max,
                    ritz_count,
                } = update;
                w.usize(*iteration);
                w.str(basis);
                w.f64(*lambda_min);
                w.f64(*lambda_max);
                w.usize(*ritz_count);
            });
            w.f64s(ritz);
        });
    }

    /// Reads what [`SolveResult::encode`] wrote.
    pub fn decode(r: &mut WireReader<'_>) -> WireResult<SolveResult> {
        Ok(SolveResult {
            x: r.f64s()?,
            outcome: match r.u8()? {
                0 => Outcome::Converged,
                1 => Outcome::MaxIterations,
                2 => Outcome::Diverged,
                3 => Outcome::Stagnated,
                4 => Outcome::Breakdown(r.str()?),
                5 => Outcome::DeadlineExpired,
                k => return Err(format!("unknown outcome kind {k}")),
            },
            iterations: r.usize()?,
            history: r.seq(|r| Ok((r.usize()?, r.f64()?)))?,
            counters: Counters::decode(r)?,
            collectives_per_rank: r.option(WireReader::u64)?,
            restarts: r.usize()?,
            s_schedule: r.usizes()?,
            faults_absorbed: r.u64()?,
            adaptive: r.option(|r| {
                Ok(AdaptiveReport {
                    shift_history: r.seq(|r| {
                        Ok(ShiftUpdate {
                            iteration: r.usize()?,
                            basis: r.str()?,
                            lambda_min: r.f64()?,
                            lambda_max: r.f64()?,
                            ritz_count: r.usize()?,
                        })
                    })?,
                    ritz: r.f64s()?,
                })
            })?,
        })
    }

    /// True if the solve converged.
    pub fn converged(&self) -> bool {
        self.outcome.converged()
    }

    /// True relative residual `‖b − A·x‖ / ‖b‖` of the returned solution —
    /// an *uninstrumented* diagnostic for tests and reports.
    pub fn true_relative_residual(&self, a: &CsrMatrix, b: &[f64]) -> f64 {
        let mut ax = vec![0.0; b.len()];
        a.spmv(&self.x, &mut ax);
        let num: f64 = ax
            .iter()
            .zip(b)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        let den: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcg_precond::Identity;
    use spcg_sparse::generators::poisson::poisson_1d;

    #[test]
    fn problem_validates_dimensions() {
        let a = poisson_1d(4);
        let m = Identity::new(4);
        let b = vec![1.0; 4];
        let p = Problem::new(&a, &m, &b);
        assert_eq!(p.n(), 4);
    }

    #[test]
    #[should_panic(expected = "rhs length mismatch")]
    fn problem_rejects_bad_rhs() {
        let a = poisson_1d(4);
        let m = Identity::new(4);
        let b = vec![1.0; 3];
        Problem::new(&a, &m, &b);
    }

    #[test]
    fn options_builders() {
        let o = SolveOptions::default()
            .with_tol(1e-6)
            .with_max_iters(100)
            .with_criterion(StoppingCriterion::PrecondMNorm)
            .with_history();
        assert_eq!(o.tol, 1e-6);
        assert_eq!(o.max_iters, 100);
        assert_eq!(o.criterion, StoppingCriterion::PrecondMNorm);
        assert!(o.keep_history);
    }

    #[test]
    fn try_new_reports_the_specific_mismatch() {
        let a = poisson_1d(4);
        let m = Identity::new(4);
        let b3 = vec![1.0; 3];
        match Problem::try_new(&a, &m, &b3) {
            Err(ProblemError::RhsLen { matrix, rhs }) => {
                assert_eq!((matrix, rhs), (4, 3));
            }
            other => panic!("expected RhsLen, got {:?}", other.err()),
        }
        let m5 = Identity::new(5);
        let b4 = vec![1.0; 4];
        assert!(matches!(
            Problem::try_new(&a, &m5, &b4),
            Err(ProblemError::PrecondDim {
                matrix: 4,
                preconditioner: 5
            })
        ));
        assert!(Problem::try_new(&a, &m, &b4).is_ok());
    }

    #[test]
    fn builder_matches_with_style() {
        let o = SolveOptions::builder()
            .tol(1e-6)
            .max_iters(100)
            .criterion(StoppingCriterion::PrecondMNorm)
            .keep_history(true)
            .stall_checks(7)
            .divergence_factor(1e6)
            .residual_replacement(0.25)
            .build();
        assert_eq!(o.tol, 1e-6);
        assert_eq!(o.max_iters, 100);
        assert_eq!(o.criterion, StoppingCriterion::PrecondMNorm);
        assert!(o.keep_history);
        assert_eq!(o.stall_checks, 7);
        assert_eq!(o.divergence_factor, 1e6);
        assert_eq!(o.residual_replacement, Some(0.25));
    }

    #[test]
    fn threads_option_defaults_and_builds() {
        // Default is 1 unless SPCG_THREADS overrides it (not set in tests
        // unless the CI thread-sweep job exports it).
        let dflt = SolveOptions::default().threads;
        assert!(dflt >= 1);
        assert_eq!(SolveOptions::builder().threads(4).build().threads, 4);
        assert_eq!(SolveOptions::default().with_threads(2).threads, 2);
    }

    #[test]
    fn overlap_option_defaults_on_and_builds() {
        // Default is on unless SPCG_OVERLAP=0 (not set in the default test
        // environment; the CI blocking-schedule job may export it).
        if std::env::var("SPCG_OVERLAP").is_err() {
            assert!(SolveOptions::default().overlap);
        }
        assert!(!SolveOptions::builder().overlap(false).build().overlap);
        assert!(SolveOptions::builder().overlap(true).build().overlap);
        assert!(!SolveOptions::default().with_overlap(false).overlap);
    }

    #[test]
    fn backend_option_defaults_and_builds() {
        // Default is Thread unless SPCG_BACKEND overrides it (the CI proc
        // job exports it; tests that need a specific backend set it
        // explicitly rather than trusting the environment).
        if std::env::var("SPCG_BACKEND").is_err() {
            assert_eq!(SolveOptions::default().backend, Backend::Thread);
        }
        assert_eq!(
            SolveOptions::builder()
                .backend(Backend::Proc)
                .build()
                .backend,
            Backend::Proc
        );
        assert_eq!(
            SolveOptions::default().with_backend(Backend::Proc).backend,
            Backend::Proc
        );
    }

    #[test]
    fn format_option_defaults_and_builds() {
        // Default is Csr unless SPCG_FORMAT overrides it (the CI sell job
        // exports it; tests needing a specific format set it explicitly).
        if std::env::var("SPCG_FORMAT").is_err() {
            assert_eq!(SolveOptions::default().format, SparseFormat::Csr);
        }
        assert_eq!(
            SolveOptions::builder()
                .format(SparseFormat::Sell)
                .build()
                .format,
            SparseFormat::Sell
        );
        assert_eq!(
            SolveOptions::default()
                .with_format(SparseFormat::Sell)
                .format,
            SparseFormat::Sell
        );
    }

    #[test]
    #[should_panic(expected = "threads must be positive")]
    fn zero_threads_rejected() {
        let _ = SolveOptions::builder().threads(0);
    }

    #[test]
    fn outcome_converged_flag() {
        assert!(Outcome::Converged.converged());
        assert!(!Outcome::Diverged.converged());
        assert!(!Outcome::Breakdown("x".into()).converged());
    }
}
