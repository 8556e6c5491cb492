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
    /// `‖b − A·x^(i)‖₂ / ‖b − A·x^(0)‖₂ < tol` — costs one extra SpMV and
    /// dot per check, whose word rides an existing reduction.
    TrueResidual2Norm,
    /// `‖r^(i)‖₂ / ‖r^(0)‖₂ < tol` on the recursively updated residual —
    /// one extra dot per check, whose word rides an existing reduction.
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
    /// every kernel inline.
    pub threads: usize,
    /// Overlap halo exchange with interior computation under
    /// [`crate::Engine::Ranked`]: each rank posts its chunk, computes the
    /// SpMV rows that reference no ghost entries while the exchange is in
    /// flight, then completes the exchange and finishes the frontier rows.
    /// Results are **bitwise identical** with overlap on or off (the same
    /// rows run the same per-row arithmetic; only the execution order of
    /// two disjoint row sets changes), and communication counters are
    /// unchanged (the same one exchange per round happens either way).
    /// Defaults to `true`. Ignored by [`crate::Engine::Serial`], which has
    /// no exchanges to hide.
    pub overlap: bool,
    /// Sparse format driving the SpMV and matrix-powers kernels:
    /// [`SparseFormat::Csr`] (the default) streams rows from the assembled
    /// CSR arrays, [`SparseFormat::Sell`] converts once to the SELL-C-σ
    /// sliced layout (cached on the matrix): a constant-coefficient
    /// matrix's diagonals, read at unit stride without a gather, or padded
    /// column-major slots with eight-way independent accumulators. Either
    /// way the matrix powers kernel runs level by level, one SELL SpMV per
    /// basis column. It governs the one-column kernels (SpMV,
    /// matrix powers, polynomial preconditioner products, ghost zones); a
    /// serial product of k ≥ 2 columns (`solve_batch`, EkCG, the true
    /// residual's `A·X`) runs SELL's SpMM only on a constant-coefficient
    /// matrix's diagonals (1.6–1.9× the interleaved CSR SpMM at k = 8) and the
    /// interleaved CSR SpMM otherwise (≈1.5× SELL's slot SpMM). Solutions,
    /// iteration counts, and [`Counters`] are **bitwise identical** across
    /// formats for every engine, rank count, thread count, and overlap
    /// setting — the sliced kernels accumulate each row's entries in the
    /// same CSR order.
    pub format: SparseFormat,
    /// Communication backend under [`crate::Engine::Ranked`]:
    /// [`Backend::Thread`] (the default) runs ranks as OS threads over
    /// shared memory, [`Backend::Proc`] runs each rank as a `spcg-rankd`
    /// worker process exchanging halos and reductions over Unix-domain
    /// sockets. Solutions and [`Counters`] are **bitwise identical**
    /// across backends; the proc transport additionally survives a rank
    /// process dying mid-solve (the driver respawns the world and
    /// re-solves, charging a restart). The workers are resident: the first
    /// proc solve of a process at a rank count spawns them, later ones
    /// reuse them, and a matrix is shipped to them once per
    /// [`CsrMatrix::instance_id`]. Ranked solves fall back to the thread
    /// backend — with a diagnostic on stderr, and
    /// [`SolveResult::backend`] saying so — when the proc transport cannot
    /// run (missing `spcg-rankd` binary, single rank, or a preconditioner
    /// without a [`spcg_precond::PrecondSpec`] recipe). Ignored by
    /// [`crate::Engine::Serial`].
    pub backend: Backend,
    /// Span tracer recording a per-rank phase timeline of the solve (see
    /// `spcg_obs`). `None` (the default) disables tracing entirely: every
    /// instrumentation site branches on the `Option` and takes no
    /// timestamp, and results and [`Counters`] are bitwise identical with
    /// tracing on, off, or absent — spans only observe. Read the timeline
    /// back from this handle after the solve (`tracer.export_json(...)`).
    pub trace: Option<Tracer>,
    /// Deterministic fault-injection plan for the distributed substrate
    /// (see `spcg_dist::fault`): seeded rank stalls at exchange
    /// boundaries, duplicated epoch publishes, and NaN payload poisoning.
    /// `None` (the default) injects nothing and leaves every code path
    /// bitwise identical to an unfaulted build. Single-rank and serial
    /// runs never inject regardless of the plan.
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
    /// methods.
    pub adaptive: AdaptivePolicy,
}

impl Default for SolveOptions {
    /// A constant: a library call never reads the environment (see
    /// [`SolveOptions::from_env`] for the process-edge overlay).
    fn default() -> Self {
        SolveOptions {
            tol: 1e-9,
            max_iters: 12_000,
            criterion: StoppingCriterion::TrueResidual2Norm,
            divergence_factor: 1e8,
            stall_checks: 4000,
            keep_history: false,
            residual_replacement: None,
            threads: 1,
            overlap: true,
            format: SparseFormat::Csr,
            backend: Backend::Thread,
            trace: None,
            faults: None,
            resilience: None,
            adaptive: AdaptivePolicy::default(),
        }
    }
}

impl SolveOptions {
    /// The paper's Table-2 configuration: true residual, `tol = 1e-9`,
    /// failure declared beyond 12 000 iterations.
    pub fn table2() -> Self {
        Self::default()
    }

    /// [`SolveOptions::default`] overlaid with the process environment —
    /// the one configuration read of the library, for process edges only
    /// (bench bins, examples, test harnesses); no solver path calls it.
    ///
    /// | Variable | Values | Field |
    /// |---|---|---|
    /// | `SPCG_THREADS` | integer ≥ 1 | [`SolveOptions::threads`] |
    /// | `SPCG_OVERLAP` | `0` \| `1` | [`SolveOptions::overlap`] |
    /// | `SPCG_FORMAT` | `csr` \| `sell` | [`SolveOptions::format`] |
    /// | `SPCG_BACKEND` | `thread` \| `proc` | [`SolveOptions::backend`] |
    /// | `SPCG_TRACE` | `0` \| anything else | [`SolveOptions::trace`] (a fresh tracer) |
    /// | `SPCG_FAULTS` | `<seed>:<rate>` | [`SolveOptions::faults`] (a fresh plan) |
    ///
    /// Unset, empty or malformed values leave the default in place.
    pub fn from_env() -> Self {
        Self::from_vars(|name| std::env::var(name).ok())
    }

    /// [`SolveOptions::from_env`] over an injected lookup.
    pub fn from_vars(var: impl Fn(&str) -> Option<String>) -> Self {
        let set = |name: &str| Some(var(name)?.trim().to_owned()).filter(|v| !v.is_empty());
        let flag = |name: &str| Some(!["0", "false"].contains(&set(name)?.to_lowercase().as_str()));
        let dflt = Self::default();
        SolveOptions {
            threads: set("SPCG_THREADS")
                .and_then(|v| v.parse().ok())
                .filter(|&t| t > 0)
                .unwrap_or(dflt.threads),
            overlap: flag("SPCG_OVERLAP").unwrap_or(dflt.overlap),
            format: set("SPCG_FORMAT")
                .and_then(|v| SparseFormat::parse(&v))
                .unwrap_or(dflt.format),
            backend: set("SPCG_BACKEND")
                .and_then(|v| Backend::parse(&v))
                .unwrap_or(dflt.backend),
            trace: flag("SPCG_TRACE").unwrap_or(false).then(Tracer::new),
            faults: set("SPCG_FAULTS").and_then(|v| FaultPlan::parse(&v)),
            ..dflt
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

    /// Builder-style fault plan (see [`SolveOptions::faults`]).
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
    /// Global collectives each rank took part in under ranked execution
    /// ([`crate::Engine::Ranked`]), counted by the transport itself; `None`
    /// for serial solves. Every rank participates in every collective, so
    /// this is also the per-rank synchronization count the paper's Table 1
    /// models, and it equals `counters.global_collectives`.
    pub collectives_per_rank: Option<u64>,
    /// The transport that actually ran the ranks under ranked execution;
    /// `None` for serial solves. A ranked solve asked for
    /// [`Backend::Proc`] reports [`Backend::Thread`] here when it fell back
    /// (see [`SolveOptions::backend`]), and always for a single rank.
    pub backend: Option<Backend>,
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
    /// (`collectives_per_rank`, `backend`), resilience driver (`restarts`,
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
            backend: None,
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
            backend,
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
        w.option(backend.as_ref(), |w, b| w.variant(&BACKENDS, b));
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
            backend: r.option(|r| r.variant(&BACKENDS, "backend"))?,
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
    fn default_is_a_constant() {
        // Every field, by its Debug form: a new field changes this string.
        let want = "SolveOptions { tol: 1e-9, max_iters: 12000, \
            criterion: TrueResidual2Norm, divergence_factor: 100000000.0, \
            stall_checks: 4000, keep_history: false, residual_replacement: None, \
            threads: 1, overlap: true, format: Csr, backend: Thread, trace: None, \
            faults: None, resilience: None, adaptive: AdaptivePolicy { s_min: 2, \
            s_max: 16, cond_grow: 10000.0, cond_shrink: 10000000.0, \
            cond_reject: 10000000000.0, gap_tol: 0.5, drift_tol: 0.25, \
            grow_patience: 3, min_ritz: 6, max_ritz: 64, margin: 0.05 } }";
        assert_eq!(format!("{:?}", SolveOptions::default()), want);
    }

    /// `from_vars` over `vars`, through an injected lookup that fails the
    /// test on any name but the six.
    fn from_table(vars: &[(&str, &str)]) -> String {
        const NAMES: [&str; 6] = [
            "SPCG_THREADS",
            "SPCG_OVERLAP",
            "SPCG_FORMAT",
            "SPCG_BACKEND",
            "SPCG_TRACE",
            "SPCG_FAULTS",
        ];
        let opts = SolveOptions::from_vars(|name| {
            assert!(NAMES.contains(&name), "from_vars consulted {name}");
            let hit = vars.iter().find(|(k, _)| *k == name);
            hit.map(|(_, v)| v.to_string())
        });
        format!("{opts:?}")
    }

    #[test]
    fn from_vars_overlays_exactly_the_six_names() {
        let dflt = SolveOptions::default;
        let same = |vars: &[(&str, &str)], want: SolveOptions, why: &str| {
            assert_eq!(from_table(vars), format!("{want:?}"), "{why}");
        };
        same(&[], dflt(), "nothing set");
        let (sell, proc) = (SparseFormat::Sell, Backend::Proc);
        let (tracer, plan) = (Tracer::new(), FaultPlan::new(101, 0.05));
        // (name, a good value, one that leaves the default, what the good one sets)
        let table = [
            ("SPCG_THREADS", " 4 ", "0", dflt().with_threads(4)),
            ("SPCG_OVERLAP", "False", "yes", dflt().with_overlap(false)),
            ("SPCG_FORMAT", "SELL", "ellpack", dflt().with_format(sell)),
            ("SPCG_BACKEND", "proc", "mpi", dflt().with_backend(proc)),
            ("SPCG_TRACE", "1", "0", dflt().with_trace(Some(tracer))),
            (
                "SPCG_FAULTS",
                "101:0.05",
                "101",
                dflt().with_faults(Some(plan)),
            ),
        ];
        for (name, good, inert, want) in table {
            same(&[(name, good)], want, name);
            same(&[(name, inert)], dflt(), name);
            same(&[(name, "")], dflt(), name);
        }
        same(&[("SPCG_THREADS", "four")], dflt(), "unparseable");
        // A name the overlay does not know is never looked up.
        same(&[("SPCG_ADAPTIVE_SMAX", "4")], dflt(), "unknown name");
    }

    #[test]
    fn threads_option_defaults_and_builds() {
        assert_eq!(SolveOptions::default().threads, 1);
        assert_eq!(SolveOptions::default().with_threads(2).threads, 2);
    }

    #[test]
    fn overlap_option_defaults_on_and_builds() {
        assert!(SolveOptions::default().overlap);
        assert!(!SolveOptions::default().with_overlap(false).overlap);
    }

    #[test]
    fn backend_option_defaults_and_builds() {
        assert_eq!(SolveOptions::default().backend, Backend::Thread);
        let proc = SolveOptions::default().with_backend(Backend::Proc);
        assert_eq!(proc.backend, Backend::Proc);
    }

    #[test]
    fn format_option_defaults_and_builds() {
        assert_eq!(SolveOptions::default().format, SparseFormat::Csr);
        let sell = SolveOptions::default().with_format(SparseFormat::Sell);
        assert_eq!(sell.format, SparseFormat::Sell);
    }

    #[test]
    #[should_panic(expected = "threads must be positive")]
    fn zero_threads_rejected() {
        let _ = SolveOptions::default().with_threads(0);
    }

    #[test]
    fn outcome_converged_flag() {
        assert!(Outcome::Converged.converged());
        assert!(!Outcome::Diverged.converged());
        assert!(!Outcome::Breakdown("x".into()).converged());
    }
}
