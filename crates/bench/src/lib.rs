//! Shared experiment-harness utilities for the Table/Figure regeneration
//! binaries (`table1`, `table2`, `table3`, `fig1`) and the kernel
//! benchmarks.

pub mod harness;

use spcg_basis::BasisType;
use spcg_dist::Counters;
use spcg_precond::{ChebyshevPrecond, Jacobi, Preconditioner};
use spcg_solvers::{Problem, SolveResult};
use spcg_sparse::generators::paper_rhs;
use spcg_sparse::CsrMatrix;
use std::path::PathBuf;
use std::sync::Arc;

/// Table-2/3 configuration constants from the paper (§5.2–5.3).
pub mod paper {
    /// s-step block size of the evaluation.
    pub const S: usize = 10;
    /// Degree of the Chebyshev preconditioner.
    pub const CHEB_PRECOND_DEGREE: usize = 3;
    /// Relative reduction of the stopping criteria.
    pub const TOL: f64 = 1e-9;
    /// Iteration cap; beyond it an instance counts as not converged.
    pub const MAX_ITERS: usize = 12_000;
    /// Warm-up PCG iterations for eigenvalue estimates (§5.1: "a few
    /// iterations of standard PCG, not included in the runtimes").
    pub const WARMUP_ITERS: usize = 20;
    /// Widening applied to the Ritz interval.
    pub const MARGIN: f64 = 0.05;
    /// Warm-up length / margin for Jacobi-preconditioned instances: the
    /// Jacobi-preconditioned operator of a scattered-spectrum matrix is
    /// harder to bracket with few Lanczos steps, and an under-covered
    /// Chebyshev basis interval is fatal to the s-step methods.
    pub const WARMUP_ITERS_JACOBI: usize = 40;
    /// See [`WARMUP_ITERS_JACOBI`].
    pub const MARGIN_JACOBI: f64 = 0.10;
}

/// A fully prepared experiment instance: matrix, right-hand side,
/// preconditioner, and pre-estimated Chebyshev basis.
pub struct Instance {
    /// Instance label (matrix name).
    pub name: String,
    /// System matrix.
    pub a: Arc<CsrMatrix>,
    /// Paper-style right-hand side (`x* = 1/√n`).
    pub b: Vec<f64>,
    /// Preconditioner.
    pub m: Box<dyn Preconditioner>,
    /// Chebyshev basis from the warm-up run (w.r.t. `M⁻¹A`).
    pub chebyshev: BasisType,
}

impl Instance {
    /// Borrows the problem view.
    pub fn problem(&self) -> Problem<'_> {
        Problem::new(&self.a, self.m.as_ref(), &self.b)
    }
}

/// Which preconditioner an instance uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precond {
    /// Diagonal (Jacobi).
    Jacobi,
    /// Chebyshev polynomial of the paper's degree 3.
    Chebyshev,
}

/// Builds an [`Instance`]: preconditioner from Gershgorin/warm-up spectral
/// estimates, plus the Chebyshev *basis* interval for the preconditioned
/// operator (both following the paper's §5.1 setup).
pub fn prepare_instance(name: &str, a: CsrMatrix, precond: Precond) -> Instance {
    let a = Arc::new(a);
    let b = paper_rhs(&a);
    let m: Box<dyn Preconditioner> = match precond {
        Precond::Jacobi => Box::new(Jacobi::new(&a)),
        Precond::Chebyshev => {
            // Interval for the *matrix* spectrum: estimate with
            // unpreconditioned warm-up CG (identity preconditioner).
            let ident = spcg_precond::Identity::new(a.nrows());
            let est = spcg_basis::ritz::estimate_spectrum(&a, &ident, &b, paper::WARMUP_ITERS);
            let (lo, hi) = est.chebyshev_interval(paper::MARGIN);
            // Degree-3 polynomials cannot resolve more than a few decades of
            // spread; clamp the target interval like Ifpack2's eigRatio.
            let lo = lo.max(hi / 1e4);
            Box::new(ChebyshevPrecond::new(
                Arc::clone(&a),
                paper::CHEB_PRECOND_DEGREE,
                lo,
                hi,
            ))
        }
    };
    // Basis interval for M⁻¹A, estimated with the actual preconditioner.
    let (warmup, margin) = match precond {
        Precond::Jacobi => (paper::WARMUP_ITERS_JACOBI, paper::MARGIN_JACOBI),
        Precond::Chebyshev => (paper::WARMUP_ITERS, paper::MARGIN),
    };
    let est = spcg_basis::ritz::estimate_spectrum(&a, m.as_ref(), &b, warmup);
    let (lo, hi) = est.chebyshev_interval(margin);
    let chebyshev = BasisType::Chebyshev {
        lambda_min: lo,
        lambda_max: hi,
    };
    Instance {
        name: name.to_string(),
        a,
        b,
        m,
        chebyshev,
    }
}

/// Formats an s-step result the way Table 2 prints it: the iteration count,
/// or `-` when the run diverged, stagnated, broke down, or exceeded the cap.
pub fn table2_cell(res: &SolveResult) -> String {
    if res.converged() {
        res.iterations.to_string()
    } else {
        "-".to_string()
    }
}

/// True when the s-step iteration count is *not significantly* worse than
/// the PCG reference: less than 20% overhead or less than `s` extra
/// iterations (the paper's bold-face rule).
pub fn not_significant(iters: usize, pcg_iters: usize, s: usize) -> bool {
    let overhead = iters.saturating_sub(pcg_iters);
    (overhead as f64) < 0.2 * pcg_iters as f64 || overhead < s
}

/// Parses a `--ranks R` command-line flag (ranked execution mode of the
/// fig1/table3 binaries). `None` means serial execution. A `--ranks`
/// with a missing, unparsable, or zero value aborts rather than silently
/// running the (much longer) serial configuration.
pub fn ranks_arg() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--ranks")?;
    match args.get(i + 1).and_then(|v| v.parse().ok()) {
        Some(0) | None => {
            eprintln!("error: --ranks requires a positive integer, e.g. --ranks 4");
            std::process::exit(2);
        }
        some => some,
    }
}

/// Parses a `--threads T` command-line flag: intra-rank worker threads for
/// the parallel kernel layer (`SolveOptions::threads`). `None` leaves the
/// bin's base options alone (fig1/table3 start from
/// `SolveOptions::from_env()`, so `SPCG_THREADS` applies). A `--threads`
/// with a missing, unparsable, or zero value aborts.
pub fn threads_arg() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--threads")?;
    match args.get(i + 1).and_then(|v| v.parse().ok()) {
        Some(0) | None => {
            eprintln!("error: --threads requires a positive integer, e.g. --threads 4");
            std::process::exit(2);
        }
        some => some,
    }
}

/// Parses a `--no-overlap` command-line flag: run ranked solves on the
/// blocking halo-exchange schedule instead of the default overlapped one
/// (`SolveOptions::with_overlap(false)`). Results are bitwise identical either
/// way; the flag exists to time the two schedules against each other.
pub fn no_overlap_arg() -> bool {
    std::env::args().any(|a| a == "--no-overlap")
}

/// Parses an `--adaptive` command-line flag: extend the experiment with
/// the adaptive-s controller ([`spcg_solvers::Method::AdaptiveCaPcg`]
/// started from the *monomial* basis — no a-priori spectral knowledge)
/// alongside the paper's fixed-s methods, writing to a `*_adaptive`
/// output so the committed fixed-method baselines stay untouched.
pub fn adaptive_arg() -> bool {
    std::env::args().any(|a| a == "--adaptive")
}

/// Parses a `--trace <path>` command-line flag: trace every solve with a
/// shared [`spcg_obs::Tracer`] and write the Chrome trace-event export
/// (with the per-phase summary and merged counters spliced in) to `path`.
/// A `--trace` with a missing value aborts. Without the flag, tracing
/// still turns on when `SPCG_TRACE` is set, writing to a default name
/// under `results/`.
pub fn trace_arg() -> Option<PathBuf> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| a == "--trace")?;
    match args.get(i + 1) {
        Some(p) if !p.starts_with("--") => Some(PathBuf::from(p)),
        _ => {
            eprintln!("error: --trace requires a file path, e.g. --trace results/TRACE.json");
            std::process::exit(2);
        }
    }
}

/// The tracer a bin should thread through its solves: `Some` when
/// `--trace` was passed or `SPCG_TRACE` is set, `None` otherwise.
pub fn tracer_from_args(trace_path: &Option<PathBuf>) -> Option<spcg_obs::Tracer> {
    let from_env = spcg_solvers::SolveOptions::from_env().trace;
    from_env.or_else(|| trace_path.as_ref().map(|_| spcg_obs::Tracer::new()))
}

/// Writes the Chrome trace-event export of `tracer` (phase summary and
/// `counters` spliced in) to `path`, creating parent directories. Loadable
/// in Perfetto (<https://ui.perfetto.dev>) as-is.
pub fn write_trace(path: &std::path::Path, tracer: &spcg_obs::Tracer, counters: &Counters) {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("cannot create trace dir");
        }
    }
    let json = tracer.export_json(Some(&counters.to_json()));
    spcg_obs::validate_chrome_trace(&json).expect("exported trace failed validation");
    std::fs::write(path, &json).expect("cannot write trace file");
    eprintln!("[trace written to {}]", path.display());
}

/// Writes experiment output under `results/` (relative to the workspace
/// root) and echoes it to stdout.
pub fn write_results(file_name: &str, content: &str) {
    print!("{content}");
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("cannot create results dir");
    let path = dir.join(file_name);
    std::fs::write(&path, content).expect("cannot write results file");
    eprintln!("[results written to {}]", path.display());
}

/// `results/` directory at the workspace root (falls back to CWD).
pub fn results_dir() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|p| p.join("results"))
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Quick-mode toggle (`SPCG_QUICK=1`; unset, empty, `0` and `false` are
/// off): subsample heavy sweeps so smoke runs finish fast.
pub fn quick_mode() -> bool {
    let v = std::env::var("SPCG_QUICK").unwrap_or_default();
    !matches!(v.trim().to_ascii_lowercase().as_str(), "" | "0" | "false")
}

/// Poisson grid edge of a bin: `SPCG_GRID` when it parses, else `default`.
pub fn grid_or(default: usize) -> usize {
    let v = std::env::var("SPCG_GRID").ok();
    v.and_then(|v| v.trim().parse().ok()).unwrap_or(default)
}

/// A plain-text fixed-width table builder.
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Number of columns (rows must match this arity).
    pub fn width(&self) -> usize {
        self.header.len()
    }

    /// Appends a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "TextTable: row arity mismatch"
        );
        self.rows.push(cells);
    }

    /// Renders with column alignment.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cells[i], width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcg_sparse::generators::poisson::poisson_2d;

    #[test]
    fn prepare_instance_produces_consistent_problem() {
        let inst = prepare_instance("p2d", poisson_2d(12), Precond::Jacobi);
        let p = inst.problem();
        assert_eq!(p.n(), 144);
        match &inst.chebyshev {
            BasisType::Chebyshev {
                lambda_min,
                lambda_max,
            } => {
                assert!(*lambda_min > 0.0 && lambda_max > lambda_min);
            }
            other => panic!("unexpected basis {other:?}"),
        }
    }

    #[test]
    fn chebyshev_precond_instance_builds() {
        let inst = prepare_instance("p2d", poisson_2d(10), Precond::Chebyshev);
        assert!(inst.m.name().starts_with("chebyshev"));
    }

    #[test]
    fn not_significant_rule() {
        // <20% overhead.
        assert!(not_significant(1100, 1000, 10));
        // <s extra iterations.
        assert!(not_significant(29, 22, 10));
        // Significant delay.
        assert!(!not_significant(2150, 1666, 10));
    }

    #[test]
    fn text_table_renders_aligned() {
        let mut t = TextTable::new(&["a", "bbb"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("a  bbb"));
        assert!(s.lines().count() == 3);
    }
}
