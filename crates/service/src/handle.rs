//! Resident solver handles: every expensive setup artifact, built once.
//!
//! A [`SolverHandle`] is the cached value behind one [`Fingerprint`]: the
//! preconditioner factorization (IC(0)/block-Jacobi inversion/Chebyshev
//! interval), the SELL-C-σ conversion and warmed row schedule for the
//! configured format and thread count, and — when [`SolveSpec::tune_basis`]
//! is set — the one-time Ritz warm-up pass whose spectrum estimate retunes
//! the method's Chebyshev interval or Newton shifts. Once built, a handle
//! answers any number of solves against the same operator without paying
//! any of that again, and serves batches through the blocked multi-RHS
//! driver ([`spcg_solvers::solve_batch`]).

use crate::fingerprint::{fingerprint, Fingerprint};
use spcg_basis::leja::newton_shifts;
use spcg_basis::ritz::{estimate_spectrum, SpectrumEstimate};
use spcg_basis::BasisType;
use spcg_precond::{PrecondSpec, Preconditioner};
use spcg_solvers::setup::{DEFAULT_MARGIN, DEFAULT_WARMUP_ITERS};
use spcg_solvers::{solve_batch, BatchRequest, Engine, Method, SolveOptions, SolveResult};
use spcg_sparse::{CsrMatrix, SparseFormat};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything that determines a solve besides the right-hand side.
///
/// The preconditioner travels as its [`PrecondSpec`] recipe rather than a
/// built operator: the *service* owns the (cached) factorization, which is
/// the point — and a recipe is hashable and buildable bitwise
/// deterministically, so equal specs yield interchangeable handles.
#[derive(Debug, Clone)]
pub struct SolveSpec {
    /// Solver selection (with its s-step basis, where applicable).
    pub method: Method,
    /// Preconditioner recipe, rebuilt (once) against the operator.
    pub precond: PrecondSpec,
    /// Solve options; see [`crate::fingerprint()`] for which fields key the
    /// cache.
    pub opts: SolveOptions,
    /// Execution engine.
    pub engine: Engine,
    /// Run a one-time Ritz warm-up at handle build and retune the method's
    /// Chebyshev interval / Newton shifts from the estimated spectrum.
    /// Ignored by methods without a tunable basis (the estimate is still
    /// computed and cached on the handle).
    pub tune_basis: bool,
}

impl SolveSpec {
    /// A spec with default options, serial engine, no basis tuning.
    pub fn new(method: Method, precond: PrecondSpec) -> Self {
        SolveSpec {
            method,
            precond,
            opts: SolveOptions::default(),
            engine: Engine::Serial,
            tune_basis: false,
        }
    }

    /// Replaces the options.
    pub fn with_opts(mut self, opts: SolveOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Replaces the engine.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Enables the build-time Ritz warm-up and basis retuning.
    pub fn with_tuned_basis(mut self) -> Self {
        self.tune_basis = true;
        self
    }
}

/// Wall-clock cost of one handle build, broken down by artifact.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupCost {
    /// Whole build.
    pub total: Duration,
    /// Preconditioner construction from its recipe.
    pub precond: Duration,
    /// Format warm-up (SELL conversion, row schedule).
    pub format: Duration,
    /// Ritz warm-up pass (zero unless [`SolveSpec::tune_basis`]).
    pub warmup: Duration,
}

/// One operator's resident solver state. See the module docs.
pub struct SolverHandle {
    fp: Fingerprint,
    a: Arc<CsrMatrix>,
    m: Box<dyn Preconditioner>,
    /// The spec's method, with its basis retuned when requested.
    method: Method,
    spec: SolveSpec,
    spectrum: Option<SpectrumEstimate>,
    cost: SetupCost,
}

impl SolverHandle {
    /// Builds every cached artifact for `a` under `spec`. This is the
    /// expensive, once-per-fingerprint path; everything it computes is
    /// deterministic, so two builds from equal inputs are interchangeable
    /// bitwise.
    pub fn build(a: Arc<CsrMatrix>, spec: SolveSpec) -> SolverHandle {
        let fp = fingerprint(&a, &spec);
        let t0 = Instant::now();

        // Format warm-up: the SELL conversion and the nnz-balanced row
        // schedule are cached on the matrix; forcing them here moves their
        // cost out of the first solve.
        let tf = Instant::now();
        if spec.opts.format == SparseFormat::Sell {
            let _ = a.sell();
        }
        let _ = a.row_schedule(spec.opts.threads.max(1));
        let format = tf.elapsed();

        let tp = Instant::now();
        let m = spec.precond.build(&a);
        let precond = tp.elapsed();

        let tw = Instant::now();
        let spectrum = spec.tune_basis.then(|| {
            let b = spcg_sparse::generators::paper_rhs(&a);
            estimate_spectrum(&a, m.as_ref(), &b, DEFAULT_WARMUP_ITERS)
        });
        let warmup = tw.elapsed();

        let method = match &spectrum {
            Some(est) => retune_method(&spec.method, est),
            None => spec.method.clone(),
        };

        SolverHandle {
            fp,
            a,
            m,
            method,
            spec,
            spectrum,
            cost: SetupCost {
                total: t0.elapsed(),
                precond,
                format,
                warmup,
            },
        }
    }

    /// The fingerprint this handle was built for.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fp
    }

    /// The operator.
    pub fn matrix(&self) -> &Arc<CsrMatrix> {
        &self.a
    }

    /// The built preconditioner.
    pub fn preconditioner(&self) -> &dyn Preconditioner {
        self.m.as_ref()
    }

    /// The method actually dispatched (basis retuned when the spec asked).
    pub fn method(&self) -> &Method {
        &self.method
    }

    /// The spec the handle was built from.
    pub fn spec(&self) -> &SolveSpec {
        &self.spec
    }

    /// The cached Ritz estimate (present iff [`SolveSpec::tune_basis`]).
    pub fn spectrum(&self) -> Option<&SpectrumEstimate> {
        self.spectrum.as_ref()
    }

    /// What the build cost, by artifact.
    pub fn setup_cost(&self) -> SetupCost {
        self.cost
    }

    /// Solves one batch of right-hand sides against the cached setup.
    /// Column `j` is bitwise identical to a standalone
    /// `solve(method, …, b_j)` with this handle's configuration (see
    /// [`spcg_solvers::batch`]).
    pub fn solve_batch(&self, requests: &[BatchRequest<'_>]) -> Vec<SolveResult> {
        solve_batch(
            &self.method,
            &self.a,
            self.m.as_ref(),
            requests,
            &self.spec.opts,
            self.spec.engine,
        )
    }

    /// Single-RHS convenience over [`SolverHandle::solve_batch`].
    pub fn solve_one(&self, b: &[f64]) -> SolveResult {
        self.solve_batch(&[BatchRequest::new(b)])
            .pop()
            .expect("solve_batch returns one result per request")
    }

    /// The options handed to every solve.
    pub fn opts(&self) -> &SolveOptions {
        &self.spec.opts
    }
}

/// Retunes a method's basis from a cached spectrum estimate: Chebyshev
/// intervals move to the (widened) Ritz interval, Newton shifts become
/// Leja-ordered Ritz values. Monomial bases and non-s-step methods pass
/// through unchanged.
fn retune_method(method: &Method, est: &SpectrumEstimate) -> Method {
    let basis = match method.basis() {
        None | Some(BasisType::Monomial) => return method.clone(),
        Some(BasisType::Newton { .. }) => BasisType::Newton {
            shifts: newton_shifts(&est.ritz, method.s()),
        },
        Some(BasisType::Chebyshev { .. }) => {
            let (lo, hi) = est.chebyshev_interval(DEFAULT_MARGIN);
            BasisType::Chebyshev {
                lambda_min: lo,
                lambda_max: hi,
            }
        }
    };
    method.with_basis(basis)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcg_precond::Jacobi;
    use spcg_sparse::generators::paper_rhs;
    use spcg_sparse::generators::poisson::poisson_2d;

    #[test]
    fn handle_solve_matches_direct_solve_bitwise() {
        let a = Arc::new(poisson_2d(12));
        let b = paper_rhs(&a);
        let m = Jacobi::new(&a);
        let spec =
            SolveSpec::new(Method::Pcg, m.spec().unwrap()).with_opts(SolveOptions::from_env());
        let handle = SolverHandle::build(Arc::clone(&a), spec.clone());
        let res = handle.solve_one(&b);
        let direct = spcg_solvers::solve(
            &Method::Pcg,
            &spcg_solvers::Problem::new(&a, &m, &b),
            &spec.opts,
            Engine::Serial,
        );
        assert_eq!(res.x, direct.x);
        assert_eq!(res.counters, direct.counters);
    }

    #[test]
    fn tuned_basis_replaces_chebyshev_interval() {
        let a = Arc::new(poisson_2d(10));
        let m = Jacobi::new(&a);
        let spec = SolveSpec::new(
            Method::SPcg {
                s: 4,
                basis: BasisType::Chebyshev {
                    lambda_min: 0.5,
                    lambda_max: 0.6,
                },
            },
            m.spec().unwrap(),
        )
        .with_opts(SolveOptions::from_env())
        .with_tuned_basis();
        let handle = SolverHandle::build(Arc::clone(&a), spec);
        assert!(handle.spectrum().is_some());
        match handle.method() {
            Method::SPcg {
                basis:
                    BasisType::Chebyshev {
                        lambda_min,
                        lambda_max,
                    },
                ..
            } => {
                assert!(*lambda_min > 0.0 && *lambda_max > *lambda_min);
                assert_ne!((*lambda_min, *lambda_max), (0.5, 0.6));
            }
            other => panic!("unexpected method {other:?}"),
        }
        // And the tuned method converges.
        let b = paper_rhs(&a);
        let res = handle.solve_one(&b);
        assert!(res.converged(), "{:?}", res.outcome);
    }

    #[test]
    fn every_basis_carrying_method_is_retuned() {
        let a = Arc::new(poisson_2d(10));
        let m = Jacobi::new(&a);
        let placeholder = BasisType::Chebyshev {
            lambda_min: 0.5,
            lambda_max: 0.6,
        };
        let (s, basis) = (4, placeholder.clone());
        let methods = [
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
            Method::AdaptiveCaPcg {
                s,
                basis: basis.clone(),
            },
            Method::CaPcgGs { s, basis },
        ];
        for method in methods {
            let spec = SolveSpec::new(method.clone(), m.spec().unwrap()).with_tuned_basis();
            let handle = SolverHandle::build(Arc::clone(&a), spec);
            let tuned = handle.method();
            assert_eq!(tuned, &method.with_basis(tuned.basis().unwrap().clone()));
            assert_ne!(tuned.basis(), Some(&placeholder), "{}", method.name());
        }
        // Newton shifts are retuned to the method's own s; methods without a
        // basis pass through.
        let newton = Method::CaPcgGs {
            s: 3,
            basis: BasisType::Newton { shifts: vec![] },
        };
        let spec = SolveSpec::new(newton, m.spec().unwrap()).with_tuned_basis();
        match SolverHandle::build(Arc::clone(&a), spec).method().basis() {
            Some(BasisType::Newton { shifts }) => assert_eq!(shifts.len(), 3),
            other => panic!("unexpected basis {other:?}"),
        }
        let spec = SolveSpec::new(Method::SPcgMon { s: 3 }, m.spec().unwrap()).with_tuned_basis();
        let handle = SolverHandle::build(Arc::clone(&a), spec);
        assert_eq!(handle.method(), &Method::SPcgMon { s: 3 });
    }

    #[test]
    fn setup_cost_is_recorded() {
        let a = Arc::new(poisson_2d(8));
        let spec = SolveSpec::new(Method::Pcg, PrecondSpec::Ic0);
        let handle = SolverHandle::build(a, spec);
        assert!(handle.setup_cost().total >= handle.setup_cost().precond);
    }
}
