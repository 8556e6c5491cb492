//! # spcg — s-step preconditioned conjugate gradient methods
//!
//! A from-scratch Rust implementation of the solver family studied in
//! *"Numerical Properties and Scalability of s-Step Preconditioned
//! Conjugate Gradient Methods"* (Mayer & Gansterer, SC25 ScalAH): standard
//! PCG, the monomial-basis s-step PCG of Chronopoulos/Gear, the paper's
//! generalized **sPCG** with arbitrary polynomial bases, Toledo's CA-PCG
//! and Hoemmen's CA-PCG3 — together with every substrate they need (sparse
//! kernels, preconditioners, basis machinery, a distributed-execution
//! stand-in, and a performance model).
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! * [`sparse`] — CSR matrices, multivectors, generators, Matrix Market I/O;
//! * [`dist`] — operation counters and the rank transports (threads, worker
//!   processes);
//! * [`precond`] — Jacobi, Chebyshev, block-Jacobi, SSOR;
//! * [`basis`] — polynomial bases, matrix powers kernel, Ritz/Leja shifts;
//! * [`solvers`] — the nine methods, on the serial and the ranked engine;
//! * [`service`] — resident solve service: fingerprint setup cache and
//!   batched multi-RHS admission;
//! * [`perf`] — Table-1 formulas and the α-β cluster model;
//! * [`obs`] — span tracer: per-rank phase timelines and Chrome trace export.
//!
//! ## Quickstart
//!
//! ```
//! use spcg::precond::Jacobi;
//! use spcg::solvers::{solve, Engine, Method, Problem, SolveOptions};
//! use spcg::sparse::generators::{paper_rhs, poisson::poisson_2d};
//!
//! let a = poisson_2d(32);
//! let b = paper_rhs(&a);
//! let m = Jacobi::new(&a);
//! let problem = Problem::try_new(&a, &m, &b).unwrap();
//! let opts = SolveOptions::default().with_tol(1e-8);
//!
//! // Standard PCG: two global reductions per iteration.
//! let reference = solve(&Method::Pcg, &problem, &opts, Engine::Serial);
//! assert!(reference.converged());
//!
//! // sPCG with a Chebyshev basis — one reduction per s steps — executed on
//! // 4 real communicating ranks (threads): block-row partitions, one
//! // depth-s ghost-zone exchange per s-block, real allreduce collectives.
//! let basis = spcg::solvers::chebyshev_basis(&problem, 20, 0.05);
//! let method = Method::SPcg { s: 5, basis };
//! let fast = solve(&method, &problem, &opts, Engine::Ranked { ranks: 4 });
//! assert!(fast.converged());
//! assert!(fast.counters.global_collectives < reference.counters.global_collectives / 5);
//! assert!(fast.collectives_per_rank.is_some());
//! ```

pub use spcg_basis as basis;
pub use spcg_dist as dist;
pub use spcg_obs as obs;
pub use spcg_perf as perf;
pub use spcg_precond as precond;
pub use spcg_service as service;
pub use spcg_solvers as solvers;
pub use spcg_sparse as sparse;

/// The one-import surface for typical solves.
///
/// ```
/// use spcg::prelude::*;
///
/// let a = spcg::sparse::generators::poisson::poisson_2d(16);
/// let b = spcg::sparse::generators::paper_rhs(&a);
/// let m = spcg::precond::Jacobi::new(&a);
/// let problem = Problem::try_new(&a, &m, &b).unwrap();
/// let opts = SolveOptions::default().with_tol(1e-8);
/// let res = solve(&Method::Pcg, &problem, &opts, Engine::Ranked { ranks: 2 });
/// assert!(res.converged());
/// ```
///
/// Brings in the problem/option/result types, the [`Method`](solvers::Method)
/// and [`Engine`](solvers::Engine) selectors, the transport abstractions
/// ([`Comm`](dist::Comm), [`Exchange`](dist::Exchange),
/// [`Backend`](dist::Backend)) and the [`solve`](solvers::solve) entry
/// point. Crate-rooted
/// paths (`spcg::sparse::…`, `spcg::precond::…`) stay the idiom for
/// matrices and preconditioners — those namespaces are large and solves
/// touch only a couple of names from each.
pub mod prelude {
    pub use crate::dist::{Backend, Comm, Counters, Exchange};
    pub use crate::solvers::{
        solve, Engine, Method, Outcome, Problem, SolveOptions, SolveResult, StoppingCriterion,
    };
}
