//! (s-step) preconditioned conjugate gradient solvers.
//!
//! This crate implements the paper's solver zoo and the related-work
//! extensions — nine [`Method`]s on five bodies:
//!
//! | Method | Source | Body | Notes |
//! |---|---|---|---|
//! | PCG | Alg. 1 | [`mod@pcg`] | two-term baseline, 2 reductions/iter |
//! | PCG3 | Rutishauser \[17\] | [`mod@pcg3`] | three-term baseline behind CA-PCG3 |
//! | sPCG_mon | Alg. 2, Chronopoulos/Gear \[7\] | [`mod@sstep`], moment Gram form | monomial-only s-step method |
//! | **sPCG** | **Alg. 5 + Alg. 6 (the contribution)** | [`mod@sstep`] | s-step method with arbitrary bases |
//! | CA-PCG-GS | D'Ambra et al. | [`mod@sstep`], Gauss-Seidel Gram solve | no pivot-failure breakdown at large s |
//! | CA-PCG | Alg. 3, Toledo \[21\] | [`mod@capcg`], fixed block policy | coordinate-space inner loop, 2s−1 MV/precond |
//! | adaptive CA-PCG | Carson's adaptive s-step CG | [`mod@capcg`], adaptive block policy | controller picks `s` and rebuilds the basis |
//! | CA-PCG3 | Alg. 4, Hoemmen \[14\] | [`mod@capcg3`] | three-term s-step method, BLAS1 updates |
//! | EkCG | Grigori & Moufawad | [`mod@ekcg`] | enlarged Krylov: `t` directions per iteration |
//!
//! [`solve`] is the only entry to a method and [`engine`]'s `dispatch` the
//! only `Method` → body map (the bodies themselves are crate-private);
//! [`mod@resilience`] restarts any of them on a breakdown, and [`mod@batch`]
//! is the blocked multi-right-hand-side PCG.
//!
//! All s-step solvers perform **one global reduction per s steps**; every
//! solver charges `spcg_dist::Counters` with the operation classes of the
//! paper's Table 1, which the `spcg-perf` crate converts into modeled
//! cluster time. Numerical behaviour (Table 2: monomial collapse at s = 10,
//! Chebyshev recovery) is real `f64` arithmetic, not simulation.

pub mod batch;
pub mod blockops;
pub mod capcg;
pub mod capcg3;
pub mod ekcg;
pub mod engine;
pub mod method;
pub mod options;
pub mod pcg;
pub mod pcg3;
#[cfg(unix)]
pub mod procexec;
pub mod resilience;
pub mod setup;
pub mod sstep;
pub mod stopping;

pub use batch::{solve_batch, BatchRequest};
pub use engine::Engine;
pub use method::{decode_precond, encode_precond, solve, Method};
pub use options::{Outcome, Problem, ProblemError, SolveOptions, SolveResult, StoppingCriterion};
pub use resilience::Resilience;
pub use setup::{chebyshev_basis, newton_basis};
pub use spcg_adapt::{AdaptivePolicy, AdaptiveReport, ShiftUpdate};
