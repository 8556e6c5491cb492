//! Distributed-memory substrate (MPI stand-in) for the `spcg` workspace.
//!
//! The paper runs on an MPI cluster (up to 128 nodes × 128 ranks). This
//! crate replaces that substrate with two complementary pieces:
//!
//! 1. **Instrumentation** ([`Counters`]): every solver records exactly the
//!    operation classes of the paper's Table 1 — matrix-vector products,
//!    preconditioner applications, global collectives and their payload
//!    sizes, local reduction FLOPs, and BLAS1/2/3 vector-update FLOPs. The
//!    `spcg-perf` crate converts these counts into modeled cluster time.
//! 2. **A threaded rank executor** ([`executor::run_ranks`], [`ThreadComm`],
//!    [`VectorBoard`]): runs R ranks as OS threads with *real* allreduce and
//!    vector-exchange synchronization over shared memory, exercising the
//!    same communication structure (one global reduction per s steps) at
//!    laptop scale. Reductions are deterministic: contributions are summed
//!    in rank order regardless of thread arrival order.

pub mod backend;
pub mod comm;
pub mod counters;
pub mod exchange;
pub mod executor;
pub mod fault;
pub mod topology;
pub mod wire;

pub use backend::{Backend, Comm, Exchange};
pub use comm::{Abort, Aborted, CommGroup, ThreadComm};
pub use counters::Counters;
pub use exchange::{GatherPlan, VectorBoard};
pub use fault::{FaultCounts, FaultPlan, FaultSite, FAULT_SITES};
pub use topology::MachineTopology;
