//! The repo's benchmark: wall-clock time to solution on five named
//! workloads, with per-layer attribution. See `README.md` for the
//! glossary; `run.sh` is the entry point.
//!
//! Everything here reaches the system through the public `spcg` facade —
//! `solvers::solve`, `service::SolveService`, and for the per-layer probes
//! one public function per layer.

pub mod attribution;
pub mod harness;
pub mod metrics;
pub mod probes;
pub mod repeat;
pub mod report;
pub mod run;
pub mod service;
pub mod workloads;
