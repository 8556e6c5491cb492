//! Sparse linear-algebra substrate for the `spcg` workspace.
//!
//! This crate provides everything the s-step PCG solvers need from a sparse
//! linear-algebra library, implemented from scratch:
//!
//! * [`CsrMatrix`] — compressed sparse row storage with symmetric-positive-
//!   definite (SPD) oriented helpers (diagonal extraction, symmetry checks,
//!   Gershgorin bounds) and a cache-friendly sparse matrix-vector product.
//! * [`SellMatrix`] — the same matrices in SELL-C-σ sliced layout: sorted
//!   slices padded column-major so the SpMV inner loop carries many
//!   independent rows at unit stride, bitwise identical to the CSR kernel.
//! * [`CooMatrix`] — a coordinate-format builder used by the generators and
//!   the Matrix Market reader.
//! * [`MultiVector`] — a column-major dense block of vectors (`n × k`) used
//!   for the s-step basis matrices, with blocked BLAS2/BLAS3-style kernels.
//! * [`DenseMat`] — small dense matrices (`O(s) × O(s)`) with Cholesky and
//!   partially pivoted LU factorizations for the "Scalar Work" systems.
//! * [`tridiag`] — a symmetric tridiagonal eigensolver (implicit QL with
//!   Wilkinson shifts) used for Ritz-value estimation.
//! * [`generators`] — synthetic SPD problem generators: 1D/2D/3D Poisson
//!   stencils, anisotropic diffusion, random SPD matrices with prescribed
//!   spectra, and a 40-matrix suite standing in for the SuiteSparse subset
//!   used in the paper's Table 2.
//! * [`io`] — Matrix Market (`.mtx`) reader/writer so real SuiteSparse
//!   matrices can be used when available.
//! * [`partition`] — 1D block-row partitioning used by the distributed
//!   executor in `spcg-dist`.

pub mod blas;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod generators;
pub mod ghost;
pub mod io;
pub mod multivector;
pub mod par;
pub mod partition;
pub mod rng;
pub mod sell;
pub mod smallsolve;
pub mod split;
pub mod tile;
pub mod tridiag;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMat;
pub use ghost::GhostZone;
pub use multivector::MultiVector;
pub use par::{GemvOut, ParKernels, SstepBlock, ThreadPool};
pub use sell::{MatRef, SellMatrix, SparseFormat};
pub use split::RowSplit;

/// Workspace-wide floating point scalar. The paper's experiments are all in
/// IEEE double precision; the numerical-stability phenomena reproduced here
/// (monomial-basis collapse for `s = 10`) are specific to `f64` round-off.
pub type Scalar = f64;
