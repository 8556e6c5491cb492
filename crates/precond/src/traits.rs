//! The preconditioner abstraction, and its distributed decomposition.
//!
//! Besides the serial [`Preconditioner::apply`] entry point, every
//! preconditioner advertises a [`DistForm`] describing how it decomposes
//! under a block-row rank partition. The distributed engine in
//! `spcg-solvers` dispatches on this form to pick the cheapest correct
//! application strategy — and, for pointwise forms, to ghost the operator
//! into the depth-s matrix powers kernel.
//!
//! The serial executor, the level-wise matrix powers kernel and the
//! blocked batch dispatch on it too, through
//! [`Preconditioner::apply_par_on`]: a [`DistForm::SpmvPolynomial`]
//! operator is a recurrence over SpMVs, so it is run on the stored form of
//! `A` the caller's own kernels use ([`SpmvPolyApply::apply_on`]) — the
//! solve's `SparseFormat` decides the layout of *every* matrix stream, the
//! preconditioner's included. All other forms own their data and take
//! `apply_par`.

use spcg_sparse::{MatRef, ParKernels};

/// How a preconditioner decomposes under a contiguous block-row partition.
///
/// Returned by [`Preconditioner::dist_form`]; borrowed views into the
/// preconditioner's own storage, so constructing one is free.
pub enum DistForm<'a> {
    /// `z[i] = w[i] · r[i]` with a global weight vector `w` of length `n`.
    ///
    /// Appliable on *any* index subset — including the ghost rows of a
    /// depth-s ghost zone, which is what lets the distributed matrix powers
    /// kernel run all s preconditioned levels from a single exchange.
    /// Jacobi (`w = diag(A)⁻¹`) and the identity (`w = 1`) take this form.
    Pointwise(&'a [f64]),
    /// Block-diagonal with the given block `offsets` (length `nblocks+1`,
    /// first 0, last `n`). The engine applies it rank-locally with zero
    /// communication when every partition boundary is a block boundary,
    /// and falls back to [`DistForm::Coupled`] handling otherwise.
    RankLocal {
        offsets: &'a [usize],
        op: &'a dyn RankLocalApply,
    },
    /// A fixed polynomial in `A`: the application is a short sequence of
    /// SpMVs plus pointwise vector work, so the engine can distribute it by
    /// substituting its own halo-exchanged SpMV (Chebyshev).
    SpmvPolynomial(&'a dyn SpmvPolyApply),
    /// No exploitable structure (e.g. SSOR, IC(0) triangular solves): the
    /// engine gathers the full residual, applies the serial operator, and
    /// keeps its own rows.
    Coupled,
}

/// Rank-local application of a block-diagonal operator on an aligned row
/// range.
pub trait RankLocalApply: Send + Sync {
    /// Applies the blocks covering `[lo, hi)` to the local slices `r`, `z`
    /// (both of length `hi − lo`).
    ///
    /// # Panics
    /// Panics unless `lo` and `hi` are block boundaries.
    fn apply_rows(&self, lo: usize, hi: usize, r: &[f64], z: &mut [f64]);
}

/// A preconditioner whose application is a polynomial in `A`, expressed
/// against an operator the caller supplies: an injected SpMV, so the same
/// recurrence runs over a distributed operator, or the stored form of `A`
/// the caller's kernels run on, so it runs at their rate.
pub trait SpmvPolyApply: Send + Sync {
    /// Applies `z ← q(A) r` where every product with `A` goes through
    /// `spmv`. Vector lengths follow `r.len()` (local length under a rank
    /// partition), not the global dimension.
    fn apply_with_spmv(&self, r: &[f64], z: &mut [f64], spmv: &mut dyn FnMut(&[f64], &mut [f64]));

    /// Applies `z ← q(A) r` with every product taken on `op` — a stored
    /// form of the matrix this operator was built for, in the format of
    /// the caller's choosing — band-fused with the recurrence's vector
    /// work ([`ParKernels::spmv_bands`]). Bitwise equal to
    /// [`SpmvPolyApply::apply_with_spmv`] over [`CsrMatrix::spmv`] for
    /// either format and any thread count.
    ///
    /// [`CsrMatrix::spmv`]: spcg_sparse::CsrMatrix::spmv
    fn apply_on(&self, pk: &ParKernels, op: MatRef<'_>, r: &[f64], z: &mut [f64]);

    /// Number of `spmv` calls one application makes (= halo exchanges the
    /// distributed engine will perform per apply).
    fn spmvs_per_apply(&self) -> usize;
}

/// A fixed symmetric-positive-definite linear operator `M⁻¹` applied as
/// `z = M⁻¹ r`.
///
/// Implementations must be deterministic linear maps: the s-step solvers
/// apply `M⁻¹` inside polynomial recurrences and the algebra (e.g.
/// `U^(k) = M⁻¹ R^(k)`, eq. (7)) silently assumes linearity. Nonlinear
/// "preconditioners" (e.g. flexible inner solves) would break every method
/// in this workspace except standard PCG.
pub trait Preconditioner: Send + Sync {
    /// Applies `z ← M⁻¹ r`.
    ///
    /// # Panics
    /// Implementations panic if `r.len()` or `z.len()` differ from the
    /// operator dimension.
    fn apply(&self, r: &[f64], z: &mut [f64]);

    /// Operator dimension `n`.
    fn dim(&self) -> usize;

    /// FLOPs of one application (used to charge the instrumentation).
    fn flops_per_apply(&self) -> u64;

    /// Human-readable name for reports.
    fn name(&self) -> String;

    /// Applies `z ← M⁻¹ r` with the intra-rank thread pool `pk` available
    /// for row-parallel work. Implementations must stay **bitwise
    /// identical** to [`Preconditioner::apply`] for every thread count —
    /// the solvers' determinism guarantee extends through the
    /// preconditioner. The default ignores the pool and applies serially
    /// (always correct); structured operators override it.
    fn apply_par(&self, pk: &ParKernels, r: &[f64], z: &mut [f64]) {
        let _ = pk;
        self.apply(r, z);
    }

    /// [`Preconditioner::apply_par`] for an executor that holds `op`, the
    /// system matrix in the sparse format its own kernels run on: a
    /// polynomial in `A` ([`DistForm::SpmvPolynomial`]) takes its products
    /// on `op`, so the preconditioner follows the solve's format instead of
    /// owning one; every other form ignores `op`. Same bits as `apply_par`.
    fn apply_par_on(&self, pk: &ParKernels, op: MatRef<'_>, r: &[f64], z: &mut [f64]) {
        match self.dist_form() {
            DistForm::SpmvPolynomial(p) => p.apply_on(pk, op, r, z),
            _ => self.apply_par(pk, r, z),
        }
    }

    /// Applies in place via an internal scratch buffer allocation. Solvers
    /// prefer [`Preconditioner::apply`]; this is a convenience for setup
    /// code.
    fn apply_alloc(&self, r: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; r.len()];
        self.apply(r, &mut z);
        z
    }

    /// How this operator decomposes under a block-row rank partition.
    /// Defaults to [`DistForm::Coupled`] (correct for everything, optimal
    /// for nothing); structured preconditioners override it.
    fn dist_form(&self) -> DistForm<'_> {
        DistForm::Coupled
    }

    /// The serializable recipe that rebuilds this operator from the system
    /// matrix in another process (see [`crate::spec`]), or `None` when the
    /// operator cannot be reconstructed remotely. Defaults to `None` —
    /// only proc-backend transport needs it; every built-in
    /// preconditioner overrides it.
    fn spec(&self) -> Option<crate::spec::PrecondSpec> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::Identity;

    #[test]
    fn apply_alloc_matches_apply() {
        let p = Identity::new(4);
        let r = vec![1.0, -2.0, 3.0, 4.0];
        let mut z = vec![0.0; 4];
        p.apply(&r, &mut z);
        assert_eq!(z, p.apply_alloc(&r));
    }
}
