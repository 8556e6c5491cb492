//! Column-major dense block of vectors (an `n × k` "multivector").
//!
//! The s-step methods replace standard PCG's BLAS1 vector operations by
//! operations on blocks of `O(s)` vectors of length `n`: Gram products
//! (`Uᵀ·S`, one global reduction), blocked search-direction updates
//! (`P ← U + P·B`, BLAS3), and basis-times-small-vector products (BLAS2).
//! [`MultiVector`] is the storage; the kernels live in [`ParKernels`], which
//! runs them inline when it has one thread.

use crate::blas;
use crate::dense::DenseMat;
use crate::par::ParKernels;

/// A dense `n × k` matrix stored column-major, viewed as `k` vectors of
/// length `n`.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiVector {
    n: usize,
    k: usize,
    data: Vec<f64>,
}

impl MultiVector {
    /// The `n × k` zero multivector.
    pub fn zeros(n: usize, k: usize) -> Self {
        MultiVector {
            n,
            k,
            data: vec![0.0; n * k],
        }
    }

    /// Builds from `k` column vectors.
    ///
    /// # Panics
    /// Panics if the columns have differing lengths.
    pub fn from_columns(cols: &[Vec<f64>]) -> Self {
        let k = cols.len();
        let n = cols.first().map_or(0, Vec::len);
        let mut mv = MultiVector::zeros(n, k);
        for (j, c) in cols.iter().enumerate() {
            assert_eq!(c.len(), n, "from_columns: column {j} has wrong length");
            mv.col_mut(j).copy_from_slice(c);
        }
        mv
    }

    /// Vector length (number of rows).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of columns.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.k);
        &self.data[j * self.n..(j + 1) * self.n]
    }

    /// Column `j` as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.k);
        &mut self.data[j * self.n..(j + 1) * self.n]
    }

    /// Two distinct columns, the second mutable — used by the matrix powers
    /// kernel which writes column `j+1` from column `j`.
    pub fn col_pair_mut(&mut self, read: usize, write: usize) -> (&[f64], &mut [f64]) {
        assert_ne!(read, write, "col_pair_mut: indices must differ");
        assert!(
            read < self.k && write < self.k,
            "col_pair_mut: index out of bounds"
        );
        let n = self.n;
        if read < write {
            let (a, b) = self.data.split_at_mut(write * n);
            (&a[read * n..read * n + n], &mut b[..n])
        } else {
            let (a, b) = self.data.split_at_mut(read * n);
            (&b[..n], &mut a[write * n..write * n + n])
        }
    }

    /// Sets every entry to zero.
    pub fn fill_zero(&mut self) {
        blas::zero(&mut self.data);
    }

    /// Copies all columns from `other` (same shape).
    pub fn copy_from(&mut self, other: &MultiVector) {
        assert_eq!(self.n, other.n, "copy_from: row mismatch");
        assert_eq!(self.k, other.k, "copy_from: col mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// Gram product `selfᵀ · other` (`k_self × k_other`).
    ///
    /// This is the local part of the single global reduction of the s-step
    /// methods: each rank computes the Gram block of its rows and the blocks
    /// are summed across ranks. Per entry the accumulation is the fixed-
    /// shape blocked pairwise reduction of [`crate::blas`], so the threaded
    /// Gram of [`ParKernels`] reproduces this serial result bitwise.
    pub fn gram(&self, other: &MultiVector) -> DenseMat {
        assert_eq!(self.n, other.n, "gram: row mismatch");
        let acols: Vec<&[f64]> = (0..self.k).map(|i| self.col(i)).collect();
        let bcols: Vec<&[f64]> = (0..other.k).map(|j| other.col(j)).collect();
        crate::par::gram_cols_impl(None, self.n, &acols, &bcols)
    }

    /// Blocked search-direction update `self ← u + self · b`: see
    /// [`ParKernels::blocked_update`], which this forwards to. The update
    /// runs in place, so `_scratch` is no longer touched; the parameter
    /// remains for callers written against the scratch-swap version.
    pub fn blocked_update_par(
        &mut self,
        pk: &ParKernels,
        u: &MultiVector,
        b: &DenseMat,
        _scratch: &mut MultiVector,
    ) {
        pk.blocked_update(self, u, b);
    }

    /// Raw column-major storage, mutable (parallel kernel layer only).
    #[inline]
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Maximum absolute entry across all columns.
    pub fn norm_max(&self) -> f64 {
        blas::norm_inf(&self.data)
    }

    /// Returns `true` if any entry is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        blas::has_non_finite(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mv(cols: &[&[f64]]) -> MultiVector {
        MultiVector::from_columns(&cols.iter().map(|c| c.to_vec()).collect::<Vec<_>>())
    }

    #[test]
    fn gram_matches_naive() {
        let a = mv(&[&[1.0, 2.0, 3.0], &[0.0, 1.0, 0.0]]);
        let b = mv(&[&[1.0, 1.0, 1.0], &[2.0, 0.0, -1.0], &[0.0, 0.0, 1.0]]);
        let g = a.gram(&b);
        assert_eq!(g.nrows(), 2);
        assert_eq!(g.ncols(), 3);
        assert_eq!(g[(0, 0)], 6.0);
        assert_eq!(g[(0, 1)], -1.0);
        assert_eq!(g[(0, 2)], 3.0);
        assert_eq!(g[(1, 0)], 1.0);
        assert_eq!(g[(1, 1)], 0.0);
        assert_eq!(g[(1, 2)], 0.0);
    }

    #[test]
    fn gram_blocked_matches_unblocked_long() {
        // Length > REDUCE_BLOCK so the blocking path is exercised.
        let n = blas::REDUCE_BLOCK * 2 + 17;
        let c0: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let c1: Vec<f64> = (0..n).map(|i| ((i * 3 % 5) as f64) - 2.0).collect();
        let a = MultiVector::from_columns(&[c0.clone(), c1.clone()]);
        let g = a.gram(&a);
        assert!((g[(0, 1)] - crate::blas::dot(&c0, &c1)).abs() < 1e-9);
        assert!((g[(0, 1)] - g[(1, 0)]).abs() < 1e-12);
    }

    #[test]
    fn col_pair_mut_both_orders() {
        let mut a = mv(&[&[1.0, 2.0], &[3.0, 4.0]]);
        {
            let (r, w) = a.col_pair_mut(0, 1);
            w[0] = r[0] * 10.0;
        }
        assert_eq!(a.col(1)[0], 10.0);
        {
            let (r, w) = a.col_pair_mut(1, 0);
            w[1] = r[1] * 2.0;
        }
        assert_eq!(a.col(0)[1], 8.0);
    }
}
