//! 1D block-row partitioning.
//!
//! The paper distributes matrices block-row-wise and vectors accordingly
//! (§5.1). [`BlockRowPartition`] computes balanced contiguous row ranges and,
//! together with a CSR matrix, the communication footprint of a distributed
//! SpMV (which off-rank entries each rank needs — the "halo").

use crate::csr::CsrMatrix;

/// A balanced contiguous partition of `n` rows over `nparts` ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockRowPartition {
    n: usize,
    offsets: Vec<usize>,
}

impl BlockRowPartition {
    /// Splits `n` rows into `nparts` contiguous blocks whose sizes differ by
    /// at most one (the first `n % nparts` blocks get the extra row).
    ///
    /// # Panics
    /// Panics if `nparts == 0`.
    pub fn balanced(n: usize, nparts: usize) -> Self {
        assert!(nparts > 0, "BlockRowPartition: nparts must be positive");
        let base = n / nparts;
        let extra = n % nparts;
        let mut offsets = Vec::with_capacity(nparts + 1);
        let mut acc = 0;
        offsets.push(0);
        for p in 0..nparts {
            acc += base + usize::from(p < extra);
            offsets.push(acc);
        }
        BlockRowPartition { n, offsets }
    }

    /// Total number of rows.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of parts.
    pub fn nparts(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Row range `[begin, end)` of part `p`.
    pub fn range(&self, p: usize) -> (usize, usize) {
        (self.offsets[p], self.offsets[p + 1])
    }

    /// Number of rows owned by part `p`.
    pub fn len(&self, p: usize) -> usize {
        self.offsets[p + 1] - self.offsets[p]
    }

    /// The part that owns row `r`.
    pub fn owner(&self, r: usize) -> usize {
        assert!(r < self.n, "owner: row out of range");
        // offsets is sorted; binary search for the containing interval.
        match self.offsets.binary_search(&r) {
            Ok(p) if p == self.nparts() => p - 1,
            Ok(p) => {
                // r is exactly at a boundary: it belongs to the part starting
                // there unless that part is empty; skip empty parts forward.
                let mut q = p;
                while self.offsets[q + 1] == self.offsets[q] {
                    q += 1;
                }
                q
            }
            Err(p) => p - 1,
        }
    }

    /// Per-part halo: for each part, the sorted list of off-part column
    /// indices referenced by its rows of `a` — exactly the remote vector
    /// entries a distributed SpMV must communicate.
    pub fn halo_columns(&self, a: &CsrMatrix) -> Vec<Vec<usize>> {
        assert_eq!(a.nrows(), self.n, "halo_columns: matrix size mismatch");
        let mut halos = Vec::with_capacity(self.nparts());
        for p in 0..self.nparts() {
            let (lo, hi) = self.range(p);
            let mut cols: Vec<usize> = Vec::new();
            for r in lo..hi {
                let (rcols, _) = a.row(r);
                for &c in rcols {
                    if c < lo || c >= hi {
                        cols.push(c);
                    }
                }
            }
            cols.sort_unstable();
            cols.dedup();
            halos.push(cols);
        }
        halos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::poisson::poisson_1d;

    #[test]
    fn balanced_sizes_differ_by_at_most_one() {
        let p = BlockRowPartition::balanced(10, 3);
        assert_eq!(p.range(0), (0, 4));
        assert_eq!(p.range(1), (4, 7));
        assert_eq!(p.range(2), (7, 10));
    }

    #[test]
    fn covers_all_rows_exactly_once() {
        for (n, k) in [(1, 1), (7, 3), (100, 7), (5, 8)] {
            let p = BlockRowPartition::balanced(n, k);
            let mut count = 0;
            for part in 0..p.nparts() {
                let (lo, hi) = p.range(part);
                count += hi - lo;
            }
            assert_eq!(count, n);
        }
    }

    #[test]
    fn owner_is_consistent_with_range() {
        let p = BlockRowPartition::balanced(17, 4);
        for r in 0..17 {
            let o = p.owner(r);
            let (lo, hi) = p.range(o);
            assert!(r >= lo && r < hi, "row {r} not in its owner's range");
        }
    }

    #[test]
    fn tridiagonal_halo_is_boundary_only() {
        let a = poisson_1d(12);
        let p = BlockRowPartition::balanced(12, 3);
        let halos = p.halo_columns(&a);
        // Middle part [4,8) needs rows 3 and 8.
        assert_eq!(halos[1], vec![3, 8]);
        // End parts need one remote entry each.
        assert_eq!(halos[0], vec![4]);
        assert_eq!(halos[2], vec![7]);
    }

    #[test]
    fn more_parts_than_rows() {
        let p = BlockRowPartition::balanced(3, 5);
        let total: usize = (0..5).map(|q| p.len(q)).sum();
        assert_eq!(total, 3);
    }
}
