//! Interior/frontier row splitting for communication–computation overlap.
//!
//! A rank owning the contiguous row block `[lo, hi)` of a sparse matrix can
//! start its local SpMV before the halo exchange delivers remote entries:
//! **interior** rows reference only owned columns and are computable
//! immediately, while **frontier** rows touch at least one column outside
//! `[lo, hi)` and must wait for the exchange to complete. [`RowSplit`]
//! classifies the owned rows once per `(lo, hi)` range; the split is
//! symmetric-permutation-free — both classes are plain row-index schedules
//! over the *existing* CSR, so the per-row accumulation (and hence every
//! bit of the result) is unchanged, only the execution order of two
//! disjoint row sets moves.
//!
//! The split is cached on [`CsrMatrix`] (see [`CsrMatrix::row_split`]) so
//! the CSR- and SELL-format ghost zones of the same rank share one scan.

use crate::csr::CsrMatrix;

/// Classification of the rows `[lo, hi)` of a matrix into interior rows
/// (all columns in `[lo, hi)`) and frontier rows (at least one column
/// outside). Both lists hold **global** row indices in ascending order and
/// partition `[lo, hi)` exactly.
#[derive(Debug, Clone)]
pub struct RowSplit {
    lo: usize,
    hi: usize,
    interior: Vec<usize>,
    frontier: Vec<usize>,
}

impl RowSplit {
    /// Scans rows `[lo, hi)` of `a` and classifies each by whether every
    /// column index falls inside the owned range.
    ///
    /// # Panics
    /// Panics if the range is invalid.
    pub(crate) fn new(a: &CsrMatrix, lo: usize, hi: usize) -> Self {
        assert!(lo <= hi && hi <= a.nrows(), "RowSplit: invalid row range");
        let mut interior = Vec::new();
        let mut frontier = Vec::new();
        for r in lo..hi {
            let (cols, _) = a.row(r);
            // Columns are ascending, so the first/last entries bound them all.
            let inside = match (cols.first(), cols.last()) {
                (Some(&first), Some(&last)) => lo <= first && last < hi,
                _ => true, // an empty row references nothing remote
            };
            if inside {
                interior.push(r);
            } else {
                frontier.push(r);
            }
        }
        RowSplit {
            lo,
            hi,
            interior,
            frontier,
        }
    }

    /// The owned row range `[lo, hi)` this split describes.
    pub fn range(&self) -> (usize, usize) {
        (self.lo, self.hi)
    }

    /// Global indices of rows whose columns all lie in `[lo, hi)`,
    /// ascending.
    pub fn interior(&self) -> &[usize] {
        &self.interior
    }

    /// Global indices of rows touching at least one column outside
    /// `[lo, hi)`, ascending.
    pub fn frontier(&self) -> &[usize] {
        &self.frontier
    }

    /// Number of interior rows.
    pub fn n_interior(&self) -> usize {
        self.interior.len()
    }

    /// Number of frontier rows.
    pub fn n_frontier(&self) -> usize {
        self.frontier.len()
    }
}

#[cfg(test)]
mod tests {
    use crate::generators::poisson::{poisson_1d, poisson_3d};
    use crate::ghost::GhostZone;

    #[test]
    fn one_rank_partition_is_all_interior() {
        let a = poisson_3d(8);
        let s = a.row_split(0, a.nrows());
        assert_eq!(s.n_interior(), a.nrows());
        assert_eq!(s.n_frontier(), 0);
        assert_eq!(s.interior(), (0..a.nrows()).collect::<Vec<_>>());
    }

    #[test]
    fn split_partitions_the_range_and_classifies_exactly() {
        let a = poisson_3d(10);
        let n = a.nrows();
        let (lo, hi) = (n / 3, 3 * n / 4);
        let s = a.row_split(lo, hi);
        assert_eq!(s.range(), (lo, hi));
        assert_eq!(s.n_interior() + s.n_frontier(), hi - lo);
        // Merge of the two ascending lists is exactly [lo, hi).
        let mut all: Vec<usize> = s.interior().iter().chain(s.frontier()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (lo..hi).collect::<Vec<_>>());
        // Independent per-row check against the raw structure.
        for r in lo..hi {
            let (cols, _) = a.row(r);
            let remote = cols.iter().any(|&c| c < lo || c >= hi);
            assert_eq!(s.frontier().binary_search(&r).is_ok(), remote, "row {r}");
        }
    }

    /// On the 7-point Poisson stencil the frontier rows are exactly the
    /// rows adjacent (graph distance 1) to the ghost entries a depth-1
    /// [`GhostZone`] fetches.
    #[test]
    fn frontier_rows_are_the_depth1_ghost_adjacent_rows() {
        let a = poisson_3d(9);
        let n = a.nrows();
        for (lo, hi) in [(0, n / 4), (n / 4, n / 2), (n / 2, n)] {
            let s = a.row_split(lo, hi);
            let gz = GhostZone::new(&a, lo, hi, 1, crate::SparseFormat::Csr);
            let ghosts = gz.ghost_indices();
            let expected: Vec<usize> = (lo..hi)
                .filter(|&r| a.row(r).0.iter().any(|c| ghosts.contains(c)))
                .collect();
            assert_eq!(s.frontier(), expected, "range [{lo}, {hi})");
        }
    }

    /// Growing the block of a 7-point Poisson operator grows the interior
    /// fraction: the frontier is a surface (O(g²) rows per cut) while the
    /// block volume grows linearly in its height.
    #[test]
    fn interior_fraction_grows_with_block_size() {
        let g = 12;
        let a = poisson_3d(g);
        let n = a.nrows();
        let mid = n / 2;
        // Plane-aligned cuts of the 7-point stencil: exactly one plane of
        // frontier rows at each cut, whatever the block's height.
        for half in [g * g, 2 * g * g, 4 * g * g, 5 * g * g] {
            let s = a.row_split(mid - half, mid + half);
            assert_eq!(s.n_frontier(), 2 * g * g);
            assert_eq!(s.n_interior(), 2 * half - 2 * g * g);
        }
    }

    #[test]
    fn tridiagonal_split_has_two_frontier_rows() {
        let a = poisson_1d(32);
        let s = a.row_split(8, 24);
        assert_eq!(s.frontier(), &[8, 23]);
        assert_eq!(s.n_interior(), 14);
    }

    #[test]
    fn row_split_cache_returns_shared_plan() {
        let a = poisson_1d(16);
        let s1 = a.row_split(4, 12);
        let s2 = a.row_split(4, 12);
        assert!(std::sync::Arc::ptr_eq(&s1, &s2));
        // A disjoint range is a different (also cached) plan.
        let other = a.row_split(0, 4);
        assert_eq!(other.frontier(), &[3]);
        let again = a.row_split(4, 12);
        assert!(std::sync::Arc::ptr_eq(&s1, &again));
        // An overlapping range belongs to another partition: it evicts.
        a.row_split(0, 8);
        assert!(!std::sync::Arc::ptr_eq(&s1, &a.row_split(4, 12)));
    }
}
