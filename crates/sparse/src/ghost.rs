//! The rank-local operator: a depth-s ghost zone held in one sparse format.
//!
//! A rank owning the contiguous row block `[lo, hi)` can compute `s` levels
//! of the MPK recurrence from a **single** neighbour exchange if it first
//! fetches every vector entry within graph distance `s` of its block (the
//! "PA1" scheme of Demmel et al.): level `j` of the recurrence is then
//! valid on `reach(s − j)` and the final level exactly on the owned rows.
//!
//! [`GhostZone`] precomputes the reachability sets by breadth-first search
//! over the column structure of `A`, orders the extended index set so each
//! reach set is a *prefix* (owned rows first, then ghosts grouped by BFS
//! distance), and holds the rows of `A` remapped onto that extended index
//! space in **one** [`SparseFormat`]: raw CSR arrays, or the interior and
//! frontier row lists packed as [`SellMatrix`]es — never both. Entry order
//! within each row is preserved, so row sums are bitwise identical to the
//! global SpMV's in either format.
//!
//! **Depth-prefix property.** BFS levels are appended in order and sorted
//! within a level, and a level depends only on the levels before it, so a
//! depth-`D` zone *is* a depth-`d` zone for every `d ≤ D`:
//! `ext[..reach_len(d)]`, `reach_len(0..=d)`, the interior rows, the
//! frontier rows below `reach_len(d − 1)` and every remapped row among them
//! are what `GhostZone::new(.., d, ..)` would have built. Rows below
//! `reach_len(k)` reference only columns below `reach_len(k + 1)`, so a
//! shallower user never reads the tail of an extended buffer it did not
//! fill. One zone per rank therefore serves the depth-1 SpMV and the
//! depth-s MPK alike, and [`CsrMatrix::ghost_zone`] keeps it across solves.

use crate::csr::{nnz_balanced_bounds, nnz_balanced_bounds_list, CsrMatrix};
use crate::par::{ParKernels, SendPtr};
use crate::sell::{SellMatrix, SparseFormat};
use std::collections::HashMap;

/// The depth-s reachability structure of one rank's row block, with the
/// rank's rows of `A` in the format it was built for.
#[derive(Debug)]
pub struct GhostZone {
    lo: usize,
    hi: usize,
    depth: usize,
    /// Extended index set in global row numbers: `[lo, hi)` in order, then
    /// ghosts grouped by BFS distance (each group sorted ascending).
    ext: Vec<usize>,
    /// `prefix[d]` = |reach(d)| for `d = 0 ..= depth`; `prefix[0]` is the
    /// owned count and `prefix[depth] == ext.len()`.
    prefix: Vec<usize>,
    /// Rows `0 .. prefix[depth-1]` of `A` over the extended index space.
    rows: LocalRows,
}

/// The remapped rows in the zone's one format. Both variants carry the same
/// two ascending row lists, which partition `[0, prefix[depth-1])`:
/// **interior** — owned rows whose columns all fall inside the owned prefix
/// (computable before the halo exchange completes; from the matrix's cached
/// [`crate::RowSplit`]) — and **frontier** — every other row (owned rows
/// touching ghost columns, then all ghost rows).
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // one per zone, behind its Arc; never moved in bulk
enum LocalRows {
    Csr {
        raw: RawRows,
        interior: Vec<usize>,
        frontier: Vec<usize>,
    },
    /// The two lists packed in list order (no σ-sort), so `perm()` is the
    /// list itself and a row prefix of the frontier is a lane prefix.
    Sell {
        interior: SellMatrix,
        frontier: SellMatrix,
    },
}

/// Remapped rows as raw CSR arrays: the renumbered columns are not
/// ascending (ghosts are ordered by BFS distance), so this cannot be a
/// [`CsrMatrix`]. Entry order within each row is the original
/// ascending-global order, which keeps row-sum rounding identical to the
/// global SpMV.
#[derive(Debug)]
struct RawRows {
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl RawRows {
    /// `Σ A[r, q]·x[q]` in stored entry order, as [`CsrMatrix::spmv`] sums.
    #[inline]
    fn dot(&self, r: usize, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for k in self.row_ptr[r]..self.row_ptr[r + 1] {
            acc += self.values[k] * x[self.col_idx[k]];
        }
        acc
    }

    /// `y[r] = dot(r, x)` for the contiguous rows `0 .. nrows`, split into
    /// nnz-balanced chunks on the fly (the prefix length changes per MPK
    /// level, so unlike [`CsrMatrix::row_schedule`] there is nothing to
    /// cache). Row-partitioned, hence bitwise equal for any thread count.
    fn spmv_prefix(&self, pk: &ParKernels, nrows: usize, x: &[f64], y: &mut [f64]) {
        if pk.threads() == 1 {
            for (r, out) in y[..nrows].iter_mut().enumerate() {
                *out = self.dot(r, x);
            }
            return;
        }
        let bounds = nnz_balanced_bounds(&self.row_ptr, nrows, pk.threads());
        pk.for_each_range_mut(&mut y[..nrows], &bounds, |c, piece| {
            for (i, out) in piece.iter_mut().enumerate() {
                *out = self.dot(bounds[c] + i, x);
            }
        });
    }

    /// `y[r] = dot(r, x)` for each `r` of a strictly ascending row list,
    /// cut into nnz-balanced chunks; each chunk writes its own rows, so the
    /// result is bitwise equal for any thread count.
    ///
    /// # Panics
    /// Panics if the threaded path finds `rows` not strictly ascending (the
    /// disjoint-write safety argument needs distinct rows) or a row is out
    /// of range of `y`.
    fn spmv_list(&self, pk: &ParKernels, rows: &[usize], x: &[f64], y: &mut [f64]) {
        if pk.threads() == 1 || rows.len() <= 1 {
            for &r in rows {
                y[r] = self.dot(r, x);
            }
            return;
        }
        assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "GhostZone: row list must be strictly ascending"
        );
        assert!(*rows.last().unwrap() < y.len(), "GhostZone: y too short");
        let bounds = nnz_balanced_bounds_list(rows, &self.row_ptr, pk.threads());
        let ptr = SendPtr(y.as_mut_ptr());
        pk.run_indexed(bounds.len() - 1, |c| {
            for &r in &rows[bounds[c]..bounds[c + 1]] {
                let acc = self.dot(r, x);
                // SAFETY: the rows are strictly ascending (checked above)
                // and the chunks partition the list, so every task writes a
                // distinct set of in-bounds `y` elements; the exclusive
                // borrow of `y` outlives the run.
                unsafe { *ptr.get().add(r) = acc };
            }
        });
    }
}

impl GhostZone {
    /// Builds the depth-`depth` ghost zone of rows `[lo, hi)` of `a`,
    /// holding the remapped rows in `format`. Work and transient memory are
    /// proportional to the zone, not to the matrix.
    ///
    /// # Panics
    /// Panics if `depth == 0`, the range is invalid, or `a` is not square.
    pub fn new(a: &CsrMatrix, lo: usize, hi: usize, depth: usize, format: SparseFormat) -> Self {
        assert!(depth >= 1, "GhostZone: depth must be at least 1");
        assert!(lo <= hi && hi <= a.nrows(), "GhostZone: invalid row range");
        assert_eq!(a.nrows(), a.ncols(), "GhostZone: matrix must be square");
        let owned = lo..hi;

        // Owned column `c` sits at `c − lo`; ghost `g` at `ghost_pos[g]`.
        let mut ghost_pos: HashMap<usize, usize> = HashMap::new();
        let mut ext: Vec<usize> = owned.clone().collect();
        let mut prefix = vec![ext.len()];

        // BFS level by level: `next` = indices first reached at this level.
        let mut level_begin = 0usize;
        for _ in 0..depth {
            let level_end = ext.len();
            let mut next: Vec<usize> = Vec::new();
            for &g in &ext[level_begin..level_end] {
                let new = |c: &usize| !owned.contains(c) && !ghost_pos.contains_key(c);
                next.extend(a.row(g).0.iter().copied().filter(new));
            }
            next.sort_unstable();
            next.dedup();
            for &g in &next {
                ghost_pos.insert(g, ext.len());
                ext.push(g);
            }
            level_begin = level_end;
            prefix.push(ext.len());
        }

        // Remapped rows 0 .. prefix[depth-1] in original entry order.
        let nrows_local = prefix[depth - 1];
        let nnz: usize = ext[..nrows_local].iter().map(|&g| a.row(g).0.len()).sum();
        let mut raw = RawRows {
            row_ptr: Vec::with_capacity(nrows_local + 1),
            col_idx: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        };
        raw.row_ptr.push(0);
        let mut level = 0usize;
        for (p, &g) in ext[..nrows_local].iter().enumerate() {
            while p >= prefix[level] {
                level += 1;
            }
            let (cols, vals) = a.row(g);
            for &c in cols {
                let q = if owned.contains(&c) {
                    c - lo
                } else {
                    ghost_pos[&c]
                };
                // What lets a depth-d user of this zone leave the buffer
                // tail past reach_len(d) unfilled.
                debug_assert!(q < prefix[level + 1], "ghost closure violated");
                raw.col_idx.push(q);
            }
            raw.values.extend_from_slice(vals);
            raw.row_ptr.push(raw.col_idx.len());
        }

        // Interior/frontier split: owned rows classified by the matrix's
        // cached RowSplit (global columns in [lo, hi) ⇔ remapped columns in
        // the owned prefix); ghost rows always join the frontier — their
        // operands include ghost entries regardless of structure.
        let split = a.row_split(lo, hi);
        let interior: Vec<usize> = split.interior().iter().map(|&g| g - lo).collect();
        let mut frontier: Vec<usize> = split.frontier().iter().map(|&g| g - lo).collect();
        frontier.extend(hi - lo..nrows_local);

        let rows = match format {
            SparseFormat::Csr => LocalRows::Csr {
                raw,
                interior,
                frontier,
            },
            SparseFormat::Sell => {
                let pack = |list: &[usize]| {
                    SellMatrix::from_rows(&raw.row_ptr, &raw.col_idx, &raw.values, list)
                };
                LocalRows::Sell {
                    interior: pack(&interior),
                    frontier: pack(&frontier),
                }
            }
        };
        GhostZone {
            lo,
            hi,
            depth,
            ext,
            prefix,
            rows,
        }
    }

    /// Owned row range `[lo, hi)`.
    pub fn range(&self) -> (usize, usize) {
        (self.lo, self.hi)
    }

    /// Number of owned rows.
    pub fn n_owned(&self) -> usize {
        self.hi - self.lo
    }

    /// BFS depth of the plan.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The format the remapped rows are held in.
    pub fn format(&self) -> SparseFormat {
        match self.rows {
            LocalRows::Csr { .. } => SparseFormat::Csr,
            LocalRows::Sell { .. } => SparseFormat::Sell,
        }
    }

    /// Size of the full extended index set (`|reach(depth)|`) — the length
    /// every extended operand buffer must have, whatever depth its user
    /// runs at.
    pub fn ext_len(&self) -> usize {
        self.ext.len()
    }

    /// `|reach(d)|` — the valid prefix length of MPK level `depth − d`.
    ///
    /// # Panics
    /// Panics if `d > depth`.
    pub fn reach_len(&self, d: usize) -> usize {
        self.prefix[d]
    }

    /// Global indices of the ghost entries (everything past the owned
    /// prefix), in extended order. A user running at depth `d` fetches the
    /// first `reach_len(d) − n_owned()` of them in one exchange.
    pub fn ghost_indices(&self) -> &[usize] {
        &self.ext[self.n_owned()..]
    }

    /// All extended indices (owned, then ghosts by BFS distance).
    pub fn ext_indices(&self) -> &[usize] {
        &self.ext
    }

    /// Local indices of the owned rows computable without any ghost data
    /// (every column inside the owned prefix). Ascending, disjoint from
    /// [`GhostZone::frontier_rows`].
    pub fn interior_rows(&self) -> &[usize] {
        match &self.rows {
            LocalRows::Csr { interior, .. } => interior,
            LocalRows::Sell { interior, .. } => interior.perm().expect("row-list builds are slots"),
        }
    }

    /// Local indices `< nrows` of the rows that need ghost operands:
    /// owned rows touching ghost columns plus the ghost rows themselves.
    /// Together with [`GhostZone::interior_rows`] this partitions
    /// `[0, nrows)` for any row prefix `nrows ≥ n_owned()`.
    ///
    /// # Panics
    /// Panics if `nrows < n_owned()` (the interior list would then leak
    /// rows past the prefix).
    pub fn frontier_rows(&self, nrows: usize) -> &[usize] {
        assert!(
            nrows >= self.n_owned(),
            "frontier_rows: prefix shorter than the owned block"
        );
        let all = match &self.rows {
            LocalRows::Csr { frontier, .. } => frontier,
            LocalRows::Sell { frontier, .. } => frontier.perm().expect("row-list builds are slots"),
        };
        &all[..all.partition_point(|&r| r < nrows)]
    }

    /// The interior rows of the remapped operator:
    /// `y[r] = Σ A[ext[r], ext[q]] · x_ext[q]` for each `r` of
    /// [`GhostZone::interior_rows`], with the per-row accumulation order of
    /// [`CsrMatrix::spmv`]. Reads only the owned prefix of `x_ext`; bitwise
    /// equal for any thread count and either format.
    ///
    /// # Panics
    /// Panics if `x_ext` is shorter than [`GhostZone::ext_len`] or `y` than
    /// the owned block.
    pub fn spmv_interior(&self, pk: &ParKernels, x_ext: &[f64], y: &mut [f64]) {
        self.check_operands(self.n_owned(), x_ext, y);
        match &self.rows {
            LocalRows::Csr { raw, interior, .. } => raw.spmv_list(pk, interior, x_ext, y),
            LocalRows::Sell { interior, .. } => pk.spmv_sell(interior, x_ext, y),
        }
    }

    /// The rows of [`GhostZone::frontier_rows`]`(nrows)`, same arithmetic:
    /// running this and [`GhostZone::spmv_interior`] (in either order)
    /// reproduces [`GhostZone::spmv_prefix`] bitwise.
    ///
    /// # Panics
    /// Panics if `nrows` is not in `[n_owned(), reach_len(depth-1)]` or a
    /// buffer is too short.
    pub fn spmv_frontier(&self, pk: &ParKernels, nrows: usize, x_ext: &[f64], y: &mut [f64]) {
        self.check_operands(nrows, x_ext, y);
        let list = self.frontier_rows(nrows);
        match &self.rows {
            LocalRows::Csr { raw, .. } => raw.spmv_list(pk, list, x_ext, y),
            // The list is ascending, so the rows `< nrows` are a lane prefix.
            LocalRows::Sell { frontier, .. } => pk.spmv_sell_prefix(frontier, list.len(), x_ext, y),
        }
    }

    /// Applies the remapped operator to rows `0 .. nrows` of the extended
    /// index space: `y[p] = Σ A[ext[p], ext[q]] · x_ext[q]`, with the same
    /// per-row accumulation order as [`CsrMatrix::spmv`] — bitwise equal
    /// for any thread count and either format.
    ///
    /// # Panics
    /// Panics if `nrows` is not in `[n_owned(), reach_len(depth-1)]` or a
    /// buffer is too short.
    pub fn spmv_prefix(&self, pk: &ParKernels, nrows: usize, x_ext: &[f64], y: &mut [f64]) {
        match &self.rows {
            LocalRows::Csr { raw, .. } => {
                self.check_operands(nrows, x_ext, y);
                raw.spmv_prefix(pk, nrows, x_ext, y);
            }
            LocalRows::Sell { .. } => {
                self.spmv_interior(pk, x_ext, y);
                self.spmv_frontier(pk, nrows, x_ext, y);
            }
        }
    }

    /// The shape contract of the three kernels. The `x_ext` bound is what
    /// licenses the SELL kernels' unchecked gather (every packed column is
    /// below `ext_len()`).
    fn check_operands(&self, nrows: usize, x_ext: &[f64], y: &[f64]) {
        assert!(
            self.n_owned() <= nrows && nrows <= self.prefix[self.depth - 1],
            "GhostZone: row prefix {nrows} outside [n_owned, reach_len(depth-1)]"
        );
        assert!(x_ext.len() >= self.ext.len(), "GhostZone: x_ext too short");
        assert!(y.len() >= nrows, "GhostZone: y too short");
    }

    /// Gathers `global[ext[i]]` for the ghost entries into a buffer laid
    /// out as `[owned values, ghost values]` (a test/serial convenience;
    /// the ranked engine gathers ghosts from the exchange board instead).
    pub fn extend_from_global(&self, global: &[f64]) -> Vec<f64> {
        self.ext.iter().map(|&g| global[g]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::poisson::{poisson_1d, poisson_2d, poisson_3d};
    use SparseFormat::{Csr, Sell};

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn operand(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 13 % 19) as f64) - 9.0).collect()
    }

    #[test]
    fn depth1_matches_partition_halo() {
        let a = poisson_1d(12);
        let gz = GhostZone::new(&a, 4, 8, 1, Csr);
        assert_eq!(gz.n_owned(), 4);
        assert_eq!(gz.ghost_indices(), &[3, 8]);
        assert_eq!(gz.reach_len(0), 4);
        assert_eq!(gz.reach_len(1), 6);
    }

    #[test]
    fn reach_sets_grow_by_one_layer_on_tridiagonal() {
        let a = poisson_1d(20);
        let gz = GhostZone::new(&a, 8, 12, 3, Sell);
        // Each depth adds one row on each side.
        assert_eq!(gz.ghost_indices(), &[7, 12, 6, 13, 5, 14]);
        assert_eq!(gz.reach_len(1), 6);
        assert_eq!(gz.reach_len(2), 8);
        assert_eq!(gz.reach_len(3), 10);
    }

    #[test]
    fn local_spmv_matches_global_on_computable_rows() {
        let a = poisson_2d(8);
        let x: Vec<f64> = (0..64).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let mut y_global = vec![0.0; 64];
        a.spmv(&x, &mut y_global);
        for format in [Csr, Sell] {
            let gz = GhostZone::new(&a, 16, 40, 3, format);
            let x_ext = gz.extend_from_global(&x);
            let mut y_local = vec![0.0; gz.reach_len(2)];
            gz.spmv_prefix(&ParKernels::serial(), gz.reach_len(2), &x_ext, &mut y_local);
            for p in 0..gz.reach_len(2) {
                let g = gz.ext_indices()[p];
                // Bitwise: entry order inside each row is preserved.
                assert_eq!(y_local[p], y_global[g], "{format:?} row {g}");
            }
        }
    }

    #[test]
    fn spmv_prefix_par_is_bitwise_identical_across_thread_counts() {
        let a = poisson_3d(14);
        let n = a.nrows();
        let gz = GhostZone::new(&a, n / 4, 3 * n / 4, 3, Csr);
        let x: Vec<f64> = (0..n).map(|i| ((i * 11 % 17) as f64) - 8.0).collect();
        let x_ext = gz.extend_from_global(&x);
        for d in [1usize, 2] {
            let rows = gz.reach_len(d);
            let mut serial = vec![0.0; rows];
            gz.spmv_prefix(&ParKernels::serial(), rows, &x_ext, &mut serial);
            for t in [1usize, 2, 4, 8] {
                let pk = ParKernels::new(t);
                let mut y = vec![1.0; rows];
                gz.spmv_prefix(&pk, rows, &x_ext, &mut y);
                assert_eq!(y, serial, "depth {d}, threads {t}");
            }
        }
    }

    #[test]
    fn interior_and_frontier_partition_every_prefix() {
        let a = poisson_2d(10);
        let n = a.nrows();
        for format in [Csr, Sell] {
            let gz = GhostZone::new(&a, n / 4, 2 * n / 3, 3, format);
            for d in 0..gz.depth() {
                let rows = gz.reach_len(d);
                let mut all: Vec<usize> = gz
                    .interior_rows()
                    .iter()
                    .chain(gz.frontier_rows(rows))
                    .copied()
                    .collect();
                all.sort_unstable();
                assert_eq!(all, (0..rows).collect::<Vec<_>>(), "prefix depth {d}");
            }
            // Interior rows reference only owned columns.
            for &r in gz.interior_rows() {
                assert!(r < gz.n_owned());
            }
            // Every ghost row is frontier.
            let rows = gz.reach_len(gz.depth() - 1);
            let f = gz.frontier_rows(rows);
            for g in gz.n_owned()..rows {
                assert!(
                    f.binary_search(&g).is_ok(),
                    "ghost row {g} must be frontier"
                );
            }
        }
    }

    #[test]
    fn split_spmv_matches_prefix_spmv_bitwise() {
        let a = poisson_3d(11);
        let n = a.nrows();
        let x_global = operand(n);
        for format in [Csr, Sell] {
            let gz = GhostZone::new(&a, n / 5, 4 * n / 5, 3, format);
            let x_ext = gz.extend_from_global(&x_global);
            for d in [0usize, 1, 2] {
                let rows = gz.reach_len(d);
                let mut reference = vec![0.0; rows];
                gz.spmv_prefix(&ParKernels::serial(), rows, &x_ext, &mut reference);
                for t in [1usize, 2, 4] {
                    let pk = ParKernels::new(t);
                    let mut y = vec![f64::NAN; rows];
                    // Interior first with stale ghost operands is the overlap
                    // execution order; the result must not depend on it.
                    gz.spmv_interior(&pk, &x_ext, &mut y);
                    gz.spmv_frontier(&pk, rows, &x_ext, &mut y);
                    assert_eq!(bits(&y), bits(&reference), "{format:?} d {d} t {t}");
                }
            }
        }
    }

    /// A SELL-format zone against a CSR-format zone of the same block: all
    /// three kernels, every level's row prefix, bit for bit.
    #[test]
    fn sell_prefix_matches_csr_prefix_bitwise() {
        let a = poisson_3d(11);
        let n = a.nrows();
        let csr = GhostZone::new(&a, n / 5, 4 * n / 5, 3, Csr);
        let sell = GhostZone::new(&a, n / 5, 4 * n / 5, 3, Sell);
        assert_eq!((csr.format(), sell.format()), (Csr, Sell));
        assert_eq!(csr.ext_indices(), sell.ext_indices());
        assert_eq!(csr.interior_rows(), sell.interior_rows());
        let x_ext = csr.extend_from_global(&operand(n));
        for d in [0usize, 1, 2] {
            let rows = csr.reach_len(d);
            assert_eq!(csr.frontier_rows(rows), sell.frontier_rows(rows));
            for t in [1usize, 2, 4] {
                let pk = ParKernels::new(t);
                let run = |gz: &GhostZone| {
                    let (mut whole, mut split) = (vec![f64::NAN; rows], vec![f64::NAN; rows]);
                    gz.spmv_prefix(&pk, rows, &x_ext, &mut whole);
                    gz.spmv_interior(&pk, &x_ext, &mut split);
                    gz.spmv_frontier(&pk, rows, &x_ext, &mut split);
                    (bits(&whole), bits(&split))
                };
                assert_eq!(run(&sell), run(&csr), "depth {d}, threads {t}");
            }
        }
    }

    /// A symmetric random-sparsity matrix (diagonal plus `per_row` random
    /// off-diagonal pairs per row): BFS levels with no stencil regularity.
    fn random_sparsity(n: usize, per_row: usize, seed: u64) -> CsrMatrix {
        let mut rng = crate::rng::Rng64::seed_from_u64(seed);
        let mut coo = crate::CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0 + per_row as f64);
            for _ in 0..per_row {
                let j = rng.below_inclusive(n - 1);
                if j != i {
                    coo.push_sym(i, j, -rng.range_f64(0.1, 1.0));
                }
            }
        }
        coo.to_csr()
    }

    /// The depth-prefix property the engine relies on: a depth-`D` zone,
    /// used at any depth `d ≤ D`, is indistinguishable from a fresh
    /// depth-`d` zone — structure and kernel output bits — even though its
    /// extended buffers are longer and its SELL slices are cut elsewhere.
    #[test]
    fn deep_zone_is_every_shallower_zone_on_its_prefix() {
        let matrices = [
            ("poisson_2d", poisson_2d(12)),
            ("poisson_3d", poisson_3d(7)),
            ("random", random_sparsity(300, 1, 11)),
        ];
        for (name, a) in &matrices {
            let n = a.nrows();
            let x_global = operand(n);
            for (lo, hi) in [(0, n / 3), (n / 3, 2 * n / 3), (2 * n / 3, n)] {
                for format in [Csr, Sell] {
                    for big_d in [2usize, 3, 5] {
                        let deep = GhostZone::new(a, lo, hi, big_d, format);
                        let x_deep = deep.extend_from_global(&x_global);
                        for d in 1..=big_d {
                            let fresh = GhostZone::new(a, lo, hi, d, format);
                            let what = format!("{name} [{lo},{hi}) {format:?} D={big_d} d={d}");
                            let reach = fresh.ext_len();
                            assert_eq!(deep.reach_len(d), reach, "{what}");
                            assert_eq!(&deep.ext_indices()[..reach], fresh.ext_indices());
                            for k in 0..=d {
                                assert_eq!(deep.reach_len(k), fresh.reach_len(k), "{what}");
                            }
                            assert_eq!(deep.interior_rows(), fresh.interior_rows(), "{what}");
                            // Poison what a depth-d user never fills.
                            let mut x_cut = x_deep.clone();
                            x_cut[reach..].fill(f64::NAN);
                            let x_fresh = &x_deep[..reach];
                            for k in 0..d {
                                let rows = fresh.reach_len(k);
                                assert_eq!(deep.frontier_rows(rows), fresh.frontier_rows(rows));
                                for t in [1usize, 2, 4] {
                                    let pk = ParKernels::new(t);
                                    let run = |gz: &GhostZone, x: &[f64]| {
                                        let mut whole = vec![f64::NAN; rows];
                                        let mut split = vec![f64::NAN; rows];
                                        gz.spmv_prefix(&pk, rows, x, &mut whole);
                                        gz.spmv_interior(&pk, x, &mut split);
                                        gz.spmv_frontier(&pk, rows, x, &mut split);
                                        (bits(&whole), bits(&split))
                                    };
                                    assert_eq!(
                                        run(&deep, &x_cut),
                                        run(&fresh, x_fresh),
                                        "{what} level {k} threads {t}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn boundary_block_has_one_sided_ghosts() {
        let a = poisson_1d(10);
        let gz = GhostZone::new(&a, 0, 3, 2, Csr);
        assert_eq!(gz.ghost_indices(), &[3, 4]);
    }

    #[test]
    fn full_matrix_block_has_no_ghosts() {
        let a = poisson_2d(5);
        let gz = GhostZone::new(&a, 0, 25, 4, Sell);
        assert!(gz.ghost_indices().is_empty());
        assert_eq!(gz.ext_len(), 25);
    }

    #[test]
    #[should_panic(expected = "depth must be at least 1")]
    fn rejects_zero_depth() {
        let a = poisson_1d(4);
        GhostZone::new(&a, 0, 2, 0, Csr);
    }
}
