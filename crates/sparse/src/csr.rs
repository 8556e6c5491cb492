//! Compressed sparse row (CSR) matrix.
//!
//! CSR is the assembly format for all system matrices in this workspace,
//! and its SpMV the reference every other kernel reproduces bit for bit; a
//! solve's one-column products run on the matrix's cached
//! [`CsrMatrix::sell`] form. The solvers only ever need `y = A·x` (plus row
//! access for the Jacobi/SSOR preconditioners), so the interface is
//! deliberately small; the
//! SPD-oriented helpers (symmetry check, Gershgorin bounds, diagonal
//! extraction) support the preconditioners and the basis-parameter
//! estimation.

use crate::coo::CooMatrix;
use crate::ghost::GhostZone;
use crate::multivector::MultiVector;
use crate::sell::SellMatrix;
use crate::split::RowSplit;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Row-block granularity of the SpMM kernels: one block's CSR entries are
/// streamed once and reused from cache for every right-hand-side column,
/// which is the whole point of batching — the matrix traffic is paid once
/// per block instead of once per column.
pub(crate) const SPMM_ROW_BLOCK: usize = 128;

/// Row-panel granularity of the windowed SpMM operand pack (see
/// [`CsrMatrix::spmm_windowed`]). For banded matrices each panel's column
/// reach is `panel + 2·bandwidth` rows, so the interleaved pack of one
/// panel fits in cache instead of allocating (and streaming) an `n·k`
/// scratch copy of the whole operand.
pub(crate) const SPMM_PANEL_ROWS: usize = 8192;

/// Validates the CSR invariants in debug builds only — the single gate
/// every trusted ("unchecked") construction path goes through, so hot
/// paths cannot drift apart in which invariants they skip. Release builds
/// compile this to nothing; broken invariants there surface as index
/// panics or wrong products, never memory unsafety (access is
/// bounds-checked, and the SpMM kernels' unchecked reads verify the
/// invariants once per matrix first).
pub(crate) fn debug_assert_csr_invariants(
    nrows: usize,
    ncols: usize,
    row_ptr: &[usize],
    col_idx: &[usize],
    values: &[f64],
) {
    if cfg!(debug_assertions) {
        validate_raw(nrows, ncols, row_ptr, col_idx, values);
    }
}

/// Validates the CSR invariants, panicking on the first violation.
fn validate_raw(nrows: usize, ncols: usize, row_ptr: &[usize], col_idx: &[usize], values: &[f64]) {
    assert_eq!(
        row_ptr.len(),
        nrows + 1,
        "CSR: row_ptr length must be nrows+1"
    );
    assert_eq!(row_ptr[0], 0, "CSR: row_ptr must start at 0");
    assert_eq!(col_idx.len(), values.len(), "CSR: col/val length mismatch");
    assert_eq!(
        *row_ptr.last().unwrap(),
        col_idx.len(),
        "CSR: row_ptr end mismatch"
    );
    for r in 0..nrows {
        assert!(
            row_ptr[r] <= row_ptr[r + 1],
            "CSR: row_ptr must be monotone"
        );
        let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
        for w in row.windows(2) {
            assert!(
                w[0] < w[1],
                "CSR: columns must be strictly increasing in row {r}"
            );
        }
        if let Some(&last) = row.last() {
            assert!(last < ncols, "CSR: column index out of bounds in row {r}");
        }
    }
}

/// A sparse matrix in compressed sparse row format.
///
/// Invariants (enforced by [`CsrMatrix::from_raw`]):
/// * `row_ptr.len() == nrows + 1`, `row_ptr[0] == 0`, monotone non-decreasing;
/// * `col_idx.len() == values.len() == row_ptr[nrows]`;
/// * column indices within each row are strictly increasing and `< ncols`.
#[derive(Debug)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
    derived: Derived,
}

/// What a [`CsrMatrix`] computes lazily from its arrays and keeps, and the
/// name it is known by while they stay as they are: empty in a new or
/// cloned matrix, emptied as a whole by an in-place edit, refilled on
/// demand.
#[derive(Debug, Default)]
struct Derived {
    /// Lazily computed nnz-balanced row partition for the threaded SpMV,
    /// keyed by chunk count (see [`CsrMatrix::row_schedule`]).
    schedule: Mutex<Option<(usize, Arc<Vec<usize>>)>>,
    /// Lazily computed interior/frontier row splits, keyed by owned row
    /// range (see [`CsrMatrix::row_split`]); an insert evicts the ranges it
    /// overlaps, so this holds one block-row partition's splits.
    splits: SplitCache,
    /// The rank-local operators built so far (see
    /// [`CsrMatrix::ghost_zone`]), each carrying its own range and depth;
    /// one partition's zones, by the same eviction.
    zones: Mutex<Vec<Arc<GhostZone>>>,
    /// Lazily converted SELL-C-σ sibling of this matrix (see
    /// [`CsrMatrix::sell`]), built on first request and shared.
    sell: Mutex<Option<Arc<SellMatrix>>>,
    /// One-time verification of every CSR invariant, backing the
    /// unchecked reads of the SpMM group kernels (see
    /// [`CsrMatrix::spmm_rows_into`]).
    invariants_checked: AtomicBool,
    /// Lazily computed per-panel column reach `[lo, hi)` for the windowed
    /// SpMM pack (see [`CsrMatrix::panel_reach`]): panel `p` covers rows
    /// `[p·SPMM_PANEL_ROWS, (p+1)·SPMM_PANEL_ROWS)` and touches only
    /// operand rows inside its reach.
    panel_reach: ReachCache,
    /// This object's name while its arrays stay as they are (see
    /// [`CsrMatrix::instance_id`]), drawn on first request.
    instance_id: OnceLock<u64>,
    /// The hash of the arrays (see [`CsrMatrix::content_hash`]).
    content_hash: OnceLock<u64>,
}

/// The next [`CsrMatrix::instance_id`]; ids are never handed out twice.
static NEXT_INSTANCE_ID: AtomicU64 = AtomicU64::new(1);

/// Lazily filled per-panel column-reach cache (see
/// [`CsrMatrix::panel_reach`]).
type ReachCache = Mutex<Option<Arc<Vec<(usize, usize)>>>>;

/// Cache of [`RowSplit`]s keyed by owned row range.
type SplitCache = Mutex<Vec<((usize, usize), Arc<RowSplit>)>>;

/// Whether a cache entry for row range `a` must make way for one for `b`:
/// the ranges share a row (or are the same empty range). Ranges of one
/// block-row partition never do, so a range-keyed cache that evicts on
/// this holds exactly the last partition asked for — no capacity to tune.
fn ranges_overlap(a: (usize, usize), b: (usize, usize)) -> bool {
    a == b || (a.0 < b.1 && b.0 < a.1)
}

impl Clone for CsrMatrix {
    fn clone(&self) -> Self {
        // The clone recomputes its derived data on demand.
        Self::assemble(
            self.nrows,
            self.ncols,
            self.row_ptr.clone(),
            self.col_idx.clone(),
            self.values.clone(),
        )
    }
}

impl CsrMatrix {
    fn assemble(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        CsrMatrix {
            nrows,
            ncols,
            row_ptr,
            col_idx,
            values,
            derived: Derived::default(),
        }
    }

    /// Builds a CSR matrix from raw arrays, validating the invariants.
    ///
    /// # Panics
    /// Panics if any CSR invariant is violated.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        validate_raw(nrows, ncols, &row_ptr, &col_idx, &values);
        Self::assemble(nrows, ncols, row_ptr, col_idx, values)
    }

    /// Builds a CSR matrix from raw arrays that are already known to satisfy
    /// the invariants, validating only under `debug_assertions`.
    ///
    /// Use on hot construction paths (COO compaction, ghost-zone and
    /// partition extraction) where the arrays come out of an algorithm that
    /// guarantees them; keep [`CsrMatrix::from_raw`] for I/O paths. Broken
    /// invariants in release builds lead to index panics or wrong products,
    /// never to memory unsafety (access is bounds-checked, and the SpMM
    /// kernels' unchecked reads verify the invariants once per matrix
    /// first).
    pub fn from_raw_unchecked(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_csr_invariants(nrows, ncols, &row_ptr, &col_idx, &values);
        Self::assemble(nrows, ncols, row_ptr, col_idx, values)
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self::assemble(n, n, (0..=n).collect(), (0..n).collect(), vec![1.0; n])
    }

    /// A diagonal matrix with the given diagonal entries.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        Self::assemble(n, n, (0..=n).collect(), (0..n).collect(), diag.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Raw row pointer array (length `nrows + 1`).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Raw column index array.
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Raw value array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The column indices and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Entry `(i, j)`, or `0.0` if not stored. O(log nnz(row i)).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Sparse matrix-vector product `y ← A·x`.
    ///
    /// # Panics
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.nrows, "spmv: y length mismatch");
        for r in 0..self.nrows {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            y[r] = acc;
        }
    }

    /// SpMV restricted to a contiguous row range `[row_begin, row_end)`,
    /// writing into `y[row_begin..row_end]`. This is the per-rank kernel of
    /// the block-row-distributed executor in `spcg-dist`.
    pub fn spmv_rows(&self, row_begin: usize, row_end: usize, x: &[f64], y: &mut [f64]) {
        assert!(
            row_begin <= row_end && row_end <= self.nrows,
            "spmv_rows: bad range"
        );
        assert_eq!(x.len(), self.ncols, "spmv_rows: x length mismatch");
        for r in row_begin..row_end {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            y[r - row_begin] = acc;
        }
    }

    /// Sparse matrix–multivector product `Y ← A·X` over k right-hand-side
    /// columns. Each `SPMM_ROW_BLOCK`-row block of the matrix is
    /// streamed once and serves every column while its entries are hot in
    /// cache; per column the per-row accumulation order is identical to
    /// [`CsrMatrix::spmv`], so column `j` of the result is **bitwise
    /// equal** to `spmv(x.col(j))`.
    ///
    /// # Panics
    /// Panics on any dimension mismatch.
    pub fn spmm(&self, x: &MultiVector, y: &mut MultiVector) {
        assert_eq!(x.n(), self.ncols, "spmm: x row mismatch");
        assert_eq!(y.n(), self.nrows, "spmm: y row mismatch");
        assert_eq!(x.k(), y.k(), "spmm: column count mismatch");
        let data = y.data_mut();
        self.spmm_rows_into(0, self.nrows, x, &mut |i, v| data[i] = v);
    }

    /// Runs `f` with `x` repacked row-major (element `i·k + j` holds
    /// `x.col(j)[i]`) in a reused thread-local scratch buffer. The
    /// interleaved layout puts the `k` operand values of one matrix
    /// column index on one or two cache lines, which is what lets the
    /// grouped SpMM kernel issue contiguous vector loads instead of `k`
    /// scattered gathers.
    pub(crate) fn with_interleaved<R>(x: &MultiVector, f: impl FnOnce(&[f64]) -> R) -> R {
        thread_local! {
            static SCRATCH: std::cell::RefCell<Vec<f64>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        SCRATCH.with(|cell| {
            let mut buf = cell.borrow_mut();
            let (n, k) = (x.n(), x.k());
            buf.clear();
            buf.resize(n * k, 0.0);
            let cols: Vec<&[f64]> = (0..k).map(|j| x.col(j)).collect();
            // Row-outer order: writes are sequential and the reads are k
            // prefetch-friendly unit-stride streams.
            for (i, row) in buf.chunks_exact_mut(k).enumerate() {
                for (dst, col) in row.iter_mut().zip(&cols) {
                    // SAFETY: every column has exactly `n` elements and
                    // `chunks_exact_mut(k)` over `n·k` yields `n` rows, so
                    // `i < n`.
                    *dst = unsafe { *col.get_unchecked(i) };
                }
            }
            f(&buf)
        })
    }

    /// The SpMM row-range kernel behind [`CsrMatrix::spmm`] and the
    /// threaded [`crate::ParKernels::spmm`]: rows `[row_begin, row_end)`
    /// across all columns of `x`, handing each result to
    /// `write(j·nrows + r, acc)` (column-major flat index with leading
    /// dimension `nrows`). Row-blocked so the block's entries serve all
    /// columns from cache, and column-grouped ([`spmm_rows_group`]) so
    /// the scalar gather loop carries several independent accumulator
    /// chains per matrix entry; per (row, column) the accumulation is
    /// the CSR entry order of [`CsrMatrix::spmv`].
    pub(crate) fn spmm_rows_into<W: FnMut(usize, f64)>(
        &self,
        row_begin: usize,
        row_end: usize,
        x: &MultiVector,
        write: &mut W,
    ) {
        let k = x.k();
        if k == 1 {
            // Width 1 is exactly SpMV: the fully bounds-checked scalar
            // loop, with no verification pass to amortize.
            let xj = x.col(0);
            for r in row_begin..row_end {
                let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
                let mut acc = 0.0;
                for e in lo..hi {
                    acc += self.values[e] * xj[self.col_idx[e]];
                }
                write(r, acc);
            }
            return;
        }
        self.spmm_windowed(row_begin, row_end, x, write);
    }

    /// The SpMM row-range kernel over a row-major (interleaved) operand,
    /// as produced by [`CsrMatrix::with_interleaved`]: `xr[i·k + j]` is
    /// row `i` of column `j`. Threaded callers repack once and hand every
    /// chunk the same buffer. Results go to `write(j·nrows + r, acc)`
    /// exactly like [`CsrMatrix::spmm_rows_into`].
    pub(crate) fn spmm_rows_interleaved<W: FnMut(usize, f64)>(
        &self,
        row_begin: usize,
        row_end: usize,
        xr: &[f64],
        k: usize,
        write: &mut W,
    ) {
        assert!(xr.len() >= self.ncols * k, "spmm: operand too short");
        self.ensure_invariants();
        let simd = crate::sell::simd_ok();
        self.spmm_ladder(simd, row_begin, row_end, xr, k, 0, write);
    }

    /// The column-group ladder of [`CsrMatrix::spmm_rows_interleaved`],
    /// on the AVX2 group kernels when `simd` (from `simd_ok()`) says so.
    /// `off` is the flat-index base of the operand window: entry column
    /// `c` reads `xr[c·k + j − off]`, so a full pack passes `off = 0` and
    /// the windowed pack passes `reach.lo · k` with `xr` holding only rows
    /// `[reach.lo, reach.hi)`. Callers have run
    /// [`CsrMatrix::ensure_invariants`] and hand an `xr` that covers every
    /// column the rows reference, rebased by `off`.
    #[allow(clippy::too_many_arguments)]
    fn spmm_ladder<W: FnMut(usize, f64)>(
        &self,
        simd: bool,
        row_begin: usize,
        row_end: usize,
        xr: &[f64],
        k: usize,
        off: usize,
        write: &mut W,
    ) {
        assert!(
            row_begin <= row_end && row_end <= self.nrows,
            "spmm: bad row range"
        );
        let mut blk = row_begin;
        while blk < row_end {
            let blk_end = (blk + SPMM_ROW_BLOCK).min(row_end);
            let mut j = 0;
            // Eight is the widest rung: a 16-wide group streams 128 bytes
            // of operand per matrix entry and measures ~25% slower than
            // two 8-wide passes over the (cached) row block.
            while j + 8 <= k {
                self.group_dispatch::<8, W>(simd, blk, blk_end, xr, k, j, off, write);
                j += 8;
            }
            if j + 4 <= k {
                self.group_dispatch::<4, W>(simd, blk, blk_end, xr, k, j, off, write);
                j += 4;
            }
            if j + 2 <= k {
                self.spmm_rows_group::<2, W>(blk, blk_end, xr, k, j, off, write);
                j += 2;
            }
            if j < k {
                self.spmm_rows_group::<1, W>(blk, blk_end, xr, k, j, off, write);
            }
            blk = blk_end;
        }
    }

    /// Routes one column group to the AVX2 kernel when the CPU has it,
    /// else to the scalar group. Both compute the identical mul-then-add
    /// chain per lane, so the choice never changes a single bit of the
    /// result — it only changes how many lanes one instruction carries.
    #[allow(unused_variables)]
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn group_dispatch<const G: usize, W: FnMut(usize, f64)>(
        &self,
        simd: bool,
        row_begin: usize,
        row_end: usize,
        xr: &[f64],
        k: usize,
        j0: usize,
        off: usize,
        write: &mut W,
    ) {
        #[cfg(target_arch = "x86_64")]
        if simd {
            // SAFETY: `simd` is `simd_ok()`, so AVX2 is present; the
            // ladder calls with `G ∈ {4, 8}`, `j0 + G ≤ k` and
            // `row_end ≤ nrows` (asserted), and its callers' contract is
            // the operand half of the kernel's.
            unsafe { self.spmm_rows_group_avx2::<G, W>(row_begin, row_end, xr, k, j0, off, write) };
            return;
        }
        self.spmm_rows_group::<G, W>(row_begin, row_end, xr, k, j0, off, write);
    }

    /// One group of `G` columns over a row range of the interleaved
    /// operand. Per matrix entry the group's `G` operand values are
    /// contiguous at `xr[c·k + j0 ..]`, so the inner loop compiles to a
    /// couple of vector loads and lane-parallel multiply/adds feeding `G`
    /// *independent* accumulator chains — on one core this, not cache
    /// reuse, is where batched SpMM beats `G` separate SpMV calls: the
    /// single-vector kernel is latency-bound on its one `acc += v·x[c]`
    /// recurrence. Lane `g`'s chain is element-for-element the
    /// [`CsrMatrix::spmv`] order (one multiply, one add per entry, CSR
    /// entry order), so results stay bitwise equal per column.
    ///
    /// Callers must have run [`CsrMatrix::ensure_invariants`] and
    /// guaranteed that `xr` covers every operand index the row range can
    /// touch after the `off` rebase (`xr.len() ≥ reach·k − off` for a
    /// windowed pack, `ncols·k` for a full one), with `j0 + G ≤ k`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn spmm_rows_group<const G: usize, W: FnMut(usize, f64)>(
        &self,
        row_begin: usize,
        row_end: usize,
        xr: &[f64],
        k: usize,
        j0: usize,
        off: usize,
        write: &mut W,
    ) {
        let ld = self.nrows;
        for r in row_begin..row_end {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            let mut acc = [0.0f64; G];
            for e in lo..hi {
                let v = self.values[e];
                let c = self.col_idx[e];
                let base = c * k + j0 - off;
                debug_assert!(c * k + j0 >= off);
                debug_assert!(base + G <= xr.len());
                for g in 0..G {
                    // SAFETY: `c` is a column of this row, inside the
                    // window `xr` holds (the caller's contract; the
                    // invariants `ensure_invariants` checked make the
                    // window's reach exact), and `g < G ≤ k − j0`.
                    acc[g] += v * unsafe { *xr.get_unchecked(base + g) };
                }
            }
            for g in 0..G {
                write((j0 + g) * ld + r, acc[g]);
            }
        }
    }

    /// AVX2 instance of [`CsrMatrix::spmm_rows_group`]: per matrix entry,
    /// one broadcast of the value and `G/4` contiguous 256-bit loads of
    /// the interleaved operand feed `G/4` packed multiply/adds — no
    /// gathers, because the interleaving already placed the group's
    /// operand values side by side. Lane `g` still performs exactly one
    /// multiply and one add per entry in CSR entry order, so the result
    /// is bitwise identical to the scalar group (packed `mul`/`add` are
    /// lane-wise IEEE operations; no FMA contraction).
    ///
    /// # Safety
    /// The caller guarantees:
    /// * AVX2 is available and `G ∈ {4, 8, 16}` (the latter asserted at
    ///   compile time);
    /// * [`CsrMatrix::ensure_invariants`] has passed on this matrix, so
    ///   `row_ptr` is monotone with `row_ptr[nrows] = nnz` and every row's
    ///   columns are strictly increasing and `< ncols`;
    /// * `row_begin ≤ row_end ≤ nrows` and `j0 + G ≤ k`;
    /// * every column `c` of the rows in range has `off ≤ c·k + j0` and
    ///   `c·k + j0 + G − off ≤ xr.len()`: a full pack (`off = 0`,
    ///   `xr.len() ≥ ncols·k`), or a window over the rows' column reach.
    #[cfg(target_arch = "x86_64")]
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    unsafe fn spmm_rows_group_avx2<const G: usize, W: FnMut(usize, f64)>(
        &self,
        row_begin: usize,
        row_end: usize,
        xr: &[f64],
        k: usize,
        j0: usize,
        off: usize,
        write: &mut W,
    ) {
        use std::arch::x86_64::*;
        const { assert!(G == 4 || G == 8 || G == 16) };
        let nv = G / 4;
        let ld = self.nrows;
        let xp = xr.as_ptr();
        for r in row_begin..row_end {
            // SAFETY: `r < row_end ≤ nrows` and `row_ptr` has `nrows + 1`
            // entries.
            let lo = *self.row_ptr.get_unchecked(r);
            let hi = *self.row_ptr.get_unchecked(r + 1);
            // Up to four 4-lane accumulators; unused slots fold away once
            // the `nv` loops unroll.
            let mut acc = [_mm256_setzero_pd(); 4];
            for e in lo..hi {
                // SAFETY: `lo ≤ e < hi ≤ row_ptr[nrows] = nnz`, the length
                // of `values` and `col_idx` (the checked invariants).
                let v = _mm256_set1_pd(*self.values.get_unchecked(e));
                let base = *self.col_idx.get_unchecked(e) * k + j0 - off;
                for q in 0..nv {
                    // SAFETY: `base + 4q + 4 ≤ base + G ≤ xr.len()` by the
                    // operand clause of the contract.
                    let x = _mm256_loadu_pd(xp.add(base + 4 * q));
                    acc[q] = _mm256_add_pd(acc[q], _mm256_mul_pd(v, x));
                }
            }
            let mut out = [0.0f64; G];
            for q in 0..nv {
                // SAFETY: `4q + 4 ≤ G = out.len()`.
                _mm256_storeu_pd(out.as_mut_ptr().add(4 * q), acc[q]);
            }
            for g in 0..G {
                write((j0 + g) * ld + r, out[g]);
            }
        }
    }

    /// Per-panel operand reach `[lo, hi)` of the [`SPMM_PANEL_ROWS`] row
    /// panels, computed once per matrix and cached. Column indices within
    /// a CSR row are sorted, so each row contributes just its first and
    /// last entry; an empty panel reports `(0, 0)`.
    fn panel_reach(&self) -> Arc<Vec<(usize, usize)>> {
        let mut guard = self.derived.panel_reach.lock().unwrap();
        if let Some(reach) = guard.as_ref() {
            return Arc::clone(reach);
        }
        let npanels = self.nrows.div_ceil(SPMM_PANEL_ROWS);
        let mut reach = Vec::with_capacity(npanels);
        for p in 0..npanels {
            let r0 = p * SPMM_PANEL_ROWS;
            let r1 = ((p + 1) * SPMM_PANEL_ROWS).min(self.nrows);
            let (mut lo, mut hi) = (self.ncols, 0usize);
            for r in r0..r1 {
                let (s, e) = (self.row_ptr[r], self.row_ptr[r + 1]);
                if s < e {
                    lo = lo.min(self.col_idx[s]);
                    hi = hi.max(self.col_idx[e - 1] + 1);
                }
            }
            reach.push(if lo < hi { (lo, hi) } else { (0, 0) });
        }
        let reach = Arc::new(reach);
        *guard = Some(Arc::clone(&reach));
        reach
    }

    /// The windowed serial SpMM driver: rows `[row_begin, row_end)` across
    /// all `k > 1` columns of `x`, packing the operand one row panel at a
    /// time instead of all at once. Each panel's interleaved pack covers
    /// only its column reach — for a banded matrix a slab of
    /// `panel + 2·bandwidth` rows that stays cache-resident — so the
    /// operand is read from memory once and the `n·k` scratch copy (which
    /// both inflated the resident set and doubled the operand traffic of
    /// the full pack) never exists. On matrices whose panel reaches would
    /// repack more than twice the operand (irregular structure), one full
    /// pack is used instead. The arithmetic per (row, column) is the
    /// ladder's regardless of windowing — packing changes addressing, not
    /// values — so results stay bitwise equal to [`CsrMatrix::spmv`] per
    /// column.
    pub(crate) fn spmm_windowed<W: FnMut(usize, f64)>(
        &self,
        row_begin: usize,
        row_end: usize,
        x: &MultiVector,
        write: &mut W,
    ) {
        let k = x.k();
        assert!(x.n() >= self.ncols, "spmm: x row mismatch");
        self.ensure_invariants();
        let simd = crate::sell::simd_ok();
        let reach = self.panel_reach();
        let repacked: usize = reach.iter().map(|&(lo, hi)| hi - lo).sum();
        let full = repacked > 2 * self.ncols;
        thread_local! {
            static SLAB: std::cell::RefCell<Vec<f64>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        SLAB.with(|cell| {
            let mut buf = cell.borrow_mut();
            let cols: Vec<&[f64]> = (0..k).map(|j| x.col(j)).collect();
            let mut r = row_begin;
            while r < row_end {
                let (panel_end, clo, chi) = if full {
                    (row_end, 0, self.ncols)
                } else {
                    let p = r / SPMM_PANEL_ROWS;
                    let end = ((p + 1) * SPMM_PANEL_ROWS).min(row_end);
                    (end, reach[p].0, reach[p].1)
                };
                let w = chi - clo;
                buf.clear();
                buf.resize(w * k, 0.0);
                for (i, row) in buf.chunks_exact_mut(k).enumerate() {
                    for (dst, col) in row.iter_mut().zip(&cols) {
                        // SAFETY: `clo + i < chi ≤ ncols ≤ x.n() =
                        // col.len()` (asserted above).
                        *dst = unsafe { *col.get_unchecked(clo + i) };
                    }
                }
                // The panel's rows reference columns in `[clo, chi)` only:
                // their first and last entries bound them (columns ascend).
                self.spmm_ladder(simd, r, panel_end, &buf, k, clo * k, write);
                r = panel_end;
            }
        });
    }

    /// One-time verification of every CSR invariant (`validate_raw`),
    /// backing the unchecked reads of the SpMM group kernels: row extents,
    /// columns `< ncols`, and the ascending columns that make a panel's
    /// reach exact. [`CsrMatrix::from_raw`] already guarantees them; this
    /// pass exists so a matrix assembled through
    /// [`CsrMatrix::from_raw_unchecked`] with broken invariants panics on
    /// its first SpMM instead of reading out of bounds. Verified once per
    /// matrix and remembered (relaxed ordering: a racing duplicate check
    /// is harmless).
    fn ensure_invariants(&self) {
        if self.derived.invariants_checked.load(Ordering::Relaxed) {
            return;
        }
        let (rows, cols, vals) = (&self.row_ptr, &self.col_idx, &self.values);
        validate_raw(self.nrows, self.ncols, rows, cols, vals);
        self.derived
            .invariants_checked
            .store(true, Ordering::Relaxed);
    }

    /// Copies the diagonal into a vector; missing diagonal entries become 0.
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Returns the transpose as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        let mut coo = CooMatrix::with_capacity(self.ncols, self.nrows, self.nnz());
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                coo.push(c, r, v);
            }
        }
        coo.to_csr()
    }

    /// Checks structural and numerical symmetry up to absolute tolerance.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if (self.get(c, r) - v).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Gershgorin bounds `(lo, hi)` on the spectrum: every eigenvalue lies in
    /// `[min_i (a_ii − R_i), max_i (a_ii + R_i)]` with `R_i` the off-diagonal
    /// row sum. For SPD matrices `max(lo, 0)` is a usable lower bound.
    pub fn gershgorin_bounds(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            let mut diag = 0.0;
            let mut radius = 0.0;
            for (&c, &v) in cols.iter().zip(vals) {
                if c == r {
                    diag = v;
                } else {
                    radius += v.abs();
                }
            }
            lo = lo.min(diag - radius);
            hi = hi.max(diag + radius);
        }
        if self.nrows == 0 {
            (0.0, 0.0)
        } else {
            (lo, hi)
        }
    }

    /// Frobenius norm of the matrix.
    pub fn frobenius_norm(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Infinity norm (max absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.nrows)
            .map(|r| self.row(r).1.iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// Scales the matrix in place by `a`.
    pub fn scale(&mut self, a: f64) {
        for v in &mut self.values {
            *v *= a;
        }
        self.edited();
    }

    /// Forgets everything derived after an in-place edit: some of it copies
    /// `values`, and all of it is cheap to refill.
    fn edited(&mut self) {
        self.derived = Derived::default();
    }

    /// A process-wide name for this object *and its current contents*:
    /// drawn from a counter on first request, never handed out twice, and
    /// replaced by a fresh one after an in-place edit; a clone gets its
    /// own. Two equal ids therefore mean the same arrays, exactly — no
    /// hashing, no collision — which is what lets a proc-backend world
    /// decide for free whether its workers already hold this matrix.
    pub fn instance_id(&self) -> u64 {
        *self
            .derived
            .instance_id
            .get_or_init(|| NEXT_INSTANCE_ID.fetch_add(1, Ordering::Relaxed))
    }

    /// A 64-bit [`Fnv`](crate::hash::Fnv) hash of the dimensions and the
    /// three arrays, computed on first request and kept until an in-place
    /// edit; a clone recomputes it (to the same value). Equal matrices hash
    /// equal wherever they live; unequal ones can, rarely, collide.
    pub fn content_hash(&self) -> u64 {
        *self.derived.content_hash.get_or_init(|| self.hash_arrays())
    }

    /// [`CsrMatrix::content_hash`], uncached.
    fn hash_arrays(&self) -> u64 {
        let mut h = crate::hash::Fnv::new();
        h.usize(self.nrows);
        h.usize(self.ncols);
        h.usizes(&self.row_ptr);
        h.usizes(&self.col_idx);
        h.f64s(&self.values);
        h.finish()
    }

    /// Adds `shift` to every diagonal entry, assuming the diagonal is fully
    /// stored (true for all generators in this workspace).
    ///
    /// # Panics
    /// Panics if some row has no stored diagonal entry.
    pub fn shift_diagonal(&mut self, shift: f64) {
        for r in 0..self.nrows {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            let pos = self.col_idx[lo..hi]
                .binary_search(&r)
                .unwrap_or_else(|_| panic!("shift_diagonal: row {r} has no diagonal entry"));
            self.values[lo + pos] += shift;
        }
        self.edited();
    }

    /// Number of FLOPs of one SpMV with this matrix (`2·nnz`), used by the
    /// instrumentation layer.
    pub fn spmv_flops(&self) -> u64 {
        2 * self.nnz() as u64
    }

    /// An nnz-balanced partition of the rows into `nchunks` contiguous
    /// chunks: returns boundaries `b` of length `nchunks + 1` with
    /// `b[0] == 0`, `b[nchunks] == nrows`, and chunk `c` owning rows
    /// `b[c]..b[c+1]`. Cut points sit where the nonzero prefix count crosses
    /// `c·nnz/nchunks`, so every chunk carries roughly equal SpMV work even
    /// on matrices with skewed row lengths.
    ///
    /// The schedule is cached on the matrix (per chunk count), so repeated
    /// threaded SpMVs pay the binary searches once.
    pub fn row_schedule(&self, nchunks: usize) -> Arc<Vec<usize>> {
        let nchunks = nchunks.max(1);
        let mut cache = self.derived.schedule.lock().unwrap();
        if let Some((c, bounds)) = cache.as_ref() {
            if *c == nchunks {
                return Arc::clone(bounds);
            }
        }
        let bounds = Arc::new(nnz_balanced_bounds(&self.row_ptr, self.nrows, nchunks));
        *cache = Some((nchunks, Arc::clone(&bounds)));
        bounds
    }

    /// The interior/frontier classification of rows `[lo, hi)` — which of
    /// them reference only columns inside the range (computable before a
    /// halo exchange completes) and which touch remote columns. Cached per
    /// range, so every ghost zone built for one rank's range shares a single
    /// scan; inserting a range evicts the cached ranges it overlaps.
    ///
    /// # Panics
    /// Panics if the range is invalid.
    pub fn row_split(&self, lo: usize, hi: usize) -> Arc<RowSplit> {
        let mut cache = self.derived.splits.lock().unwrap();
        if let Some((_, split)) = cache.iter().find(|(range, _)| *range == (lo, hi)) {
            return Arc::clone(split);
        }
        let split = Arc::new(RowSplit::new(self, lo, hi));
        cache.retain(|(range, _)| !ranges_overlap(*range, (lo, hi)));
        cache.push(((lo, hi), Arc::clone(&split)));
        split
    }

    /// The rank-local operator of rows `[lo, hi)`: a [`GhostZone`] at
    /// least `depth` deep — by the zone's depth-prefix property a deeper one
    /// serves every shallower request, so the cached zone of this range is
    /// returned whenever it is deep enough. Otherwise one is built (outside
    /// the lock: the ranks of a cold world build theirs concurrently),
    /// every cached zone whose range overlaps `[lo, hi)` is evicted — the
    /// same range at a shallower depth, or another partition's ranges — and
    /// the new one is kept. A matrix that has served a ranked solve thus
    /// pins one partition's zones until it is dropped, cloned (a clone
    /// starts empty) or asked for another partition.
    ///
    /// # Panics
    /// Panics if `depth == 0`, the range is invalid, or the matrix is not
    /// square.
    pub fn ghost_zone(&self, lo: usize, hi: usize, depth: usize) -> Arc<GhostZone> {
        let cached = |cache: &[Arc<GhostZone>]| {
            let serves = |z: &&Arc<GhostZone>| z.range() == (lo, hi) && z.depth() >= depth;
            cache.iter().find(serves).cloned()
        };
        if let Some(zone) = cached(&self.derived.zones.lock().expect("zone cache poisoned")) {
            return zone;
        }
        let zone = Arc::new(GhostZone::new(self, lo, hi, depth));
        let mut cache = self.derived.zones.lock().expect("zone cache poisoned");
        // Another thread may have built the same zone meanwhile.
        if let Some(zone) = cached(&cache) {
            return zone;
        }
        cache.retain(|z| !ranges_overlap(z.range(), (lo, hi)));
        cache.push(Arc::clone(&zone));
        zone
    }

    /// This matrix converted to SELL-C-σ layout (see
    /// [`SellMatrix`]), built on first request and cached — every
    /// executor of a solve shares the one conversion.
    pub fn sell(&self) -> Arc<SellMatrix> {
        let mut cache = self.derived.sell.lock().unwrap();
        if let Some(s) = cache.as_ref() {
            return Arc::clone(s);
        }
        let s = Arc::new(SellMatrix::from_csr(self));
        *cache = Some(Arc::clone(&s));
        s
    }
}

/// Computes nnz-balanced chunk boundaries over `row_ptr[..=nrows]`; shared by
/// the cached matrix and slice schedules and the ghost-zone frontier SpMV
/// (whose active lane prefix changes per MPK level, so it cannot cache).
pub(crate) fn nnz_balanced_bounds(row_ptr: &[usize], nrows: usize, nchunks: usize) -> Vec<usize> {
    let nnz = row_ptr[nrows];
    let mut bounds = Vec::with_capacity(nchunks + 1);
    bounds.push(0);
    for c in 1..nchunks {
        // Smallest row whose prefix reaches the target; clamped monotone.
        let target = nnz * c / nchunks;
        let cut = row_ptr[..=nrows].partition_point(|&p| p < target);
        bounds.push(cut.min(nrows).max(*bounds.last().unwrap()));
    }
    bounds.push(nrows);
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [ 4 -1  0 ]
        // [-1  4 -1 ]
        // [ 0 -1  4 ]
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 4.0);
        }
        coo.push_sym(1, 0, -1.0);
        coo.push_sym(2, 1, -1.0);
        coo.to_csr()
    }

    #[test]
    fn spmv_matches_dense() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        a.spmv(&x, &mut y);
        assert_eq!(y, [2.0, 4.0, 10.0]);
    }

    #[test]
    fn spmv_rows_matches_full() {
        let a = small();
        let x = [1.0, 2.0, 3.0];
        let mut full = [0.0; 3];
        a.spmv(&x, &mut full);
        let mut part = [0.0; 2];
        a.spmv_rows(1, 3, &x, &mut part);
        assert_eq!(part, [full[1], full[2]]);
    }

    #[test]
    fn identity_and_diagonal() {
        let i3 = CsrMatrix::identity(3);
        let x = [5.0, -1.0, 2.0];
        let mut y = [0.0; 3];
        i3.spmv(&x, &mut y);
        assert_eq!(y, x);
        assert_eq!(i3.diagonal(), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn transpose_of_symmetric_is_equal() {
        let a = small();
        let at = a.transpose();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(a.get(i, j), at.get(i, j));
            }
        }
    }

    #[test]
    fn symmetry_check() {
        let a = small();
        assert!(a.is_symmetric(0.0));
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(1, 1, 1.0);
        assert!(!coo.to_csr().is_symmetric(1e-12));
    }

    #[test]
    fn gershgorin_contains_spectrum() {
        // Eigenvalues of the 3x3 tridiagonal (4,-1) matrix: 4 - 2cos(kπ/4).
        let a = small();
        let (lo, hi) = a.gershgorin_bounds();
        for k in 1..=3 {
            let ev = 4.0 - 2.0 * (std::f64::consts::PI * k as f64 / 4.0).cos();
            assert!(ev >= lo - 1e-12 && ev <= hi + 1e-12);
        }
    }

    #[test]
    fn shift_diagonal_changes_get() {
        let mut a = small();
        a.shift_diagonal(1.5);
        assert_eq!(a.get(0, 0), 5.5);
        assert_eq!(a.get(0, 1), -1.0);
    }

    #[test]
    fn norms_small_matrix() {
        let a = small();
        assert!((a.frobenius_norm() - (3.0f64 * 16.0 + 4.0).sqrt()).abs() < 1e-14);
        assert_eq!(a.norm_inf(), 6.0);
    }

    #[test]
    #[should_panic(expected = "columns must be strictly increasing")]
    fn from_raw_rejects_unsorted() {
        CsrMatrix::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]);
    }

    #[test]
    fn from_raw_unchecked_builds_valid_matrix() {
        let a = CsrMatrix::from_raw_unchecked(2, 2, vec![0, 1, 2], vec![0, 1], vec![2.0, 3.0]);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(1, 1), 3.0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "columns must be strictly increasing")]
    fn from_raw_unchecked_still_validates_in_debug() {
        CsrMatrix::from_raw_unchecked(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]);
    }

    #[test]
    fn row_schedule_covers_rows_and_balances_nnz() {
        let a = crate::generators::poisson::poisson_2d(20);
        for nchunks in [1usize, 2, 3, 7, 8] {
            let b = a.row_schedule(nchunks);
            assert_eq!(b.len(), nchunks + 1);
            assert_eq!(b[0], 0);
            assert_eq!(*b.last().unwrap(), a.nrows());
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
            let fair = a.nnz() / nchunks;
            for c in 0..nchunks {
                let work = a.row_ptr()[b[c + 1]] - a.row_ptr()[b[c]];
                // Each cut lands within one row of the exact nnz target.
                assert!(
                    work <= fair + 10,
                    "chunk {c}/{nchunks}: {work} nnz vs fair {fair}"
                );
            }
        }
        // The second request for the same chunk count hits the cache.
        let b1 = a.row_schedule(4);
        let b2 = a.row_schedule(4);
        assert!(Arc::ptr_eq(&b1, &b2));
    }

    #[test]
    fn row_schedule_handles_empty_and_skewed_matrices() {
        let empty = CsrMatrix::from_raw(3, 3, vec![0, 0, 0, 0], vec![], vec![]);
        let b = empty.row_schedule(4);
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), 3);
        assert!(b.windows(2).all(|w| w[0] <= w[1]));

        // One dense row among empty ones: all cuts collapse around it.
        let dense_row = CsrMatrix::from_raw(3, 3, vec![0, 0, 3, 3], vec![0, 1, 2], vec![1.0; 3]);
        let b = dense_row.row_schedule(3);
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), 3);
        assert!(b.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic(expected = "row_ptr length")]
    fn from_raw_rejects_bad_ptr() {
        CsrMatrix::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "columns must be strictly increasing")]
    fn debug_invariant_helper_rejects_unsorted_columns() {
        // Regression: every trusted construction path funnels through the
        // one debug gate, so unsorted input cannot slip past any of them.
        debug_assert_csr_invariants(1, 3, &[0, 2], &[2, 0], &[1.0, 1.0]);
    }

    #[test]
    fn sell_accessor_converts_once_and_matches() {
        let a = crate::generators::poisson::poisson_2d(13);
        let s1 = a.sell();
        let s2 = a.sell();
        assert!(Arc::ptr_eq(&s1, &s2));
        let x: Vec<f64> = (0..a.nrows()).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut y_csr = vec![0.0; a.nrows()];
        let mut y_sell = vec![0.0; a.nrows()];
        a.spmv(&x, &mut y_csr);
        s1.spmv(&x, &mut y_sell);
        assert!(y_csr
            .iter()
            .zip(&y_sell)
            .all(|(p, q)| p.to_bits() == q.to_bits()));
        // The clone starts with a fresh (empty) conversion cache.
        let b = a.clone();
        let s3 = b.sell();
        assert!(!Arc::ptr_eq(&s1, &s3));
    }

    /// `(range, depth)` of every cached zone, sorted.
    fn cached_zones(a: &CsrMatrix) -> Vec<((usize, usize), usize)> {
        let cache = a.derived.zones.lock().unwrap();
        let mut keys: Vec<_> = cache.iter().map(|z| (z.range(), z.depth())).collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn ghost_zone_cache_serves_shallower_requests_and_replaces_on_deeper() {
        let a = crate::generators::poisson::poisson_2d(12);
        let z3 = a.ghost_zone(0, 72, 3);
        assert!(Arc::ptr_eq(&z3, &a.ghost_zone(0, 72, 3)));
        assert!(Arc::ptr_eq(&z3, &a.ghost_zone(0, 72, 1)));
        assert!(Arc::ptr_eq(&z3, &a.ghost_zone(0, 72, 2)));
        assert_eq!(cached_zones(&a), [((0, 72), 3)]);
        // A deeper request rebuilds and replaces.
        let z5 = a.ghost_zone(0, 72, 5);
        assert_eq!(z5.depth(), 5);
        assert!(Arc::ptr_eq(&z5, &a.ghost_zone(0, 72, 3)));
        assert_eq!(cached_zones(&a), [((0, 72), 5)]);
        // A clone starts empty; an in-place edit empties the original.
        assert!(cached_zones(&a.clone()).is_empty());
        let mut a = a;
        a.scale(2.0);
        assert!(cached_zones(&a).is_empty());
        assert!(a.derived.sell.lock().unwrap().is_none());
    }

    /// The bits of every product that runs on derived data: the SELL SpMV,
    /// a width-8 SpMM on each kernel (interleaved CSR, SELL) and the SpMV of
    /// both zones of a 2-range partition.
    fn derived_products(a: &CsrMatrix) -> Vec<u64> {
        let n = a.nrows();
        let pk = crate::ParKernels::new(1);
        let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 * 0.25 - 1.0).collect();
        let cols: Vec<Vec<f64>> = (0..8)
            .map(|j| x.iter().map(|v| v * (j as f64 + 0.5)).collect())
            .collect();
        let xm = MultiVector::from_columns(&cols);
        let mut y = vec![0.0; n];
        a.sell().spmv(&x, &mut y);
        let mut out = y;
        for sell in [false, true] {
            let mut ym = MultiVector::zeros(n, 8);
            if sell {
                pk.spmm_sell(&a.sell(), &xm, &mut ym);
            } else {
                pk.spmm(a, &xm, &mut ym);
            }
            (0..8).for_each(|j| out.extend_from_slice(ym.col(j)));
        }
        for (lo, hi) in [(0, n / 2), (n / 2, n)] {
            let zone = a.ghost_zone(lo, hi, 2);
            let mut y = vec![0.0; hi - lo];
            zone.spmv_prefix(&pk, hi - lo, &zone.extend_from_global(&x), &mut y);
            out.extend(y);
        }
        out.into_iter().map(f64::to_bits).collect()
    }

    #[test]
    fn derived_data_follows_in_place_edits() {
        // A clone is assembled anew from the arrays: nothing derived yet.
        let mut a = crate::generators::poisson::poisson_2d(12);
        let unedited = derived_products(&a); // every slot is now filled
        a.scale(1.5);
        let scaled = derived_products(&a);
        assert_eq!(scaled, derived_products(&a.clone()), "after scale");
        assert_ne!(scaled, unedited);
        a.shift_diagonal(0.75);
        let shifted = derived_products(&a);
        assert_eq!(shifted, derived_products(&a.clone()), "after shift");
        assert_ne!(shifted, scaled);
    }

    /// The id names the object's current contents: stable while they are,
    /// fresh after an edit, fresh in a clone, never repeated.
    #[test]
    fn instance_id_is_new_per_clone_and_per_edit() {
        let mut a = crate::generators::poisson::poisson_2d(6);
        let id = a.instance_id();
        assert_eq!(a.instance_id(), id);
        let clone = a.clone();
        assert_ne!(clone.instance_id(), id);
        a.scale(2.0);
        let scaled = a.instance_id();
        a.shift_diagonal(1.0);
        let ids = [id, clone.instance_id(), scaled, a.instance_id()];
        for i in 0..ids.len() {
            for j in 0..i {
                assert_ne!(ids[i], ids[j], "ids {j} and {i}");
            }
        }
    }

    /// The cached hash is the fresh computation's; an edit changes it; a
    /// clone starts without one and computes the same value.
    #[test]
    fn content_hash_is_cached_reset_by_edits_and_recomputed_by_clones() {
        let mut a = crate::generators::poisson::poisson_2d(9);
        let h = a.content_hash();
        assert_eq!(h, a.hash_arrays());
        assert_eq!(a.derived.content_hash.get(), Some(&h));
        let clone = a.clone();
        assert!(clone.derived.content_hash.get().is_none());
        assert_eq!(clone.content_hash(), h);
        a.scale(2.0);
        assert!(a.derived.content_hash.get().is_none());
        assert_ne!(a.content_hash(), h);
        assert_eq!(a.content_hash(), a.hash_arrays());
        a.scale(0.5); // exact: back to the original bits
        assert_eq!(a.content_hash(), h);
    }

    #[test]
    fn ghost_zone_cache_holds_one_partition() {
        use crate::partition::BlockRowPartition;
        let a = crate::generators::poisson::poisson_2d(12);
        let n = a.nrows();
        let ranges = |ranks: usize| -> Vec<(usize, usize)> {
            let part = BlockRowPartition::balanced(n, ranks);
            (0..ranks).map(|p| part.range(p)).collect()
        };
        for ranks in [2usize, 4, 3, 2] {
            for (lo, hi) in ranges(ranks) {
                a.ghost_zone(lo, hi, 2);
            }
            let want: Vec<_> = ranges(ranks).into_iter().map(|r| (r, 2)).collect();
            assert_eq!(cached_zones(&a), want, "after {ranks} ranks");
            let splits = a.derived.splits.lock().unwrap();
            let mut held: Vec<_> = splits.iter().map(|(range, _)| *range).collect();
            held.sort_unstable();
            assert_eq!(held, ranges(ranks), "splits after {ranks} ranks");
        }
    }

    #[test]
    fn ghost_zone_cache_ends_with_one_zone_per_range_under_a_cold_race() {
        let a = crate::generators::poisson::poisson_3d(10);
        let n = a.nrows();
        let ranges = [(0, n / 2), (n / 2, n)];
        let gate = std::sync::Barrier::new(8);
        let zones: Vec<Arc<GhostZone>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let (a, gate) = (&a, &gate);
                    scope.spawn(move || {
                        let (lo, hi) = ranges[t % 2];
                        gate.wait();
                        a.ghost_zone(lo, hi, 3)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cached_zones(&a), [(ranges[0], 3), (ranges[1], 3)]);
        // Every requester holds the zone that stayed cached.
        for (t, z) in zones.iter().enumerate() {
            let (lo, hi) = ranges[t % 2];
            assert!(Arc::ptr_eq(z, &a.ghost_zone(lo, hi, 3)));
        }
    }

    /// The checked twin of the AVX2 SpMM group kernels: the column-group
    /// ladder on AVX2 and on the scalar groups agree bit for bit with
    /// `spmv` per column, on a full pack and on a window rebased by
    /// `off`, for k = 2, 3, 4, 8 and 13 (every rung), row counts off the
    /// group and row-block sizes, empty rows, and ±0.0 in the matrix and
    /// the operand.
    #[test]
    fn spmm_group_kernels_match_their_scalar_twin_bitwise() {
        let mut rng = crate::rng::Rng64::seed_from_u64(7);
        let signed = |rng: &mut crate::rng::Rng64| match rng.below_inclusive(5) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.range_f64(-2.0, 2.0),
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in [1usize, 7, 9, 127, 129, 301] {
            // Banded rows of up to six entries, every fourth row empty.
            let mut coo = CooMatrix::new(n, n);
            for r in (0..n).filter(|r| r % 4 != 2) {
                for _ in 0..=rng.below_inclusive(5) {
                    let c = (r + rng.below_inclusive(24)).saturating_sub(12).min(n - 1);
                    coo.push(r, c, signed(&mut rng));
                }
            }
            let a = coo.to_csr();
            a.ensure_invariants();
            // Rows from `r0` on, and the column window `[clo, n)` they read.
            let r0 = n / 3;
            let clo = (r0..n)
                .filter_map(|r| a.row(r).0.first().copied())
                .min()
                .unwrap_or(0);
            for k in [2usize, 3, 4, 8, 13] {
                let cols: Vec<Vec<f64>> = (0..k)
                    .map(|_| (0..n).map(|_| signed(&mut rng)).collect())
                    .collect();
                let mut want = vec![0.0; n * k];
                for (j, col) in cols.iter().enumerate() {
                    a.spmv(col, &mut want[j * n..(j + 1) * n]);
                }
                // Row `i` of every column side by side, as the kernels read.
                let full: Vec<f64> = (0..n)
                    .flat_map(|i| cols.iter().map(move |c| c[i]))
                    .collect();
                for simd in [false, crate::sell::simd_ok()] {
                    let tag = format!("n={n} k={k} simd={simd}");
                    let mut got = vec![f64::NAN; n * k];
                    a.spmm_ladder(simd, 0, n, &full, k, 0, &mut |i, v| got[i] = v);
                    assert_eq!(bits(&got), bits(&want), "{tag} full pack");
                    let (window, mut got) = (&full[clo * k..], vec![f64::NAN; n * k]);
                    a.spmm_ladder(simd, r0, n, window, k, clo * k, &mut |i, v| got[i] = v);
                    for j in 0..k {
                        let rows = j * n + r0..(j + 1) * n;
                        assert_eq!(bits(&got[rows.clone()]), bits(&want[rows]), "{tag} window");
                    }
                }
                // The public entry point (the windowed pack) reaches them too.
                let mut y = MultiVector::zeros(n, k);
                a.spmm(&MultiVector::from_columns(&cols), &mut y);
                for j in 0..k {
                    assert_eq!(
                        bits(y.col(j)),
                        bits(&want[j * n..(j + 1) * n]),
                        "n={n} k={k}"
                    );
                }
            }
        }
    }

    /// A matrix whose columns do not ascend would make a panel's reach
    /// wrong; the SpMM refuses it before any unchecked read.
    #[test]
    #[should_panic(expected = "columns must be strictly increasing")]
    fn spmm_refuses_a_matrix_with_broken_invariants() {
        let a = CsrMatrix::from_raw_unchecked(2, 3, vec![0, 2, 3], vec![2, 0, 1], vec![1.0; 3]);
        let mut y = MultiVector::zeros(2, 4);
        a.spmm(&MultiVector::zeros(3, 4), &mut y);
    }
}
