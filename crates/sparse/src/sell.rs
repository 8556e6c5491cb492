//! SELL-C-σ sliced sparse format: the bandwidth-oriented sibling of
//! [`CsrMatrix`].
//!
//! CSR's SpMV walks one row at a time, so the inner loop is a single
//! *serial* chain of multiply-accumulates — on the 7-point Poisson
//! stencils that dominate this workspace the chain is 7 FMAs deep and the
//! kernel is latency-bound, not bandwidth-bound. SELL-C-σ restructures the
//! matrix so the inner loop carries many *independent* rows at once:
//!
//! * rows are grouped into **slices** of `C = 32` ([`SELL_C`]) lanes;
//! * each slice is padded to its longest row and stored **column-major**
//!   (entry `j` of lane `l` lives at `base + j·C + l`), so entry `j` of
//!   all 32 lanes is one unit-stride run;
//! * within **σ-windows** of `σ = 256` rows ([`SELL_SIGMA`]) the rows are
//!   stably sorted by descending length, which packs similar-length rows
//!   into the same slice and bounds padding waste — and because σ is a
//!   multiple of C the sort never crosses a window boundary, so a row's
//!   sorted position stays inside its own window;
//! * the sort permutation is kept alongside ([`SellMatrix::perm`]) and
//!   results are scattered back to **original row order**, so callers
//!   never see the reordering.
//!
//! # Bitwise determinism
//!
//! The kernel reproduces `CsrMatrix::spmv` bit for bit, for any thread
//! count:
//!
//! * each row gets exactly **one accumulator**, fed its entries in the
//!   original CSR order — instruction-level parallelism comes from
//!   carrying [`LANE_BLOCK`] independent rows through the width loop, not
//!   from splitting any row's sum;
//! * pad slots hold value `0.0` and the lane's own last real column (or
//!   column 0 for empty lanes). A pad contributes `acc + 0.0·x[c]`, and
//!   since an accumulator that starts at `+0.0` can never become `-0.0`
//!   through addition (IEEE round-to-nearest only yields `-0.0` from
//!   `-0.0 + -0.0`), adding the `±0.0` product is a bitwise identity on
//!   `acc`. (The one caveat: `0.0·x[c]` is NaN when `x[c]` is infinite,
//!   which only arises in already-diverged solves.)
//! * threading partitions **whole slices**; the permutation is injective,
//!   so threads write disjoint output positions and the result is
//!   identical for any partition.
//!
//! The same layout generalizes to *scattered row lists* (the ghost-zone
//! interior/frontier kernels): [`SellMatrix::from_rows`] packs an explicit
//! list of rows in the given order, with `perm` carrying the output
//! position of each lane. An ascending list keeps prefix cuts (`rows <
//! nrows`) equal to lane prefixes, which is what the per-level MPK
//! frontier needs.
//!
//! # Index compression
//!
//! The kernel is bandwidth-bound, so bytes per stored entry decide the
//! throughput. Column indices are stored per slice as either `u32`
//! absolutes (12 bytes per entry with the value) or, when a slice's
//! column span fits 16 bits, as `u16` offsets from the slice's smallest
//! column (10 bytes per entry). Banded matrices — every stencil in this
//! workspace — take the narrow path for every slice; the wide path is the
//! general-matrix fallback and both may coexist in one matrix.

use crate::csr::{nnz_balanced_bounds, CsrMatrix};
use crate::multivector::MultiVector;
use std::sync::{Arc, Mutex};

/// Slice height: rows per slice, and the unit stride of the column-major
/// inner loop. A power of two so slice indices are shifts.
pub const SELL_C: usize = 32;

/// Sorting window: rows are length-sorted only within σ-aligned windows.
/// A multiple of [`SELL_C`], so sorted positions never leave their window
/// and the permutation is block-confined (see the module docs).
pub const SELL_SIGMA: usize = 256;

/// Lanes carried per unrolled block of the SpMV inner loop: eight
/// independent accumulators in registers, covering a 32-lane slice in
/// four blocks.
pub const LANE_BLOCK: usize = 8;

/// Which sparse-matrix storage the executors run their SpMV-class kernels
/// on. Selected per solve via `SolveOptions::format`;
/// results are bitwise identical across formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SparseFormat {
    /// Compressed sparse row — the assembly format and the default.
    #[default]
    Csr,
    /// SELL-C-σ sliced format (this module): unrolled unit-stride kernels.
    Sell,
}

impl SparseFormat {
    /// Parses `"csr"` / `"sell"` (ASCII case-insensitive), the inverse of
    /// [`SparseFormat::name`]; `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        [SparseFormat::Csr, SparseFormat::Sell]
            .into_iter()
            .find(|f| s.trim().eq_ignore_ascii_case(f.name()))
    }

    /// Short lowercase name (`"csr"` | `"sell"`), stable for JSON keys.
    pub fn name(&self) -> &'static str {
        match self {
            SparseFormat::Csr => "csr",
            SparseFormat::Sell => "sell",
        }
    }
}

/// A borrowed operator in whichever storage the caller's
/// [`SparseFormat`] selected: what an executor hands to a kernel that must
/// follow the solve's format ([`crate::ParKernels::spmv_on`],
/// [`crate::ParKernels::spmm_on`], [`crate::ParKernels::spmv_bands`]). Two
/// stored forms of one matrix, so an enum and not a trait; the SELL side
/// must be a [`SellMatrix::from_csr`] conversion of the whole matrix.
#[derive(Debug, Clone, Copy)]
pub enum MatRef<'a> {
    /// The assembly format.
    Csr(&'a CsrMatrix),
    /// The matrix's SELL-C-σ conversion.
    Sell(&'a SellMatrix),
}

impl<'a> MatRef<'a> {
    /// The SELL form when the executor holds one, the CSR matrix otherwise.
    pub fn of(a: &'a CsrMatrix, sell: Option<&'a SellMatrix>) -> Self {
        sell.map_or(MatRef::Csr(a), MatRef::Sell)
    }

    /// Output rows.
    pub fn nrows(&self) -> usize {
        match self {
            MatRef::Csr(a) => a.nrows(),
            MatRef::Sell(a) => a.out_len(),
        }
    }

    /// Minimum operand length.
    pub fn ncols(&self) -> usize {
        match self {
            MatRef::Csr(a) => a.ncols(),
            MatRef::Sell(a) => a.ncols(),
        }
    }

    /// `out ← (A·x)[lo..hi]` for one band of rows: in CSR the row loop of
    /// [`CsrMatrix::spmv_rows`], in SELL the slices `lo/C .. ⌈hi/C⌉`, whose
    /// lanes are by σ-confinement exactly the band's rows. Per row the
    /// arithmetic of the whole-matrix kernels, hence the same bits.
    ///
    /// # Panics
    /// Panics in SELL unless the matrix came from [`SellMatrix::from_csr`]
    /// and the band is σ-aligned (`lo` a multiple of [`SELL_SIGMA`], `hi`
    /// one too or the row count), and on length mismatches.
    pub fn spmv_band(&self, lo: usize, hi: usize, x: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), hi - lo, "spmv_band: output length mismatch");
        match self {
            MatRef::Csr(a) => a.spmv_rows(lo, hi, x, out),
            MatRef::Sell(a) => a.spmv_band(lo, hi, x, out),
        }
    }
}

/// A sparse matrix (or scattered row subset of one) in SELL-C-σ layout.
///
/// Built from a [`CsrMatrix`] ([`SellMatrix::from_csr`], σ-sorted) or from
/// an explicit row list over raw CSR arrays ([`SellMatrix::from_rows`],
/// order preserved). See the module docs for the layout and the
/// determinism argument.
#[derive(Debug)]
pub struct SellMatrix {
    /// Columns of the source operand (`x` must be at least this long).
    ncols: usize,
    /// Stored (real, un-padded) nonzeros.
    nnz: usize,
    /// One past the largest output index written (`y` must be at least
    /// this long).
    out_len: usize,
    /// Per-slice offsets into `cols`/`vals`; slice `s` occupies
    /// `slice_ptr[s]..slice_ptr[s+1]` = `width(s)·C` slots. Doubles as the
    /// padded-work prefix for the nnz-balanced slice schedule.
    slice_ptr: Vec<usize>,
    /// Column indices of wide slices, column-major per slice, pads
    /// pointing at the lane's own last real column (locality-neutral,
    /// always in bounds). Only the slots of [`SliceCols::Wide`] slices are
    /// meaningful; narrow slices live in `cols16`.
    cols: Vec<u32>,
    /// Base-relative column offsets of narrow slices (see the module's
    /// *Index compression* section); parallel to `cols`.
    cols16: Vec<u16>,
    /// Per-slice column encoding.
    kind: Vec<SliceCols>,
    /// Values, column-major per slice, pads zero.
    vals: Vec<f64>,
    /// `perm[p]` = output row of lane position `p` (length = real lanes;
    /// virtual lanes padding the last slice are never read or written).
    perm: Vec<usize>,
    /// Max σ-window distance between a row and the columns it touches —
    /// the one-hop dependency half-width of the fused MPK tiling. Only
    /// computed by [`SellMatrix::from_csr`] (zero for row-list builds).
    window_reach: usize,
    /// Whether lane `p` holds a row of σ-window `p / σ` for every `p`: true
    /// of [`SellMatrix::from_csr`] conversions (the sort never leaves a
    /// window), not promised by row-list builds. What lets a σ-aligned
    /// band of rows be computed from a slice range.
    sigma_confined: bool,
    /// Lazily computed padded-work-balanced slice partition for the
    /// threaded SpMV, keyed by chunk count (mirrors
    /// [`CsrMatrix::row_schedule`]).
    schedule: Mutex<Option<(usize, Arc<Vec<usize>>)>>,
}

impl Clone for SellMatrix {
    fn clone(&self) -> Self {
        SellMatrix {
            ncols: self.ncols,
            nnz: self.nnz,
            out_len: self.out_len,
            slice_ptr: self.slice_ptr.clone(),
            cols: self.cols.clone(),
            cols16: self.cols16.clone(),
            kind: self.kind.clone(),
            vals: self.vals.clone(),
            perm: self.perm.clone(),
            window_reach: self.window_reach,
            sigma_confined: self.sigma_confined,
            schedule: Mutex::new(None),
        }
    }
}

/// How one slice stores its column indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SliceCols {
    /// Absolute `u32` indices in `SellMatrix::cols`.
    Wide,
    /// `u16` offsets in `SellMatrix::cols16`, relative to this base
    /// column (the slice's smallest referenced column).
    Narrow(u32),
}

/// One stored column slot resolved to an `x` index: absolute for the wide
/// path, base-relative for the narrow path. Monomorphized per slice so
/// the inner loops stay branch-free.
trait ColIx: Copy {
    fn ix(self, base: usize) -> usize;

    /// The AVX2 width loop of one [`LANE_BLOCK`] lane block: eight
    /// accumulators in two `ymm` registers, gathered `x` reads, separate
    /// multiply and add so every lane reproduces the scalar loop bit for
    /// bit.
    ///
    /// # Safety
    /// AVX2 must be available; `cols`/`vals` point at the block's first
    /// lane with `width` strided steps of [`SELL_C`] in bounds; every
    /// resolved index must be readable from `xb`.
    #[cfg(target_arch = "x86_64")]
    unsafe fn block_avx2(
        cols: *const Self,
        vals: *const f64,
        width: usize,
        xb: *const f64,
        acc: &mut [f64; LANE_BLOCK],
    );
}

impl ColIx for u32 {
    #[inline(always)]
    fn ix(self, _base: usize) -> usize {
        self as usize
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn block_avx2(
        cols: *const Self,
        vals: *const f64,
        width: usize,
        xb: *const f64,
        acc: &mut [f64; LANE_BLOCK],
    ) {
        avx2_block_u32(cols, vals, width, xb, acc);
    }
}

impl ColIx for u16 {
    #[inline(always)]
    fn ix(self, base: usize) -> usize {
        base + self as usize
    }

    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    unsafe fn block_avx2(
        cols: *const Self,
        vals: *const f64,
        width: usize,
        xb: *const f64,
        acc: &mut [f64; LANE_BLOCK],
    ) {
        avx2_block_u16(cols, vals, width, xb, acc);
    }
}

/// Whether the AVX2 SIMD kernels (the SELL gather blocks and the CSR
/// SpMM column groups) may run. The detection macro caches its CPUID
/// probe, so this is a relaxed atomic load.
#[cfg(target_arch = "x86_64")]
pub(crate) fn simd_ok() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn simd_ok() -> bool {
    false
}

// The SIMD block kernels hard-code two 4-wide halves of the lane block.
const _: () = assert!(LANE_BLOCK == 8);

/// AVX2 lane block over `u16` base-relative offsets: zero-extend eight
/// offsets, gather from `xb` (already advanced to the base column),
/// multiply, add. See [`ColIx::block_avx2`] for the safety contract.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_block_u16(
    cols: *const u16,
    vals: *const f64,
    width: usize,
    xb: *const f64,
    acc: &mut [f64; LANE_BLOCK],
) {
    use std::arch::x86_64::*;
    let mut a0 = _mm256_setzero_pd();
    let mut a1 = _mm256_setzero_pd();
    let mut k = 0usize;
    for _ in 0..width {
        let idx = _mm256_cvtepu16_epi32(_mm_loadu_si128(cols.add(k) as *const __m128i));
        let g0 = _mm256_i32gather_pd::<8>(xb, _mm256_castsi256_si128(idx));
        let g1 = _mm256_i32gather_pd::<8>(xb, _mm256_extracti128_si256::<1>(idx));
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(vals.add(k)), g0));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(vals.add(k + 4)), g1));
        k += SELL_C;
    }
    _mm256_storeu_pd(acc.as_mut_ptr(), a0);
    _mm256_storeu_pd(acc.as_mut_ptr().add(4), a1);
}

/// AVX2 lane block over absolute `u32` columns. The caller guarantees
/// every index fits `i32` (the gather reads signed indices); see
/// [`ColIx::block_avx2`] for the rest of the safety contract.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_block_u32(
    cols: *const u32,
    vals: *const f64,
    width: usize,
    xb: *const f64,
    acc: &mut [f64; LANE_BLOCK],
) {
    use std::arch::x86_64::*;
    let mut a0 = _mm256_setzero_pd();
    let mut a1 = _mm256_setzero_pd();
    let mut k = 0usize;
    for _ in 0..width {
        let idx = _mm256_loadu_si256(cols.add(k) as *const __m256i);
        let g0 = _mm256_i32gather_pd::<8>(xb, _mm256_castsi256_si128(idx));
        let g1 = _mm256_i32gather_pd::<8>(xb, _mm256_extracti128_si256::<1>(idx));
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(vals.add(k)), g0));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(vals.add(k + 4)), g1));
        k += SELL_C;
    }
    _mm256_storeu_pd(acc.as_mut_ptr(), a0);
    _mm256_storeu_pd(acc.as_mut_ptr().add(4), a1);
}

impl SellMatrix {
    /// Converts a full CSR matrix: σ-window sorted, output in original row
    /// order. Also records the σ-window reach half-width for the fused
    /// MPK tiling.
    pub fn from_csr(a: &CsrMatrix) -> Self {
        let order = sigma_sorted_order(a.row_ptr(), a.nrows());
        let mut m = Self::build(a.row_ptr(), a.col_idx(), a.values(), a.ncols(), order);
        m.out_len = a.nrows();
        m.window_reach = window_reach(a);
        m.sigma_confined = true;
        m
    }

    /// Packs the listed rows of raw CSR arrays, in the given order and
    /// without sorting: lane `p` holds `rows[p]` and scatters its result
    /// to `y[rows[p]]`. Used for the ghost-zone interior/frontier row
    /// lists, whose ascending order makes a row prefix a lane prefix.
    pub fn from_rows(row_ptr: &[usize], col_idx: &[usize], values: &[f64], rows: &[usize]) -> Self {
        let ncols = rows
            .iter()
            .flat_map(|&r| col_idx[row_ptr[r]..row_ptr[r + 1]].iter())
            .fold(0usize, |m, &c| m.max(c + 1));
        Self::build(row_ptr, col_idx, values, ncols, rows.to_vec())
    }

    /// Core packer: `order[p]` is the source row of lane `p` and also its
    /// output index.
    fn build(
        row_ptr: &[usize],
        col_idx: &[usize],
        values: &[f64],
        ncols: usize,
        order: Vec<usize>,
    ) -> Self {
        let lanes = order.len();
        let nslices = lanes.div_ceil(SELL_C);
        let mut slice_ptr = Vec::with_capacity(nslices + 1);
        slice_ptr.push(0usize);
        for s in 0..nslices {
            let width = order[s * SELL_C..lanes.min((s + 1) * SELL_C)]
                .iter()
                .map(|&r| row_ptr[r + 1] - row_ptr[r])
                .max()
                .unwrap_or(0);
            slice_ptr.push(slice_ptr[s] + width * SELL_C);
        }
        let total = *slice_ptr.last().unwrap();
        assert!(
            ncols <= u32::MAX as usize,
            "SellMatrix: more than 2^32 columns"
        );
        // Per-slice column span over the real entries, to pick the index
        // encoding: a span that fits 16 bits takes the narrow path.
        let mut col_lo = vec![usize::MAX; nslices];
        let mut col_hi = vec![0usize; nslices];
        for (p, &r) in order.iter().enumerate() {
            let s = p / SELL_C;
            for &c in &col_idx[row_ptr[r]..row_ptr[r + 1]] {
                // Hard check: the unchecked gather in the kernel relies on
                // every stored index being in bounds for any `x` of length
                // `ncols` (pads repeat an already-checked real column).
                assert!(c < ncols, "SellMatrix: column out of range");
                col_lo[s] = col_lo[s].min(c);
                col_hi[s] = col_hi[s].max(c);
            }
        }
        let kind: Vec<SliceCols> = (0..nslices)
            .map(|s| {
                if col_lo[s] <= col_hi[s] && col_hi[s] - col_lo[s] <= u16::MAX as usize {
                    SliceCols::Narrow(col_lo[s] as u32)
                } else {
                    SliceCols::Wide
                }
            })
            .collect();
        let mut cols = vec![0u32; total];
        let mut cols16 = vec![0u16; total];
        let mut vals = vec![0.0f64; total];
        let mut nnz = 0usize;
        for (p, &r) in order.iter().enumerate() {
            let (s, lane) = (p / SELL_C, p % SELL_C);
            let base = slice_ptr[s];
            let width = (slice_ptr[s + 1] - base) / SELL_C;
            let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
            let len = hi - lo;
            nnz += len;
            // Pads: zero value (already), and the lane's last real column
            // so the pad gather re-reads a line the lane already touched
            // (the slice's smallest column for an empty lane — a slice
            // with any pad slot has at least one real entry, so it is in
            // bounds).
            let pad_col = if len > 0 { col_idx[hi - 1] } else { col_lo[s] };
            match kind[s] {
                SliceCols::Narrow(b) => {
                    let b = b as usize;
                    for j in 0..len {
                        cols16[base + j * SELL_C + lane] = (col_idx[lo + j] - b) as u16;
                        vals[base + j * SELL_C + lane] = values[lo + j];
                    }
                    for j in len..width {
                        cols16[base + j * SELL_C + lane] = (pad_col - b) as u16;
                    }
                }
                SliceCols::Wide => {
                    for j in 0..len {
                        cols[base + j * SELL_C + lane] = col_idx[lo + j] as u32;
                        vals[base + j * SELL_C + lane] = values[lo + j];
                    }
                    for j in len..width {
                        cols[base + j * SELL_C + lane] = pad_col as u32;
                    }
                }
            }
        }
        let out_len = order.iter().map(|&r| r + 1).max().unwrap_or(0);
        SellMatrix {
            ncols,
            nnz,
            out_len,
            slice_ptr,
            cols,
            cols16,
            kind,
            vals,
            perm: order,
            window_reach: 0,
            sigma_confined: false,
            schedule: Mutex::new(None),
        }
    }

    /// Real (un-padded) stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Stored slots including padding — the actual SpMV work.
    #[inline]
    pub fn padded_nnz(&self) -> usize {
        *self.slice_ptr.last().unwrap()
    }

    /// Minimum `x` length accepted by the kernels.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Minimum `y` length accepted by the kernels (one past the largest
    /// output index).
    #[inline]
    pub fn out_len(&self) -> usize {
        self.out_len
    }

    /// Real lanes (= rows packed).
    #[inline]
    pub fn lanes(&self) -> usize {
        self.perm.len()
    }

    /// Slice count.
    #[inline]
    pub fn nslices(&self) -> usize {
        self.slice_ptr.len() - 1
    }

    /// Lane-position → output-row permutation.
    #[inline]
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// σ-window dependency half-width of the original matrix (see the
    /// field docs); zero for row-list builds.
    #[inline]
    pub fn window_reach_halfwidth(&self) -> usize {
        self.window_reach
    }

    /// Per-slice padded-work prefix (length `nslices + 1`), for external
    /// schedule computations over slice prefixes.
    #[inline]
    pub(crate) fn slice_ptr(&self) -> &[usize] {
        &self.slice_ptr
    }

    /// Slices stored with absolute `u32` columns, for tests that must know
    /// which index path they exercise.
    #[cfg(test)]
    pub(crate) fn wide_slices(&self) -> usize {
        let wide = |k: &&SliceCols| **k == SliceCols::Wide;
        self.kind.iter().filter(wide).count()
    }

    /// Fraction of stored slots that are padding (0 when empty).
    pub fn pad_ratio(&self) -> f64 {
        let padded = self.padded_nnz();
        if padded == 0 {
            0.0
        } else {
            (padded - self.nnz) as f64 / padded as f64
        }
    }

    /// The SpMV kernel over slices `[s_begin, s_end)`, lanes `0..lane_end`
    /// of the final slice `last_partial` (pass `usize::MAX` as
    /// `lane_cut_slice` for no cut). Each real lane's accumulator is fed
    /// its entries in original CSR order and handed to `write(out, acc)`.
    #[inline]
    fn spmv_slices_with<F: FnMut(usize, f64)>(
        &self,
        s_begin: usize,
        s_end: usize,
        x: &[f64],
        write: &mut F,
    ) {
        for s in s_begin..s_end {
            let lane_end = SELL_C.min(self.perm.len() - s * SELL_C);
            self.spmv_slice_lanes(s, lane_end, x, write);
        }
    }

    /// One slice, lanes `0..lane_end`: [`LANE_BLOCK`] independent
    /// accumulators per pass through the width loop, scalar tail for the
    /// remaining lanes.
    #[inline]
    fn spmv_slice_lanes<F: FnMut(usize, f64)>(
        &self,
        s: usize,
        lane_end: usize,
        x: &[f64],
        write: &mut F,
    ) {
        let base = self.slice_ptr[s];
        let end = self.slice_ptr[s + 1];
        let width = (end - base) / SELL_C;
        let lane0 = s * SELL_C;
        let vals = &self.vals[base..end];
        let perm = &self.perm[lane0..lane0 + lane_end];
        debug_assert!(x.len() >= self.ncols, "sell kernel: x length mismatch");
        match self.kind[s] {
            // Narrow offsets always fit the gather's signed-i32 indices;
            // wide absolutes only do when the matrix is under 2³¹ columns.
            SliceCols::Narrow(b) => lanes_core(
                &self.cols16[base..end],
                b as usize,
                vals,
                width,
                lane_end,
                perm,
                x,
                simd_ok(),
                write,
            ),
            SliceCols::Wide => lanes_core(
                &self.cols[base..end],
                0,
                vals,
                width,
                lane_end,
                perm,
                x,
                simd_ok() && self.ncols <= i32::MAX as usize,
                write,
            ),
        }
    }

    /// Serial SpMV: `y[perm[p]] = Σ_j vals·x[cols]` for every real lane.
    /// Bitwise identical to [`CsrMatrix::spmv`] on the packed rows.
    ///
    /// # Panics
    /// Panics if `x.len() < ncols()` or `y.len() < out_len()`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert!(x.len() >= self.ncols, "sell spmv: x length mismatch");
        assert!(y.len() >= self.out_len, "sell spmv: y length mismatch");
        self.spmv_slices_with(0, self.nslices(), x, &mut |i, v| y[i] = v);
    }

    /// Serial SpMV over the slice range `[s_begin, s_end)` only, writing
    /// `y[perm[p]]` for every real lane of those slices. The band kernel
    /// of the cache-fused matrix powers sweep: a σ-window band maps to a
    /// slice range, and its output rows stay inside the band's original
    /// window range (σ-confinement), so callers may pass the full output
    /// column and rely on only the band being written.
    ///
    /// # Panics
    /// Panics if the slice range is invalid or buffers are too short.
    pub fn spmv_slices(&self, s_begin: usize, s_end: usize, x: &[f64], y: &mut [f64]) {
        assert!(
            s_begin <= s_end && s_end <= self.nslices(),
            "sell spmv_slices: bad slice range"
        );
        assert!(x.len() >= self.ncols, "sell spmv_slices: x length mismatch");
        assert!(
            y.len() >= self.out_len,
            "sell spmv_slices: y length mismatch"
        );
        self.spmv_slices_with(s_begin, s_end, x, &mut |i, v| y[i] = v);
    }

    /// One σ-aligned band of rows `[lo, hi)` into `out` (`out[i] =
    /// (A·x)[lo + i]`): the slice range of [`SellMatrix::spmv_slices`] with
    /// a band-local destination, so a caller can consume the product while
    /// it is cache-hot instead of storing a full-length vector. See
    /// [`MatRef::spmv_band`] for the contract.
    fn spmv_band(&self, lo: usize, hi: usize, x: &[f64], out: &mut [f64]) {
        assert!(
            self.sigma_confined,
            "sell spmv_band: row-list builds are not window-confined"
        );
        assert!(
            lo <= hi
                && hi <= self.out_len
                && lo % SELL_SIGMA == 0
                && (hi % SELL_SIGMA == 0 || hi == self.out_len),
            "sell spmv_band: band [{lo}, {hi}) is not σ-aligned"
        );
        assert!(x.len() >= self.ncols, "sell spmv_band: x length mismatch");
        debug_assert!(
            self.perm[lo..hi].iter().all(|&r| (lo..hi).contains(&r)),
            "sell spmv_band: a lane of the band writes outside it"
        );
        // The index is checked: a lane outside the band would panic here,
        // never write elsewhere.
        self.spmv_slices_with(lo / SELL_C, hi.div_ceil(SELL_C), x, &mut |i, v| {
            out[i - lo] = v
        });
    }

    /// Serial SpMV restricted to the first `nlanes` lane positions — for
    /// an ascending row list this is exactly the rows `< perm[nlanes]`,
    /// the per-level active prefix of the MPK frontier.
    pub fn spmv_lanes_prefix(&self, nlanes: usize, x: &[f64], y: &mut [f64]) {
        assert!(nlanes <= self.lanes(), "sell prefix: lane count too large");
        assert!(x.len() >= self.ncols, "sell prefix: x length mismatch");
        let full = nlanes / SELL_C;
        self.spmv_slices_with(0, full, x, &mut |i, v| y[i] = v);
        let rem = nlanes % SELL_C;
        if rem > 0 {
            self.spmv_slice_lanes(full, rem, x, &mut |i, v| y[i] = v);
        }
    }

    /// The cached padded-work-balanced slice partition (boundaries in
    /// slice units, length `nchunks + 1`), mirroring
    /// [`CsrMatrix::row_schedule`].
    pub fn slice_schedule(&self, nchunks: usize) -> Arc<Vec<usize>> {
        let nchunks = nchunks.max(1);
        let mut cache = self.schedule.lock().unwrap();
        if let Some((c, bounds)) = cache.as_ref() {
            if *c == nchunks {
                return Arc::clone(bounds);
            }
        }
        let bounds = Arc::new(nnz_balanced_bounds(
            &self.slice_ptr,
            self.nslices(),
            nchunks,
        ));
        *cache = Some((nchunks, Arc::clone(&bounds)));
        bounds
    }

    /// Slice-range kernel for the threaded scatter paths (crate-internal:
    /// `ParKernels` drives it through a raw-pointer writer).
    #[inline]
    pub(crate) fn spmv_slices_into<F: FnMut(usize, f64)>(
        &self,
        s_begin: usize,
        s_end: usize,
        x: &[f64],
        write: &mut F,
    ) {
        self.spmv_slices_with(s_begin, s_end, x, write);
    }

    /// Partial-slice kernel for the threaded prefix path.
    #[inline]
    pub(crate) fn spmv_slice_lanes_into<F: FnMut(usize, f64)>(
        &self,
        s: usize,
        lane_end: usize,
        x: &[f64],
        write: &mut F,
    ) {
        self.spmv_slice_lanes(s, lane_end, x, write);
    }

    /// Sparse matrix–multivector product `Y ← A·X` on the sliced layout.
    /// Each slice's packed entries are read once per column while still
    /// hot in cache (a slice is `C·width` slots — far below any L1), so
    /// the matrix stream is amortized over the k right-hand sides; per
    /// column the lane arithmetic is exactly [`SellMatrix::spmv`], hence
    /// column `j` of the result is **bitwise equal** to `spmv(x.col(j))`
    /// — and to the CSR kernels.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn spmm(&self, x: &MultiVector, y: &mut MultiVector) {
        assert!(x.n() >= self.ncols, "sell spmm: x row mismatch");
        assert!(y.n() >= self.out_len, "sell spmm: y row mismatch");
        assert_eq!(x.k(), y.k(), "sell spmm: column count mismatch");
        let ld = y.n();
        let data = y.data_mut();
        self.spmm_slices_into(0, self.nslices(), x, ld, &mut |i, v| data[i] = v);
    }

    /// Slice-range SpMM kernel for [`SellMatrix::spmm`] and the threaded
    /// [`crate::ParKernels::spmm_sell`]: slices `[s_begin, s_end)` across
    /// all columns of `x`, handing each result to `write(j·ld + row, v)`
    /// (column-major flat index with leading dimension `ld`). The inner
    /// slice×column order keeps one slice's entries cache-resident for
    /// every column.
    pub(crate) fn spmm_slices_into<F: FnMut(usize, f64)>(
        &self,
        s_begin: usize,
        s_end: usize,
        x: &MultiVector,
        ld: usize,
        write: &mut F,
    ) {
        for s in s_begin..s_end {
            let lane_end = SELL_C.min(self.perm.len() - s * SELL_C);
            for j in 0..x.k() {
                let base = j * ld;
                self.spmv_slice_lanes(s, lane_end, x.col(j), &mut |i, v| write(base + i, v));
            }
        }
    }
}

/// The σ-window sorted row order: within each window of [`SELL_SIGMA`]
/// rows, positions are stably sorted by descending row length (ties keep
/// original order), and windows concatenate. Every sorted position stays
/// inside its own window.
/// The shared slice kernel body: [`LANE_BLOCK`] independent accumulators
/// per pass through the width loop, scalar tail for the remaining lanes.
/// `cols`/`vals` are the slice's `width·C` slots, `perm` its first
/// `lane_end` output positions.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn lanes_core<C: ColIx, F: FnMut(usize, f64)>(
    cols: &[C],
    col_base: usize,
    vals: &[f64],
    width: usize,
    lane_end: usize,
    perm: &[usize],
    x: &[f64],
    use_simd: bool,
    write: &mut F,
) {
    #[cfg(not(target_arch = "x86_64"))]
    let _ = use_simd;
    let mut l = 0;
    while l + LANE_BLOCK <= lane_end {
        let mut acc = [0.0f64; LANE_BLOCK];
        // Safety (both paths): `k + LANE_BLOCK ≤ width·C = cols.len()` by
        // the loop bounds (lanes never exceed `C`), and construction
        // asserts every stored column — pads included — resolves below
        // `ncols ≤ x.len()`, which the public entry points check. The
        // unchecked gather is what lets the eight lanes pipeline without
        // per-element bounds tests; the dispatch in `spmv_slice_lanes`
        // only sets `use_simd` when AVX2 is detected and the indices fit
        // the gather's signed-i32 lanes.
        #[cfg(target_arch = "x86_64")]
        let done = use_simd && {
            unsafe {
                C::block_avx2(
                    cols.as_ptr().add(l),
                    vals.as_ptr().add(l),
                    width,
                    x.as_ptr().add(col_base),
                    &mut acc,
                );
            }
            true
        };
        #[cfg(not(target_arch = "x86_64"))]
        let done = false;
        if !done {
            let mut k = l;
            for _ in 0..width {
                unsafe {
                    let c8 = cols.get_unchecked(k..k + LANE_BLOCK);
                    let v8 = vals.get_unchecked(k..k + LANE_BLOCK);
                    for u in 0..LANE_BLOCK {
                        acc[u] += v8[u] * x.get_unchecked(c8[u].ix(col_base));
                    }
                }
                k += SELL_C;
            }
        }
        for (u, a) in acc.iter().enumerate() {
            write(perm[l + u], *a);
        }
        l += LANE_BLOCK;
    }
    for lane in l..lane_end {
        let mut acc = 0.0;
        let mut k = lane;
        for _ in 0..width {
            // Safety: same argument as the blocked loop above.
            unsafe {
                acc += vals.get_unchecked(k) * x.get_unchecked(cols.get_unchecked(k).ix(col_base));
            }
            k += SELL_C;
        }
        write(perm[lane], acc);
    }
}

fn sigma_sorted_order(row_ptr: &[usize], nrows: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..nrows).collect();
    let mut w = 0;
    while w < nrows {
        let end = (w + SELL_SIGMA).min(nrows);
        order[w..end]
            .sort_by(|&a, &b| (row_ptr[b + 1] - row_ptr[b]).cmp(&(row_ptr[a + 1] - row_ptr[a])));
        w = end;
    }
    order
}

/// Max σ-window distance between any row's window and the windows of the
/// columns it references: the one-hop dependency half-width `h` of the
/// fused MPK tiling. Because σ-sorting is window-confined, this purely
/// structural quantity (computed in original indices) bounds the sorted
/// layout's dependencies too.
pub fn window_reach(a: &CsrMatrix) -> usize {
    let mut h = 0usize;
    for r in 0..a.nrows() {
        let w = r / SELL_SIGMA;
        let (cols, _) = a.row(r);
        for &c in cols {
            let cw = c / SELL_SIGMA;
            h = h.max(w.abs_diff(cw));
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::poisson::{poisson_2d, poisson_3d};

    fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
    }

    #[test]
    fn spmv_matches_csr_bitwise_on_poisson() {
        for a in [poisson_2d(23), poisson_3d(7)] {
            let n = a.nrows();
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.01).collect();
            let mut y_csr = vec![0.0; n];
            a.spmv(&x, &mut y_csr);
            let s = SellMatrix::from_csr(&a);
            let mut y_sell = vec![f64::NAN; n];
            s.spmv(&x, &mut y_sell);
            assert!(bitwise_eq(&y_csr, &y_sell), "n={n}");
            assert_eq!(s.nnz(), a.nnz());
        }
    }

    #[test]
    fn sigma_sort_is_window_confined_bijection() {
        let a = poisson_2d(30); // 900 rows: several σ-windows, ragged tail
        let s = SellMatrix::from_csr(&a);
        let perm = s.perm();
        assert_eq!(perm.len(), a.nrows());
        let mut seen = vec![false; a.nrows()];
        for (p, &r) in perm.iter().enumerate() {
            assert!(!seen[r], "perm not injective at {p}");
            seen[r] = true;
            // σ-confinement: sorted position and original row share a window.
            assert_eq!(p / SELL_SIGMA, r / SELL_SIGMA, "row {r} left its window");
        }
        assert!(seen.into_iter().all(|s| s));
        // Round-trip: scattering lane results through perm touches every
        // output exactly once (checked by injectivity + surjectivity above).
    }

    #[test]
    fn slices_sorted_descending_within_windows() {
        let a = poisson_2d(19);
        let s = SellMatrix::from_csr(&a);
        let rp = a.row_ptr();
        for win in s.perm().chunks(SELL_SIGMA) {
            let lens: Vec<usize> = win.iter().map(|&r| rp[r + 1] - rp[r]).collect();
            assert!(lens.windows(2).all(|w| w[0] >= w[1]), "not descending");
        }
    }

    #[test]
    fn padding_and_widths() {
        // Ragged rows: lengths 3, 1, 0, 2 in one slice.
        let row_ptr = vec![0, 3, 4, 4, 6];
        let col_idx = vec![0, 1, 2, 1, 0, 3];
        let values = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let rows = vec![0, 1, 2, 3];
        let s = SellMatrix::from_rows(&row_ptr, &col_idx, &values, &rows);
        assert_eq!(s.nslices(), 1);
        assert_eq!(s.padded_nnz(), 3 * SELL_C); // width = longest row = 3
        assert_eq!(s.nnz(), 6);
        assert!(s.pad_ratio() > 0.9); // 6 real slots of 96
        let x = vec![1.0, 10.0, 100.0, 1000.0];
        let mut y = vec![f64::NAN; 4];
        s.spmv(&x, &mut y);
        assert_eq!(y, vec![321.0, 40.0, 0.0, 6005.0]);
    }

    #[test]
    fn empty_rows_and_empty_matrix() {
        // Matrix of only empty rows: zero widths, zero storage.
        let s = SellMatrix::from_rows(&[0, 0, 0, 0], &[], &[], &[0, 1, 2]);
        assert_eq!(s.padded_nnz(), 0);
        let mut y = vec![f64::NAN; 3];
        s.spmv(&[], &mut y);
        assert_eq!(y, vec![0.0, 0.0, 0.0]);
        // Empty row list: no lanes, no slices, spmv is a no-op.
        let s = SellMatrix::from_rows(&[0, 2], &[0, 1], &[1.0, 1.0], &[]);
        assert_eq!(s.nslices(), 0);
        s.spmv(&[1.0, 1.0], &mut []);
    }

    #[test]
    fn row_list_preserves_order_and_prefix_cuts() {
        let a = poisson_2d(11);
        let n = a.nrows();
        let rows: Vec<usize> = (0..n).filter(|r| r % 3 != 1).collect(); // ascending
        let s = SellMatrix::from_rows(a.row_ptr(), a.col_idx(), a.values(), &rows);
        assert_eq!(s.perm(), &rows[..]);
        let x: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut y_ref = vec![0.0; n];
        a.spmv(&x, &mut y_ref);
        // Full list.
        let mut y = vec![0.0; n];
        s.spmv(&x, &mut y);
        for (p, &r) in rows.iter().enumerate() {
            assert_eq!(y[r].to_bits(), y_ref[r].to_bits(), "lane {p}");
        }
        // Prefix cut at an arbitrary lane count, crossing a slice boundary.
        for cut in [0, 1, SELL_C - 1, SELL_C, SELL_C + 5, rows.len()] {
            let mut yp = vec![0.0; n];
            s.spmv_lanes_prefix(cut, &x, &mut yp);
            for (p, &r) in rows.iter().enumerate().take(cut) {
                assert_eq!(yp[r].to_bits(), y_ref[r].to_bits(), "cut {cut} lane {p}");
            }
        }
    }

    #[test]
    fn slice_schedule_covers_and_caches() {
        let a = poisson_3d(9);
        let s = SellMatrix::from_csr(&a);
        for nchunks in [1usize, 2, 3, 8] {
            let b = s.slice_schedule(nchunks);
            assert_eq!(b.len(), nchunks + 1);
            assert_eq!(b[0], 0);
            assert_eq!(*b.last().unwrap(), s.nslices());
            assert!(b.windows(2).all(|w| w[0] <= w[1]));
        }
        let b1 = s.slice_schedule(4);
        let b2 = s.slice_schedule(4);
        assert!(Arc::ptr_eq(&b1, &b2));
    }

    #[test]
    fn window_reach_of_stencils() {
        // 1D chain: neighbours are ±1 row, so reach is confined to
        // adjacent windows.
        let a = crate::generators::poisson::poisson_1d(1000);
        assert_eq!(window_reach(&a), 1);
        // 3D stencil on 12³: ±144 rows < σ, still one window.
        let a = poisson_3d(12);
        assert!(window_reach(&a) <= 1);
        // Identity: zero reach.
        assert_eq!(window_reach(&CsrMatrix::identity(600)), 0);
    }

    #[test]
    fn format_env_parsing() {
        assert_eq!(SparseFormat::default(), SparseFormat::Csr);
        assert_eq!(SparseFormat::Csr.name(), "csr");
        assert_eq!(SparseFormat::Sell.name(), "sell");
        assert_eq!(SparseFormat::parse(" SELL "), Some(SparseFormat::Sell));
        assert_eq!(SparseFormat::parse("csr"), Some(SparseFormat::Csr));
        assert_eq!(SparseFormat::parse("ellpack"), None);
        assert_eq!(SparseFormat::parse(""), None);
    }
}
