//! SELL-C-σ sliced sparse format: the bandwidth-oriented sibling of
//! [`CsrMatrix`].
//!
//! CSR's SpMV walks one row at a time, so the inner loop is a single
//! *serial* chain of multiply-accumulates — on the 7-point Poisson
//! stencils that dominate this workspace the chain is 7 FMAs deep and the
//! kernel is latency-bound, not bandwidth-bound. A [`SellMatrix`] carries
//! many *independent* rows through the inner loop at once, in one of two
//! encodings chosen by [`SellMatrix::from_csr`].
//!
//! # Two encodings
//!
//! **Diagonals.** A matrix is *constant-diagonal* when it is square, every
//! stored value (compared by bits) is a function of its offset `col − row`
//! alone, every such value is finite, and it has at most
//! [`MAX_DIAGONALS`] distinct offsets — every constant-coefficient
//! stencil, 7- or 27-point, in 1, 2 or 3 dimensions. Such a matrix is
//! stored as its ascending offsets, one value per offset and one presence
//! byte per (8-row block, offset) whose bit `u` says whether row `8b + u`
//! stores that offset — under a byte per row, with no index or value
//! arrays and no permutation (rows stay in identity order). The kernel
//! takes each 8-row block and each offset in ascending order, broadcasts
//! the value, loads `x[8b + d ..][..8]` unit-stride (masked where the
//! presence byte is partial), multiplies and adds separately, and ends
//! with eight contiguous stores: no gather and no scatter. A scalar twin,
//! which is also the path without AVX2, takes the `n % 8` tail and any
//! block whose load window would leave `x`.
//!
//! **Slots.** Every other matrix, and every row-list build
//! ([`SellMatrix::from_rows`], a ghost zone's frontier, whose remapped
//! columns are not constant-diagonal), is stored in slots:
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
//! In both encodings slice `s` covers lane positions `32s .. 32s + 32`,
//! so slice ranges, σ-aligned bands and the padded-work schedule mean the
//! same thing whichever encoding a matrix took.
//!
//! # Bitwise determinism
//!
//! Both kernels reproduce `CsrMatrix::spmv` bit for bit, for any thread
//! count:
//!
//! * each row gets exactly **one accumulator**, started at `+0.0` and fed
//!   its entries in the original CSR (column) order — instruction-level
//!   parallelism comes from carrying [`LANE_BLOCK`] independent rows
//!   through the loop, not from splitting any row's sum. Ascending offsets
//!   are ascending columns within a row, so the diagonal kernel keeps the
//!   order too;
//! * an accumulator that starts at `+0.0` can never become `-0.0` through
//!   addition (IEEE round-to-nearest only yields `-0.0` from `-0.0 +
//!   -0.0`), so adding a `±0.0` product is a bitwise identity on it. A
//!   slot pad holds value `0.0` and the lane's own last real column (or
//!   column 0 for empty lanes) and contributes `0.0·x[c]`; its one caveat
//!   is that this is NaN when `x[c]` is infinite, which only arises in
//!   already-diverged solves. A masked diagonal lane reads `+0.0` instead
//!   of `x` and contributes `c·(+0.0) = ±0` (the value `c` is finite by
//!   the selection rule), so it reads nothing outside the row's pattern
//!   and has no such caveat;
//! * threading partitions **whole slices**; the permutation is injective,
//!   so threads write disjoint output positions and the result is
//!   identical for any partition.
//!
//! The slot layout generalizes to *scattered row lists* (the ghost-zone
//! frontier kernel): [`SellMatrix::from_rows`] packs an explicit
//! list of rows in the given order, with `perm` carrying the output
//! position of each lane. An ascending list keeps prefix cuts (`rows <
//! nrows`) equal to lane prefixes, which is what the per-level MPK
//! frontier needs.
//!
//! # Index compression
//!
//! The slot kernel is bandwidth-bound, so bytes per stored entry decide the
//! throughput. Column indices are stored per slice as either `u32`
//! absolutes (12 bytes per entry with the value) or, when a slice's
//! column span fits 16 bits, as `u16` offsets from the slice's smallest
//! column (10 bytes per entry). Banded matrices take the narrow path for
//! every slice; the wide path is the general-matrix fallback and both may
//! coexist in one matrix.

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
/// four blocks. Also the row block of the diagonal encoding, one presence
/// byte per block and offset.
pub const LANE_BLOCK: usize = 8;

/// Most distinct offsets `col − row` a matrix may have and still take the
/// diagonal encoding: a 27-point stencil qualifies, and detection keeps
/// one scratch byte per (8-row block, offset) while it runs.
pub const MAX_DIAGONALS: usize = 32;

/// An inert stub: nothing in the library reads it. The one-column layout of
/// every solve is the one [`SellMatrix::from_csr`] picks (diagonals or
/// slots; a ghost zone's band, of its owned block), and a product over k ≥ 2 columns
/// runs SELL's SpMM on diagonals and the interleaved CSR SpMM otherwise.
/// The type and `SolveOptions::format` stay only because the frozen
/// `benchmark/` package names them; they go with the benchmark change that
/// drops its `Member::format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SparseFormat {
    /// Formerly the CSR one-column kernels; now the same as `Sell`.
    #[default]
    Csr,
    /// The layout [`SellMatrix::from_csr`] picks.
    Sell,
}

/// A sparse matrix (or scattered row subset of one) in one of this
/// module's two encodings: diagonals for a constant-diagonal matrix,
/// SELL-C-σ slots for anything else.
///
/// Built from a [`CsrMatrix`] ([`SellMatrix::from_csr`], which picks the
/// encoding) or from an explicit row list over raw CSR arrays
/// ([`SellMatrix::from_rows`], always slots, order preserved). Every entry
/// point runs on either encoding with the same bits. See the module docs
/// for the layouts and the determinism argument.
#[derive(Debug)]
pub struct SellMatrix {
    /// Columns of the source operand (`x` must be at least this long).
    ncols: usize,
    /// Stored (real, un-padded) nonzeros.
    nnz: usize,
    /// One past the largest output index written (`y` must be at least
    /// this long).
    out_len: usize,
    /// Padded-work prefix per slice of [`SELL_C`] lanes, length `nslices
    /// + 1`: the nnz-balanced slice schedule's weights. For slots it also
    /// offsets slice `s` into the slot arrays (`width(s)·C` slots each);
    /// for diagonals slice `s` weighs 8 per present (block, offset) pair.
    slice_ptr: Vec<usize>,
    /// The stored entries.
    enc: Encoding,
    /// Whether lane `p` holds a row of σ-window `p / σ` for every `p`: true
    /// of [`SellMatrix::from_csr`] conversions (the sort never leaves a
    /// window, and diagonals keep identity order), not promised by
    /// row-list builds. What lets a σ-aligned band of rows be computed from
    /// a slice range.
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
            enc: self.enc.clone(),
            sigma_confined: self.sigma_confined,
            schedule: Mutex::new(None),
        }
    }
}

/// How a [`SellMatrix`] stores its entries.
#[derive(Debug, Clone)]
enum Encoding {
    Slots(Slots),
    Diagonals(Diagonals),
}

/// The SELL-C-σ slot arrays (module docs, *Slots*).
#[derive(Debug, Clone)]
struct Slots {
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
}

/// The diagonal encoding of a constant-diagonal matrix (module docs,
/// *Diagonals*).
#[derive(Debug, Clone)]
struct Diagonals {
    /// Rows (= columns).
    n: usize,
    /// Distinct offsets `col − row`, ascending — hence column order within
    /// every row. Never empty.
    offsets: Vec<isize>,
    /// The one value of each offset, parallel to `offsets`; finite.
    vals: Vec<f64>,
    /// `presence[b·d + j]` (`d = offsets.len()`) has bit `u` set when row
    /// `8b + u` stores offset `j`.
    presence: Vec<u8>,
}

/// How one slice stores its column indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SliceCols {
    /// Absolute `u32` indices in `Slots::cols`.
    Wide,
    /// `u16` offsets in `Slots::cols16`, relative to this base
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
    /// resolved index must be readable from `xb` and fit `i32`.
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
        // SAFETY: the caller upholds `ColIx::block_avx2`'s contract, which
        // is `avx2_block_u32`'s.
        unsafe { avx2_block_u32(cols, vals, width, xb, acc) }
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
        // SAFETY: the caller upholds `ColIx::block_avx2`'s contract, which
        // is `avx2_block_u16`'s (a `u16` offset always fits `i32`).
        unsafe { avx2_block_u16(cols, vals, width, xb, acc) }
    }
}

/// Whether the AVX2 SIMD kernels (the SELL blocks and the CSR SpMM column
/// groups) may run. The detection macro caches its CPUID probe, so this is
/// a relaxed atomic load.
#[cfg(target_arch = "x86_64")]
pub(crate) fn simd_ok() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn simd_ok() -> bool {
    false
}

// The SIMD block kernels hard-code two 4-wide halves of the lane block,
// and a presence byte has one bit per lane.
const _: () = assert!(LANE_BLOCK == 8);

/// AVX2 lane block over `u16` base-relative offsets: zero-extend eight
/// offsets, gather from `xb` (already advanced to the base column),
/// multiply, add.
///
/// # Safety
/// [`ColIx::block_avx2`]'s contract.
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
        // SAFETY: slot `k..k + 8` is inside the block's `width` strided
        // steps, and every index it holds is readable from `xb` (the
        // caller's contract).
        unsafe {
            let idx = _mm256_cvtepu16_epi32(_mm_loadu_si128(cols.add(k) as *const __m128i));
            let g0 = _mm256_i32gather_pd::<8>(xb, _mm256_castsi256_si128(idx));
            let g1 = _mm256_i32gather_pd::<8>(xb, _mm256_extracti128_si256::<1>(idx));
            a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(vals.add(k)), g0));
            a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(vals.add(k + 4)), g1));
        }
        k += SELL_C;
    }
    // SAFETY: `acc` is eight f64s; the two stores cover it exactly.
    unsafe {
        _mm256_storeu_pd(acc.as_mut_ptr(), a0);
        _mm256_storeu_pd(acc.as_mut_ptr().add(4), a1);
    }
}

/// AVX2 lane block over absolute `u32` columns (the gather reads signed
/// `i32` indices, hence the contract's bound).
///
/// # Safety
/// [`ColIx::block_avx2`]'s contract.
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
        // SAFETY: as in `avx2_block_u16`; the indices fit `i32` by the
        // caller's contract.
        unsafe {
            let idx = _mm256_loadu_si256(cols.add(k) as *const __m256i);
            let g0 = _mm256_i32gather_pd::<8>(xb, _mm256_castsi256_si128(idx));
            let g1 = _mm256_i32gather_pd::<8>(xb, _mm256_extracti128_si256::<1>(idx));
            a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(vals.add(k)), g0));
            a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(vals.add(k + 4)), g1));
        }
        k += SELL_C;
    }
    // SAFETY: `acc` is eight f64s; the two stores cover it exactly.
    unsafe {
        _mm256_storeu_pd(acc.as_mut_ptr(), a0);
        _mm256_storeu_pd(acc.as_mut_ptr().add(4), a1);
    }
}

/// `_mm256_maskload_pd` masks for each 4-bit half of a presence byte: lane
/// `u` of entry `m` is all ones when bit `u` of `m` is set.
#[cfg(target_arch = "x86_64")]
const HALF_MASKS: [[i64; 4]; 16] = {
    let mut m = [[0i64; 4]; 16];
    let mut b = 0;
    while b < 16 {
        let mut u = 0;
        while u < 4 {
            if (b >> u) & 1 == 1 {
                m[b][u] = -1;
            }
            u += 1;
        }
        b += 1;
    }
    m
};

/// Full 8-row blocks the AVX2 diagonal kernel carries per pass: four
/// blocks (a slice) are eight independent accumulator chains, enough to
/// hide the add latency behind the loads.
const DIAG_GROUP: usize = SELL_C / LANE_BLOCK;

/// AVX2 body of the diagonal kernel for `B` consecutive full 8-row blocks
/// starting at row `r0`: for each offset `d` in ascending order, broadcast
/// its value, and for each block whose presence byte is non-zero load the
/// eight `x` entries of its window (masked to `+0.0` where the byte is
/// partial), multiply, add; then `8·B` contiguous stores to `out`.
/// `presence` holds the blocks' `B·offsets.len()` bytes, block-major.
///
/// # Safety
/// AVX2 must be available; `out` must be valid for `8·B` writes; and for
/// every block
/// `b` and offset `d` whose presence byte is non-zero, `xr.offset(d + 8b)`
/// must be valid for eight reads (the block's load window stays inside
/// `x`), with `xr` itself in bounds of `x`'s allocation.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_diag_blocks<const B: usize>(
    offsets: &[isize],
    vals: &[f64],
    presence: &[u8],
    xr: *const f64,
    out: *mut f64,
) {
    use std::arch::x86_64::*;
    let nd = offsets.len();
    debug_assert_eq!(presence.len(), B * nd);
    let mut acc = [[_mm256_setzero_pd(); 2]; B];
    for (j, (&d, &v)) in offsets.iter().zip(vals).enumerate() {
        let c = _mm256_set1_pd(v);
        for (b, acc) in acc.iter_mut().enumerate() {
            let m = presence[b * nd + j];
            if m == 0 {
                continue;
            }
            // SAFETY: the byte is non-zero, so the window `xr[d + 8b ..][..8]`
            // is readable (the contract); a masked load touches only lanes
            // of that window.
            let (x0, x1) = unsafe {
                let xp = xr.offset(d + (b * LANE_BLOCK) as isize);
                if m == u8::MAX {
                    (_mm256_loadu_pd(xp), _mm256_loadu_pd(xp.add(4)))
                } else {
                    let lo = HALF_MASKS[(m & 15) as usize].as_ptr() as *const __m256i;
                    let hi = HALF_MASKS[(m >> 4) as usize].as_ptr() as *const __m256i;
                    (
                        _mm256_maskload_pd(xp, _mm256_loadu_si256(lo)),
                        _mm256_maskload_pd(xp.add(4), _mm256_loadu_si256(hi)),
                    )
                }
            };
            acc[0] = _mm256_add_pd(acc[0], _mm256_mul_pd(c, x0));
            acc[1] = _mm256_add_pd(acc[1], _mm256_mul_pd(c, x1));
        }
    }
    for (b, acc) in acc.iter().enumerate() {
        // SAFETY: `out` is valid for `8·B` writes (the contract).
        unsafe {
            _mm256_storeu_pd(out.add(b * LANE_BLOCK), acc[0]);
            _mm256_storeu_pd(out.add(b * LANE_BLOCK + 4), acc[1]);
        }
    }
}

impl Diagonals {
    /// The diagonal encoding of `a`, or `None` when `a` is not
    /// constant-diagonal (module docs). One pass over the entries that
    /// stops at the first mismatch: a per-row cursor walks the sorted
    /// offsets seen so far beside the row's ascending columns, so an entry
    /// costs a compare or two.
    fn detect(a: &CsrMatrix) -> Option<Self> {
        let n = a.nrows();
        if n == 0 || a.ncols() != n {
            return None;
        }
        let (row_ptr, col_idx, values) = (a.row_ptr(), a.col_idx(), a.values());
        // Offsets and value bits in discovery order (a slot each), the
        // (offset, slot) pairs sorted by offset, and the presence bits per
        // (block, slot).
        let mut offsets: Vec<isize> = Vec::with_capacity(MAX_DIAGONALS);
        let mut bits: Vec<u64> = Vec::with_capacity(MAX_DIAGONALS);
        let mut sorted: Vec<(isize, usize)> = Vec::with_capacity(MAX_DIAGONALS);
        let mut seen = vec![0u8; n.div_ceil(LANE_BLOCK) * MAX_DIAGONALS];
        for r in 0..n {
            let bit = 1u8 << (r % LANE_BLOCK);
            let block = &mut seen[r / LANE_BLOCK * MAX_DIAGONALS..][..MAX_DIAGONALS];
            let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
            let (mut k, mut prev) = (0, isize::MIN);
            for (&c, &v) in col_idx[lo..hi].iter().zip(&values[lo..hi]) {
                let d = c as isize - r as isize;
                // Ascending columns are ascending offsets; the cursor (and
                // the kernel's summation order) relies on it.
                if d <= prev {
                    return None;
                }
                prev = d;
                while k < sorted.len() && sorted[k].0 < d {
                    k += 1;
                }
                let slot = if k < sorted.len() && sorted[k].0 == d {
                    sorted[k].1
                } else {
                    // A new offset: it must fit the bound, and its value
                    // must be finite (a masked lane multiplies it by zero).
                    if sorted.len() == MAX_DIAGONALS || !v.is_finite() {
                        return None;
                    }
                    sorted.insert(k, (d, offsets.len()));
                    offsets.push(d);
                    bits.push(v.to_bits());
                    offsets.len() - 1
                };
                if v.to_bits() != bits[slot] {
                    return None;
                }
                block[slot] |= bit;
                k += 1;
            }
        }
        let nd = sorted.len();
        if nd == 0 {
            return None;
        }
        let mut presence = vec![0u8; n.div_ceil(LANE_BLOCK) * nd];
        for (dst, src) in presence
            .chunks_exact_mut(nd)
            .zip(seen.chunks_exact(MAX_DIAGONALS))
        {
            for (p, &(_, slot)) in dst.iter_mut().zip(&sorted) {
                *p = src[slot];
            }
        }
        Some(Diagonals {
            n,
            offsets: sorted.iter().map(|&(d, _)| d).collect(),
            vals: sorted
                .iter()
                .map(|&(_, s)| f64::from_bits(bits[s]))
                .collect(),
            presence,
        })
    }

    /// The padded-work prefix over slices of [`SELL_C`] rows: 8 per
    /// present (block, offset) pair, the lanes the kernel computes.
    fn slice_work(&self) -> Vec<usize> {
        let per_slice = self.offsets.len() * (SELL_C / LANE_BLOCK);
        let mut ptr = Vec::with_capacity(self.n.div_ceil(SELL_C) + 1);
        ptr.push(0);
        for slice in self.presence.chunks(per_slice) {
            let present = slice.iter().filter(|&&m| m != 0).count();
            ptr.push(ptr.last().unwrap() + LANE_BLOCK * present);
        }
        ptr
    }

    /// Whether the load windows of the `B` blocks from row `r0` lie inside
    /// `x[..n]`: every offset's when the blocks are far enough from both
    /// ends, else (for a single block) every present offset's.
    #[inline]
    fn window_inside<const B: usize>(&self, r0: usize, presence: &[u8]) -> bool {
        let (r0, n) = (r0 as isize, self.n as isize);
        let inside = |d: isize, w: usize| r0 + d >= 0 && r0 + d + w as isize <= n;
        let span = B * LANE_BLOCK;
        (inside(self.offsets[0], span) && inside(self.offsets[self.offsets.len() - 1], span))
            || (B == 1
                && presence
                    .iter()
                    .zip(&self.offsets)
                    .all(|(&m, &d)| m == 0 || inside(d, LANE_BLOCK)))
    }

    /// `out[i] = (A·x)[lo + i]` for rows `[lo, hi)`, `lo` a multiple of
    /// [`LANE_BLOCK`]: the AVX2 kernel where `simd` allows and the load
    /// windows stay inside `x` — [`DIAG_GROUP`] blocks a pass, else one —
    /// and the scalar twin elsewhere.
    fn rows_into(&self, lo: usize, hi: usize, x: &[f64], out: &mut [f64], simd: bool) {
        assert!(
            (lo % LANE_BLOCK == 0 || lo == hi) && lo <= hi && hi <= self.n && out.len() == hi - lo,
            "diagonal kernel: bad row range"
        );
        assert!(x.len() >= self.n, "diagonal kernel: x length mismatch");
        let nd = self.offsets.len();
        let mut r0 = lo;
        while r0 < hi {
            let group = DIAG_GROUP * LANE_BLOCK;
            if simd && hi - r0 >= group {
                let o = &mut out[r0 - lo..][..group];
                if self.blocks_simd::<DIAG_GROUP>(r0, x, o) {
                    r0 += group;
                    continue;
                }
            }
            let r1 = (r0 + LANE_BLOCK).min(hi);
            let o = &mut out[r0 - lo..r1 - lo];
            if !(simd && r1 - r0 == LANE_BLOCK && self.blocks_simd::<1>(r0, x, o)) {
                let presence = &self.presence[r0 / LANE_BLOCK * nd..][..nd];
                self.rows_scalar(r0, presence, x, o);
            }
            r0 = r1;
        }
    }

    /// The AVX2 kernel over the `B` full blocks from row `r0` into `out`
    /// (`8·B` rows), if it may run there; `false`, with nothing written,
    /// when a load window would leave `x`.
    #[cfg(target_arch = "x86_64")]
    #[inline]
    fn blocks_simd<const B: usize>(&self, r0: usize, x: &[f64], out: &mut [f64]) -> bool {
        let nd = self.offsets.len();
        let presence = &self.presence[r0 / LANE_BLOCK * nd..][..B * nd];
        if !self.window_inside::<B>(r0, presence) {
            return false;
        }
        assert_eq!(out.len(), B * LANE_BLOCK);
        // SAFETY: the caller passes `simd` only from `simd_ok()`;
        // `presence` is `B·nd` bytes and `out` `8·B` rows (just sliced and
        // asserted); every present offset's window lies inside `x[..n]`
        // (just checked, and `rows_into` asserts `x.len() ≥ n`); and
        // `r0 ≤ n` keeps the base pointer in bounds.
        unsafe {
            avx2_diag_blocks::<B>(
                &self.offsets,
                &self.vals,
                presence,
                x.as_ptr().add(r0),
                out.as_mut_ptr(),
            );
        }
        true
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[inline]
    fn blocks_simd<const B: usize>(&self, _r0: usize, _x: &[f64], _out: &mut [f64]) -> bool {
        false
    }

    /// The scalar twin: rows `r0 .. r0 + out.len()` of one block, each
    /// summing its present offsets in ascending order from `+0.0`.
    fn rows_scalar(&self, r0: usize, presence: &[u8], x: &[f64], out: &mut [f64]) {
        for (u, y) in out.iter_mut().enumerate() {
            let (r, bit) = (r0 + u, 1u8 << u);
            let mut acc = 0.0;
            for ((&m, &d), &v) in presence.iter().zip(&self.offsets).zip(&self.vals) {
                if m & bit != 0 {
                    acc += v * x[(r as isize + d) as usize];
                }
            }
            *y = acc;
        }
    }
}

impl SellMatrix {
    /// Converts a full CSR matrix, output in original row order.
    ///
    /// This is the one place the layout of a solve's one-column kernels is
    /// decided (SpMV, the matrix powers kernel, a polynomial
    /// preconditioner's products; callers reach it through the cached
    /// [`CsrMatrix::sell`]): a constant-diagonal matrix (module docs; one
    /// O(nnz) pass that stops at the first mismatch) is stored as its
    /// diagonals and nothing else, any other matrix in σ-sorted slots.
    /// The product is bitwise the same either way, and the same as
    /// [`CsrMatrix::spmv`].
    pub fn from_csr(a: &CsrMatrix) -> Self {
        if let Some(diag) = Diagonals::detect(a) {
            return SellMatrix {
                ncols: a.ncols(),
                nnz: a.nnz(),
                out_len: a.nrows(),
                slice_ptr: diag.slice_work(),
                enc: Encoding::Diagonals(diag),
                sigma_confined: true,
                schedule: Mutex::new(None),
            };
        }
        let order = sigma_sorted_order(a.row_ptr(), a.nrows());
        let mut m = Self::build(a.row_ptr(), a.col_idx(), a.values(), a.ncols(), order);
        m.out_len = a.nrows();
        m.sigma_confined = true;
        m
    }

    /// Packs the listed rows of raw CSR arrays into slots, in the given
    /// order and without sorting: lane `p` holds `rows[p]` and scatters its
    /// result to `y[rows[p]]`. Used for the ghost-zone frontier row list,
    /// whose ascending order makes a row prefix a lane prefix.
    ///
    /// # Panics
    /// Panics if a row is listed twice: the threaded kernels scatter lanes
    /// to their rows through a raw pointer, which is sound only when no two
    /// lanes share an output position.
    pub fn from_rows(row_ptr: &[usize], col_idx: &[usize], values: &[f64], rows: &[usize]) -> Self {
        let mut listed = vec![false; rows.iter().map(|&r| r + 1).max().unwrap_or(0)];
        for &r in rows {
            assert!(
                !std::mem::replace(&mut listed[r], true),
                "SellMatrix: row {r} listed twice"
            );
        }
        let ncols = rows
            .iter()
            .flat_map(|&r| col_idx[row_ptr[r]..row_ptr[r + 1]].iter())
            .fold(0usize, |m, &c| m.max(c + 1));
        Self::build(row_ptr, col_idx, values, ncols, rows.to_vec())
    }

    /// Core slot packer: `order[p]` is the source row of lane `p` and also
    /// its output index.
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
            enc: Encoding::Slots(Slots {
                cols,
                cols16,
                kind,
                vals,
                perm: order,
            }),
            sigma_confined: false,
            schedule: Mutex::new(None),
        }
    }

    /// Whether [`SellMatrix::from_csr`] stored this matrix as its
    /// diagonals (`true`) or in slots (`false`; always for row-list
    /// builds).
    #[inline]
    pub fn is_diagonal(&self) -> bool {
        matches!(self.enc, Encoding::Diagonals(_))
    }

    /// Real (un-padded) stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// The SpMV work in lanes, padding included: stored slots in the slot
    /// encoding; on diagonals eight lanes per (8-row block, offset) with
    /// any row present, masked lanes included.
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
        match &self.enc {
            Encoding::Slots(m) => m.perm.len(),
            Encoding::Diagonals(d) => d.n,
        }
    }

    /// Slice count.
    #[inline]
    pub fn nslices(&self) -> usize {
        self.slice_ptr.len() - 1
    }

    /// Lane-position → output-row permutation of the slot encoding (the
    /// σ-sort, or a [`SellMatrix::from_rows`] row list); `None` on
    /// diagonals, whose rows stay in identity order.
    #[inline]
    pub fn perm(&self) -> Option<&[usize]> {
        match &self.enc {
            Encoding::Slots(m) => Some(&m.perm),
            Encoding::Diagonals(_) => None,
        }
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
        match &self.enc {
            Encoding::Slots(m) => m.kind.iter().filter(|k| **k == SliceCols::Wide).count(),
            Encoding::Diagonals(_) => 0,
        }
    }

    /// Fraction of [`SellMatrix::padded_nnz`] that is padding (0 when
    /// empty): pad slots, or on diagonals masked lanes.
    pub fn pad_ratio(&self) -> f64 {
        let padded = self.padded_nnz();
        if padded == 0 {
            0.0
        } else {
            (padded - self.nnz) as f64 / padded as f64
        }
    }

    /// The SpMV kernel over slices `[s_begin, s_end)`: each real lane's
    /// accumulator is fed its entries in original CSR order and handed to
    /// `write(out, acc)` (the threaded scatter paths of `ParKernels` pass a
    /// raw-pointer writer).
    #[inline]
    pub(crate) fn spmv_slices_into<F: FnMut(usize, f64)>(
        &self,
        s_begin: usize,
        s_end: usize,
        x: &[f64],
        write: &mut F,
    ) {
        for s in s_begin..s_end {
            let lane_end = SELL_C.min(self.lanes() - s * SELL_C);
            self.spmv_slice_lanes_into(s, lane_end, x, write);
        }
    }

    /// One slice, lanes `0..lane_end`, through `write`. Slots: [`LANE_BLOCK`]
    /// independent accumulators per pass through the width loop, scalar
    /// tail for the remaining lanes. Diagonals: the rows' block kernel into
    /// a stack buffer (callers with a contiguous destination use
    /// [`SellMatrix::rows_into`] and skip the copy).
    #[inline]
    pub(crate) fn spmv_slice_lanes_into<F: FnMut(usize, f64)>(
        &self,
        s: usize,
        lane_end: usize,
        x: &[f64],
        write: &mut F,
    ) {
        let lane0 = s * SELL_C;
        let m = match &self.enc {
            Encoding::Slots(m) => m,
            Encoding::Diagonals(d) => {
                let mut buf = [0.0f64; SELL_C];
                d.rows_into(lane0, lane0 + lane_end, x, &mut buf[..lane_end], simd_ok());
                for (u, &v) in buf[..lane_end].iter().enumerate() {
                    write(lane0 + u, v);
                }
                return;
            }
        };
        let base = self.slice_ptr[s];
        let end = self.slice_ptr[s + 1];
        let width = (end - base) / SELL_C;
        let vals = &m.vals[base..end];
        let perm = &m.perm[lane0..lane0 + lane_end];
        debug_assert!(x.len() >= self.ncols, "sell kernel: x length mismatch");
        match m.kind[s] {
            // Narrow offsets always fit the gather's signed-i32 indices;
            // wide absolutes only do when the matrix is under 2³¹ columns.
            SliceCols::Narrow(b) => lanes_core(
                &m.cols16[base..end],
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
                &m.cols[base..end],
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

    /// `out[i] = (A·x)[lo + i]` for the rows `[lo, hi)` of a
    /// diagonal-encoded matrix, written contiguously (`lo` a multiple of
    /// [`LANE_BLOCK`]); `false`, with nothing written, on slots. The fast
    /// path of every entry point whose destination is a row range.
    #[inline]
    pub(crate) fn rows_into(&self, lo: usize, hi: usize, x: &[f64], out: &mut [f64]) -> bool {
        match &self.enc {
            Encoding::Diagonals(d) => {
                d.rows_into(lo, hi, x, out, simd_ok());
                true
            }
            Encoding::Slots(_) => false,
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
        let n = self.lanes();
        if !self.rows_into(0, n, x, &mut y[..n]) {
            self.spmv_slices_into(0, self.nslices(), x, &mut |i, v| y[i] = v);
        }
    }

    /// One σ-aligned band of rows `[lo, hi)` into `out` (`out[i] =
    /// (A·x)[lo + i]`): the band's slice range with a band-local
    /// destination, so a caller can consume the product while it is
    /// cache-hot instead of storing a full-length vector. By σ-confinement
    /// the slices `lo/C .. ⌈hi/C⌉` hold exactly the band's rows, and per
    /// row the arithmetic is the whole-matrix kernel's, hence the same bits
    /// as [`CsrMatrix::spmv`].
    ///
    /// # Panics
    /// Panics unless the matrix came from [`SellMatrix::from_csr`] and the
    /// band is σ-aligned (`lo` a multiple of [`SELL_SIGMA`], `hi` one too
    /// or the row count), and on length mismatches.
    pub(crate) fn spmv_band(&self, lo: usize, hi: usize, x: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), hi - lo, "spmv_band: output length mismatch");
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
        if self.rows_into(lo, hi, x, out) {
            return;
        }
        debug_assert!(
            self.perm().unwrap()[lo..hi]
                .iter()
                .all(|&r| (lo..hi).contains(&r)),
            "sell spmv_band: a lane of the band writes outside it"
        );
        // The index is checked: a lane outside the band would panic here,
        // never write elsewhere.
        self.spmv_slices_into(lo / SELL_C, hi.div_ceil(SELL_C), x, &mut |i, v| {
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
        self.spmv_slices_into(0, full, x, &mut |i, v| y[i] = v);
        let rem = nlanes % SELL_C;
        if rem > 0 {
            self.spmv_slice_lanes_into(full, rem, x, &mut |i, v| y[i] = v);
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

    /// Sparse matrix–multivector product `Y ← A·X`, one column at a time.
    /// On slots each slice's packed entries are read once per column while
    /// still hot in cache (a slice is `C·width` slots — far below any L1),
    /// so the matrix stream is amortized over the k right-hand sides; on
    /// diagonals there is no stream to amortize and each column is one
    /// [`SellMatrix::spmv`]. Per column the lane arithmetic is exactly
    /// [`SellMatrix::spmv`], hence column `j` of the result is **bitwise
    /// equal** to `spmv(x.col(j))` — and to the CSR kernels.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn spmm(&self, x: &MultiVector, y: &mut MultiVector) {
        assert!(x.n() >= self.ncols, "sell spmm: x row mismatch");
        assert!(y.n() >= self.out_len, "sell spmm: y row mismatch");
        assert_eq!(x.k(), y.k(), "sell spmm: column count mismatch");
        if self.is_diagonal() {
            for j in 0..x.k() {
                self.spmv(x.col(j), y.col_mut(j));
            }
            return;
        }
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
            let lane_end = SELL_C.min(self.lanes() - s * SELL_C);
            for j in 0..x.k() {
                let base = j * ld;
                self.spmv_slice_lanes_into(s, lane_end, x.col(j), &mut |i, v| write(base + i, v));
            }
        }
    }
}

/// The shared slot kernel body: [`LANE_BLOCK`] independent accumulators
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
        // SAFETY (both paths): `k + LANE_BLOCK ≤ width·C = cols.len()` by
        // the loop bounds (lanes never exceed `C`), and construction
        // asserts every stored column — pads included — resolves below
        // `ncols ≤ x.len()`, which the public entry points check. The
        // unchecked gather is what lets the eight lanes pipeline without
        // per-element bounds tests; the dispatch in `spmv_slice_lanes_into`
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
                // SAFETY: the argument above, for the scalar reads.
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
            // SAFETY: same argument as the blocked loop above (`k < width·C`
            // since `lane < C`).
            unsafe {
                acc += vals.get_unchecked(k) * x.get_unchecked(cols.get_unchecked(k).ix(col_base));
            }
            k += SELL_C;
        }
        write(perm[lane], acc);
    }
}

/// The σ-window sorted row order: within each window of [`SELL_SIGMA`]
/// rows, positions are stably sorted by descending row length (ties keep
/// original order), and windows concatenate. Every sorted position stays
/// inside its own window.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::perturb_diagonal;
    use crate::generators::poisson::{poisson_2d, poisson_3d};
    use crate::rng::Rng64;
    use crate::ParKernels;

    fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
    }

    /// Every row of `a` in slots, identity order: the slot kernel on a
    /// matrix `from_csr` would store as diagonals.
    fn slots_of(a: &CsrMatrix) -> SellMatrix {
        let rows: Vec<usize> = (0..a.nrows()).collect();
        SellMatrix::from_rows(a.row_ptr(), a.col_idx(), a.values(), &rows)
    }

    /// CSR ≡ slots ≡ diagonals: each constant-coefficient stencil against
    /// its own slot packing, and its variable-coefficient twin (slots).
    #[test]
    fn spmv_matches_csr_bitwise_on_poisson() {
        for a in [poisson_2d(23), poisson_3d(7)] {
            let twin = perturb_diagonal(&a, 7);
            let n = a.nrows();
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.01).collect();
            for (m, diagonal) in [(&a, true), (&twin, false)] {
                let mut y_csr = vec![0.0; n];
                m.spmv(&x, &mut y_csr);
                let s = SellMatrix::from_csr(m);
                assert_eq!(s.is_diagonal(), diagonal, "n={n}");
                assert_eq!(s.nnz(), m.nnz());
                for s in [s, slots_of(m)] {
                    let mut y_sell = vec![f64::NAN; n];
                    s.spmv(&x, &mut y_sell);
                    assert!(bitwise_eq(&y_csr, &y_sell), "n={n} diagonal={diagonal}");
                }
            }
        }
    }

    #[test]
    fn sigma_sort_is_window_confined_bijection() {
        // 900 rows: several σ-windows, ragged tail. The twin is sorted in
        // slots; the stencil itself is on diagonals, with no permutation.
        let a = poisson_2d(30);
        assert!(SellMatrix::from_csr(&a).perm().is_none());
        let m = perturb_diagonal(&a, 3);
        let s = SellMatrix::from_csr(&m);
        assert!(!s.is_diagonal());
        let perm = s.perm().unwrap();
        assert_eq!(perm.len(), m.nrows());
        let mut seen = vec![false; m.nrows()];
        for (p, &r) in perm.iter().enumerate() {
            assert!(!seen[r], "perm not injective at {p}");
            seen[r] = true;
            // σ-confinement: sorted position and original row share a
            // window.
            assert_eq!(p / SELL_SIGMA, r / SELL_SIGMA, "row {r} left its window");
        }
        assert!(seen.into_iter().all(|s| s));
        // Round-trip: scattering lane results through perm touches every
        // output exactly once (checked by injectivity + surjectivity above).
    }

    #[test]
    fn slices_sorted_descending_within_windows() {
        let a = perturb_diagonal(&poisson_2d(19), 5);
        let s = SellMatrix::from_csr(&a);
        assert!(!s.is_diagonal());
        let rp = a.row_ptr();
        for win in s.perm().unwrap().chunks(SELL_SIGMA) {
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
        assert_eq!(s.perm(), Some(&rows[..]));
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

    /// A random constant-diagonal `n × n` matrix: offsets drawn from
    /// `[-(n + 9), n + 9]` (those beyond the matrix store nothing), each
    /// (row, offset) kept with probability 3/4, every fifth row emptied,
    /// values negative, positive and ±0.0, and one column `hole` left out
    /// of every row's pattern.
    fn random_diagonal(n: usize, rng: &mut Rng64) -> (CsrMatrix, usize) {
        let span = n as isize + 9;
        let nd = 1 + rng.below_inclusive(9);
        let mut offs: Vec<(isize, f64)> = (0..nd)
            .map(|_| {
                let d = rng.below_inclusive(2 * span as usize) as isize - span;
                let v = match rng.below_inclusive(5) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => rng.range_f64(-2.0, 2.0),
                };
                (d, v)
            })
            .collect();
        offs.sort_by_key(|&(d, _)| d);
        offs.dedup_by_key(|&mut (d, _)| d);
        let hole = rng.below_inclusive(n - 1);
        let mut coo = crate::CooMatrix::new(n, n);
        for r in 0..n {
            if r % 5 == 3 {
                continue;
            }
            for &(d, v) in &offs {
                let c = r as isize + d;
                if (0..n as isize).contains(&c) && c as usize != hole && rng.below_inclusive(3) > 0
                {
                    coo.push(r, c as usize, v);
                }
            }
        }
        (coo.to_csr(), hole)
    }

    /// The checked twin of the AVX2 diagonal kernel: on random
    /// constant-diagonal matrices of every tail length, the AVX2 blocks,
    /// the scalar twin and `CsrMatrix::spmv` agree bit for bit — whole
    /// matrix, every slice range, every σ-band, threads 1 and 2 — with
    /// Inf and NaN planted in `x` where no row reads.
    #[test]
    fn diagonal_kernel_matches_its_twin_and_csr_bitwise() {
        let mut rng = Rng64::seed_from_u64(31);
        let sizes: Vec<usize> = (1..=70).chain([600, 1100]).collect();
        for n in sizes {
            for trial in 0..4 {
                let (a, hole) = random_diagonal(n, &mut rng);
                let s = SellMatrix::from_csr(&a);
                let Encoding::Diagonals(d) = &s.enc else {
                    assert_eq!(a.nnz(), 0, "n={n} trial={trial}: not diagonal");
                    continue;
                };
                let mut x: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
                x[hole] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][trial % 3];
                let mut want = vec![0.0; n];
                a.spmv(&x, &mut want);
                let tag = format!("n={n} trial={trial}");
                for simd in [true, false] {
                    let mut y = vec![f64::NAN; n];
                    d.rows_into(0, n, &x, &mut y, simd && simd_ok());
                    assert!(bitwise_eq(&y, &want), "{tag} simd={simd}");
                }
                let mut y = vec![f64::NAN; n];
                s.spmv(&x, &mut y);
                assert!(bitwise_eq(&y, &want), "{tag} spmv");
                for t in [1, 2] {
                    let mut y = vec![f64::NAN; n];
                    ParKernels::always_split(t).spmv_sell(&s, &x, &mut y);
                    assert!(bitwise_eq(&y, &want), "{tag} threads={t}");
                }
                // Every slice range (the threaded SpMV's chunks), small
                // sizes.
                let ns = s.nslices();
                if ns <= 4 {
                    for b in 0..=ns {
                        for e in b..=ns {
                            let mut y = vec![f64::NAN; n];
                            s.spmv_slices_into(b, e, &x, &mut |i, v| y[i] = v);
                            let (lo, hi) = ((b * SELL_C).min(n), (e * SELL_C).min(n));
                            assert!(bitwise_eq(&y[lo..hi], &want[lo..hi]), "{tag} [{b},{e})");
                            assert!(y[..lo].iter().chain(&y[hi..]).all(|v| v.is_nan()));
                        }
                    }
                }
                // Every σ-band (the Chebyshev applies' unit).
                let nw = n.div_ceil(SELL_SIGMA);
                for wb in 0..=nw {
                    for we in wb..=nw {
                        let (lo, hi) = (wb * SELL_SIGMA, (we * SELL_SIGMA).min(n));
                        if lo > hi {
                            continue;
                        }
                        let mut out = vec![f64::NAN; hi - lo];
                        s.spmv_band(lo, hi, &x, &mut out);
                        assert!(bitwise_eq(&out, &want[lo..hi]), "{tag} band [{lo},{hi})");
                    }
                }
                // The closure path (threaded prefix and SpMM) too.
                let mut y = vec![f64::NAN; n];
                let cut = n - n / 3;
                s.spmv_lanes_prefix(cut, &x, &mut y);
                assert!(bitwise_eq(&y[..cut], &want[..cut]), "{tag} prefix");
            }
        }
    }

    #[test]
    fn diagonal_encoding_stores_no_slots() {
        let a = poisson_3d(12);
        let s = SellMatrix::from_csr(&a);
        assert!(s.is_diagonal());
        // Padded work: eight lanes per present (block, offset), masked
        // boundary lanes included.
        assert!(s.padded_nnz() >= s.nnz() && s.padded_nnz() < 2 * s.nnz());
        assert!((0.0..1.0).contains(&s.pad_ratio()));
        // Over the bound: 33 constant diagonals take slots.
        let n = 200;
        let mut coo = crate::CooMatrix::new(n, n);
        for r in 0..n {
            for c in r.saturating_sub(16)..(r + 17).min(n) {
                coo.push(r, c, if r == c { 40.0 } else { -1.0 });
            }
        }
        assert!(!SellMatrix::from_csr(&coo.to_csr()).is_diagonal());
        // A non-finite constant, and a non-square matrix, take slots too.
        let mut inf = CsrMatrix::identity(9);
        inf.scale(f64::INFINITY);
        assert!(!SellMatrix::from_csr(&inf).is_diagonal());
        let rect = CsrMatrix::from_raw(2, 3, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]);
        assert!(!SellMatrix::from_csr(&rect).is_diagonal());
    }
}
