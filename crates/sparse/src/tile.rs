//! The two row-tile primitives under the dense block kernels of the s-step
//! methods: `combine`, `dst[i] ← init[i] + Σ_l c_l·col_l[i]`, under every
//! block update, and `gram_block`, one reduction block of `AᵀB`, under
//! every Gram product.
//!
//! The blocked updates (`P ← U + P·B`, `x += P·a`, the CA-PCG vector
//! recovery, EkCG's history sweep) are all instances of that one shape. They
//! used to run as `k` memory-to-memory AXPY sweeps per output column; here
//! the sum is accumulated **in registers** over 16-row chunks, so an output
//! element is loaded once and stored once however many terms it has.
//!
//! Bitwise contract: every element sees `init + c_0·col_0 + c_1·col_1 + …`
//! evaluated left to right with a separate multiply and add per term and
//! terms whose coefficient compares equal to zero skipped — exactly the
//! operations, in exactly the order, of the AXPY sweeps it replaces. No FMA:
//! a fused multiply-add rounds once where the sweeps rounded twice.
//!
//! The Gram kernel is the transposed shape — long columns in, a small dense
//! block out — and its contract is [`crate::blas::dot_block`]'s: each entry
//! keeps four lane sums and a tail sum and returns the lanes' pairwise sum
//! plus the tail. The rows are walked in L1-sized sub-tiles under a 4×2
//! register tile of entries, the lanes carried in memory between sub-tiles;
//! neither changes which products a lane adds nor their order.

use crate::sell::simd_ok;
use std::cell::RefCell;

/// Rows per tile. At 2 KiB per column slice, the `2s` staged columns of an
/// s-step block update (the `AU` tile and the old `P`/`AP` tile) plus the
/// operand slices streaming past them stay L1-resident up to `s ≈ 8` and
/// L2-resident beyond; [`crate::blas::REDUCE_BLOCK`]-row blocks spilled L1
/// at `s = 5`.
pub const TILE: usize = 256;

/// Rows accumulated together in registers: four AVX2 vectors, so four
/// independent add chains hide the add latency. Eight rows (two chains)
/// measured 15–20 % slower on the fused block update at `s = 10`; 32 rows
/// no faster.
const CHUNK: usize = 16;

/// Terms per register-accumulated pass; longer sums continue in a further
/// pass from the stored partial result, which rounds nothing.
const MAX_TERMS: usize = 16;

/// The all-zero `init` operand of a product that overwrites its output.
pub(crate) static ZERO_TILE: [f64; TILE] = [0.0; TILE];

/// `dst[i] ← init[i] + Σ_l c_l·col_l[i]` over one row tile, `terms` yielding
/// the `(c_l, col_l)` pairs in summation order; `init = None` accumulates
/// onto `dst`'s current contents.
///
/// # Panics
/// Panics if `init` or a column with a nonzero coefficient is not exactly
/// `dst.len()` long.
pub(crate) fn combine<'a>(
    dst: &mut [f64],
    mut init: Option<&[f64]>,
    terms: impl IntoIterator<Item = (f64, &'a [f64])>,
) {
    let n = dst.len();
    assert!(
        init.map_or(true, |s| s.len() == n),
        "combine: init length mismatch"
    );
    let mut terms = terms.into_iter().filter(|&(c, _)| c != 0.0).peekable();
    loop {
        let mut group: [(f64, &[f64]); MAX_TERMS] = [(0.0, &[]); MAX_TERMS];
        let mut k = 0;
        while k < MAX_TERMS {
            let Some((c, col)) = terms.next() else { break };
            assert_eq!(col.len(), n, "combine: column length mismatch");
            group[k] = (c, col);
            k += 1;
        }
        if k > 0 || init.is_some() {
            combine_group(dst, init, &group[..k]);
        }
        init = None;
        if terms.peek().is_none() {
            return;
        }
    }
}

/// One pass of [`combine`], on the AVX2-compiled body when the CPU has it.
fn combine_group(dst: &mut [f64], init: Option<&[f64]>, terms: &[(f64, &[f64])]) {
    #[cfg(target_arch = "x86_64")]
    if simd_ok() {
        // SAFETY: `combine_group_avx2`'s one precondition is a CPU with
        // AVX2, and `simd_ok()` has just detected it at run time (a cached
        // CPUID probe). The body it compiles is safe Rust whose every
        // access is bounds-checked, so no slice length is trusted here.
        // Checked twin: `combine_dispatch_matches_the_scalar_body_bitwise`.
        unsafe { combine_group_avx2(dst, init, terms) };
        return;
    }
    combine_group_body(dst, init, terms);
}

/// [`combine_group_body`] compiled with 256-bit vectors. AVX2 does not
/// enable FMA contraction, so the multiply and the add stay separate
/// instructions and the lanes reproduce the scalar body bit for bit.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn combine_group_avx2(dst: &mut [f64], init: Option<&[f64]>, terms: &[(f64, &[f64])]) {
    // SAFETY: the body is the safe, bounds-checked scalar body, and
    // `target_feature` changes only which instructions it compiles to. Running those instructions is what
    // needs AVX2, the caller's contract. Checked twin:
    // `combine_matches_axpy_sweeps_and_the_avx2_body_matches_the_scalar_one`.
    combine_group_body(dst, init, terms);
}

/// The tile body: every column in `terms` (and `init`) is `dst.len()` long.
#[inline(always)]
fn combine_group_body(dst: &mut [f64], init: Option<&[f64]>, terms: &[(f64, &[f64])]) {
    let n = dst.len();
    let mut base = 0;
    while base + CHUNK <= n {
        let mut acc = [0.0f64; CHUNK];
        acc.copy_from_slice(match init {
            Some(src) => &src[base..base + CHUNK],
            None => &dst[base..base + CHUNK],
        });
        for &(c, col) in terms {
            let v = &col[base..base + CHUNK];
            for u in 0..CHUNK {
                acc[u] += c * v[u];
            }
        }
        dst[base..base + CHUNK].copy_from_slice(&acc);
        base += CHUNK;
    }
    for i in base..n {
        let mut acc = init.map_or(dst[i], |src| src[i]);
        for &(c, col) in terms {
            acc += c * col[i];
        }
        dst[i] = acc;
    }
}

/// Rows per sub-tile of the Gram product. A [`crate::blas::REDUCE_BLOCK`] of
/// the 16 operand columns of an `s = 5` block is 128 KiB, 2.7× the 48 KiB L1,
/// and used to be walked once per register tile; a sub-tile's 2 KiB column
/// slices (32 KiB at `s = 5`) stay L1-resident while every register tile
/// passes over them, and the 31 columns of `s = 10` (62 KiB) or CA-PCG's 42
/// spill to L2 only once per sub-tile. 128 rows (everything in L1 up to
/// `s = 10`) measured the same on operands streamed from L3 and 5–10 %
/// slower on cache-resident ones: twice the lane loads and stores per row.
pub(crate) const GRAM_TILE: usize = 256;

/// Lanes per Gram entry: the four partial sums of [`crate::blas::dot_block`].
pub(crate) const GRAM_LANES: usize = 4;

// A sub-tile boundary must not split a row quadruple between two lanes.
const _: () = assert!(GRAM_TILE % GRAM_LANES == 0);

/// The Gram product of rows `lo..hi` (at most one
/// [`crate::blas::REDUCE_BLOCK`]) of two column sets: `out[i·kb + j] ←
/// dot_block(acols[i][lo..hi], bcols[j][lo..hi])`. `lanes` is a
/// `4·ka·kb`-double scratch — the lane accumulators of every entry, carried
/// from sub-tile to sub-tile; its contents on entry and return are
/// unspecified.
///
/// Per entry the operations are those of [`crate::blas::dot_block`] in its
/// order: lane `l` sums the products of rows `≡ l (mod 4)` from `0.0`
/// upwards, the `len % 4` tail rows sum separately, and the result is
/// `(l0 + l1) + (l2 + l3) + tail`. Sub-tiles and register tiles only change
/// *when* a lane is advanced, never by what.
///
/// # Panics
/// Panics if a column is shorter than `hi`, `out` is not `ka·kb` long or
/// `lanes` not `4·ka·kb`.
pub(crate) fn gram_block(
    acols: &[&[f64]],
    bcols: &[&[f64]],
    lo: usize,
    hi: usize,
    lanes: &mut [f64],
    out: &mut [f64],
) {
    assert!(
        out.len() == acols.len() * bcols.len() && lanes.len() == GRAM_LANES * out.len(),
        "gram_block: output or lane scratch length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if gram_simd_ok() {
        // SAFETY: `gram_block_avx2`'s one precondition is a CPU with AVX2;
        // `gram_simd_ok()` is true only when `simd_ok()` detected it at run
        // time. The body is safe, bounds-checked Rust, so the column, lane
        // and output lengths are checked there, not trusted. Checked twin:
        // `gram_dispatch_matches_the_scalar_body_bitwise`.
        unsafe { gram_block_avx2(acols, bcols, lo, hi, lanes, out) };
        return;
    }
    gram_block_body(acols, bcols, lo, hi, lanes, out);
}

/// Makes [`gram_block`] take the scalar body whatever the CPU offers, so
/// the twin tests drive the whole Gram path (pool included) over it on an
/// AVX2 machine too. Both bodies produce the same bits, so tests running
/// concurrently do not notice.
#[cfg(test)]
pub(crate) static GRAM_SCALAR_ONLY: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

#[cfg(target_arch = "x86_64")]
fn gram_simd_ok() -> bool {
    #[cfg(test)]
    if GRAM_SCALAR_ONLY.load(std::sync::atomic::Ordering::Relaxed) {
        return false;
    }
    simd_ok()
}

/// [`gram_block_body`] compiled with 256-bit vectors: a lane quadruple is
/// one `ymm` register, so the 4×2 register tile keeps 8 accumulators and 6
/// operand loads in the 16 registers. As for [`combine_group_avx2`], AVX2
/// does not enable FMA contraction, so each lane rounds the product and the
/// sum separately, exactly as the scalar body does.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gram_block_avx2(
    acols: &[&[f64]],
    bcols: &[&[f64]],
    lo: usize,
    hi: usize,
    lanes: &mut [f64],
    out: &mut [f64],
) {
    // SAFETY: as in `combine_group_avx2`, the one obligation is the
    // instruction set: the safe, bounds-checked body compiled for AVX2,
    // which the caller guarantees. Checked twin:
    // `gram_block_matches_dot_block_and_the_avx2_body_matches_the_scalar_one`.
    gram_block_body(acols, bcols, lo, hi, lanes, out);
}

/// The block body: sub-tiles outermost, then 4×2 register tiles of entries
/// (narrower at the edges), then rows in fours.
#[inline(always)]
fn gram_block_body(
    acols: &[&[f64]],
    bcols: &[&[f64]],
    lo: usize,
    hi: usize,
    lanes: &mut [f64],
    out: &mut [f64],
) {
    let (ka, kb) = (acols.len(), bcols.len());
    let full = lo + (hi - lo) / GRAM_LANES * GRAM_LANES;
    lanes.fill(0.0);
    let mut r0 = lo;
    while r0 < full {
        let r1 = (r0 + GRAM_TILE).min(full);
        let mut i = 0;
        while i < ka {
            let mi = (ka - i).min(4);
            let a = &acols[i..i + mi];
            let mut j = 0;
            while j < kb {
                let nj = (kb - j).min(2);
                let b = &bcols[j..j + nj];
                let at = &mut lanes[GRAM_LANES * (i * kb + j)..];
                match (mi, nj) {
                    (4, 2) => gram_register_tile::<4, 2>(a, b, r0, r1, at, kb),
                    (3, 2) => gram_register_tile::<3, 2>(a, b, r0, r1, at, kb),
                    (2, 2) => gram_register_tile::<2, 2>(a, b, r0, r1, at, kb),
                    (1, 2) => gram_register_tile::<1, 2>(a, b, r0, r1, at, kb),
                    (4, 1) => gram_register_tile::<4, 1>(a, b, r0, r1, at, kb),
                    (3, 1) => gram_register_tile::<3, 1>(a, b, r0, r1, at, kb),
                    (2, 1) => gram_register_tile::<2, 1>(a, b, r0, r1, at, kb),
                    _ => gram_register_tile::<1, 1>(a, b, r0, r1, at, kb),
                }
                j += nj;
            }
            i += mi;
        }
        r0 = r1;
    }
    for i in 0..ka {
        for j in 0..kb {
            let e = i * kb + j;
            let mut tail = 0.0;
            for (x, y) in acols[i][full..hi].iter().zip(&bcols[j][full..hi]) {
                tail += x * y;
            }
            let l = &lanes[GRAM_LANES * e..GRAM_LANES * (e + 1)];
            out[e] = (l[0] + l[1]) + (l[2] + l[3]) + tail;
        }
    }
}

/// Advances the lanes of the `MI × NJ` entries `(m, n)` — quadruple
/// `m·kb + n` of `lanes` — over rows `r0..r1` (a multiple of four) of
/// columns `a[m]`, `b[n]`, with every accumulator in a register.
#[inline(always)]
fn gram_register_tile<const MI: usize, const NJ: usize>(
    a: &[&[f64]],
    b: &[&[f64]],
    r0: usize,
    r1: usize,
    lanes: &mut [f64],
    kb: usize,
) {
    let a: [&[f64]; MI] = std::array::from_fn(|m| &a[m][r0..r1]);
    let b: [&[f64]; NJ] = std::array::from_fn(|n| &b[n][r0..r1]);
    let quad = |col: &[f64], c: usize| -> [f64; GRAM_LANES] {
        col[GRAM_LANES * c..GRAM_LANES * (c + 1)]
            .try_into()
            .expect("four lanes")
    };
    let mut acc: [[[f64; GRAM_LANES]; NJ]; MI] =
        std::array::from_fn(|m| std::array::from_fn(|n| quad(lanes, m * kb + n)));
    for c in 0..(r1 - r0) / GRAM_LANES {
        let x: [[f64; GRAM_LANES]; MI] = std::array::from_fn(|m| quad(a[m], c));
        let y: [[f64; GRAM_LANES]; NJ] = std::array::from_fn(|n| quad(b[n], c));
        for m in 0..MI {
            for n in 0..NJ {
                for l in 0..GRAM_LANES {
                    acc[m][n][l] += x[m][l] * y[n][l];
                }
            }
        }
    }
    for m in 0..MI {
        for n in 0..NJ {
            let at = GRAM_LANES * (m * kb + n);
            lanes[at..at + GRAM_LANES].copy_from_slice(&acc[m][n]);
        }
    }
}

/// Runs `f` on this thread's tile scratch, grown to at least `len` doubles.
/// Contents are unspecified on entry; kernels write before they read.
pub(crate) fn with_scratch<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    thread_local! {
        static SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    }
    SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn random_vec(n: usize, rng: &mut Rng64) -> Vec<f64> {
        (0..n).map(|_| rng.next_f64() - 0.5).collect()
    }

    /// Bitwise equality that lets NaNs match each other: the sign and
    /// payload a NaN picks up on its way through a product are the one
    /// thing the hardware leaves open.
    pub(crate) fn same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i}: {g:e} vs {w:e}"
            );
        }
    }

    /// `init` copied, then one memory-to-memory AXPY sweep per term.
    fn sweeps(dst: &mut [f64], init: Option<&[f64]>, terms: &[(f64, &[f64])]) {
        if let Some(src) = init {
            dst.copy_from_slice(src);
        }
        for &(c, col) in terms {
            if c == 0.0 {
                continue;
            }
            for (d, &v) in dst.iter_mut().zip(col) {
                *d += c * v;
            }
        }
    }

    #[test]
    fn combine_matches_axpy_sweeps_and_the_avx2_body_matches_the_scalar_one() {
        let mut rng = Rng64::seed_from_u64(7);
        let specials = [0.0, -0.0, f64::NAN, f64::INFINITY, 1.0, -1.0];
        for n in [0usize, 1, 7, 15, 16, 17, 63, 255, 256] {
            // Term counts on both sides of a MAX_TERMS pass, and of two.
            for k in [0usize, 1, 2, 5, 16, 17, 33] {
                let cols: Vec<Vec<f64>> = (0..k).map(|_| random_vec(n, &mut rng)).collect();
                let mut coeffs = random_vec(k, &mut rng);
                for (l, c) in coeffs.iter_mut().enumerate().skip(1).step_by(3) {
                    *c = specials[(l + n) % specials.len()];
                }
                let terms: Vec<(f64, &[f64])> = coeffs
                    .iter()
                    .zip(&cols)
                    .map(|(&c, col)| (c, &col[..]))
                    .collect();
                let init_vec = random_vec(n, &mut rng);
                let dst0 = random_vec(n, &mut rng);
                for init in [None, Some(&init_vec[..])] {
                    let what = format!("n={n} k={k} init={}", init.is_some());
                    let mut want = dst0.clone();
                    sweeps(&mut want, init, &terms);
                    let mut got = dst0.clone();
                    combine(&mut got, init, terms.iter().copied());
                    same_bits(&got, &want, &what);

                    let live: Vec<(f64, &[f64])> = terms
                        .iter()
                        .copied()
                        .filter(|&(c, _)| c != 0.0)
                        .take(MAX_TERMS)
                        .collect();
                    let mut scalar = dst0.clone();
                    combine_group_body(&mut scalar, init, &live);
                    #[cfg(target_arch = "x86_64")]
                    if simd_ok() {
                        let mut simd = dst0.clone();
                        // SAFETY: `simd_ok()` just detected AVX2, the
                        // function's one precondition.
                        unsafe { combine_group_avx2(&mut simd, init, &live) };
                        same_bits(&simd, &scalar, &format!("{what} avx2"));
                    }
                }
            }
        }
    }

    /// `k` columns of `n` values in `(-½, ½)`. Every third column carries
    /// NaN, ±Inf and ±0.0 where a Gram kernel could treat them differently
    /// from [`crate::blas::dot_block`]: in the first rows of the body, on
    /// both sides of the first sub-tile and of the first reduction-block
    /// boundary, and in the `n % 4` tail rows. The other columns stay
    /// finite, so most entries still compare number against number.
    pub(crate) fn gram_operands(n: usize, k: usize, seed: u64) -> Vec<Vec<f64>> {
        let specials = [f64::NAN, f64::INFINITY, -0.0, f64::NEG_INFINITY, 0.0];
        let block = crate::blas::REDUCE_BLOCK;
        let rows = [1, 6, GRAM_TILE - 1, GRAM_TILE, block - 2, block + 1];
        let mut rng = Rng64::seed_from_u64(seed);
        (0..k)
            .map(|j| {
                let mut col = random_vec(n, &mut rng);
                if j % 3 == 1 {
                    let tail = (n - n % GRAM_LANES..n).rev().take(1 + j % 2);
                    for (t, row) in rows.into_iter().chain(tail).enumerate() {
                        if row < n {
                            col[row] = specials[(t + j + seed as usize) % specials.len()];
                        }
                    }
                }
                col
            })
            .collect()
    }

    #[test]
    fn gram_block_matches_dot_block_and_the_avx2_body_matches_the_scalar_one() {
        let k = 21; // 21 × 21 is CA-PCG at s = 10; 20 × 11 the stacked sPCG one
        for len in [0usize, 1, 3, 4, 127, 128, 129, 255, 256, 257, 1023, 1024] {
            // The block starts inside the columns and ends before their end.
            let (lo, hi) = (8, 8 + len);
            let (a, b) = (
                gram_operands(hi + 3, k, 3 + len as u64),
                gram_operands(hi + 3, k, 40 + len as u64),
            );
            let (a, b): (Vec<&[f64]>, Vec<&[f64]>) = (
                a.iter().map(|c| &c[..]).collect(),
                b.iter().map(|c| &c[..]).collect(),
            );
            // An entry does not depend on the shape it is computed in.
            let full: Vec<f64> = (0..k * k)
                .map(|e| crate::blas::dot_block(&a[e / k][lo..hi], &b[e % k][lo..hi]))
                .collect();
            for ka in 1..=k {
                for kb in 1..=k {
                    let what = format!("len={len} {ka}x{kb}");
                    let want: Vec<f64> = (0..ka * kb).map(|e| full[e / kb * k + e % kb]).collect();
                    let mut lanes = vec![f64::NAN; GRAM_LANES * ka * kb];
                    let mut got = vec![f64::NAN; ka * kb];
                    gram_block_body(&a[..ka], &b[..kb], lo, hi, &mut lanes, &mut got);
                    same_bits(&got, &want, &format!("{what} scalar"));
                    #[cfg(target_arch = "x86_64")]
                    if simd_ok() {
                        got.fill(f64::NAN);
                        // SAFETY: `simd_ok()` just detected AVX2, the
                        // function's one precondition.
                        unsafe {
                            gram_block_avx2(&a[..ka], &b[..kb], lo, hi, &mut lanes, &mut got)
                        };
                        same_bits(&got, &want, &format!("{what} avx2"));
                    }
                }
            }
        }
    }

    /// The checked twin of `combine_group`'s AVX2 call: whatever body the
    /// dispatch picks on this CPU, its bits are the scalar body's.
    #[test]
    fn combine_dispatch_matches_the_scalar_body_bitwise() {
        let mut rng = Rng64::seed_from_u64(11);
        for n in [0usize, 1, 15, 16, 17, 100, TILE] {
            for k in [0usize, 1, 3, MAX_TERMS] {
                let cols: Vec<Vec<f64>> = (0..k).map(|_| random_vec(n, &mut rng)).collect();
                let terms: Vec<(f64, &[f64])> = cols
                    .iter()
                    .map(|col| (rng.next_f64() - 0.5, &col[..]))
                    .collect();
                let (init_vec, dst0) = (random_vec(n, &mut rng), random_vec(n, &mut rng));
                for init in [None, Some(&init_vec[..])] {
                    let (mut got, mut want) = (dst0.clone(), dst0.clone());
                    combine_group(&mut got, init, &terms);
                    combine_group_body(&mut want, init, &terms);
                    same_bits(&got, &want, &format!("n={n} k={k} init={}", init.is_some()));
                }
            }
        }
    }

    /// The checked twin of `gram_block`'s AVX2 call: the dispatch's bits
    /// are the scalar body's, on operands with NaN, ±Inf and ±0.0.
    #[test]
    fn gram_dispatch_matches_the_scalar_body_bitwise() {
        let k = 7;
        for len in [0usize, 3, 4, 129, GRAM_TILE + 5, crate::blas::REDUCE_BLOCK] {
            let (lo, hi) = (4, 4 + len);
            let (a, b) = (gram_operands(hi, k, 5), gram_operands(hi, k, 6));
            let (a, b): (Vec<&[f64]>, Vec<&[f64]>) = (
                a.iter().map(|c| &c[..]).collect(),
                b.iter().map(|c| &c[..]).collect(),
            );
            for (ka, kb) in [(1, 1), (4, 2), (k, 3), (k, k)] {
                let mut lanes = vec![f64::NAN; GRAM_LANES * ka * kb];
                let (mut got, mut want) = (vec![f64::NAN; ka * kb], vec![f64::NAN; ka * kb]);
                gram_block(&a[..ka], &b[..kb], lo, hi, &mut lanes, &mut got);
                gram_block_body(&a[..ka], &b[..kb], lo, hi, &mut lanes, &mut want);
                same_bits(&got, &want, &format!("len={len} {ka}x{kb}"));
            }
        }
    }

    #[test]
    fn a_zero_coefficient_keeps_its_column_out() {
        let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let ones = [1.0; 3];
        for zero in [0.0, -0.0] {
            let mut dst = [1.0, 2.0, 3.0];
            combine(&mut dst, None, [(zero, &poison[..]), (2.0, &ones[..])]);
            assert_eq!(dst, [3.0, 4.0, 5.0]);
        }
        // …and a skipped column may have any length.
        let mut dst = [1.0, 2.0];
        combine(&mut dst, Some(&[5.0, 6.0]), [(0.0, &poison[..])]);
        assert_eq!(dst, [5.0, 6.0]);
    }
}
