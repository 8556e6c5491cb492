//! The row-tile primitive under every dense block kernel of the s-step
//! methods: `dst[i] ← init[i] + Σ_l c_l·col_l[i]`.
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
        // SAFETY: AVX2 was detected at run time.
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
                        // SAFETY: AVX2 was detected at run time.
                        unsafe { combine_group_avx2(&mut simd, init, &live) };
                        same_bits(&simd, &scalar, &format!("{what} avx2"));
                    }
                }
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
