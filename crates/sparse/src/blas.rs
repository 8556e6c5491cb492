//! Dense BLAS1-style kernels on `&[f64]` slices.
//!
//! These are the primitive vector operations from which both standard PCG
//! (BLAS1-bound) and the blocked s-step updates are built. They are written
//! so the auto-vectorizer produces tight SIMD loops: plain indexed loops over
//! equal-length slices with the bounds checked once up front.
//!
//! # Reduction shape
//!
//! Every dot-product-style reduction uses a *fixed-shape* blocked pairwise
//! summation: the input is cut into [`REDUCE_BLOCK`]-sized blocks, each block
//! is reduced by the four-lane kernel [`dot_block`], and the per-block
//! partials are combined by [`pairwise_sum`]. The shape depends only on the
//! vector length — never on who computes which block — so the threaded
//! reducer in [`crate::par`] produces bitwise-identical results for any
//! thread count, and the ranked-vs-serial parity tests stay meaningful.
//! Pairwise combination also carries an `O(log n)` error bound versus the
//! `O(n)` of naive left-to-right accumulation, which matters for the ill-
//! conditioned Gram systems of the s-step methods.

/// Reduction block size (entries) of the fixed-shape blocked summation.
///
/// Matches the row-block size of the `MultiVector` Gram/update kernels so a
/// single schedule serves both. Vectors no longer than this reduce in one
/// [`dot_block`] call.
pub const REDUCE_BLOCK: usize = 1024;

/// Dot product of one block, `x · y`, accumulated in four independent lanes
/// so the FP adds do not form a single serial dependency chain; the compiler
/// turns this into SIMD. This is the per-block kernel of the fixed-shape
/// reduction — the threaded reducer calls it on exactly the same blocks.
///
/// # Panics
/// Panics if `x` and `y` have different lengths.
#[inline]
pub fn dot_block(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let mut acc = [0.0f64; 4];
    let chunks = x.len() / 4;
    for i in 0..chunks {
        let b = i * 4;
        acc[0] += x[b] * y[b];
        acc[1] += x[b + 1] * y[b + 1];
        acc[2] += x[b + 2] * y[b + 2];
        acc[3] += x[b + 3] * y[b + 3];
    }
    let mut tail = 0.0;
    for i in chunks * 4..x.len() {
        tail += x[i] * y[i];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// In-place pairwise reduction of a partial-sum array; returns the total.
///
/// Repeatedly halves the array by adding adjacent pairs (`v[2i] + v[2i+1]`),
/// carrying an odd trailing element unchanged. The association shape is a
/// function of `len()` alone, which is what makes the blocked reduction
/// independent of the thread count that produced the partials.
#[inline]
pub fn pairwise_sum(v: &mut [f64]) -> f64 {
    let mut m = v.len();
    if m == 0 {
        return 0.0;
    }
    while m > 1 {
        let half = m / 2;
        for i in 0..half {
            v[i] = v[2 * i] + v[2 * i + 1];
        }
        if m % 2 == 1 {
            v[half] = v[m - 1];
            m = half + 1;
        } else {
            m = half;
        }
    }
    v[0]
}

/// Dot product `x · y` with fixed-shape blocked pairwise accumulation.
///
/// For `x.len() <= REDUCE_BLOCK` this is a single [`dot_block`] call; longer
/// vectors reduce block-by-block with the partials combined by
/// [`pairwise_sum`]. The result is bitwise identical to the threaded
/// reduction at any thread count.
///
/// # Panics
/// Panics if `x` and `y` have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    let n = x.len();
    if n <= REDUCE_BLOCK {
        return dot_block(x, y);
    }
    let mut partials: Vec<f64> = (0..n.div_ceil(REDUCE_BLOCK))
        .map(|b| {
            let lo = b * REDUCE_BLOCK;
            let hi = (lo + REDUCE_BLOCK).min(n);
            dot_block(&x[lo..hi], &y[lo..hi])
        })
        .collect();
    pairwise_sum(&mut partials)
}

/// Squared Euclidean norm `‖x‖²`.
#[inline]
pub fn norm2_sq(x: &[f64]) -> f64 {
    dot(x, x)
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    norm2_sq(x).sqrt()
}

/// `y ← y + a·x` (the classic axpy).
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for i in 0..x.len() {
        y[i] += a * x[i];
    }
}

/// `y ← x + b·y` (xpby), used for search-direction updates `p ← u + β·p`.
#[inline]
pub fn xpby(x: &[f64], b: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpby: length mismatch");
    for i in 0..x.len() {
        y[i] = x[i] + b * y[i];
    }
}

/// `z ← x - y` elementwise.
#[inline]
pub fn sub(x: &[f64], y: &[f64], z: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    assert_eq!(x.len(), z.len(), "sub: output length mismatch");
    for i in 0..x.len() {
        z[i] = x[i] - y[i];
    }
}

/// `x ← a·x`.
#[inline]
pub fn scale(a: f64, x: &mut [f64]) {
    for v in x.iter_mut() {
        *v *= a;
    }
}

/// Set every entry of `x` to zero.
#[inline]
pub fn zero(x: &mut [f64]) {
    for v in x.iter_mut() {
        *v = 0.0;
    }
}

/// Maximum absolute entry `‖x‖∞`.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
}

/// Returns `true` if any entry is NaN or infinite — used by the solvers'
/// divergence detection.
#[inline]
pub fn has_non_finite(x: &[f64]) -> bool {
    x.iter().any(|v| !v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_naive() {
        let x: Vec<f64> = (0..103).map(|i| (i as f64).sin()).collect();
        let y: Vec<f64> = (0..103).map(|i| (i as f64).cos()).collect();
        let naive: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - naive).abs() < 1e-12 * naive.abs().max(1.0));
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_short_vectors() {
        // Lengths below the unroll width exercise the tail loop alone.
        for n in 0..8 {
            let x: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
            let expected: f64 = x.iter().map(|v| v * v).sum();
            assert_eq!(dot(&x, &x), expected);
        }
    }

    #[test]
    fn dot_equals_dot_block_up_to_block_size() {
        // Below the block boundary the blocked reduction is one dot_block
        // call: bitwise equal to the pre-blocking kernel.
        for n in [1usize, 4, 103, REDUCE_BLOCK] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let y: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).cos()).collect();
            assert_eq!(dot(&x, &y), dot_block(&x, &y));
        }
    }

    #[test]
    fn dot_long_matches_explicit_block_shape() {
        // The blocked reduction is exactly: per-block dot_block partials
        // combined by pairwise_sum, regardless of length alignment.
        for n in [
            REDUCE_BLOCK + 1,
            3 * REDUCE_BLOCK,
            5 * REDUCE_BLOCK + 17,
            8 * REDUCE_BLOCK + 1023,
        ] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
            let y: Vec<f64> = (0..n).map(|i| 1.0 - (i as f64 * 0.2).cos()).collect();
            let mut partials: Vec<f64> = x
                .chunks(REDUCE_BLOCK)
                .zip(y.chunks(REDUCE_BLOCK))
                .map(|(a, b)| dot_block(a, b))
                .collect();
            assert_eq!(dot(&x, &y), pairwise_sum(&mut partials));
        }
    }

    #[test]
    fn pairwise_sum_shapes() {
        assert_eq!(pairwise_sum(&mut []), 0.0);
        assert_eq!(pairwise_sum(&mut [3.5]), 3.5);
        assert_eq!(pairwise_sum(&mut [1.0, 2.0]), 3.0);
        // Odd length carries the trailing element.
        assert_eq!(pairwise_sum(&mut [1.0, 2.0, 4.0]), 7.0);
        let mut v: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        assert_eq!(pairwise_sum(&mut v), 45.0);
    }

    /// Kahan (compensated) summation reference for the accuracy comparison.
    fn kahan_dot(x: &[f64], y: &[f64]) -> f64 {
        let mut sum = 0.0f64;
        let mut c = 0.0f64;
        for (a, b) in x.iter().zip(y) {
            let term = a * b - c;
            let t = sum + term;
            c = (t - sum) - term;
            sum = t;
        }
        sum
    }

    /// Plain left-to-right accumulation (the pre-blocking behaviour for the
    /// cross-block combine).
    fn naive_dot(x: &[f64], y: &[f64]) -> f64 {
        x.iter().zip(y).map(|(a, b)| a * b).sum()
    }

    #[test]
    fn blocked_dot_beats_naive_accumulation_vs_kahan() {
        // 0.1 is inexact in binary; summing ~131k copies left-to-right
        // accumulates O(n·eps) rounding, while the blocked pairwise shape
        // stays within O(log n · eps) of the compensated reference.
        let n = 128 * REDUCE_BLOCK + 7;
        let x = vec![1.0f64; n];
        let y = vec![0.1f64; n];
        let reference = kahan_dot(&x, &y);
        let naive_err = (naive_dot(&x, &y) - reference).abs();
        let blocked_err = (dot(&x, &y) - reference).abs();
        assert!(
            blocked_err * 8.0 <= naive_err.max(f64::EPSILON),
            "blocked {blocked_err:e} not clearly better than naive {naive_err:e}"
        );
        assert!(
            blocked_err <= 1e-10 * reference.abs(),
            "blocked error too large: {blocked_err:e}"
        );
    }

    #[test]
    fn axpy_basic() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn xpby_basic() {
        let x = [1.0, 1.0];
        let mut y = [2.0, 4.0];
        xpby(&x, 0.5, &mut y);
        assert_eq!(y, [2.0, 3.0]);
    }

    #[test]
    fn norms() {
        let x = [3.0, -4.0];
        assert!((norm2(&x) - 5.0).abs() < 1e-15);
        assert_eq!(norm_inf(&x), 4.0);
    }

    #[test]
    fn non_finite_detection() {
        assert!(!has_non_finite(&[1.0, 2.0]));
        assert!(has_non_finite(&[1.0, f64::NAN]));
        assert!(has_non_finite(&[f64::INFINITY]));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
