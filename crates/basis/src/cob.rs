//! Change-of-basis matrices (paper eq. (9) and §2.3).
//!
//! For basis vectors `v_j = P_j(AM⁻¹)·w`, the recurrence
//! `z·P_j = γ_j·P_{j+1} + θ_j·P_j + μ_{j-1}·P_{j-1}` means multiplying a
//! basis column by the operator is a local 3-term combination of columns:
//! `(AM⁻¹)·v_j = γ_j·v_{j+1} + θ_j·v_j + μ_{j-1}·v_{j-1}`. Collecting
//! columns `0 … i−2` gives the `i × (i−1)` matrix `B_i` with θ on the
//! diagonal, μ on the superdiagonal and γ on the subdiagonal — eq. (9).
//!
//! sPCG uses `B = B_{s+1}` to form `AU^(k) = S^(k)·B` (Alg. 5 line 8) —
//! tile by tile inside `ParKernels::sstep_block_update`, from the three
//! recurrence arrays rather than from the assembled matrix;
//! CA-PCG embeds `B_{s+1}` and `B_s` in a `(2s+1)²` block matrix so the MV
//! products of its inner loop can be performed on coordinate vectors.

use crate::poly::BasisParams;
use spcg_sparse::DenseMat;

/// The `i × (i−1)` change-of-basis matrix `B_i` of eq. (9).
///
/// # Panics
/// Panics if `i < 2` or the parameters cover fewer than `i−1` polynomials.
pub fn b_small(params: &BasisParams, i: usize) -> DenseMat {
    assert!(i >= 2, "b_small: need i >= 2");
    assert!(
        params.degree() >= i - 1,
        "b_small: params degree {} too small for i = {i}",
        params.degree()
    );
    let mut b = DenseMat::zeros(i, i - 1);
    for j in 0..i - 1 {
        b[(j, j)] = params.theta[j];
        b[(j + 1, j)] = params.gamma[j];
        if j >= 1 {
            b[(j - 1, j)] = params.mu[j - 1];
        }
    }
    b
}

/// The `(2s+1) × (2s+1)` change-of-basis matrix of CA-PCG (§2.3):
///
/// ```text
/// B = [ B_{s+1}   0   0      0 ]
///     [ 0         0   B_s    0 ]
/// ```
///
/// so that `A·Ẑ^(k) = Y^(k)·B` where `Ẑ` is `Z` with the last column of
/// each block zeroed.
///
/// # Panics
/// Panics if `s < 2` or the parameters cover fewer than `s` polynomials.
pub fn b_capcg(params: &BasisParams, s: usize) -> DenseMat {
    assert!(s >= 2, "b_capcg: need s >= 2");
    let b_sp1 = b_small(params, s + 1); // (s+1) × s
    let b_s = b_small(params, s); // s × (s-1)
    let mut b = DenseMat::zeros(2 * s + 1, 2 * s + 1);
    for j in 0..s {
        for i in 0..=s {
            b[(i, j)] = b_sp1[(i, j)];
        }
    }
    for j in 0..s - 1 {
        for i in 0..s {
            b[(s + 1 + i, s + 1 + j)] = b_s[(i, j)];
        }
    }
    b
}

/// FLOPs per row of forming the `k` columns of `AU = S·B_{k+1}`
/// (Alg. 5 line 8), `au_j = γ_j·s_{j+1} + θ_j·s_j + μ_{j-1}·s_{j-1}`, the
/// way `ParKernels::sstep_block_update` forms them: one multiply per
/// `γ_j ≠ 1` and a multiply-add per nonzero `θ_j` / `μ_{j-1}` — 0 for the
/// monomial basis, where the column is a copy, and at most `5k − 2` in
/// general (paper §4.2).
///
/// # Panics
/// Panics if the parameters cover fewer than `k` polynomials.
pub fn au_flops_per_row(params: &BasisParams, k: usize) -> u64 {
    assert!(
        params.degree() >= k,
        "au_flops_per_row: params degree too small"
    );
    (0..k)
        .map(|j| {
            u64::from(params.gamma[j] != 1.0)
                + 2 * u64::from(params.theta[j] != 0.0)
                + 2 * u64::from(j >= 1 && params.mu[j - 1] != 0.0)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b_small_monomial_is_shift_matrix() {
        let p = BasisParams::monomial(4);
        let b = b_small(&p, 4);
        // Monomial: subdiagonal ones only.
        for i in 0..4 {
            for j in 0..3 {
                let want = if i == j + 1 { 1.0 } else { 0.0 };
                assert_eq!(b[(i, j)], want, "({i},{j})");
            }
        }
    }

    #[test]
    fn b_small_satisfies_recurrence_on_diagonal_operator() {
        // For a scalar z, the basis values p = [P_0(z), …, P_i-1(z)] must
        // satisfy z·p[0..i-1] = p · B_i (the defining property of B).
        let params = BasisParams::chebyshev(0.5, 3.5, 6);
        let b = b_small(&params, 6);
        for &z in &[0.5, 1.0, 2.2, 3.5, 4.1] {
            let p = params.eval_all(z); // P_0 … P_6; we use P_0 … P_5
            for j in 0..5 {
                let mut acc = 0.0;
                for l in 0..6 {
                    acc += p[l] * b[(l, j)];
                }
                assert!(
                    (acc - z * p[j]).abs() < 1e-10 * (1.0 + z * p[j].abs()),
                    "z={z}, column {j}: {acc} vs {}",
                    z * p[j]
                );
            }
        }
    }

    #[test]
    fn b_small_newton_has_shifts_on_diagonal() {
        let p = BasisParams::newton(&[2.0, 3.0, 5.0], 3);
        let b = b_small(&p, 3);
        assert_eq!(b[(0, 0)], 2.0);
        assert_eq!(b[(1, 1)], 3.0);
        assert_eq!(b[(1, 0)], 1.0);
        assert_eq!(b[(0, 1)], 0.0); // Newton has no μ coupling
    }

    #[test]
    fn b_capcg_block_structure() {
        let params = BasisParams::chebyshev(0.0, 2.0, 5);
        let s = 4;
        let b = b_capcg(&params, s);
        assert_eq!(b.nrows(), 2 * s + 1);
        assert_eq!(b.ncols(), 2 * s + 1);
        // Column s and column 2s are zero.
        for i in 0..2 * s + 1 {
            assert_eq!(b[(i, s)], 0.0);
            assert_eq!(b[(i, 2 * s)], 0.0);
        }
        // Top-left block equals B_{s+1}.
        let bs1 = b_small(&params, s + 1);
        for i in 0..=s {
            for j in 0..s {
                assert_eq!(b[(i, j)], bs1[(i, j)]);
            }
        }
        // Bottom-right block equals B_s shifted by s+1 columns / rows.
        let bs = b_small(&params, s);
        for i in 0..s {
            for j in 0..s - 1 {
                assert_eq!(b[(s + 1 + i, s + 1 + j)], bs[(i, j)]);
            }
        }
        // Rows 0..s have no entries in the second block's columns.
        for i in 0..=s {
            for j in s + 1..2 * s + 1 {
                assert_eq!(b[(i, j)], 0.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "need i >= 2")]
    fn b_small_rejects_tiny() {
        b_small(&BasisParams::monomial(2), 1);
    }

    #[test]
    fn au_flops_follow_the_nonzero_pattern() {
        assert_eq!(au_flops_per_row(&BasisParams::monomial(6), 6), 0);
        // Newton: γ = 1, μ = 0, one multiply-add per shift.
        assert_eq!(
            au_flops_per_row(&BasisParams::newton(&[2.0, 3.0, 0.0, 5.0], 4), 4),
            6
        );
        // Chebyshev: every coefficient live — the paper's 5k − 2 bound.
        assert_eq!(
            au_flops_per_row(&BasisParams::chebyshev(0.3, 2.7, 4), 4),
            18
        );
    }
}
