//! Operations over a pair of multivectors viewed as one concatenated block
//! `[L | R]` — how CA-PCG handles `Y = [Q, R̂]` / `Z = [P, U]` and CA-PCG3
//! handles `[R^(k-1), W^(k)]` without materializing the concatenation.
//!
//! The Gram product is computed by the **fused** tall-skinny kernel
//! [`ParKernels::gram_cols`]: one pass over the rows fills all
//! `(kz1+kz2) × (ky1+ky2)` entries — L1-sized row sub-tiles under a 4×2
//! register tile of entries — instead of four separate column-pair sweeps. The per-pair reduction
//! shape (blocked pairwise summation) is independent of how the columns
//! are grouped, so the fused product is bitwise identical to the four
//! sub-block Gram matrices it replaces.

use spcg_basis::cob::au_flops_per_row;
use spcg_basis::poly::BasisParams;
use spcg_dist::Counters;
use spcg_sparse::{blas, DenseMat, GemvOut, MultiVector, ParKernels, SstepBlock};

/// Gram product `[zl|zr]ᵀ·[yl|yr]` of shape
/// `(kz1+kz2) × (ky1+ky2)`, computed in one fused pass.
pub fn gram_concat(
    pk: &ParKernels,
    zl: &MultiVector,
    zr: &MultiVector,
    yl: &MultiVector,
    yr: &MultiVector,
) -> DenseMat {
    let n = zl.n();
    let zcols: Vec<&[f64]> = (0..zl.k())
        .map(|i| zl.col(i))
        .chain((0..zr.k()).map(|i| zr.col(i)))
        .collect();
    let ycols: Vec<&[f64]> = (0..yl.k())
        .map(|j| yl.col(j))
        .chain((0..yr.k()).map(|j| yr.col(j)))
        .collect();
    pk.gram_cols(n, &zcols, &ycols)
}

/// The sPCG-body Gram blocks `[Uᵀ·S ; Pᵀ·S]` in one fused pass: `S` is
/// streamed once for both and the `2s` left columns fill the four-row
/// register tiles better than two separate `s`-row products would.
/// `p = None` (first block) computes `Uᵀ·S` alone. Entry for entry bitwise
/// the two separate Gram products.
pub fn gram_stacked(
    pk: &ParKernels,
    u: &MultiVector,
    p: Option<&MultiVector>,
    s: &MultiVector,
) -> (DenseMat, Option<DenseMat>) {
    let zcols: Vec<&[f64]> = (0..u.k())
        .map(|i| u.col(i))
        .chain(p.into_iter().flat_map(|p| (0..p.k()).map(|i| p.col(i))))
        .collect();
    let ycols: Vec<&[f64]> = (0..s.k()).map(|j| s.col(j)).collect();
    let g = pk.gram_cols(u.n(), &zcols, &ycols);
    let rows = |lo: usize, k: usize| DenseMat::from_fn(k, s.k(), |i, j| g[(lo + i, j)]);
    (rows(0, u.k()), p.map(|p| rows(u.k(), p.k())))
}

/// The vector-update phase of the sPCG-body methods (Alg. 5 lines 8–12:
/// `AU = S·B`, `P ← U + P·B_k`, `AP ← AU + AP·B_k`, `x += P·a`,
/// `r −= AP·a`) as one pass over row tiles, with its Table-1 charges for
/// `nw` global rows: `AU` costs at most `(5s−2)n` BLAS2 FLOPs (0 for the
/// monomial basis), the blocked updates `4s²n` BLAS3 (none on the first
/// block, `b_k = None`), the two GEMVs `4sn` BLAS2.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sstep_update(
    pk: &ParKernels,
    params: &BasisParams,
    s_mat: &MultiVector,
    u_mat: &MultiVector,
    b_k: Option<&DenseMat>,
    a: &[f64],
    p_mat: &mut MultiVector,
    ap_mat: &mut MultiVector,
    x: &mut [f64],
    r: &mut [f64],
    nw: u64,
    counters: &mut Counters,
) {
    let blk = SstepBlock {
        s_mat,
        gamma: &params.gamma,
        theta: &params.theta,
        mu: &params.mu,
        u: u_mat,
        b_k,
        a,
    };
    pk.sstep_block_update(&blk, p_mat, ap_mat, x, r);
    let sw = a.len() as u64;
    counters.blas2_flops += au_flops_per_row(params, a.len()) * nw;
    if b_k.is_some() {
        counters.blas3_flops += 4 * sw * sw * nw;
    }
    counters.blas2_flops += 4 * sw * nw;
}

/// `out ← [l|r]·coef` (BLAS2 over the concatenation).
///
/// # Panics
/// Panics if `coef.len() != l.k() + r.k()`.
pub fn gemv_concat(
    pk: &ParKernels,
    l: &MultiVector,
    r: &MultiVector,
    coef: &[f64],
    out: &mut [f64],
) {
    pk.gemv_multi(&[l, r], &mut [GemvOut::Set(coef, out)]);
}

/// `out ← out + [l|r]·coef`.
///
/// # Panics
/// Panics if `coef.len() != l.k() + r.k()`.
pub fn gemv_concat_acc(
    pk: &ParKernels,
    l: &MultiVector,
    r: &MultiVector,
    coef: &[f64],
    out: &mut [f64],
) {
    pk.gemv_multi(&[l, r], &mut [GemvOut::Acc(coef, out)]);
}

/// `aᵀ G b` for small vectors — the coordinate-space inner products of
/// CA-PCG and CA-PCG3.
pub(crate) fn quad_form(g: &DenseMat, a: &[f64], b: &[f64]) -> f64 {
    blas::dot(a, &g.matvec(b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mv(cols: &[&[f64]]) -> MultiVector {
        MultiVector::from_columns(&cols.iter().map(|c| c.to_vec()).collect::<Vec<_>>())
    }

    #[test]
    fn gram_concat_matches_materialized() {
        let pk = ParKernels::serial();
        let l = mv(&[&[1.0, 2.0], &[0.0, 1.0]]);
        let r = mv(&[&[3.0, -1.0]]);
        let full = mv(&[&[1.0, 2.0], &[0.0, 1.0], &[3.0, -1.0]]);
        let g = gram_concat(&pk, &l, &r, &l, &r);
        let want = full.gram(&full);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(g[(i, j)], want[(i, j)]);
            }
        }
    }

    #[test]
    fn gram_concat_is_bitwise_identical_across_thread_counts() {
        // Long columns so the reduction spans many blocks, odd-count tail
        // included; the fused tiled kernel must agree with the serial
        // sub-block Gram products bit for bit.
        let n = 5 * 1024 + 3;
        let col = |seed: usize| -> Vec<f64> {
            (0..n)
                .map(|i| (((i * 31 + seed * 17) % 41) as f64) - 20.0)
                .collect()
        };
        let l = MultiVector::from_columns(&[col(0), col(1), col(2)]);
        let r = MultiVector::from_columns(&[col(3), col(4)]);
        let serial = gram_concat(&ParKernels::serial(), &l, &r, &l, &r);
        for t in [2usize, 4, 8] {
            let pk = ParKernels::new(t);
            let g = gram_concat(&pk, &l, &r, &l, &r);
            for i in 0..5 {
                for j in 0..5 {
                    assert_eq!(g[(i, j)], serial[(i, j)], "threads {t} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn gram_stacked_equals_the_two_separate_grams() {
        // Odd row counts on both sides and a multi-block length, so a
        // register tile spans the U/P boundary.
        let n = 3 * 1024 + 11;
        let col = |seed: usize| -> Vec<f64> {
            (0..n)
                .map(|i| (((i * 29 + seed * 13) % 37) as f64) * 0.125 - 2.0)
                .collect()
        };
        let u = MultiVector::from_columns(&[col(0), col(1), col(2)]);
        let p = MultiVector::from_columns(&[col(3), col(4), col(5)]);
        let s = MultiVector::from_columns(&[col(6), col(7), col(8), col(9)]);
        for t in [1usize, 2, 4] {
            let pk = ParKernels::new(t);
            let (g1, g2) = gram_stacked(&pk, &u, Some(&p), &s);
            assert_eq!(g1, pk.gram(&u, &s), "threads {t}");
            assert_eq!(g2, Some(pk.gram(&p, &s)), "threads {t}");
            let (g1, g2) = gram_stacked(&pk, &u, None, &s);
            assert_eq!(g1, pk.gram(&u, &s));
            assert_eq!(g2, None);
        }
    }

    #[test]
    fn gemv_concat_matches_materialized() {
        let pk = ParKernels::serial();
        let l = mv(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let r = mv(&[&[1.0, 1.0]]);
        let coef = [2.0, 3.0, 4.0];
        let mut out = vec![0.0; 2];
        gemv_concat(&pk, &l, &r, &coef, &mut out);
        assert_eq!(out, vec![6.0, 7.0]);
        gemv_concat_acc(&pk, &l, &r, &coef, &mut out);
        assert_eq!(out, vec![12.0, 14.0]);
    }
}
