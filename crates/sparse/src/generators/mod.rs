//! Synthetic SPD problem generators.
//!
//! The paper evaluates on (a) SuiteSparse matrices (Table 2/3) and (b) a
//! 7-point 3D Poisson matrix (Figure 1). The Poisson generators here are
//! exactly the paper's synthetic problem; the [`suite`] module provides a
//! 40-matrix stand-in for the SuiteSparse subset with matched difficulty
//! classes (see DESIGN.md §3 for the substitution rationale).

pub mod anisotropic;
pub mod poisson;
pub mod random_spd;
pub mod suite;

pub use anisotropic::{anisotropic_2d, anisotropic_3d};
pub use poisson::{poisson_1d, poisson_2d, poisson_3d};
pub use random_spd::{spd_with_spectrum, SpectrumShape};
pub use suite::{suite_matrices, SuiteEntry};

/// Builds the right-hand side used throughout the paper's experiments
/// (§5.1): `b = A·x*` with every entry of the solution `x*` equal to
/// `1/√n`, so `‖x*‖₂ = 1`.
pub fn paper_rhs(a: &crate::CsrMatrix) -> Vec<f64> {
    let n = a.nrows();
    let xstar = vec![1.0 / (n as f64).sqrt(); n];
    let mut b = vec![0.0; n];
    a.spmv(&xstar, &mut b);
    b
}

/// `a` with every diagonal entry scaled by its own seeded factor in
/// `[1, 1.1)`, rebuilt through COO: the same sparsity pattern with
/// variable coefficients. A diagonally dominant `a` stays so (and SPD); a
/// constant-coefficient `a` of two or more rows stops being
/// constant-diagonal, so its [`crate::SellMatrix`] takes the slot
/// encoding. The variable-coefficient twin the format parity tests and the
/// `kernels` bench run the slot kernel on.
pub fn perturb_diagonal(a: &crate::CsrMatrix, seed: u64) -> crate::CsrMatrix {
    let mut rng = crate::rng::Rng64::seed_from_u64(seed);
    let mut coo = crate::CooMatrix::with_capacity(a.nrows(), a.ncols(), a.nnz());
    for r in 0..a.nrows() {
        let (cols, vals) = a.row(r);
        for (&c, &v) in cols.iter().zip(vals) {
            let v = if c == r {
                v * rng.range_f64(1.0, 1.1)
            } else {
                v
            };
            coo.push(r, c, v);
        }
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_rhs_recovers_unit_norm_solution() {
        let a = poisson_1d(32);
        let b = paper_rhs(&a);
        // The residual of x* must be zero by construction.
        let n = a.nrows();
        let xstar = vec![1.0 / (n as f64).sqrt(); n];
        let mut ax = vec![0.0; n];
        a.spmv(&xstar, &mut ax);
        for (p, q) in ax.iter().zip(&b) {
            assert!((p - q).abs() < 1e-15);
        }
        let norm: f64 = xstar.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-12);
    }
}
