//! Symmetric tridiagonal eigensolver.
//!
//! The Lanczos/CG coefficients of a few warm-up PCG iterations define a
//! symmetric tridiagonal matrix whose eigenvalues (Ritz values) estimate the
//! spectrum of the preconditioned operator `M⁻¹A`. The paper uses these
//! estimates for the Newton-basis shifts and the Chebyshev basis/
//! preconditioner intervals (§5.1). This module provides the implicit QL
//! algorithm with Wilkinson shifts — the standard kernel (LAPACK `dsterf`
//! analogue) — implemented from scratch.

/// Computes all eigenvalues of the symmetric tridiagonal matrix with
/// diagonal `d` and off-diagonal `e` (`e.len() == d.len() - 1`), returned in
/// ascending order.
///
/// Uses the implicit QL algorithm with Wilkinson shifts; each eigenvalue
/// converges in a handful of iterations, giving `O(n²)` total work, entirely
/// negligible at the `n ≈ 2s` sizes used here.
///
/// # Panics
/// Panics if the dimensions are inconsistent or convergence fails after an
/// unreasonable number of sweeps (which cannot happen for finite input).
pub fn eigenvalues(d: &[f64], e: &[f64]) -> Vec<f64> {
    let n = d.len();
    assert!(n > 0, "tridiag::eigenvalues: empty matrix");
    assert_eq!(
        e.len(),
        n.saturating_sub(1),
        "tridiag::eigenvalues: off-diagonal length"
    );
    let mut d = d.to_vec();
    // Pad the off-diagonal with a trailing zero, Numerical-Recipes style.
    let mut e: Vec<f64> = e.iter().copied().chain(std::iter::once(0.0)).collect();

    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a small off-diagonal element to split at.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            assert!(iter <= 50, "tridiag::eigenvalues: QL failed to converge");
            // Wilkinson shift from the leading 2x2 of the active block.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            let mut underflow = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Off-diagonal underflow mid-sweep: deflate and restart.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    underflow = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
            }
            if underflow {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    d.sort_by(|a, b| {
        a.partial_cmp(b)
            .expect("tridiag eigenvalues must be finite")
    });
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_eigenvalues_are_diagonal() {
        let ev = eigenvalues(&[3.0, 1.0, 2.0], &[0.0, 0.0]);
        assert_eq!(ev, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn single_entry() {
        assert_eq!(eigenvalues(&[7.5], &[]), vec![7.5]);
    }

    #[test]
    fn two_by_two_known() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let ev = eigenvalues(&[2.0, 2.0], &[1.0]);
        assert!((ev[0] - 1.0).abs() < 1e-12);
        assert!((ev[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn laplacian_1d_matches_analytic() {
        // Tridiag(-1, 2, -1) of size n has eigenvalues 2 - 2cos(kπ/(n+1)).
        let n = 50;
        let d = vec![2.0; n];
        let e = vec![-1.0; n - 1];
        let ev = eigenvalues(&d, &e);
        for k in 1..=n {
            let exact = 2.0 - 2.0 * (std::f64::consts::PI * k as f64 / (n as f64 + 1.0)).cos();
            assert!(
                (ev[k - 1] - exact).abs() < 1e-10,
                "eigenvalue {k}: got {} want {exact}",
                ev[k - 1]
            );
        }
    }

    #[test]
    fn trace_is_preserved() {
        let d = vec![1.0, -2.0, 5.0, 0.5, 3.0];
        let e = vec![0.7, -1.3, 2.0, 0.1];
        let ev = eigenvalues(&d, &e);
        let trace: f64 = d.iter().sum();
        let sum: f64 = ev.iter().sum();
        assert!((trace - sum).abs() < 1e-10);
    }
}
