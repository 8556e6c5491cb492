//! Chebyshev polynomial preconditioner.
//!
//! `M⁻¹ = q_d(A)` where `q_d` is the degree-`d` polynomial produced by `d`
//! steps of Chebyshev iteration on `A z = r` (zero initial guess) for a
//! target interval `[λ_lo, λ_hi]` (Saad, *Iterative Methods for Sparse
//! Linear Systems*, Alg. 12.1). Being a fixed polynomial in the SPD matrix
//! `A`, `q_d(A)` is symmetric, and positive definite whenever the spectrum
//! of `A` lies inside the target interval — the setting the paper uses with
//! degree 3 (§5.1–5.3).
//!
//! Applying it costs `d` SpMVs and no communication, which is exactly why
//! the paper pairs it with s-step methods. Eigenvalue bounds come from a
//! few warm-up iterations (see `spcg-basis::ritz`) or Gershgorin circles;
//! like Trilinos/Ifpack2 the lower bound defaults to `λ_hi / ratio`.
//!
//! # One recurrence, on the caller's operator
//!
//! With `d` SpMVs per apply the preconditioner *is* the solve's SpMV
//! layer, so it does not own a sparse format: [`SpmvPolyApply::apply_on`]
//! takes the operator as a [`MatRef`] and the executors hand it the stored
//! form their own kernels run on. [`Preconditioner::apply`] and
//! [`Preconditioner::apply_par`], which have no format to follow, are the
//! same body on the preconditioner's CSR matrix.
//!
//! The body is a prologue pass writing `d = z₀ = r/θ` and then, per
//! degree, one [`ParKernels::spmv_bands`] sweep whose epilogue is the
//! recurrence — `d ← c1·d + c2·(r − A z)`, `z' ← z + d` — applied to each
//! 1024-row band of `A z` while it sits in a stack buffer: no full-length
//! `A z`, no second or third pass over `d` and `z`. A sweep reads all of
//! `z`, so `z'` goes to a second buffer and the two swap; the starting side
//! is chosen by the parity of `d` so the last sweep writes the caller's
//! `z` (odd degree: start in the temporary). Per element the operations
//! are those of the closure form [`SpmvPolyApply::apply_with_spmv`] in the
//! same order and a band of `A z` is bitwise the band of the whole-matrix
//! SpMV in either format, so every form gives the same bits for every
//! thread count. The closure form stays for the ranked engine, whose SpMV
//! is a halo exchange; both draw `(θ, c1, c2)` from one helper.
//!
//! **Allocation rule.** Every apply makes exactly two length-`n` heap
//! allocations and drops them on return (`d` and the second iterate
//! buffer; before the fusion, `d` and `A z`). Do not cache them on the
//! preconditioner, in a thread-local or in the tile scratch: the
//! benchmark's `peak_rss_mb` on the Table 3 workload is bistable under
//! glibc's dynamic mmap threshold (61 vs 69 MiB), and one more resident
//! MiB flipped it by 7–8 MiB in either direction (DESIGN.md §4).

use crate::spec::PrecondSpec;
use crate::traits::{DistForm, Preconditioner, SpmvPolyApply};
use spcg_sparse::{CsrMatrix, MatRef, ParKernels};
use std::sync::Arc;

/// Chebyshev polynomial preconditioner of a given degree.
pub struct ChebyshevPrecond {
    a: Arc<CsrMatrix>,
    degree: usize,
    lambda_lo: f64,
    lambda_hi: f64,
}

impl ChebyshevPrecond {
    /// Builds for the target interval `[lambda_lo, lambda_hi]`.
    ///
    /// # Panics
    /// Panics unless `0 < lambda_lo < lambda_hi < ∞` and `degree ≥ 1`.
    pub fn new(a: Arc<CsrMatrix>, degree: usize, lambda_lo: f64, lambda_hi: f64) -> Self {
        assert!(degree >= 1, "ChebyshevPrecond: degree must be at least 1");
        // An infinite upper end would pass the ordering test and then make
        // θ = δ = ∞, σ₁ = NaN and every apply NaN.
        assert!(
            lambda_lo > 0.0 && lambda_lo < lambda_hi && lambda_hi.is_finite(),
            "ChebyshevPrecond: need 0 < lambda_lo < lambda_hi < inf (got {lambda_lo}, {lambda_hi})"
        );
        assert_eq!(
            a.nrows(),
            a.ncols(),
            "ChebyshevPrecond: matrix must be square"
        );
        ChebyshevPrecond {
            a,
            degree,
            lambda_lo,
            lambda_hi,
        }
    }

    /// Builds with bounds from Gershgorin circles: `λ_hi` is the (safe)
    /// Gershgorin upper bound boosted by 10%, `λ_lo = λ_hi / ratio`
    /// (Ifpack2's `eigRatio`, default 30).
    pub fn from_matrix(a: Arc<CsrMatrix>, degree: usize, ratio: f64) -> Self {
        assert!(ratio > 1.0, "ChebyshevPrecond: ratio must exceed 1");
        let (_, hi) = a.gershgorin_bounds();
        let hi = hi * 1.1;
        Self::new(a, degree, hi / ratio, hi)
    }

    /// The target interval.
    pub fn interval(&self) -> (f64, f64) {
        (self.lambda_lo, self.lambda_hi)
    }

    /// Polynomial degree (= SpMVs per application).
    pub fn degree(&self) -> usize {
        self.degree
    }

    /// The scalars of the recurrence: `θ` (the degree-0 iterate is `r/θ`)
    /// and, per degree, the `(c1, c2)` of `d ← c1·d + c2·(r − A z)` —
    /// `c1 = ρ_k ρ_{k−1}`, `c2 = 2ρ_k/δ`, `ρ_k = 1/(2σ₁ − ρ_{k−1})`. Both
    /// application forms draw them from here.
    fn recurrence(&self) -> (f64, impl Iterator<Item = (f64, f64)>) {
        let theta = 0.5 * (self.lambda_hi + self.lambda_lo);
        let delta = 0.5 * (self.lambda_hi - self.lambda_lo);
        let sigma1 = theta / delta;
        let mut rho_prev = 1.0 / sigma1;
        let steps = (0..self.degree).map(move |_| {
            let rho = 1.0 / (2.0 * sigma1 - rho_prev);
            let c = (rho * rho_prev, 2.0 * rho / delta);
            rho_prev = rho;
            c
        });
        (theta, steps)
    }
}

impl SpmvPolyApply for ChebyshevPrecond {
    fn apply_with_spmv(&self, r: &[f64], z: &mut [f64], spmv: &mut dyn FnMut(&[f64], &mut [f64])) {
        let n = r.len();
        assert_eq!(z.len(), n, "ChebyshevPrecond: output length mismatch");
        let (theta, steps) = self.recurrence();
        // x1 = r/θ — the degree-0 iterate.
        let mut d: Vec<f64> = r.iter().map(|v| v / theta).collect();
        z.copy_from_slice(&d);
        let mut ax = vec![0.0; n];
        for (c1, c2) in steps {
            // res = r − A z (one SpMV).
            spmv(z, &mut ax);
            for i in 0..n {
                d[i] = c1 * d[i] + c2 * (r[i] - ax[i]);
                z[i] += d[i];
            }
        }
    }

    fn apply_on(&self, pk: &ParKernels, op: MatRef<'_>, r: &[f64], z: &mut [f64]) {
        let n = op.nrows();
        assert_eq!(r.len(), n, "ChebyshevPrecond::apply: input length mismatch");
        assert_eq!(
            z.len(),
            n,
            "ChebyshevPrecond::apply: output length mismatch"
        );
        let (theta, steps) = self.recurrence();
        // Exactly two length-n allocations, made and dropped per apply (see
        // the module docs): the direction `d` and the second iterate
        // buffer. A band sweep reads the whole current iterate, so the next
        // one is written to the other buffer; the starting side is picked
        // by degree parity so that the last sweep lands in `z`.
        let mut d = vec![0.0; n];
        let mut other = vec![0.0; n];
        let (mut cur, mut next) = if self.degree % 2 == 0 {
            (z, &mut other[..])
        } else {
            (&mut other[..], z)
        };
        let bounds = pk.band_schedule(op);
        pk.for_each_ranges_mut([&mut d[..], &mut *cur], &bounds, |c, [d, z0]| {
            for ((di, zi), ri) in d.iter_mut().zip(z0).zip(&r[bounds[c]..]) {
                *di = ri / theta;
                *zi = *di;
            }
        });
        for (c1, c2) in steps {
            let zc = &*cur;
            pk.spmv_bands(op, zc, [&mut d[..], &mut *next], |lo, az, [d, zn]| {
                let (r, zc) = (&r[lo..], &zc[lo..]);
                for i in 0..az.len() {
                    d[i] = c1 * d[i] + c2 * (r[i] - az[i]);
                    zn[i] = zc[i] + d[i];
                }
            });
            std::mem::swap(&mut cur, &mut next);
        }
    }

    fn spmvs_per_apply(&self) -> usize {
        self.degree
    }
}

impl Preconditioner for ChebyshevPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.apply_par(&ParKernels::serial(), r, z);
    }

    fn apply_par(&self, pk: &ParKernels, r: &[f64], z: &mut [f64]) {
        self.apply_on(pk, MatRef::Csr(&self.a), r, z);
    }

    fn dim(&self) -> usize {
        self.a.nrows()
    }

    fn flops_per_apply(&self) -> u64 {
        let n = self.a.nrows() as u64;
        // Init: divide (n). Per degree: SpMV + 6n vector work.
        n + self.degree as u64 * (self.a.spmv_flops() + 6 * n)
    }

    fn name(&self) -> String {
        format!("chebyshev(deg={})", self.degree)
    }

    fn dist_form(&self) -> DistForm<'_> {
        DistForm::SpmvPolynomial(self)
    }

    fn spec(&self) -> Option<PrecondSpec> {
        Some(PrecondSpec::Chebyshev {
            degree: self.degree,
            lo: self.lambda_lo,
            hi: self.lambda_hi,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag_matrix(vals: &[f64]) -> Arc<CsrMatrix> {
        Arc::new(CsrMatrix::from_diagonal(vals))
    }

    #[test]
    fn approximates_inverse_on_interval() {
        // Diagonal spectrum inside [1, 2] with exact bounds: degree 5 gives
        // a relative error ≤ 1/T_5(3) ≈ 3e-4.
        let ev: Vec<f64> = (0..20).map(|i| 1.0 + i as f64 / 19.0).collect();
        let a = diag_matrix(&ev);
        let p = ChebyshevPrecond::new(Arc::clone(&a), 5, 1.0, 2.0);
        let r = vec![1.0; 20];
        let z = p.apply_alloc(&r);
        for (zi, &li) in z.iter().zip(&ev) {
            let exact = 1.0 / li;
            assert!((zi - exact).abs() < 2e-3, "λ={li}: got {zi}, want {exact}");
        }
    }

    #[test]
    fn error_decreases_with_degree() {
        let ev: Vec<f64> = (0..50).map(|i| 0.5 + 1.5 * i as f64 / 49.0).collect();
        let a = diag_matrix(&ev);
        let r = vec![1.0; 50];
        let mut last = f64::INFINITY;
        for deg in [1usize, 2, 4, 8] {
            let p = ChebyshevPrecond::new(Arc::clone(&a), deg, 0.5, 2.0);
            let z = p.apply_alloc(&r);
            let err: f64 = z
                .iter()
                .zip(&ev)
                .map(|(zi, &li)| (zi - 1.0 / li).abs())
                .fold(0.0, f64::max);
            assert!(err < last, "degree {deg} did not improve: {err} vs {last}");
            last = err;
        }
        // Asymptotic factor ρ = σ−√(σ²−1) = 1/3 on this interval: deg 8
        // leaves ≈ 2·ρ⁸/λmin ≈ 1.2e-3.
        assert!(last < 5e-3);
    }

    #[test]
    fn is_linear_and_symmetric() {
        // q(A) must be a linear operator and symmetric; test on a
        // non-diagonal SPD matrix by checking ⟨q(A)x, y⟩ = ⟨x, q(A)y⟩.
        let a = Arc::new(spcg_sparse::generators::poisson::poisson_2d(6));
        let p = ChebyshevPrecond::from_matrix(Arc::clone(&a), 3, 30.0);
        let n = 36;
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let y: Vec<f64> = (0..n).map(|i| ((i * 5 % 11) as f64) - 5.0).collect();
        let px = p.apply_alloc(&x);
        let py = p.apply_alloc(&y);
        let ip1: f64 = px.iter().zip(&y).map(|(a, b)| a * b).sum();
        let ip2: f64 = x.iter().zip(&py).map(|(a, b)| a * b).sum();
        assert!((ip1 - ip2).abs() < 1e-10 * ip1.abs().max(1.0));
        // Linearity: q(A)(x + 2y) = q(A)x + 2 q(A)y.
        let xy: Vec<f64> = x.iter().zip(&y).map(|(a, b)| a + 2.0 * b).collect();
        let pxy = p.apply_alloc(&xy);
        for i in 0..n {
            assert!((pxy[i] - (px[i] + 2.0 * py[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn positive_definite_on_interval() {
        // For a diagonal matrix with spectrum inside the interval, q(λ) > 0.
        let ev: Vec<f64> = (0..30).map(|i| 1.0 + 9.0 * i as f64 / 29.0).collect();
        let a = diag_matrix(&ev);
        let p = ChebyshevPrecond::new(Arc::clone(&a), 3, 1.0, 10.0);
        // q(λ_i) is the i-th entry of q(A) e_i.
        for i in 0..30 {
            let mut e = vec![0.0; 30];
            e[i] = 1.0;
            let q = p.apply_alloc(&e);
            assert!(q[i] > 0.0, "q(λ)≤0 at λ={}", ev[i]);
        }
    }

    #[test]
    fn apply_par_matches_apply_bitwise() {
        let a = Arc::new(spcg_sparse::generators::poisson::poisson_3d(12));
        let n = a.nrows();
        let p = ChebyshevPrecond::from_matrix(Arc::clone(&a), 3, 30.0);
        let r: Vec<f64> = (0..n).map(|i| ((i * 13 % 19) as f64) - 9.0).collect();
        let mut z_ref = vec![0.0; n];
        p.apply(&r, &mut z_ref);
        assert_eq!(z_ref, apply_by_closure(&p, &a, &r), "apply vs closure form");
        for t in [1usize, 2, 4, 8] {
            let pk = ParKernels::new(t);
            let mut z = vec![1.0; n];
            p.apply_par(&pk, &r, &mut z);
            assert_eq!(z, z_ref, "threads {t}");
        }
    }

    /// The closure form over the plain CSR kernel: the reference every
    /// operator form must reproduce.
    fn apply_by_closure(p: &ChebyshevPrecond, a: &CsrMatrix, r: &[f64]) -> Vec<f64> {
        let mut z = vec![0.0; r.len()];
        p.apply_with_spmv(r, &mut z, &mut |x, y| a.spmv(x, y));
        z
    }

    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: element {i}: {g:e} vs {w:e}"
            );
        }
    }

    #[test]
    fn apply_on_matches_the_closure_form_bitwise() {
        use spcg_sparse::generators::perturb_diagonal;
        use spcg_sparse::generators::poisson::{poisson_2d, poisson_3d};
        // n = 400 (under one band), 1728 (a ragged second band) and 39 304:
        // the last is over the pool's split floor in both formats, so two
        // threads on a machine with two cores take the pooled band path.
        // The stencils run SELL on diagonals; their variable-coefficient
        // twins on slots.
        let cases: [(CsrMatrix, &[usize], &[usize]); 3] = [
            (poisson_2d(20), &[1, 2, 3, 4, 5, 6], &[1, 2, 4, 8]),
            (poisson_3d(12), &[1, 2, 3, 4, 5, 6], &[1, 2, 4, 8]),
            (poisson_3d(34), &[3, 4], &[1, 2]),
        ];
        let cases = cases.into_iter().flat_map(|(a, degrees, threads)| {
            let twin = perturb_diagonal(&a, a.nrows() as u64);
            [(a, true, degrees, threads), (twin, false, degrees, threads)]
        });
        for (a, diagonal, degrees, threads) in cases {
            let a = Arc::new(a);
            let n = a.nrows();
            let sell = a.sell();
            assert_eq!(sell.is_diagonal(), diagonal);
            let r: Vec<f64> = (0..n).map(|i| ((i * 13 % 19) as f64) - 9.0).collect();
            // Both parities of the ping-pong: an odd degree starts in the
            // temporary, an even one in `z`.
            for &degree in degrees {
                let p = ChebyshevPrecond::from_matrix(Arc::clone(&a), degree, 30.0);
                let want = apply_by_closure(&p, &a, &r);
                for &t in threads {
                    let pk = ParKernels::new(t);
                    let ops = [("csr", MatRef::Csr(&a)), ("sell", MatRef::Sell(&sell))];
                    for (format, op) in ops {
                        let mut z = vec![f64::NAN; n];
                        p.apply_on(&pk, op, &r, &mut z);
                        let tag = format!(
                            "n={n} diagonal={diagonal} degree={degree} threads={t} {format}"
                        );
                        assert_same_bits(&z, &want, &tag);
                        let mut z = vec![f64::NAN; n];
                        p.apply_par_on(&pk, op, &r, &mut z);
                        assert_same_bits(&z, &want, &format!("{tag} via dist_form"));
                    }
                }
            }
        }
    }

    #[test]
    fn flops_scale_with_degree() {
        let a = diag_matrix(&[1.0, 2.0]);
        let p1 = ChebyshevPrecond::new(Arc::clone(&a), 1, 0.5, 3.0);
        let p4 = ChebyshevPrecond::new(Arc::clone(&a), 4, 0.5, 3.0);
        assert!(p4.flops_per_apply() > 3 * p1.flops_per_apply());
    }

    #[test]
    #[should_panic(expected = "need 0 < lambda_lo")]
    fn rejects_bad_interval() {
        let a = diag_matrix(&[1.0]);
        ChebyshevPrecond::new(a, 3, 2.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "lambda_hi < inf")]
    fn rejects_an_infinite_interval() {
        // 0 < 1 < ∞ holds, but θ = δ = ∞ would make every apply NaN.
        let a = diag_matrix(&[1.0]);
        ChebyshevPrecond::new(a, 3, 1.0, f64::INFINITY);
    }
}
