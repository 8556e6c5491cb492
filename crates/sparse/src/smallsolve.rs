//! Factorizations and solves for the small (`O(s) × O(s)`) "scalar work"
//! systems of the s-step methods (eq. 12 and Alg. 6 lines 4 and 7).
//!
//! The coefficient matrices `W^(k)` are symmetric positive definite in exact
//! arithmetic but become indefinite or singular when the s-step basis loses
//! linear independence (the monomial-basis failure mode the paper studies),
//! so the solvers here report failure through [`SolveError`] instead of
//! panicking, letting the iterative solvers surface a diagnosed breakdown.

use crate::dense::DenseMat;

/// Why a small solve failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// Cholesky hit a non-positive pivot: the matrix is not numerically SPD.
    NotPositiveDefinite { pivot_index: usize },
    /// LU hit a zero pivot column: the matrix is numerically singular.
    Singular { pivot_index: usize },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::NotPositiveDefinite { pivot_index } => {
                write!(f, "matrix is not positive definite (pivot {pivot_index})")
            }
            SolveError::Singular { pivot_index } => {
                write!(f, "matrix is numerically singular (pivot {pivot_index})")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// Cholesky factorization `A = L·Lᵀ` of a small SPD matrix.
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor (upper part of the storage is unused).
    l: DenseMat,
}

impl Cholesky {
    /// Factors `a`; fails if a pivot is not strictly positive.
    pub fn factor(a: &DenseMat) -> Result<Self, SolveError> {
        assert_eq!(a.nrows(), a.ncols(), "Cholesky: matrix must be square");
        let n = a.nrows();
        let mut l = DenseMat::zeros(n, n);
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if !(d > 0.0) || !d.is_finite() {
                return Err(SolveError::NotPositiveDefinite { pivot_index: j });
            }
            let djj = d.sqrt();
            l[(j, j)] = djj;
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = v / djj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.nrows()
    }

    /// Solves `A·x = b` in place.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        let n = self.dim();
        assert_eq!(b.len(), n, "Cholesky::solve: rhs length mismatch");
        // Forward substitution L·y = b.
        for i in 0..n {
            let mut v = b[i];
            for k in 0..i {
                v -= self.l[(i, k)] * b[k];
            }
            b[i] = v / self.l[(i, i)];
        }
        // Back substitution Lᵀ·x = y.
        for i in (0..n).rev() {
            let mut v = b[i];
            for k in (i + 1)..n {
                v -= self.l[(k, i)] * b[k];
            }
            b[i] = v / self.l[(i, i)];
        }
    }

    /// Solves `A·x = b`, returning a fresh vector.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Solves `A·X = B` column by column.
    pub fn solve_mat(&self, b: &DenseMat) -> DenseMat {
        let n = self.dim();
        assert_eq!(b.nrows(), n, "Cholesky::solve_mat: rhs rows mismatch");
        let mut out = DenseMat::zeros(n, b.ncols());
        let mut col = vec![0.0; n];
        for j in 0..b.ncols() {
            for i in 0..n {
                col[i] = b[(i, j)];
            }
            self.solve_in_place(&mut col);
            for i in 0..n {
                out[(i, j)] = col[i];
            }
        }
        out
    }

    /// Crude 2-norm condition estimate from the extreme Cholesky pivots:
    /// `cond(A) ≈ (max_i L_ii / min_i L_ii)²`. Cheap and adequate for the
    /// adaptive-s heuristic, which only needs an order of magnitude.
    pub fn cond_estimate(&self) -> f64 {
        let n = self.dim();
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for i in 0..n {
            lo = lo.min(self.l[(i, i)]);
            hi = hi.max(self.l[(i, i)]);
        }
        let r = hi / lo;
        r * r
    }
}

/// LU factorization with partial pivoting, `P·A = L·U`, for small square
/// systems that may be indefinite (e.g. the moment matrices of sPCG_mon).
#[derive(Debug, Clone)]
pub struct Lu {
    lu: DenseMat,
    perm: Vec<usize>,
}

impl Lu {
    /// Factors `a`; fails if a pivot column is entirely (near-)zero.
    pub fn factor(a: &DenseMat) -> Result<Self, SolveError> {
        assert_eq!(a.nrows(), a.ncols(), "LU: matrix must be square");
        let n = a.nrows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for j in 0..n {
            // Partial pivoting: pick the largest entry in column j.
            let mut piv = j;
            let mut best = lu[(j, j)].abs();
            for i in (j + 1)..n {
                let v = lu[(i, j)].abs();
                if v > best {
                    best = v;
                    piv = i;
                }
            }
            if !(best > 0.0) || !best.is_finite() {
                return Err(SolveError::Singular { pivot_index: j });
            }
            if piv != j {
                perm.swap(j, piv);
                for c in 0..n {
                    let tmp = lu[(j, c)];
                    lu[(j, c)] = lu[(piv, c)];
                    lu[(piv, c)] = tmp;
                }
            }
            let d = lu[(j, j)];
            for i in (j + 1)..n {
                let m = lu[(i, j)] / d;
                lu[(i, j)] = m;
                for c in (j + 1)..n {
                    let v = lu[(j, c)];
                    lu[(i, c)] -= m * v;
                }
            }
        }
        Ok(Lu { lu, perm })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.nrows()
    }

    /// Solves `A·x = b`, returning a fresh vector.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "Lu::solve: rhs length mismatch");
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution with unit lower triangle.
        for i in 0..n {
            for k in 0..i {
                x[i] -= self.lu[(i, k)] * x[k];
            }
        }
        // Back substitution with upper triangle.
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                x[i] -= self.lu[(i, k)] * x[k];
            }
            x[i] /= self.lu[(i, i)];
        }
        x
    }

    /// Solves `A·X = B` column by column.
    pub fn solve_mat(&self, b: &DenseMat) -> DenseMat {
        let n = self.dim();
        assert_eq!(b.nrows(), n, "Lu::solve_mat: rhs rows mismatch");
        let mut out = DenseMat::zeros(n, b.ncols());
        for j in 0..b.ncols() {
            let x = self.solve(&b.col(j));
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        out
    }
}

/// Default sweep cap for [`gs_solve`] / [`gs_solve_mat`]. Gram
/// systems of s-step methods are tiny (`O(s)²`), so a generous cap costs
/// microseconds while guaranteeing the iteration count stays bounded and
/// deterministic.
pub const GS_MAX_SWEEPS: usize = 200;

/// Default relative-residual early-exit tolerance for the Gauss-Seidel
/// Gram solves: machine epsilon, i.e. run the minimal-residual sweeps to
/// their stagnation floor. The inner solve's inexactness sets the outer
/// method's attainable accuracy floor almost linearly (an inner `1e-14`
/// leaves the outer residual plateauing ~100× above the Cholesky path), so
/// the sweeps must match direct-solve accuracy, not merely approach it;
/// the happy-breakdown exit in the accelerated core bounds the extra cost
/// at O(dim) sweeps.
pub const GS_TOL: f64 = f64::EPSILON;

/// One symmetric Gauss-Seidel application `z = M⁻¹·r` with
/// `M = (D+L)·D⁻¹·(D+U)`: a forward triangular solve, a diagonal scale,
/// and a backward triangular solve. The caller has already validated the
/// diagonal (nonzero, finite).
fn sgs_apply(a: &DenseMat, r: &[f64]) -> Vec<f64> {
    let n = a.nrows();
    let mut u = vec![0.0f64; n];
    for i in 0..n {
        let mut v = r[i];
        for j in 0..i {
            v -= a[(i, j)] * u[j];
        }
        u[i] = v / a[(i, i)];
    }
    let mut z = vec![0.0f64; n];
    for i in (0..n).rev() {
        let mut v = a[(i, i)] * u[i];
        for j in i + 1..n {
            v -= a[(i, j)] * z[j];
        }
        z[i] = v / a[(i, i)];
    }
    z
}

/// Minimal-residual acceleration of the symmetric Gauss-Seidel sweep:
/// right-preconditioned GMRES on `a·x = b` with one [`sgs_apply`] per
/// iteration, Arnoldi via modified Gram-Schmidt, Givens-rotation QR of the
/// small Hessenberg. Updates `x` in place and returns the sweep count.
///
/// The 2-norm of the *true* residual is monotonically non-increasing by
/// construction, for every nonsingular symmetric system — including the
/// indefinite ones a corrupted Gram update produces, where a CG-style
/// acceleration loses positivity and returns garbage. That makes this the
/// factorization-free counterpart of the pivoted-LU fallback the Cholesky
/// path uses: bounded, backward-stable-grade answers on exactly the
/// systems where a pivot would fail.
fn gs_mr_core(a: &DenseMat, b: &[f64], x: &mut [f64], budget: usize, tol_abs: f64) -> usize {
    let n = a.nrows();
    let mut r = b.to_vec();
    if x.iter().any(|&v| v != 0.0) {
        let ax = a.matvec(x);
        for i in 0..n {
            r[i] -= ax[i];
        }
    }
    let rn = r.iter().map(|v| v * v).sum::<f64>().sqrt();
    if !(rn > tol_abs) || !rn.is_finite() {
        return 0;
    }
    let mut basis: Vec<Vec<f64>> = vec![r.iter().map(|v| v / rn).collect()];
    let mut dirs: Vec<Vec<f64>> = Vec::new(); // z_j = M⁻¹ v_j
    let mut h_cols: Vec<Vec<f64>> = Vec::new(); // rotated Hessenberg columns
    let mut rots: Vec<(f64, f64)> = Vec::new();
    let mut g = vec![rn];
    let mut sweeps = 0;
    while sweeps < budget {
        let j = sweeps;
        let z = sgs_apply(a, &basis[j]);
        sweeps += 1;
        let mut w = a.matvec(&z);
        dirs.push(z);
        let mut h = vec![0.0f64; j + 2];
        for (i, v) in basis.iter().enumerate() {
            let hij: f64 = w.iter().zip(v).map(|(a, b)| a * b).sum();
            h[i] = hij;
            for (wi, vi) in w.iter_mut().zip(v) {
                *wi -= hij * vi;
            }
        }
        let wn = w.iter().map(|v| v * v).sum::<f64>().sqrt();
        h[j + 1] = wn;
        // Apply the accumulated rotations, then a new one zeroing h[j+1].
        for (i, &(c, s)) in rots.iter().enumerate() {
            let (hi, hi1) = (h[i], h[i + 1]);
            h[i] = c * hi + s * hi1;
            h[i + 1] = -s * hi + c * hi1;
        }
        let denom = (h[j] * h[j] + h[j + 1] * h[j + 1]).sqrt();
        let (c, s) = if denom > 0.0 {
            (h[j] / denom, h[j + 1] / denom)
        } else {
            (1.0, 0.0)
        };
        h[j] = denom;
        h[j + 1] = 0.0;
        rots.push((c, s));
        h_cols.push(h);
        let gj = g[j];
        g[j] = c * gj;
        g.push(-s * gj);
        let res_est = g[j + 1].abs();
        let happy = !(wn > f64::EPSILON * rn);
        if !(res_est > tol_abs) || happy || !res_est.is_finite() {
            break;
        }
        basis.push(w.iter().map(|v| v / wn).collect());
    }
    // Back-substitute R·y = g over the accepted columns; a (numerically)
    // zero diagonal marks a direction GMRES exhausted — truncate it, the
    // minimal-residual property keeps the rest valid.
    let k = h_cols.len();
    let mut y = vec![0.0f64; k];
    for i in (0..k).rev() {
        let mut v = g[i];
        for (jj, yj) in y.iter().enumerate().skip(i + 1) {
            v -= h_cols[jj][i] * yj;
        }
        let d = h_cols[i][i];
        y[i] = if d.abs() > f64::EPSILON * rn {
            v / d
        } else {
            0.0
        };
    }
    for (yj, z) in y.iter().zip(&dirs) {
        if *yj != 0.0 {
            for i in 0..n {
                x[i] += yj * z[i];
            }
        }
    }
    sweeps
}

/// Seeded, conjugate-direction-accelerated symmetric Gauss-Seidel solve of
/// a small SPD system `A·x = b` — the Gram-system solver of the GS variant
/// of CA-PCG.
///
/// Plain Gauss-Seidel sweeps converge for every SPD matrix but at a rate
/// that collapses on the nearly-singular moment matrices s-step monomial
/// bases produce — hundreds of sweeps can leave the residual at `1e-2`,
/// and that inexactness compounds through the outer recurrence. This routine keeps the symmetric Gauss-Seidel sweep
/// as its only primitive but recombines the sweep directions with
/// minimal-residual coefficients (`gs_mr_core`): each iteration applies
/// one forward+backward sweep pair and the iterate is the residual-norm
/// minimizer over all sweeps so far. That restores direct-solve accuracy
/// in at most `n` sweeps in exact arithmetic while preserving everything
/// that makes the GS path robust: no factorization, no pivot-failure
/// mode, monotone residuals even on the indefinite systems round-off
/// produces near the outer method's accuracy floor, and graceful
/// (bounded, best-iterate) degradation on singular ones.
///
/// Determinism contract: fixed sweep order, residual early exit after
/// every sweep, and the returned sweep count is a pure function of
/// `(a, b, seed, max_sweeps, tol)`, so callers on replicated
/// post-allreduce data observe rank-identical counts (verified by the
/// solvers via a consensus word).
///
/// Returns `(x, sweeps)` where `sweeps` counts symmetric sweep pairs
/// applied; fails only on a zero or non-finite diagonal entry.
pub fn gs_solve(
    a: &DenseMat,
    b: &[f64],
    seed: Option<&[f64]>,
    max_sweeps: usize,
    tol: f64,
) -> Result<(Vec<f64>, usize), SolveError> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "gs_solve: matrix must be square");
    assert_eq!(b.len(), n, "gs_solve: rhs length mismatch");
    for i in 0..n {
        let d = a[(i, i)];
        if !(d != 0.0) || !d.is_finite() {
            return Err(SolveError::Singular { pivot_index: i });
        }
    }
    let bnorm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    if bnorm == 0.0 {
        return Ok((vec![0.0; n], 0));
    }
    let mut x = match seed {
        Some(s) => {
            assert_eq!(s.len(), n, "gs_solve: seed length mismatch");
            s.to_vec()
        }
        None => vec![0.0; n],
    };
    // A non-finite seed would poison the iteration before the residual
    // check can catch it; fall back to the zero start deterministically.
    if x.iter().any(|v| !v.is_finite()) {
        x.iter_mut().for_each(|v| *v = 0.0);
    }
    let sweeps = gs_mr_core(a, b, &mut x, max_sweeps, tol * bnorm);
    Ok((x, sweeps))
}

/// Matrix-RHS version of [`gs_solve`]: columns are solved in a fixed
/// left-to-right order, each seeded from the matching column of `seed`, and
/// the returned count is the total over all columns — a single
/// deterministic number for the whole system (one consensus word, not one
/// per column).
pub fn gs_solve_mat(
    a: &DenseMat,
    b: &DenseMat,
    seed: Option<&DenseMat>,
    max_sweeps: usize,
    tol: f64,
) -> Result<(DenseMat, usize), SolveError> {
    let n = a.nrows();
    assert_eq!(a.ncols(), n, "gs_solve_mat: matrix must be square");
    assert_eq!(b.nrows(), n, "gs_solve_mat: rhs rows mismatch");
    let k = b.ncols();
    if let Some(s) = seed {
        assert_eq!(s.nrows(), n, "gs_solve_mat: seed rows mismatch");
        assert_eq!(s.ncols(), k, "gs_solve_mat: seed cols mismatch");
    }
    let mut out = DenseMat::zeros(n, k);
    let mut total = 0usize;
    for c in 0..k {
        let rhs = b.col(c);
        let sc = seed.map(|s| s.col(c));
        let (x, sweeps) = gs_solve(a, &rhs, sc.as_deref(), max_sweeps, tol)?;
        total += sweeps;
        for i in 0..n {
            out[(i, c)] = x[i];
        }
    }
    Ok((out, total))
}

/// Rank-revealing Cholesky with diagonal pivoting for small symmetric
/// positive *semi*-definite matrices — the `t×t` direction Grams of
/// enlarged-Krylov CG, which go numerically rank-deficient when some of the
/// `t` block directions collapse onto each other near convergence.
///
/// `P·A·Pᵀ ≈ L·Lᵀ` with `L` lower-trapezoidal of width [`rank`]. Pivots are
/// accepted while the largest remaining updated diagonal exceeds
/// `rel_eps · max_i A_ii`; the factorization never fails, it just reveals a
/// smaller rank. [`pseudo_solve`] solves on the span of the accepted pivot
/// directions and returns exact zeros for the rejected coordinates, so
/// deficient directions drop out of the recurrence instead of poisoning it.
///
/// [`rank`]: PivotedCholesky::rank
/// [`pseudo_solve`]: PivotedCholesky::pseudo_solve
#[derive(Debug, Clone)]
pub struct PivotedCholesky {
    l: DenseMat,
    perm: Vec<usize>,
    rank: usize,
    n: usize,
}

impl PivotedCholesky {
    /// Factors `a` with relative pivot threshold `rel_eps` (e.g. `1e-12`).
    pub fn factor(a: &DenseMat, rel_eps: f64) -> Self {
        let n = a.nrows();
        assert_eq!(a.ncols(), n, "PivotedCholesky: matrix must be square");
        let mut w = a.clone();
        let mut l = DenseMat::zeros(n, n);
        let mut perm: Vec<usize> = (0..n).collect();
        let mut dmax = 0.0f64;
        for i in 0..n {
            let d = w[(i, i)];
            if d.is_finite() {
                dmax = dmax.max(d.abs());
            }
        }
        let thresh = rel_eps * dmax;
        let mut rank = 0;
        for k in 0..n {
            // Largest remaining updated diagonal d_i = A_ii − Σ_j L_ij².
            let mut piv = k;
            let mut best = f64::NEG_INFINITY;
            for i in k..n {
                let mut d = w[(i, i)];
                for j in 0..k {
                    d -= l[(i, j)] * l[(i, j)];
                }
                if d > best {
                    best = d;
                    piv = i;
                }
            }
            if !(best > thresh) || !best.is_finite() {
                break;
            }
            if piv != k {
                perm.swap(k, piv);
                for c in 0..n {
                    let t = w[(k, c)];
                    w[(k, c)] = w[(piv, c)];
                    w[(piv, c)] = t;
                }
                for r in 0..n {
                    let t = w[(r, k)];
                    w[(r, k)] = w[(r, piv)];
                    w[(r, piv)] = t;
                }
                for c in 0..k {
                    let t = l[(k, c)];
                    l[(k, c)] = l[(piv, c)];
                    l[(piv, c)] = t;
                }
            }
            let dkk = best.sqrt();
            l[(k, k)] = dkk;
            for i in (k + 1)..n {
                let mut v = w[(i, k)];
                for j in 0..k {
                    v -= l[(i, j)] * l[(k, j)];
                }
                l[(i, k)] = v / dkk;
            }
            rank = k + 1;
        }
        PivotedCholesky { l, perm, rank, n }
    }

    /// Numerical rank revealed by the pivot threshold.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A·x = b` on the span of the accepted pivot directions;
    /// coordinates of rejected directions come back exactly zero.
    pub fn pseudo_solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "pseudo_solve: rhs length mismatch");
        let r = self.rank;
        let mut y = vec![0.0; r];
        for i in 0..r {
            let mut v = b[self.perm[i]];
            for j in 0..i {
                v -= self.l[(i, j)] * y[j];
            }
            y[i] = v / self.l[(i, i)];
        }
        for i in (0..r).rev() {
            let mut v = y[i];
            for j in (i + 1)..r {
                v -= self.l[(j, i)] * y[j];
            }
            y[i] = v / self.l[(i, i)];
        }
        let mut x = vec![0.0; self.n];
        for i in 0..r {
            x[self.perm[i]] = y[i];
        }
        x
    }

    /// Column-by-column [`Self::pseudo_solve`].
    pub fn pseudo_solve_mat(&self, b: &DenseMat) -> DenseMat {
        assert_eq!(b.nrows(), self.n, "pseudo_solve_mat: rhs rows mismatch");
        let mut out = DenseMat::zeros(self.n, b.ncols());
        for j in 0..b.ncols() {
            let x = self.pseudo_solve(&b.col(j));
            for i in 0..self.n {
                out[(i, j)] = x[i];
            }
        }
        out
    }
}

/// Convenience: solve a small SPD system, falling back to pivoted LU when the
/// matrix has lost positive definiteness to round-off. Returns `Err` only if
/// both factorizations fail, which the iterative solvers treat as breakdown.
pub fn solve_spd_with_fallback(a: &DenseMat, b: &[f64]) -> Result<Vec<f64>, SolveError> {
    match Cholesky::factor(a) {
        Ok(ch) => Ok(ch.solve(b)),
        Err(_) => Lu::factor(a).map(|lu| lu.solve(b)),
    }
}

/// Matrix version of [`solve_spd_with_fallback`].
pub fn solve_spd_mat_with_fallback(a: &DenseMat, b: &DenseMat) -> Result<DenseMat, SolveError> {
    match Cholesky::factor(a) {
        Ok(ch) => Ok(ch.solve_mat(b)),
        Err(_) => Lu::factor(a).map(|lu| lu.solve_mat(b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> DenseMat {
        DenseMat::from_row_major(3, 3, vec![4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0])
    }

    #[test]
    fn cholesky_roundtrip() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let b = vec![1.0, 2.0, 3.0];
        let x = ch.solve(&b);
        let ax = a.matvec(&x);
        for (ai, bi) in ax.iter().zip(&b) {
            assert!((ai - bi).abs() < 1e-12);
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = DenseMat::from_row_major(2, 2, vec![1.0, 2.0, 2.0, 1.0]);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(SolveError::NotPositiveDefinite { pivot_index: 1 })
        ));
    }

    #[test]
    fn cholesky_cond_estimate() {
        let a = DenseMat::from_row_major(2, 2, vec![4.0, 0.0, 0.0, 1.0]);
        let ch = Cholesky::factor(&a).unwrap();
        assert!((ch.cond_estimate() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn lu_roundtrip_nonsymmetric() {
        let a = DenseMat::from_row_major(3, 3, vec![0.0, 2.0, 1.0, 1.0, 1.0, 0.0, 3.0, 0.0, 2.0]);
        let lu = Lu::factor(&a).unwrap();
        let b = vec![3.0, 1.0, 5.0];
        let x = lu.solve(&b);
        let ax = a.matvec(&x);
        for (ai, bi) in ax.iter().zip(&b) {
            assert!((ai - bi).abs() < 1e-12, "residual too large: {ax:?}");
        }
    }

    #[test]
    fn lu_rejects_singular() {
        let a = DenseMat::from_row_major(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(matches!(Lu::factor(&a), Err(SolveError::Singular { .. })));
    }

    #[test]
    fn lu_needs_pivoting() {
        // Zero leading pivot requires the row swap.
        let a = DenseMat::from_row_major(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let lu = Lu::factor(&a).unwrap();
        let x = lu.solve(&[2.0, 3.0]);
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn solve_mat_multiple_rhs() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let b = DenseMat::from_row_major(3, 2, vec![1.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        let x = ch.solve_mat(&b);
        let ax = a.matmul(&x);
        for i in 0..3 {
            for j in 0..2 {
                assert!((ax[(i, j)] - b[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn fallback_uses_lu_for_indefinite() {
        // Symmetric indefinite: Cholesky fails, LU succeeds.
        let a = DenseMat::from_row_major(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = solve_spd_with_fallback(&a, &[1.0, 2.0]).unwrap();
        assert_eq!(x, vec![2.0, 1.0]);
    }

    #[test]
    fn pivoted_cholesky_full_rank_matches_cholesky() {
        let a = spd3();
        let pc = PivotedCholesky::factor(&a, 1e-12);
        assert_eq!(pc.rank(), 3);
        let b = vec![1.0, 2.0, 3.0];
        let want = Cholesky::factor(&a).unwrap().solve(&b);
        let x = pc.pseudo_solve(&b);
        for (xi, wi) in x.iter().zip(&want) {
            assert!((xi - wi).abs() < 1e-10);
        }
    }

    #[test]
    fn pivoted_cholesky_reveals_rank_deficiency() {
        // Rank-2 PSD: third row/col is the sum of the first two.
        let base = spd3();
        let mut a = DenseMat::zeros(3, 3);
        // v = columns [e0, e1, e0+e1] in a 2D latent space; A = VᵀGV with
        // G the 2×2 leading block of spd3.
        let g = [[base[(0, 0)], base[(0, 1)]], [base[(1, 0)], base[(1, 1)]]];
        let v = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]];
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for p in 0..2 {
                    for q in 0..2 {
                        s += v[i][p] * g[p][q] * v[j][q];
                    }
                }
                a[(i, j)] = s;
            }
        }
        let pc = PivotedCholesky::factor(&a, 1e-10);
        assert_eq!(pc.rank(), 2);
        // Pseudo-solve of a consistent system: residual on the range is 0.
        let xtrue = vec![1.0, 2.0, 0.0];
        let b = a.matvec(&xtrue);
        let x = pc.pseudo_solve(&b);
        let ax = a.matvec(&x);
        for (ai, bi) in ax.iter().zip(&b) {
            assert!((ai - bi).abs() < 1e-9, "{ax:?} vs {b:?}");
        }
        // Exactly one coordinate dropped to literal zero.
        assert_eq!(x.iter().filter(|v| **v == 0.0).count(), 1);
    }

    #[test]
    fn pivoted_cholesky_zero_matrix_rank_zero() {
        let a = DenseMat::zeros(3, 3);
        let pc = PivotedCholesky::factor(&a, 1e-12);
        assert_eq!(pc.rank(), 0);
        assert_eq!(pc.pseudo_solve(&[1.0, 2.0, 3.0]), vec![0.0; 3]);
    }
}
