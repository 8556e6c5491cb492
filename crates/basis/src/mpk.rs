//! Matrix Powers Kernel (MPK): builds the s-step basis matrices.
//!
//! Computes (paper eqs. (6)–(7))
//!
//! ```text
//! V    = [P_0(AM⁻¹)·w, P_1(AM⁻¹)·w, …]          (v_cols columns)
//! M⁻¹V = [P_0(M⁻¹A)·v, P_1(M⁻¹A)·v, …]          (mv_cols columns, v = M⁻¹w)
//! ```
//!
//! using the recurrence `v_{j+1} = (A·(M⁻¹v_j) − θ_j·v_j − μ_{j-1}·v_{j-1}) / γ_j`:
//! one SpMV per new `V` column and one preconditioner application per new
//! `M⁻¹V` column, level by level. In a block-row-distributed setting the
//! SpMV needs only neighbour (halo) communication, never a global
//! reduction — that is the communication-avoiding property all three
//! s-step methods share.
//!
//! The kernel charges the supplied [`Counters`] for the SpMVs, the
//! preconditioner applications, and the extra `≤3n` / `≤5n` FLOPs per
//! column that non-monomial bases add (paper §4.2). The per-level update
//! and its charges are one function, `recurrence_step`, which the
//! ghost-zone [`crate::DistMpk`] runs too.

use crate::poly::BasisParams;
use spcg_dist::Counters;
use spcg_obs::{Phase, Track};
use spcg_precond::Preconditioner;
use spcg_sparse::{CsrMatrix, MatRef, MultiVector, ParKernels, SellMatrix, SparseFormat};
use std::sync::Arc;

/// Matrix powers kernel over `A` and `M⁻¹`.
pub struct Mpk<'a> {
    a: &'a CsrMatrix,
    m: &'a dyn Preconditioner,
    pk: ParKernels,
    track: Option<Track>,
    sell: Option<Arc<SellMatrix>>,
}

impl<'a> Mpk<'a> {
    /// Creates the kernel for a matrix/preconditioner pair (serial
    /// execution).
    ///
    /// # Panics
    /// Panics if dimensions are inconsistent.
    pub fn new(a: &'a CsrMatrix, m: &'a dyn Preconditioner) -> Self {
        Self::new_par(a, m, ParKernels::serial())
    }

    /// Creates the kernel with an intra-rank thread pool. The SpMV, the
    /// preconditioner applications, and the elementwise recurrence passes
    /// are row-partitioned over `pk`; results are bitwise identical to the
    /// serial kernel for every thread count.
    ///
    /// # Panics
    /// Panics if dimensions are inconsistent.
    pub fn new_par(a: &'a CsrMatrix, m: &'a dyn Preconditioner, pk: ParKernels) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "Mpk: matrix must be square");
        assert_eq!(a.nrows(), m.dim(), "Mpk: preconditioner dimension mismatch");
        Mpk {
            a,
            m,
            pk,
            track: None,
            sell: None,
        }
    }

    /// Attaches a trace track: each basis column records an
    /// [`MpkLevel`](Phase) span with the SpMV and preconditioner apply
    /// nested inside. Instrumentation only — the kernels that run and their
    /// results are those of an untraced kernel.
    pub fn with_track(mut self, track: Option<Track>) -> Self {
        self.track = track;
        self
    }

    /// Selects the sparse format of the per-level SpMVs and of the
    /// operator a polynomial preconditioner applies. Under
    /// [`SparseFormat::Sell`] the matrix's cached [`SellMatrix`] (its
    /// diagonals or its slots) drives them. Results are bitwise identical
    /// across formats.
    pub fn with_format(mut self, format: SparseFormat) -> Self {
        self.sell = match format {
            SparseFormat::Csr => None,
            SparseFormat::Sell => Some(self.a.sell()),
        };
        self
    }

    /// Accepted and ignored: the kernel has one sweep, level by level,
    /// whatever `fuse` says. Kept so callers that still choose between
    /// sweeps build; they time the same loop either way.
    pub fn with_fused(self, _fuse: bool) -> Self {
        self
    }

    /// The system matrix in the format the per-level kernels run on.
    fn op(&self) -> MatRef<'_> {
        MatRef::of(self.a, self.sell.as_deref())
    }

    /// Fills `v` (`n × v_cols`) and `mv` (`n × mv_cols`) with the basis
    /// matrices seeded by `w`.
    ///
    /// * `known_mw`: pass `M⁻¹w` if it is already available (the s-step
    ///   solvers usually have it from the previous outer iteration); this
    ///   saves one preconditioner application — the bookkeeping behind
    ///   CA-PCG's `2s−1` (not `2s+1`) preconditioner applications.
    /// * Requires `v_cols ≥ 1` and `v_cols − 1 ≤ mv_cols ≤ v_cols`: building
    ///   `v_{j+1}` consumes `M⁻¹v_j`, so all but possibly the last `V`
    ///   column must be preconditioned anyway.
    ///
    /// # Panics
    /// Panics on dimension or parameter-degree mismatches.
    pub fn run(
        &self,
        w: &[f64],
        known_mw: Option<&[f64]>,
        params: &BasisParams,
        v: &mut MultiVector,
        mv: &mut MultiVector,
        counters: &mut Counters,
    ) {
        let n = self.a.nrows();
        let v_cols = v.k();
        let mv_cols = mv.k();
        assert!(v_cols >= 1, "Mpk::run: need at least one V column");
        assert!(
            mv_cols + 1 >= v_cols && mv_cols <= v_cols,
            "Mpk::run: need v_cols-1 <= mv_cols <= v_cols (got {v_cols}, {mv_cols})"
        );
        assert_eq!(v.n(), n, "Mpk::run: v row mismatch");
        assert_eq!(mv.n(), n, "Mpk::run: mv row mismatch");
        assert_eq!(w.len(), n, "Mpk::run: seed length mismatch");
        assert!(
            params.degree() + 1 >= v_cols,
            "Mpk::run: basis degree {} too small for {v_cols} columns",
            params.degree()
        );

        v.col_mut(0).copy_from_slice(w);
        if mv_cols > 0 {
            match known_mw {
                Some(mw) => {
                    assert_eq!(mw.len(), n, "Mpk::run: known_mw length mismatch");
                    mv.col_mut(0).copy_from_slice(mw);
                }
                None => {
                    let _p = spcg_obs::span(self.track.as_ref(), Phase::Precond);
                    self.m
                        .apply_par_on(&self.pk, self.op(), v.col(0), mv.col_mut(0));
                    counters.record_precond(self.m.flops_per_apply());
                }
            }
        }

        let charge = (self.a.spmv_flops(), n as u64);
        let mut t = vec![0.0; n];
        for j in 0..v_cols - 1 {
            let _level = spcg_obs::span(self.track.as_ref(), Phase::MpkLevel);
            // t = A · (M⁻¹ v_j).
            {
                let _s = spcg_obs::span(self.track.as_ref(), Phase::Spmv);
                self.pk.spmv_on(self.op(), mv.col(j), &mut t);
            }
            let lower = [v.col(j), v.col(j.saturating_sub(1))];
            recurrence_step(&self.pk, params, j, lower, &mut t, charge, counters);
            v.col_mut(j + 1).copy_from_slice(&t);
            if j + 1 < mv_cols {
                let _p = spcg_obs::span(self.track.as_ref(), Phase::Precond);
                self.m
                    .apply_par_on(&self.pk, self.op(), v.col(j + 1), mv.col_mut(j + 1));
                counters.record_precond(self.m.flops_per_apply());
            }
        }
    }
}

/// Level `j` of the basis recurrence, over plain slices: with
/// `t = A·(M⁻¹v_j)` on entry, leaves
/// `v_{j+1} = (t − θ_j·v_j − μ_{j−1}·v_{j−1}) / γ_j` in `t`, given
/// `[v_j, v_{j−1}]` on `t`'s rows (the second is unread at `j = 0`). Charges
/// the level's SpMV and the basis's extra BLAS1 at global size, from
/// `(spmv_flops, n_global)`. [`Mpk`] and [`crate::DistMpk`] both run it,
/// which is what keeps their bits and counters equal.
///
/// The axpy form `t += (−θ)·v` is bitwise equal to `t −= θ·v` (IEEE
/// negation is exact), so the threaded passes reproduce the serial
/// recurrence exactly.
pub(crate) fn recurrence_step(
    pk: &ParKernels,
    params: &BasisParams,
    j: usize,
    [v_j, v_prev]: [&[f64]; 2],
    t: &mut [f64],
    (spmv_flops, n_global): (u64, u64),
    counters: &mut Counters,
) {
    counters.record_spmv(spmv_flops);
    let theta = params.theta[j];
    let inv_gamma = 1.0 / params.gamma[j];
    if theta != 0.0 {
        pk.axpy(-theta, v_j, t);
    }
    if j >= 1 && params.mu[j - 1] != 0.0 {
        pk.axpy(-params.mu[j - 1], v_prev, t);
    }
    if inv_gamma != 1.0 {
        pk.scale(inv_gamma, t);
    }
    counters.blas1_flops += params.extra_flops_for_column(j + 1, n_global);
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcg_precond::{Identity, Jacobi};
    use spcg_sparse::generators::poisson::poisson_1d;

    fn counters() -> Counters {
        Counters::new()
    }

    #[test]
    fn monomial_identity_preconditioner_gives_krylov_powers() {
        let a = poisson_1d(8);
        let m = Identity::new(8);
        let mpk = Mpk::new(&a, &m);
        let w: Vec<f64> = (0..8).map(|i| 1.0 + i as f64).collect();
        let params = BasisParams::monomial(3);
        let mut v = MultiVector::zeros(8, 4);
        let mut mv = MultiVector::zeros(8, 3);
        let mut c = counters();
        mpk.run(&w, None, &params, &mut v, &mut mv, &mut c);
        // v_j = A^j w.
        let mut expect = w.clone();
        for j in 0..4 {
            for i in 0..8 {
                assert!((v.col(j)[i] - expect[i]).abs() < 1e-12, "col {j}");
            }
            let mut next = vec![0.0; 8];
            a.spmv(&expect, &mut next);
            expect = next;
        }
        // With M = I, mv mirrors v.
        for j in 0..3 {
            assert_eq!(mv.col(j), v.col(j));
        }
        assert_eq!(c.spmv_count, 3);
        assert_eq!(c.precond_count, 3);
        assert_eq!(c.blas1_flops, 0); // monomial adds nothing
    }

    #[test]
    fn preconditioned_columns_satisfy_mv_equals_minv_v() {
        let a = poisson_1d(10);
        let m = Jacobi::new(&a);
        let mpk = Mpk::new(&a, &m);
        let w: Vec<f64> = (0..10).map(|i| (i as f64 * 0.3).sin() + 1.5).collect();
        let params = BasisParams::chebyshev(0.1, 4.0, 4);
        let mut v = MultiVector::zeros(10, 5);
        let mut mv = MultiVector::zeros(10, 4);
        let mut c = counters();
        mpk.run(&w, None, &params, &mut v, &mut mv, &mut c);
        for j in 0..4 {
            let z = m.apply_alloc(v.col(j));
            for i in 0..10 {
                assert!((mv.col(j)[i] - z[i]).abs() < 1e-13, "col {j} row {i}");
            }
        }
        // Chebyshev basis charges extra BLAS1 flops.
        assert!(c.blas1_flops > 0);
    }

    #[test]
    fn columns_satisfy_three_term_recurrence_with_cob_matrix() {
        // A·(M⁻¹ V̂) must equal V·B_{s+1} — the identity sPCG relies on
        // (Alg. 5 line 8). Verified numerically for the Newton basis.
        let a = poisson_1d(12);
        let m = Jacobi::new(&a);
        let mpk = Mpk::new(&a, &m);
        let s = 4;
        let params = BasisParams::newton(&[1.0, 0.5, 2.0, 1.5], s);
        let w: Vec<f64> = (0..12).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut v = MultiVector::zeros(12, s + 1);
        let mut mv = MultiVector::zeros(12, s);
        let mut c = counters();
        mpk.run(&w, None, &params, &mut v, &mut mv, &mut c);
        let b = crate::cob::b_small(&params, s + 1);
        // Column j of A·mv must equal Σ_l B[l][j]·v_l.
        for j in 0..s {
            let mut amv = vec![0.0; 12];
            a.spmv(mv.col(j), &mut amv);
            for i in 0..12 {
                let mut acc = 0.0;
                for l in 0..=s {
                    acc += b[(l, j)] * v.col(l)[i];
                }
                assert!(
                    (amv[i] - acc).abs() < 1e-10,
                    "col {j} row {i}: {} vs {acc}",
                    amv[i]
                );
            }
        }
    }

    #[test]
    fn known_mw_skips_one_precond_application() {
        let a = poisson_1d(6);
        let m = Jacobi::new(&a);
        let mpk = Mpk::new(&a, &m);
        let w = vec![1.0; 6];
        let mw = m.apply_alloc(&w);
        let params = BasisParams::monomial(3);
        let mut v = MultiVector::zeros(6, 4);
        let mut mv = MultiVector::zeros(6, 3);
        let mut c = counters();
        mpk.run(&w, Some(&mw), &params, &mut v, &mut mv, &mut c);
        assert_eq!(c.precond_count, 2); // columns 1, 2 only
        assert_eq!(c.spmv_count, 3);
    }

    #[test]
    fn mv_cols_equal_v_cols_supported() {
        // CA-PCG needs M⁻¹ of *all* s+1 Q-columns.
        let a = poisson_1d(5);
        let m = Jacobi::new(&a);
        let mpk = Mpk::new(&a, &m);
        let params = BasisParams::monomial(3);
        let mut v = MultiVector::zeros(5, 3);
        let mut mv = MultiVector::zeros(5, 3);
        let mut c = counters();
        mpk.run(
            &[1.0, 2.0, 0.5, -1.0, 0.0],
            None,
            &params,
            &mut v,
            &mut mv,
            &mut c,
        );
        assert_eq!(c.precond_count, 3);
        let z = m.apply_alloc(v.col(2));
        for i in 0..5 {
            assert!((mv.col(2)[i] - z[i]).abs() < 1e-14);
        }
    }

    #[test]
    fn threaded_kernel_matches_serial_bitwise() {
        let a = spcg_sparse::generators::poisson::poisson_3d(12);
        let n = a.nrows();
        let m = Jacobi::new(&a);
        let w: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let s = 4;
        let params = BasisParams::chebyshev(0.2, 11.5, s);
        let mut v_ref = MultiVector::zeros(n, s + 1);
        let mut mv_ref = MultiVector::zeros(n, s);
        let mut c_ref = counters();
        Mpk::new(&a, &m).run(&w, None, &params, &mut v_ref, &mut mv_ref, &mut c_ref);
        for t in [1usize, 2, 4, 8] {
            let pk = spcg_sparse::ParKernels::new(t);
            let mut v = MultiVector::zeros(n, s + 1);
            let mut mv = MultiVector::zeros(n, s);
            let mut c = counters();
            Mpk::new_par(&a, &m, pk).run(&w, None, &params, &mut v, &mut mv, &mut c);
            for j in 0..=s {
                assert_eq!(v.col(j), v_ref.col(j), "threads {t} v col {j}");
            }
            for j in 0..s {
                assert_eq!(mv.col(j), mv_ref.col(j), "threads {t} mv col {j}");
            }
            assert_eq!(c, c_ref, "threads {t}: counters must not change");
        }
    }

    /// `poisson_3d(14)` on SELL's diagonals and its variable-coefficient
    /// twin in slots, each checked to have taken its encoding.
    fn stencil_and_twin() -> [spcg_sparse::CsrMatrix; 2] {
        let a = spcg_sparse::generators::poisson::poisson_3d(14);
        let twin = spcg_sparse::generators::perturb_diagonal(&a, 14);
        assert!(a.sell().is_diagonal() && !twin.sell().is_diagonal());
        [a, twin]
    }

    /// Runs `a` on SELL (with `with_fused(fuse)`, the request the
    /// benchmark's MPK probe still makes) and on CSR with the same inputs,
    /// and asserts bitwise equal columns and equal counters.
    #[allow(clippy::too_many_arguments)]
    fn assert_sell_matches_csr(
        a: &spcg_sparse::CsrMatrix,
        m: &dyn Preconditioner,
        w: &[f64],
        known: Option<&[f64]>,
        params: &BasisParams,
        mv_cols: usize,
        pk: &ParKernels,
        fuse: bool,
    ) {
        let n = a.nrows();
        let v_cols = params.degree() + 1;
        let tag = format!(
            "s={} mv_cols={mv_cols} known={} t={} fuse={fuse}",
            v_cols - 1,
            known.is_some(),
            pk.threads()
        );
        let mut v_ref = MultiVector::zeros(n, v_cols);
        let mut mv_ref = MultiVector::zeros(n, mv_cols);
        let mut c_ref = counters();
        Mpk::new(a, m).run(w, known, params, &mut v_ref, &mut mv_ref, &mut c_ref);
        let sell = Mpk::new_par(a, m, pk.clone())
            .with_format(SparseFormat::Sell)
            .with_fused(fuse);
        let mut v = MultiVector::zeros(n, v_cols);
        let mut mv = MultiVector::zeros(n, mv_cols);
        let mut c = counters();
        sell.run(w, known, params, &mut v, &mut mv, &mut c);
        for j in 0..v_cols {
            assert_eq!(v.col(j), v_ref.col(j), "{tag} v col {j}");
        }
        for j in 0..mv_cols {
            assert_eq!(mv.col(j), mv_ref.col(j), "{tag} mv col {j}");
        }
        assert_eq!(c, c_ref, "{tag}: counters must not change");
    }

    /// The SELL sweep against the CSR one on both encodings: every basis
    /// family, both `M⁻¹V` shapes, with and without `known_mw`, one to ten
    /// levels, threads 1, 2 and 4, with and without a fused request — one
    /// level-by-level sweep, bitwise equal columns and equal counters.
    #[test]
    fn fused_sell_sweep_matches_levelwise_bitwise() {
        let pks = [1usize, 2, 4].map(ParKernels::new);
        for a in stencil_and_twin() {
            let n = a.nrows();
            let m = Jacobi::new(&a);
            let w: Vec<f64> = (0..n)
                .map(|i| ((i * 11 % 17) as f64) * 0.25 - 2.0)
                .collect();
            let mw = m.apply_alloc(&w);
            for s in [1usize, 2, 4, 10] {
                for params in [
                    BasisParams::monomial(s),
                    BasisParams::chebyshev(0.15, 11.8, s),
                    BasisParams::newton(
                        &[1.0, 0.4, 2.3, 1.1, 0.9, 3.0, 0.2, 1.7, 2.8, 0.6][..s],
                        s,
                    ),
                ] {
                    for mv_cols in [s, s + 1] {
                        for known in [None, Some(&mw[..])] {
                            for pk in &pks {
                                for fuse in [true, false] {
                                    assert_sell_matches_csr(
                                        &a, &m, &w, known, &params, mv_cols, pk, fuse,
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// The shapes that once kept the fused sweep off (a single level, and
    /// more levels than `poisson_3d(8)`'s two σ-windows could hold) run the
    /// same level-by-level sweep as any other: bitwise equal to CSR.
    #[test]
    fn fused_gate_falls_back_when_skew_or_shape_disqualifies() {
        let a = spcg_sparse::generators::poisson::poisson_3d(8);
        let m = Jacobi::new(&a);
        let n = a.nrows();
        let w: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        for s in [1usize, 2, 4] {
            let params = BasisParams::chebyshev(0.2, 11.5, s);
            assert_sell_matches_csr(&a, &m, &w, None, &params, s, &ParKernels::serial(), true);
        }
    }

    /// A fused request with `known_mw` on both encodings gives the serial
    /// CSR bits at 1, 2 and 4 threads.
    #[test]
    fn fused_sweep_is_thread_count_invariant_with_known_mw() {
        for a in stencil_and_twin() {
            let n = a.nrows();
            let m = Jacobi::new(&a);
            let w: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + (i % 29) as f64)).collect();
            let mw = m.apply_alloc(&w);
            let s = 6;
            let params = BasisParams::newton(&[1.0, 0.5, 2.0, 1.5, 0.8, 2.5], s);
            for t in [1usize, 2, 4] {
                let pk = ParKernels::new(t);
                assert_sell_matches_csr(&a, &m, &w, Some(&mw), &params, s, &pk, true);
            }
        }
    }

    #[test]
    #[should_panic(expected = "basis degree")]
    fn rejects_underspecified_params() {
        let a = poisson_1d(4);
        let m = Identity::new(4);
        let mpk = Mpk::new(&a, &m);
        let params = BasisParams::monomial(1);
        let mut v = MultiVector::zeros(4, 4);
        let mut mv = MultiVector::zeros(4, 3);
        mpk.run(
            &[1.0; 4],
            None,
            &params,
            &mut v,
            &mut mv,
            &mut Counters::new(),
        );
    }
}
