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
//! `M⁻¹V` column. In a block-row-distributed setting the SpMV needs only
//! neighbour (halo) communication, never a global reduction — that is the
//! communication-avoiding property all three s-step methods share.
//!
//! The kernel charges the supplied [`Counters`] for the SpMVs, the
//! preconditioner applications, and the extra `≤3n` / `≤5n` FLOPs per
//! column that non-monomial bases add (paper §4.2).
//!
//! # Cache-fused multi-level sweep
//!
//! Under [`SparseFormat::Sell`] with a pointwise preconditioner the kernel
//! can *fuse* the depth-`s` power sweep: instead of streaming every column
//! through memory once per level, a band of σ-windows is carried through
//! all `s` levels while its rows are still hot in cache. Correctness rests
//! on the SELL σ-confinement property: window `w` of level `j+1` depends
//! only on windows `w−h ‥ w+h` of level `j`, where `h` is the matrix's
//! window reach half-width. The sweep keeps one cursor per level and, for
//! each tile, advances level `l` to window `(t+1)·K − (l−1)·h`; the
//! staggered targets make the dependency `done[l−1] ≥ done[l] + h` an
//! exact invariant (asserted in debug builds). Every element is produced
//! by the same scalar operations in the same order as the level-by-level
//! kernel, so results are bitwise identical. When the accumulated skew
//! `(s−1)·h` reaches the window count there is no locality left to win
//! and the kernel silently falls back to the level-by-level path.

use crate::poly::BasisParams;
use spcg_dist::Counters;
use spcg_obs::{Phase, Track};
use spcg_precond::{DistForm, Preconditioner};
use spcg_sparse::sell::{SELL_C, SELL_SIGMA};
use spcg_sparse::{CsrMatrix, MatRef, MultiVector, ParKernels, SellMatrix, SparseFormat};
use std::sync::Arc;

/// Cache budget for one fused tile: the band's matrix slices plus the
/// vector columns in flight should stay resident across the tile's level
/// passes. Sized for a private mid-level (L2) cache — on machines with a
/// large shared last-level cache the whole matrix may already be
/// LLC-resident, and the fusion's win is upgrading the repeated band
/// reads from LLC to L2.
const FUSE_CACHE_BYTES: usize = 1 << 20;

/// Matrix powers kernel over `A` and `M⁻¹`.
pub struct Mpk<'a> {
    a: &'a CsrMatrix,
    m: &'a dyn Preconditioner,
    pk: ParKernels,
    track: Option<Track>,
    sell: Option<Arc<SellMatrix>>,
    fuse: bool,
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
            fuse: true,
        }
    }

    /// Attaches a trace track: each basis column records an
    /// [`MpkLevel`](Phase) span with the SpMV and preconditioner apply
    /// nested inside; a cache-fused sweep, which has no level boundaries in
    /// time, records one `MpkLevel` span for the whole sweep.
    /// Instrumentation only — the kernels that run and their results are
    /// those of an untraced kernel.
    pub fn with_track(mut self, track: Option<Track>) -> Self {
        self.track = track;
        self
    }

    /// Selects the sparse format for the per-level SpMVs. Under
    /// [`SparseFormat::Sell`] the matrix's cached SELL-C-σ form drives the
    /// SpMV and, when [applicable](Self::fused_applicable), the cache-fused
    /// multi-level sweep. Results are bitwise identical across formats.
    pub fn with_format(mut self, format: SparseFormat) -> Self {
        self.sell = match format {
            SparseFormat::Csr => None,
            SparseFormat::Sell => Some(self.a.sell()),
        };
        self
    }

    /// Enables or disables the cache-fused sweep (on by default; only takes
    /// effect under [`SparseFormat::Sell`]). Useful for benchmarking the
    /// fused sweep against the level-by-level SELL kernel.
    pub fn with_fused(mut self, fuse: bool) -> Self {
        self.fuse = fuse;
        self
    }

    /// Whether a run with `v_cols` basis columns would take the cache-fused
    /// sweep: SELL format selected, fusion enabled, at least two levels, a
    /// [`DistForm::Pointwise`] preconditioner, and a level skew
    /// `(levels−1)·h` smaller than the window count.
    pub fn fused_applicable(&self, v_cols: usize) -> bool {
        let Some(sell) = self.sell.as_deref() else {
            return false;
        };
        if !self.fuse || v_cols < 3 {
            return false;
        }
        if !matches!(self.m.dist_form(), DistForm::Pointwise(_)) {
            return false;
        }
        let w_total = self.a.nrows().div_ceil(SELL_SIGMA);
        (v_cols - 2) * sell.window_reach_halfwidth() < w_total
    }

    /// The system matrix in the format the per-level kernels run on.
    fn op(&self) -> MatRef<'_> {
        MatRef::of(self.a, self.sell.as_deref())
    }

    /// Tile width in σ-windows for the fused sweep, from a per-row byte
    /// footprint: the matrix bytes per row of its encoding
    /// ([`SellMatrix::stream_bytes`]: ≈10 per stored entry in slots, under
    /// one on diagonals) plus the in-flight vector columns (~8 doubles of
    /// band reads and writes).
    fn fused_tile_windows(&self, sell: &SellMatrix) -> usize {
        let n = self.a.nrows().max(1);
        let w_total = self.a.nrows().div_ceil(SELL_SIGMA).max(1);
        let bytes_per_row = sell.stream_bytes() / n + 64;
        (FUSE_CACHE_BYTES / (SELL_SIGMA * bytes_per_row)).clamp(1, w_total)
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

        if self.fused_applicable(v_cols) {
            let _sweep = spcg_obs::span(self.track.as_ref(), Phase::MpkLevel);
            let sell = Arc::clone(self.sell.as_ref().unwrap());
            self.run_fused(&sell, params, v, mv, counters);
            return;
        }

        let mut t = vec![0.0; n];
        for j in 0..v_cols - 1 {
            let _level = spcg_obs::span(self.track.as_ref(), Phase::MpkLevel);
            // t = A · (M⁻¹ v_j).
            {
                let _s = spcg_obs::span(self.track.as_ref(), Phase::Spmv);
                self.pk.spmv_on(self.op(), mv.col(j), &mut t);
            }
            counters.record_spmv(self.a.spmv_flops());
            // v_{j+1} = (t − θ_j v_j − μ_{j-1} v_{j-1}) / γ_j. The axpy
            // form `t += (−θ)·v` is bitwise equal to `t −= θ·v` (IEEE
            // negation is exact), so the threaded passes reproduce the
            // historical serial recurrence exactly.
            let theta = params.theta[j];
            let inv_gamma = 1.0 / params.gamma[j];
            if theta != 0.0 {
                self.pk.axpy(-theta, v.col(j), &mut t);
            }
            if j >= 1 && params.mu[j - 1] != 0.0 {
                self.pk.axpy(-params.mu[j - 1], v.col(j - 1), &mut t);
            }
            if inv_gamma != 1.0 {
                self.pk.scale(inv_gamma, &mut t);
            }
            counters.blas1_flops += params.extra_flops_for_column(j + 1, n as u64);
            v.col_mut(j + 1).copy_from_slice(&t);
            if j + 1 < mv_cols {
                let _p = spcg_obs::span(self.track.as_ref(), Phase::Precond);
                self.m
                    .apply_par_on(&self.pk, self.op(), v.col(j + 1), mv.col_mut(j + 1));
                counters.record_precond(self.m.flops_per_apply());
            }
        }
    }

    /// Cache-fused sweep: carries a tile of σ-windows through all levels
    /// while its rows are hot. Every element sees the same scalar ops in
    /// the same order as the level-by-level kernel (the `axpy`/`scale`
    /// passes are plain `+= a·x[i]` / `*= a` loops, and a pointwise
    /// preconditioner applies as `w[i]·x[i]`), so results are bitwise
    /// identical to [`Self::run`]'s level-by-level path for every thread
    /// count and fusion setting.
    fn run_fused(
        &self,
        sell: &SellMatrix,
        params: &BasisParams,
        v: &mut MultiVector,
        mv: &mut MultiVector,
        counters: &mut Counters,
    ) {
        let n = self.a.nrows();
        let levels = v.k() - 1;
        let mv_cols = mv.k();
        let DistForm::Pointwise(wts) = self.m.dist_form() else {
            unreachable!("run_fused: gate admits pointwise preconditioners only");
        };
        let w_total = n.div_ceil(SELL_SIGMA);
        let h = sell.window_reach_halfwidth();
        let k_tile = self.fused_tile_windows(sell);
        let spw = SELL_SIGMA / SELL_C;

        // `done[l]` counts σ-windows of level `l` already produced; level 0
        // (the seed columns) is complete before the sweep starts.
        let mut done = vec![0usize; levels + 1];
        done[0] = w_total;
        let mut t = vec![0.0; n];
        for tile in 1.. {
            if done[levels] >= w_total {
                break;
            }
            for lvl in 1..=levels {
                let target = (tile * k_tile).saturating_sub((lvl - 1) * h).min(w_total);
                if target <= done[lvl] {
                    continue;
                }
                debug_assert!(
                    done[lvl - 1] >= (target + h).min(w_total),
                    "fused sweep dependency violated at level {lvl}"
                );
                let (w_lo, w_hi) = (done[lvl], target);
                let j = lvl - 1;
                let r_lo = w_lo * SELL_SIGMA;
                let r_hi = (w_hi * SELL_SIGMA).min(n);
                // t[band] = A · (M⁻¹ v_j) restricted to the band's slices;
                // σ-confinement keeps every output row inside the band.
                sell.spmv_slices(
                    w_lo * spw,
                    (w_hi * spw).min(sell.nslices()),
                    mv.col(j),
                    &mut t,
                );
                let theta = params.theta[j];
                let mu = if j >= 1 { params.mu[j - 1] } else { 0.0 };
                let inv_gamma = 1.0 / params.gamma[j];
                {
                    let (head, vnext) = v.split_at_col_mut(j + 1);
                    let vj = &head[j * n..(j + 1) * n];
                    for r in r_lo..r_hi {
                        let mut val = t[r];
                        if theta != 0.0 {
                            val += -theta * vj[r];
                        }
                        if mu != 0.0 {
                            val += -mu * head[(j - 1) * n + r];
                        }
                        if inv_gamma != 1.0 {
                            val *= inv_gamma;
                        }
                        vnext[r] = val;
                    }
                }
                if j + 1 < mv_cols {
                    let vnext = v.col(j + 1);
                    let mvnext = mv.col_mut(j + 1);
                    for r in r_lo..r_hi {
                        mvnext[r] = wts[r] * vnext[r];
                    }
                }
                done[lvl] = target;
            }
        }

        // Same charges, per level, as the level-by-level path.
        for j in 0..levels {
            counters.record_spmv(self.a.spmv_flops());
            counters.blas1_flops += params.extra_flops_for_column(j + 1, n as u64);
            if j + 1 < mv_cols {
                counters.record_precond(self.m.flops_per_apply());
            }
        }
    }
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

    #[test]
    fn fused_sell_sweep_matches_levelwise_bitwise() {
        // poisson_3d(14): n = 2744 → 11 σ-windows, window reach h = 1, so
        // the fused gate holds up to s = 10 ((s−1)·h < 11). Exercises the
        // three basis families (θ/μ patterns) and both mv shapes, on both
        // SELL encodings.
        for a in stencil_and_twin() {
            let n = a.nrows();
            let m = Jacobi::new(&a);
            let w: Vec<f64> = (0..n)
                .map(|i| ((i * 11 % 17) as f64) * 0.25 - 2.0)
                .collect();
            for s in [2usize, 4, 10] {
                for params in [
                    BasisParams::monomial(s),
                    BasisParams::chebyshev(0.15, 11.8, s),
                    BasisParams::newton(
                        &vec![1.0, 0.4, 2.3, 1.1, 0.9, 3.0, 0.2, 1.7, 2.8, 0.6][..s],
                        s,
                    ),
                ] {
                    for mv_cols in [s, s + 1] {
                        let mut v_ref = MultiVector::zeros(n, s + 1);
                        let mut mv_ref = MultiVector::zeros(n, mv_cols);
                        let mut c_ref = counters();
                        Mpk::new(&a, &m).run(
                            &w,
                            None,
                            &params,
                            &mut v_ref,
                            &mut mv_ref,
                            &mut c_ref,
                        );

                        let fused = Mpk::new(&a, &m).with_format(SparseFormat::Sell);
                        assert!(fused.fused_applicable(s + 1), "gate must hold for s={s}");
                        let mut v = MultiVector::zeros(n, s + 1);
                        let mut mv = MultiVector::zeros(n, mv_cols);
                        let mut c = counters();
                        fused.run(&w, None, &params, &mut v, &mut mv, &mut c);
                        for j in 0..=s {
                            assert_eq!(v.col(j), v_ref.col(j), "fused s={s} v col {j}");
                        }
                        for j in 0..mv_cols {
                            assert_eq!(mv.col(j), mv_ref.col(j), "fused s={s} mv col {j}");
                        }
                        assert_eq!(c, c_ref, "fused s={s}: counters must not change");

                        let lw = Mpk::new(&a, &m)
                            .with_format(SparseFormat::Sell)
                            .with_fused(false);
                        assert!(!lw.fused_applicable(s + 1));
                        let mut v = MultiVector::zeros(n, s + 1);
                        let mut mv = MultiVector::zeros(n, mv_cols);
                        let mut c = counters();
                        lw.run(&w, None, &params, &mut v, &mut mv, &mut c);
                        for j in 0..=s {
                            assert_eq!(v.col(j), v_ref.col(j), "sell s={s} v col {j}");
                        }
                        assert_eq!(c, c_ref, "sell s={s}: counters must not change");
                    }
                }
            }
        }
    }

    #[test]
    fn fused_gate_falls_back_when_skew_or_shape_disqualifies() {
        let a = spcg_sparse::generators::poisson::poisson_3d(8); // n = 512 → 2 windows
        let m = Jacobi::new(&a);
        let mpk = Mpk::new(&a, &m).with_format(SparseFormat::Sell);
        assert!(!mpk.fused_applicable(2), "one level is never fused");
        assert!(mpk.fused_applicable(3), "s=2 fits in 2 windows");
        assert!(!mpk.fused_applicable(5), "(s−1)·h = 3 exceeds 2 windows");
        // Fallback still runs and stays bitwise equal to CSR.
        let n = a.nrows();
        let w: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let s = 4;
        let params = BasisParams::chebyshev(0.2, 11.5, s);
        let mut v_ref = MultiVector::zeros(n, s + 1);
        let mut mv_ref = MultiVector::zeros(n, s);
        Mpk::new(&a, &m).run(&w, None, &params, &mut v_ref, &mut mv_ref, &mut counters());
        let mut v = MultiVector::zeros(n, s + 1);
        let mut mv = MultiVector::zeros(n, s);
        mpk.run(&w, None, &params, &mut v, &mut mv, &mut counters());
        for j in 0..=s {
            assert_eq!(v.col(j), v_ref.col(j), "fallback v col {j}");
        }
    }

    #[test]
    fn fused_sweep_is_thread_count_invariant_with_known_mw() {
        for a in stencil_and_twin() {
            let n = a.nrows();
            let m = Jacobi::new(&a);
            let w: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + (i % 29) as f64)).collect();
            let mw = m.apply_alloc(&w);
            let s = 6;
            let params = BasisParams::newton(&[1.0, 0.5, 2.0, 1.5, 0.8, 2.5], s);
            let mut v_ref = MultiVector::zeros(n, s + 1);
            let mut mv_ref = MultiVector::zeros(n, s);
            let mut c_ref = counters();
            Mpk::new(&a, &m).run(&w, Some(&mw), &params, &mut v_ref, &mut mv_ref, &mut c_ref);
            for t in [1usize, 2, 4] {
                let pk = spcg_sparse::ParKernels::new(t);
                let mpk = Mpk::new_par(&a, &m, pk).with_format(SparseFormat::Sell);
                assert!(mpk.fused_applicable(s + 1));
                let mut v = MultiVector::zeros(n, s + 1);
                let mut mv = MultiVector::zeros(n, s);
                let mut c = counters();
                mpk.run(&w, Some(&mw), &params, &mut v, &mut mv, &mut c);
                for j in 0..=s {
                    assert_eq!(v.col(j), v_ref.col(j), "threads {t} v col {j}");
                }
                for j in 0..s {
                    assert_eq!(mv.col(j), mv_ref.col(j), "threads {t} mv col {j}");
                }
                assert_eq!(c, c_ref, "threads {t}: counters must not change");
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
