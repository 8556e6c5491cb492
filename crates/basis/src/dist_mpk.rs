//! Distributed Matrix Powers Kernel over a rank's ghost zone.
//!
//! The serial [`crate::Mpk`] builds the basis matrices with one SpMV per
//! column. Distributed naively, that is one neighbour exchange per column —
//! s exchanges per s-step block. [`DistMpk`] instead runs the whole
//! recurrence from a **single** exchange: the caller gathers the seed
//! vector on the depth-s reach set of a [`GhostZone`] (the "PA1" scheme),
//! and level `j` of the recurrence is computed redundantly on the
//! shrinking reach prefix `reach(s − j − 1)`, so the final level lands
//! exactly on the owned rows with no further communication.
//!
//! The kernel does not own its zone: it shares the rank's one
//! `Arc<GhostZone>` (the zone the rank's single SpMVs also run on, cached
//! on the matrix across solves) and runs at its own `depth ≤ zone.depth()`
//! on the zone's depth prefix. Only the `reach_len(depth) − n_owned` ghosts
//! of that prefix are exchanged; extended buffers are nevertheless
//! `zone.ext_len()` long — the zone's kernels demand it — and the tail past
//! `reach_len(depth)` is neither filled nor read. The zone's rows are SELL
//! slots, so there is no layout to choose here.
//!
//! This only works when the preconditioner is *pointwise* (`M⁻¹ = diag(w)`,
//! i.e. Jacobi or identity): applying it on ghost rows needs nothing but
//! the ghosted weight vector. Coupled preconditioners force the engine to a
//! replicated fallback instead (see `spcg-solvers`).
//!
//! Counters are charged **identically** to the serial kernel (global SpMV
//! FLOPs, global preconditioner FLOPs, global basis-correction BLAS1), so a
//! ranked run's counter set differs from the serial one only in the halo
//! fields the engine adds. The redundant ghost-row arithmetic is the price
//! of the avoided latency and is deliberately not double-counted.

use crate::mpk::recurrence_step;
use crate::poly::BasisParams;
use spcg_dist::Counters;
use spcg_obs::{Phase, Track};
use spcg_sparse::{CsrMatrix, GhostZone, MultiVector, ParKernels};
use std::sync::Arc;

/// Exchange-completion callback for [`DistMpk::run_overlapped`]: fills the
/// ghost segment of the seed (and of `M⁻¹·seed` when present) once the
/// interior rows are done.
pub type CompleteGhosts<'a> = dyn FnMut(&mut [f64], Option<&mut [f64]>) + 'a;

/// Matrix powers kernel on the depth prefix of one rank's ghost zone.
pub struct DistMpk {
    zone: Arc<GhostZone>,
    /// Levels this kernel may run, and the reach set it has exchanged.
    depth: usize,
    /// Pointwise preconditioner weights on `reach(depth)`.
    weights_ext: Vec<f64>,
    /// Global-size counter charges, mirroring the serial kernel.
    spmv_flops: u64,
    m_flops: u64,
    n_global: u64,
    /// Intra-rank thread pool for the prefix SpMVs and elementwise passes.
    pk: ParKernels,
    /// Scratch: extended columns of V and M⁻¹V.
    v_ext: Vec<Vec<f64>>,
    mv_ext: Vec<Vec<f64>>,
    track: Option<Track>,
}

impl DistMpk {
    /// Builds the kernel on `zone` (rows of `a`) at ghost depth `depth`,
    /// with the global pointwise weight vector `weights` (`M⁻¹ = diag(w)`)
    /// charged at `m_flops` FLOPs per (global) application. The per-level
    /// prefix SpMVs and elementwise recurrence passes are row-partitioned
    /// over `pk`, bitwise identical for every thread count.
    ///
    /// # Panics
    /// Panics on dimension mismatches or if `depth` is not in
    /// `1 ..= zone.depth()`.
    pub fn new(
        a: &CsrMatrix,
        zone: Arc<GhostZone>,
        depth: usize,
        weights: &[f64],
        m_flops: u64,
        pk: ParKernels,
    ) -> Self {
        assert_eq!(weights.len(), a.nrows(), "DistMpk: weight length mismatch");
        assert!(
            (1..=zone.depth()).contains(&depth),
            "DistMpk: depth {depth} outside the zone's 1..={}",
            zone.depth()
        );
        let reach = &zone.ext_indices()[..zone.reach_len(depth)];
        DistMpk {
            weights_ext: reach.iter().map(|&g| weights[g]).collect(),
            depth,
            spmv_flops: a.spmv_flops(),
            m_flops,
            n_global: a.nrows() as u64,
            pk,
            v_ext: Vec::new(),
            mv_ext: Vec::new(),
            track: None,
            zone,
        }
    }

    /// Attaches a trace track: each recurrence level records an
    /// [`MpkLevel`](Phase) span, with the interior SpMV, frontier rows,
    /// and pointwise preconditioner applies nested as
    /// [`Spmv`](Phase)/[`Frontier`](Phase)/[`Precond`](Phase) spans.
    /// Instrumentation only — results and counters are unchanged.
    pub fn with_track(mut self, track: Option<Track>) -> Self {
        self.track = track;
        self
    }

    /// The ghost zone this kernel runs on (possibly deeper than the kernel).
    pub fn ghost(&self) -> &GhostZone {
        &self.zone
    }

    /// Global indices of the ghosts one exchange must fetch for this
    /// kernel: the zone's first `reach_len(depth) − n_owned` ghosts.
    pub fn ghost_indices(&self) -> &[usize] {
        &self.zone.ghost_indices()[..self.reach() - self.zone.n_owned()]
    }

    /// `|reach(depth)|`: how much of an extended vector this kernel fills,
    /// reads and holds weights for.
    fn reach(&self) -> usize {
        self.zone.reach_len(self.depth)
    }

    /// Checks the call shape shared by both entry points (`seed_len` is the
    /// length each seed vector must have), sizes the scratch columns, and
    /// returns the number of recurrence levels.
    fn begin(
        &mut self,
        seed_len: usize,
        w: &[f64],
        known_mw: Option<&[f64]>,
        params: &BasisParams,
        v: &MultiVector,
        mv: &MultiVector,
    ) -> usize {
        let nl = self.zone.n_owned();
        let (v_cols, mv_cols) = (v.k(), mv.k());
        assert!(v_cols >= 1, "DistMpk::run: need at least one V column");
        let s_levels = v_cols - 1;
        assert!(
            mv_cols + 1 >= v_cols && mv_cols <= v_cols,
            "DistMpk::run: need v_cols-1 <= mv_cols <= v_cols (got {v_cols}, {mv_cols})"
        );
        assert!(
            s_levels <= self.depth,
            "DistMpk::run: {s_levels} levels exceed ghost depth {}",
            self.depth
        );
        assert_eq!(v.n(), nl, "DistMpk::run: v row mismatch");
        assert_eq!(mv.n(), nl, "DistMpk::run: mv row mismatch");
        assert_eq!(w.len(), seed_len, "DistMpk::run: seed length mismatch");
        if let Some(mw) = known_mw {
            assert_eq!(mw.len(), seed_len, "DistMpk::run: known_mw length mismatch");
        }
        assert!(
            params.degree() + 1 >= v_cols,
            "DistMpk::run: basis degree {} too small for {v_cols} columns",
            params.degree()
        );
        self.v_ext.resize(v_cols, Vec::new());
        self.mv_ext.resize(mv_cols.max(1), Vec::new());
        for c in self.v_ext.iter_mut().chain(self.mv_ext.iter_mut()) {
            c.resize(self.zone.ext_len(), 0.0);
        }
        s_levels
    }

    /// Everything of level `j + 1` after its basis product `A·(M⁻¹v_j)`
    /// sits in `v_ext[j + 1][..rows]`: the serial kernel's
    /// [`recurrence_step`], then the pointwise `M⁻¹` of the new column if
    /// wanted.
    fn finish_level(
        &mut self,
        j: usize,
        rows: usize,
        mv_cols: usize,
        params: &BasisParams,
        counters: &mut Counters,
    ) {
        let (lower, upper) = self.v_ext.split_at_mut(j + 1);
        let lower = [&lower[j][..rows], &lower[j.saturating_sub(1)][..rows]];
        // t is the storage of the new column v_{j+1}, built in place.
        let (t, charge) = (&mut upper[0][..rows], (self.spmv_flops, self.n_global));
        recurrence_step(&self.pk, params, j, lower, t, charge, counters);
        if j + 1 < mv_cols {
            let _p = spcg_obs::span(self.track.as_ref(), Phase::Precond);
            self.pk.pointwise_mul(
                &self.weights_ext[..rows],
                &self.v_ext[j + 1][..rows],
                &mut self.mv_ext[j + 1][..rows],
            );
            counters.record_precond(self.m_flops);
        }
    }

    /// The owned rows of the extended columns are the local basis blocks.
    fn copy_out(&self, v: &mut MultiVector, mv: &mut MultiVector) {
        let nl = self.zone.n_owned();
        for j in 0..v.k() {
            v.col_mut(j).copy_from_slice(&self.v_ext[j][..nl]);
        }
        for j in 0..mv.k() {
            mv.col_mut(j).copy_from_slice(&self.mv_ext[j][..nl]);
        }
    }

    /// Fills the **local** basis blocks `v` (`nl × v_cols`) and `mv`
    /// (`nl × mv_cols`) from the seed gathered on the extended index set.
    ///
    /// * `w_ext` (and `known_mw_ext` if present) must be `ext_len()` long
    ///   and hold the seed on its first `reach_len(depth)` entries — owned
    ///   rows first, then the ghosts of [`DistMpk::ghost_indices`].
    /// * Supports `v_cols − 1 ≤ depth` levels; column counts follow the
    ///   serial kernel's contract (`v_cols − 1 ≤ mv_cols ≤ v_cols`).
    ///
    /// Owned-row results are bitwise identical to [`crate::Mpk::run`]: the
    /// remapped operator preserves per-row entry order and both kernels run
    /// the one `recurrence_step`.
    ///
    /// # Panics
    /// Panics on dimension or parameter-degree mismatches.
    pub fn run(
        &mut self,
        w_ext: &[f64],
        known_mw_ext: Option<&[f64]>,
        params: &BasisParams,
        v: &mut MultiVector,
        mv: &mut MultiVector,
        counters: &mut Counters,
    ) {
        let s_levels = self.begin(self.zone.ext_len(), w_ext, known_mw_ext, params, v, mv);
        let (reach, mv_cols) = (self.reach(), mv.k());
        self.v_ext[0][..reach].copy_from_slice(&w_ext[..reach]);
        if mv_cols > 0 {
            match known_mw_ext {
                Some(mw) => self.mv_ext[0][..reach].copy_from_slice(&mw[..reach]),
                None => {
                    let _p = spcg_obs::span(self.track.as_ref(), Phase::Precond);
                    let mw = &mut self.mv_ext[0][..reach];
                    self.pk
                        .pointwise_mul(&self.weights_ext, &w_ext[..reach], mw);
                    counters.record_precond(self.m_flops);
                }
            }
        }

        for j in 0..s_levels {
            let _level = spcg_obs::span(self.track.as_ref(), Phase::MpkLevel);
            // Level j+1 is needed (and computable) on reach(s_levels−j−1);
            // its operands are valid on the strictly larger reach set.
            let rows = self.zone.reach_len(s_levels - j - 1);
            {
                let _s = spcg_obs::span(self.track.as_ref(), Phase::Spmv);
                let t = &mut self.v_ext[j + 1];
                self.zone.spmv_prefix(&self.pk, rows, &self.mv_ext[j], t);
            }
            self.finish_level(j, rows, mv_cols, params, counters);
        }
        self.copy_out(v, mv);
    }

    /// [`DistMpk::run`] with communication–computation overlap: the caller
    /// posts its owned chunk(s) to the exchange *before* this call and
    /// passes `complete`, which must finish the exchange by filling the
    /// ghost segments (the `ghost_indices().len()` entries past the owned
    /// prefix) of the seed — and of `M⁻¹·seed` when `known_mw` is given.
    /// The kernel seeds the owned prefixes from the local slices, runs the
    /// **interior** rows of the first basis product on owned data alone,
    /// then invokes `complete` exactly once and finishes the frontier rows
    /// and the remaining levels with the same split schedule.
    ///
    /// Interior and frontier row lists partition every level's row prefix
    /// and reuse the per-row accumulation of the prefix SpMV, and the
    /// basis corrections are untouched — the outputs and every counter
    /// charge are **bitwise identical** to [`DistMpk::run`] on the fully
    /// gathered seed, for any thread count.
    ///
    /// # Panics
    /// Panics on dimension or parameter-degree mismatches (the contract of
    /// [`DistMpk::run`], with `w`/`known_mw` of owned length `n_owned()`).
    #[allow(clippy::too_many_arguments)] // mirrors `run` plus the completion hook
    pub fn run_overlapped(
        &mut self,
        w: &[f64],
        known_mw: Option<&[f64]>,
        params: &BasisParams,
        v: &mut MultiVector,
        mv: &mut MultiVector,
        counters: &mut Counters,
        complete: &mut CompleteGhosts<'_>,
    ) {
        let nl = self.zone.n_owned();
        let s_levels = self.begin(nl, w, known_mw, params, v, mv);
        let (reach, mv_cols) = (self.reach(), mv.k());

        // Owned prefixes of the seed columns; ghost segments arrive at the
        // completion below. Splitting the elementwise M⁻¹ application at
        // `nl` changes no per-element product, so it stays bitwise equal to
        // the full-length pass of the blocking kernel.
        self.v_ext[0][..nl].copy_from_slice(w);
        if mv_cols > 0 {
            match known_mw {
                Some(mw) => self.mv_ext[0][..nl].copy_from_slice(mw),
                None => {
                    let _p = spcg_obs::span(self.track.as_ref(), Phase::Precond);
                    let head = &mut self.mv_ext[0][..nl];
                    self.pk.pointwise_mul(&self.weights_ext[..nl], w, head);
                }
            }
        }

        // Interior rows of the first basis product: every operand column
        // is owned, so this runs entirely inside the exchange's overlap
        // window. (With zero levels there is no product to overlap; the
        // completion below still runs exactly once.)
        if s_levels > 0 {
            let _s = spcg_obs::span(self.track.as_ref(), Phase::Spmv);
            let t = &mut self.v_ext[1];
            self.zone.spmv_interior(&self.pk, &self.mv_ext[0], t);
        }

        // Receive completion: the caller copies the exchanged ghost words
        // into the seed columns' ghost segments.
        complete(
            &mut self.v_ext[0][nl..reach],
            known_mw.map(|_| &mut self.mv_ext[0][nl..reach]),
        );
        if mv_cols > 0 && known_mw.is_none() {
            let _p = spcg_obs::span(self.track.as_ref(), Phase::Precond);
            let tail = &mut self.mv_ext[0][nl..reach];
            self.pk
                .pointwise_mul(&self.weights_ext[nl..], &self.v_ext[0][nl..reach], tail);
            counters.record_precond(self.m_flops);
        }

        for j in 0..s_levels {
            let _level = spcg_obs::span(self.track.as_ref(), Phase::MpkLevel);
            let rows = self.zone.reach_len(s_levels - j - 1);
            let t = &mut self.v_ext[j + 1];
            if j > 0 {
                // The first level's interior rows already hold their
                // results; later levels have no exchange to hide, but run
                // the same split schedule for a uniform execution shape.
                let _s = spcg_obs::span(self.track.as_ref(), Phase::Spmv);
                self.zone.spmv_interior(&self.pk, &self.mv_ext[j], t);
            }
            {
                let _f = spcg_obs::span(self.track.as_ref(), Phase::Frontier);
                self.zone.spmv_frontier(&self.pk, rows, &self.mv_ext[j], t);
            }
            self.finish_level(j, rows, mv_cols, params, counters);
        }
        self.copy_out(v, mv);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mpk::Mpk;
    use spcg_precond::{Jacobi, Preconditioner};
    use spcg_sparse::generators::poisson::poisson_2d;
    use spcg_sparse::partition::BlockRowPartition;

    /// A kernel on its own fresh depth-`depth` zone.
    #[allow(clippy::too_many_arguments)]
    fn kernel(
        a: &CsrMatrix,
        (lo, hi): (usize, usize),
        depth: usize,
        weights: &[f64],
        m_flops: u64,
        threads: usize,
    ) -> DistMpk {
        let zone = Arc::new(GhostZone::new(a, lo, hi, depth));
        DistMpk::new(a, zone, depth, weights, m_flops, ParKernels::new(threads))
    }

    fn serial_reference(
        a: &CsrMatrix,
        m: &dyn Preconditioner,
        w: &[f64],
        known_mw: Option<&[f64]>,
        params: &BasisParams,
        v_cols: usize,
        mv_cols: usize,
    ) -> (MultiVector, MultiVector, Counters) {
        let n = a.nrows();
        let mut v = MultiVector::zeros(n, v_cols);
        let mut mv = MultiVector::zeros(n, mv_cols);
        let mut c = Counters::new();
        Mpk::new(a, m).run(w, known_mw, params, &mut v, &mut mv, &mut c);
        (v, mv, c)
    }

    #[test]
    fn matches_serial_bitwise_across_ranks() {
        let a = poisson_2d(9);
        let n = a.nrows();
        let m = Jacobi::new(&a);
        let w: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let s = 4;
        let params = BasisParams::chebyshev(0.2, 7.5, s);
        let (v_ref, mv_ref, c_ref) = serial_reference(&a, &m, &w, None, &params, s + 1, s);

        let weights: Vec<f64> = (0..n).map(|i| 1.0 / a.get(i, i)).collect();
        let part = BlockRowPartition::balanced(n, 3);
        let mut c_sum = Counters::new();
        for p in 0..3 {
            let (lo, hi) = part.range(p);
            let mut dk = kernel(&a, (lo, hi), s, &weights, m.flops_per_apply(), 1);
            let w_ext = dk.ghost().extend_from_global(&w);
            let mut v = MultiVector::zeros(hi - lo, s + 1);
            let mut mv = MultiVector::zeros(hi - lo, s);
            let mut c = Counters::new();
            dk.run(&w_ext, None, &params, &mut v, &mut mv, &mut c);
            for j in 0..=s {
                for i in 0..hi - lo {
                    assert_eq!(
                        v.col(j)[i],
                        v_ref.col(j)[lo + i],
                        "rank {p} v col {j} row {i}"
                    );
                }
            }
            for j in 0..s {
                assert_eq!(mv.col(j), &mv_ref.col(j)[lo..hi], "rank {p} mv col {j}");
            }
            if p == 0 {
                c_sum = c;
            } else {
                assert_eq!(c, c_sum, "per-rank counters must agree");
            }
        }
        // Each rank charges exactly the serial (global) cost.
        assert_eq!(c_sum, c_ref);
    }

    #[test]
    fn supports_known_mw_and_full_mv_cols() {
        // CA-PCG's Q-run: mv_cols == v_cols with the seed's M⁻¹ known.
        let a = poisson_2d(7);
        let n = a.nrows();
        let m = Jacobi::new(&a);
        let w: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        let mw = m.apply_alloc(&w);
        let s = 3;
        let params = BasisParams::monomial(s);
        let (v_ref, mv_ref, c_ref) = serial_reference(&a, &m, &w, Some(&mw), &params, s + 1, s + 1);

        let weights: Vec<f64> = (0..n).map(|i| 1.0 / a.get(i, i)).collect();
        let (lo, hi) = (14, 35);
        let mut dk = kernel(&a, (lo, hi), s, &weights, m.flops_per_apply(), 1);
        let w_ext = dk.ghost().extend_from_global(&w);
        let mw_ext = dk.ghost().extend_from_global(&mw);
        let mut v = MultiVector::zeros(hi - lo, s + 1);
        let mut mv = MultiVector::zeros(hi - lo, s + 1);
        let mut c = Counters::new();
        dk.run(&w_ext, Some(&mw_ext), &params, &mut v, &mut mv, &mut c);
        for j in 0..=s {
            assert_eq!(v.col(j), &v_ref.col(j)[lo..hi], "v col {j}");
            assert_eq!(mv.col(j), &mv_ref.col(j)[lo..hi], "mv col {j}");
        }
        assert_eq!(c, c_ref);
    }

    #[test]
    fn fewer_levels_than_depth_allowed() {
        // CA-PCG's R-run uses s columns against the same depth-s plan.
        let a = poisson_2d(6);
        let n = a.nrows();
        let m = Jacobi::new(&a);
        let w: Vec<f64> = (0..n).map(|i| 1.0 + (i % 5) as f64).collect();
        let s = 4;
        let params = BasisParams::chebyshev(0.3, 7.0, s);
        let (v_ref, _, _) = serial_reference(&a, &m, &w, None, &params, s, s);
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / a.get(i, i)).collect();
        let (lo, hi) = (0, 20);
        let mut dk = kernel(&a, (lo, hi), s, &weights, m.flops_per_apply(), 1);
        let w_ext = dk.ghost().extend_from_global(&w);
        let mut v = MultiVector::zeros(hi - lo, s);
        let mut mv = MultiVector::zeros(hi - lo, s);
        let mut c = Counters::new();
        dk.run(&w_ext, None, &params, &mut v, &mut mv, &mut c);
        for j in 0..s {
            assert_eq!(v.col(j), &v_ref.col(j)[lo..hi], "v col {j}");
        }
    }

    #[test]
    fn threaded_kernel_matches_serial_bitwise() {
        let a = poisson_2d(24);
        let n = a.nrows();
        let m = Jacobi::new(&a);
        let w: Vec<f64> = (0..n).map(|i| ((i * 11 % 17) as f64) - 8.0).collect();
        let s = 4;
        let params = BasisParams::chebyshev(0.2, 7.5, s);
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / a.get(i, i)).collect();
        let (lo, hi) = (n / 3, 4 * n / 5);
        let mut dk_ref = kernel(&a, (lo, hi), s, &weights, m.flops_per_apply(), 1);
        let w_ext = dk_ref.ghost().extend_from_global(&w);
        let mut v_ref = MultiVector::zeros(hi - lo, s + 1);
        let mut mv_ref = MultiVector::zeros(hi - lo, s);
        let mut c_ref = Counters::new();
        dk_ref.run(&w_ext, None, &params, &mut v_ref, &mut mv_ref, &mut c_ref);
        for t in [2usize, 4, 8] {
            let mut dk = kernel(&a, (lo, hi), s, &weights, m.flops_per_apply(), t);
            let mut v = MultiVector::zeros(hi - lo, s + 1);
            let mut mv = MultiVector::zeros(hi - lo, s);
            let mut c = Counters::new();
            dk.run(&w_ext, None, &params, &mut v, &mut mv, &mut c);
            for j in 0..=s {
                assert_eq!(v.col(j), v_ref.col(j), "threads {t} v col {j}");
            }
            for j in 0..s {
                assert_eq!(mv.col(j), mv_ref.col(j), "threads {t} mv col {j}");
            }
            assert_eq!(c, c_ref, "threads {t}: counters must not change");
        }
    }

    /// The overlapped kernel (interior SpMV before the ghost segments
    /// exist, frontier after) must be bitwise equal to the blocking kernel
    /// in outputs *and* counter charges, for any thread count.
    #[test]
    fn run_overlapped_matches_run_bitwise() {
        let a = poisson_2d(13);
        let n = a.nrows();
        let m = Jacobi::new(&a);
        let w: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let s = 4;
        let params = BasisParams::chebyshev(0.2, 7.5, s);
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / a.get(i, i)).collect();
        let part = BlockRowPartition::balanced(n, 3);
        for p in 0..3 {
            let (lo, hi) = part.range(p);
            let mut dk = kernel(&a, (lo, hi), s, &weights, m.flops_per_apply(), 1);
            let w_ext = dk.ghost().extend_from_global(&w);
            let mut v_ref = MultiVector::zeros(hi - lo, s + 1);
            let mut mv_ref = MultiVector::zeros(hi - lo, s);
            let mut c_ref = Counters::new();
            dk.run(&w_ext, None, &params, &mut v_ref, &mut mv_ref, &mut c_ref);

            for t in [1usize, 2, 4] {
                let mut dk = kernel(&a, (lo, hi), s, &weights, m.flops_per_apply(), t);
                let ghosts: Vec<usize> = dk.ghost_indices().to_vec();
                let mut v = MultiVector::zeros(hi - lo, s + 1);
                let mut mv = MultiVector::zeros(hi - lo, s);
                let mut c = Counters::new();
                let mut completions = 0;
                dk.run_overlapped(
                    &w[lo..hi],
                    None,
                    &params,
                    &mut v,
                    &mut mv,
                    &mut c,
                    &mut |wg, mwg| {
                        completions += 1;
                        assert!(mwg.is_none());
                        for (dst, &g) in wg.iter_mut().zip(&ghosts) {
                            *dst = w[g];
                        }
                    },
                );
                assert_eq!(completions, 1, "exactly one exchange completion");
                for j in 0..=s {
                    assert_eq!(v.col(j), v_ref.col(j), "rank {p} t {t} v col {j}");
                }
                for j in 0..s {
                    assert_eq!(mv.col(j), mv_ref.col(j), "rank {p} t {t} mv col {j}");
                }
                assert_eq!(c, c_ref, "rank {p} t {t}: counters must not change");
            }
        }
    }

    /// CA-PCG's Q-run shape: `mv_cols == v_cols` with the seed's `M⁻¹`
    /// known, so the completion must fill both ghost segments.
    #[test]
    fn run_overlapped_supports_known_mw() {
        let a = poisson_2d(7);
        let n = a.nrows();
        let m = Jacobi::new(&a);
        let w: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        let mw = m.apply_alloc(&w);
        let s = 3;
        let params = BasisParams::monomial(s);
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / a.get(i, i)).collect();
        let (lo, hi) = (14, 35);
        let mut dk = kernel(&a, (lo, hi), s, &weights, m.flops_per_apply(), 1);
        let ghosts: Vec<usize> = dk.ghost_indices().to_vec();
        let w_ext = dk.ghost().extend_from_global(&w);
        let mw_ext = dk.ghost().extend_from_global(&mw);
        let mut v_ref = MultiVector::zeros(hi - lo, s + 1);
        let mut mv_ref = MultiVector::zeros(hi - lo, s + 1);
        let mut c_ref = Counters::new();
        dk.run(
            &w_ext,
            Some(&mw_ext),
            &params,
            &mut v_ref,
            &mut mv_ref,
            &mut c_ref,
        );

        let mut v = MultiVector::zeros(hi - lo, s + 1);
        let mut mv = MultiVector::zeros(hi - lo, s + 1);
        let mut c = Counters::new();
        dk.run_overlapped(
            &w[lo..hi],
            Some(&mw[lo..hi]),
            &params,
            &mut v,
            &mut mv,
            &mut c,
            &mut |wg, mwg| {
                for (dst, &g) in wg.iter_mut().zip(&ghosts) {
                    *dst = w[g];
                }
                for (dst, &g) in mwg.expect("mw ghosts needed").iter_mut().zip(&ghosts) {
                    *dst = mw[g];
                }
            },
        );
        for j in 0..=s {
            assert_eq!(v.col(j), v_ref.col(j), "v col {j}");
            assert_eq!(mv.col(j), mv_ref.col(j), "mv col {j}");
        }
        assert_eq!(c, c_ref);
    }

    /// Every rank's ghost-zone sweep against the CSR reference
    /// ([`crate::mpk::csr_sweep`] on the whole matrix, restricted to the
    /// rank's rows): bitwise equal columns and equal counters on both the
    /// blocking and the overlapped paths, for every rank and thread count,
    /// on the stencil and its variable-coefficient twin.
    #[test]
    fn sell_format_matches_csr_bitwise() {
        let stencil = poisson_2d(13);
        let twin = spcg_sparse::generators::perturb_diagonal(&stencil, 13);
        for a in [stencil, twin] {
            let n = a.nrows();
            let m = Jacobi::new(&a);
            let w: Vec<f64> = (0..n).map(|i| ((i * 5 % 11) as f64) - 4.0).collect();
            let s = 4;
            let params = BasisParams::newton(&[1.0, 0.5, 2.0, 1.5], s);
            let (mut v_ref, mut mv_ref) = (MultiVector::zeros(n, s + 1), MultiVector::zeros(n, s));
            let mut c_ref = Counters::new();
            let refs = (&mut v_ref, &mut mv_ref);
            crate::mpk::csr_sweep(&a, &m, &w, None, &params, refs, &mut c_ref);
            let weights: Vec<f64> = (0..n).map(|i| 1.0 / a.get(i, i)).collect();
            let part = BlockRowPartition::balanced(n, 3);
            for p in 0..3 {
                let (lo, hi) = part.range(p);
                for t in [1usize, 2, 4] {
                    let mut dk = kernel(&a, (lo, hi), s, &weights, m.flops_per_apply(), t);
                    let ghosts: Vec<usize> = dk.ghost_indices().to_vec();
                    let w_ext = dk.ghost().extend_from_global(&w);
                    for overlapped in [false, true] {
                        let tag = format!("rank {p} t {t} overlapped {overlapped}");
                        let mut v = MultiVector::zeros(hi - lo, s + 1);
                        let mut mv = MultiVector::zeros(hi - lo, s);
                        let mut c = Counters::new();
                        if overlapped {
                            dk.run_overlapped(
                                &w[lo..hi],
                                None,
                                &params,
                                &mut v,
                                &mut mv,
                                &mut c,
                                &mut |wg, mwg| {
                                    assert!(mwg.is_none());
                                    for (dst, &g) in wg.iter_mut().zip(&ghosts) {
                                        *dst = w[g];
                                    }
                                },
                            );
                        } else {
                            dk.run(&w_ext, None, &params, &mut v, &mut mv, &mut c);
                        }
                        for j in 0..=s {
                            assert_eq!(v.col(j), &v_ref.col(j)[lo..hi], "{tag} v col {j}");
                        }
                        for j in 0..s {
                            assert_eq!(mv.col(j), &mv_ref.col(j)[lo..hi], "{tag} mv col {j}");
                        }
                        assert_eq!(c, c_ref, "{tag}: counters");
                    }
                }
            }
        }
    }

    /// A depth-`d` kernel on a deeper zone (what the engine hands it when the
    /// matrix's cache holds one): the same ghosts exchanged and the same
    /// output bits and counters as on a zone of its own depth, blocking and
    /// overlapped, with the never-exchanged buffer tail poisoned.
    #[test]
    fn shallower_kernel_on_a_deeper_zone_matches_its_own_zone_bitwise() {
        let a = poisson_2d(13);
        let n = a.nrows();
        let m = Jacobi::new(&a);
        let w: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();
        let weights: Vec<f64> = (0..n).map(|i| 1.0 / a.get(i, i)).collect();
        let (lo, hi) = (n / 3, 2 * n / 3);
        let bits = |mv: &MultiVector| -> Vec<u64> {
            (0..mv.k())
                .flat_map(|j| mv.col(j).iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                .collect()
        };
        let deep = Arc::new(GhostZone::new(&a, lo, hi, 6));
        for (d, threads) in [(1usize, 1usize), (2, 2), (4, 1), (6, 4)] {
            let params = BasisParams::chebyshev(0.2, 7.5, d);
            let run = |dk: &mut DistMpk, overlapped: bool| {
                let ghosts = dk.ghost_indices().to_vec();
                let mut v = MultiVector::zeros(hi - lo, d + 1);
                let mut mv = MultiVector::zeros(hi - lo, d);
                let mut c = Counters::new();
                if overlapped {
                    let w_local = &w[lo..hi];
                    dk.run_overlapped(
                        w_local,
                        None,
                        &params,
                        &mut v,
                        &mut mv,
                        &mut c,
                        &mut |wg, _| {
                            assert_eq!(wg.len(), ghosts.len());
                            for (dst, &g) in wg.iter_mut().zip(&ghosts) {
                                *dst = w[g];
                            }
                        },
                    );
                } else {
                    let mut w_ext = vec![f64::NAN; dk.ghost().ext_len()];
                    w_ext[..hi - lo].copy_from_slice(&w[lo..hi]);
                    for (dst, &g) in w_ext[hi - lo..].iter_mut().zip(&ghosts) {
                        *dst = w[g];
                    }
                    dk.run(&w_ext, None, &params, &mut v, &mut mv, &mut c);
                }
                (ghosts, bits(&v), bits(&mv), c)
            };
            let pk = ParKernels::new(threads);
            let flops = m.flops_per_apply();
            let mut shared = DistMpk::new(&a, Arc::clone(&deep), d, &weights, flops, pk);
            let mut own = kernel(&a, (lo, hi), d, &weights, flops, threads);
            for overlapped in [false, true] {
                assert!(
                    run(&mut shared, overlapped) == run(&mut own, overlapped),
                    "depth {d} overlapped {overlapped}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "need at least one V column")]
    fn rejects_zero_columns() {
        let a = poisson_2d(4);
        let mut dk = kernel(&a, (0, 8), 2, &[1.0; 16], 0, 1);
        let w_ext = vec![1.0; dk.ghost().ext_len()];
        let (mut v, mut mv) = (MultiVector::zeros(8, 0), MultiVector::zeros(8, 0));
        let params = BasisParams::monomial(2);
        dk.run(&w_ext, None, &params, &mut v, &mut mv, &mut Counters::new());
    }

    #[test]
    #[should_panic(expected = "levels exceed ghost depth")]
    fn rejects_too_many_levels() {
        let a = poisson_2d(4);
        let weights = vec![1.0; 16];
        let mut dk = kernel(&a, (0, 8), 2, &weights, 0, 1);
        let w_ext = vec![1.0; dk.ghost().ext_len()];
        let params = BasisParams::monomial(4);
        let mut v = MultiVector::zeros(8, 4);
        let mut mv = MultiVector::zeros(8, 3);
        dk.run(&w_ext, None, &params, &mut v, &mut mv, &mut Counters::new());
    }
}
