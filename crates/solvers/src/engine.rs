//! The unified execution engine: one `solve` entry over serial and
//! rank-parallel execution.
//!
//! Every solver body in this crate is written once, generically over an
//! `Exec`: the operators of a solve, `(A, M⁻¹, transport)`, and nothing
//! else — SpMV/SpMM, preconditioner application, the Matrix Powers Kernel
//! and the allreduce, whose *implementation* differs between serial and
//! distributed execution. The right-hand side is an argument: `dispatch`
//! and every body take the local block `b`, so one executor serves any
//! number of right-hand sides. The bodies record their [`Counters`] charges
//! themselves, always with **global** operation sizes, so a ranked run
//! reports the same Table-1 instrumentation as the serial run it mirrors;
//! the `Exec` implementations charge only what they perform: halo traffic
//! (ranked only) and every reduction (`Exec::allreduce`).
//!
//! * `SerialExec` delegates straight to the kernels of its pool, with an
//!   allreduce that only charges.
//! * `RankExec` owns a block of rows `[lo, hi)` on one rank of a
//!   pluggable [`Comm`]/[`Exchange`] transport ([`ThreadComm`] threads by
//!   default, `spcg-rankd` worker processes under
//!   [`Backend::Proc`]). Its rows live in **one** rank-local operator, the
//!   `Arc<GhostZone>` that [`CsrMatrix::ghost_zone`] builds once per
//!   (matrix, range) and keeps across solves — as deep as the method's MPK
//!   needs, its rows packed as SELL slots. SpMV gathers the
//!   zone's depth-1 ghosts through the transport's split-phase exchange and
//!   runs on its owned-row prefix; the MPK gathers its depth-s ghosts
//!   **once per s-step block** and runs [`DistMpk`] on the same zone — the
//!   PA1 halo amortization the paper's §4.2 communication model assumes.
//!   What is exchanged depends on the depth a kernel runs at, never on how
//!   deep the (possibly cached, deeper) zone happens to be. With
//!   [`SolveOptions::overlap`] (the default) each product's interior rows
//!   run between the exchange's post and completion, hiding the exchange
//!   latency behind computation that needs no remote data; solutions and
//!   communication counters are bitwise/exactly identical either way. The
//!   preconditioner is dispatched on its [`DistForm`]: pointwise and
//!   rank-aligned block operators apply locally, polynomial operators
//!   apply through the distributed SpMV, and anything else falls back to
//!   a replicated apply.
//!
//! Reductions go through [`Comm::allreduce_sum`], which every backend
//! implements as a rank-order sum — deterministic, so every rank takes the
//! same branches and a ranked solve is reproducible run to run *and*
//! bitwise identical across backends.

use crate::batch::BatchRequest;
use crate::method::Method;
use crate::options::{Problem, SolveOptions, SolveResult};
use crate::resilience::{solve_resilient, Resilience};
use spcg_basis::poly::BasisParams;
use spcg_basis::{DistMpk, Mpk};
use spcg_dist::executor::run_ranks_in;
use spcg_dist::fault::FaultCounts;
use spcg_dist::{
    Backend, Comm, CommGroup, Counters, Exchange, FaultPlan, FaultSite, GatherPlan, ThreadComm,
    VectorBoard,
};
use spcg_obs::{Phase, Track};
use spcg_precond::{DistForm, Preconditioner};
use spcg_sparse::partition::BlockRowPartition;
use spcg_sparse::{CsrMatrix, DenseMat, GhostZone, MultiVector, ParKernels, SellMatrix};
use std::sync::Arc;

/// Where a [`solve`](crate::solve) call executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Single-threaded reference execution — bitwise identical to the
    /// serial solvers this workspace has always had.
    Serial,
    /// `ranks` real OS-thread ranks over [`ThreadComm`]: block-row
    /// partitioned matrix and vectors, ghost-zone halo exchanges (one per
    /// s-step block for the s-step methods), and rank-ordered deterministic
    /// allreduces.
    Ranked {
        /// Number of ranks; must satisfy `1 ≤ ranks ≤ n`.
        ranks: usize,
    },
}

/// The execution substrate a solver body runs on.
///
/// Vectors handled through an `Exec` are rank-local slices of length
/// [`Exec::nl`]; under serial execution the "local" block is the whole
/// vector. Bodies form **local partials** on [`Exec::kernels`] and combine
/// them with [`Exec::allreduce`], which serially is the identity, so packing
/// a value through it never perturbs bits.
pub(crate) trait Exec {
    /// Local row count.
    fn nl(&self) -> usize;
    /// Global row count, as the `u64` the counter charges use.
    fn n_global(&self) -> u64;
    /// Global FLOPs of one full SpMV.
    fn spmv_flops(&self) -> u64;
    /// Global FLOPs of one full preconditioner application.
    fn m_flops(&self) -> u64;
    /// `y ← A x` on the local rows (halo traffic is counted; the SpMV FLOP
    /// charge itself is the body's job).
    fn spmv(&mut self, x: &[f64], y: &mut [f64], counters: &mut Counters);
    /// `z ← M⁻¹ r` on the local rows.
    fn precond(&mut self, r: &[f64], z: &mut [f64], counters: &mut Counters);
    /// Matrix Powers Kernel: fills the local blocks of `V` and `M⁻¹V`
    /// seeded by `w`, recording the same SpMV/precond/BLAS1 charges as the
    /// serial [`Mpk::run`] plus (under ranking) one halo-exchange round.
    fn mpk(
        &mut self,
        w: &[f64],
        known_mw: Option<&[f64]>,
        params: &BasisParams,
        v: &mut MultiVector,
        mv: &mut MultiVector,
        counters: &mut Counters,
    );
    /// The one door of a reduction: charges one collective of `buf.len()`
    /// words, then sums `buf` across ranks in rank order (serially: no sum).
    fn allreduce(&mut self, buf: &mut [f64], counters: &mut Counters);
    /// The intra-rank thread pool ([`SolveOptions::threads`] workers per
    /// rank). Solver bodies route their row-local BLAS1/BLAS3 work through
    /// it; every kernel is bitwise deterministic in the thread count.
    fn kernels(&self) -> &ParKernels;
    /// This rank's trace track ([`SolveOptions::trace`]); `None` when
    /// tracing is off. Solver bodies clone it once (`Track` is an `Rc`
    /// handle) and open [`Phase`] spans around their Gram/scalar/update
    /// work; the `Exec` implementations own the SpMV, preconditioner,
    /// MPK, and exchange spans.
    fn track(&self) -> Option<&Track>;
    /// First *global* row of this rank's local block (0 serially). The
    /// enlarged-Krylov splitting operator `T(·)` is defined on global row
    /// indices, so its t-way split must not depend on the rank count.
    fn row_offset(&self) -> usize {
        0
    }
    /// The local block of the preconditioner's weights when `M⁻¹` is a
    /// pointwise scaling (`z[i] = w[i]·r[i]`: Jacobi, identity), else
    /// `None`. What lets a body fuse the apply into a vector sweep.
    fn pointwise(&self) -> Option<&[f64]>;
    /// `Y ← A·X`: per column bitwise equal to [`Exec::spmv`], column `j`'s
    /// halo traffic charged to `counters[j]` (or all of it to a lone entry).
    /// This default *is* the `spmv` loop; serial execution overrides it with
    /// SELL's SpMM on a diagonal-encoded matrix and the interleaved-operand
    /// CSR SpMM kernel otherwise, whose columns are documented bitwise equal
    /// to the single-vector kernels — unobservable in results.
    fn spmm(&mut self, x: &MultiVector, y: &mut MultiVector, counters: &mut [Counters]) {
        let shared = counters.len() == 1;
        for j in 0..x.k() {
            let cj = &mut counters[if shared { 0 } else { j }];
            self.spmv(x.col(j), y.col_mut(j), cj);
        }
    }
}

/// Packs Gram matrices, loose scalars and the criterion's `partial` into one
/// buffer, allreduces it, and unpacks (returning the reduced partial) — one
/// collective per s steps. Serially a pack/unpack round trip: bitwise identity.
pub(crate) fn allreduce_gram<E: Exec>(
    exec: &mut E,
    mats: &mut [&mut DenseMat],
    extra: &mut [f64],
    partial: Option<f64>,
    counters: &mut Counters,
) -> Option<f64> {
    // Row-major matrix after matrix, then the scalars, the partial last.
    let mut buf: Vec<f64> = Vec::new();
    for m in mats.iter() {
        buf.extend_from_slice(m.data());
    }
    buf.extend(extra.iter().chain(&partial));
    exec.allreduce(&mut buf, counters);
    let mut rest = &buf[..];
    for part in mats.iter_mut().map(|m| m.data_mut()).chain([extra]) {
        let (head, tail) = rest.split_at(part.len());
        part.copy_from_slice(head);
        rest = tail;
    }
    partial.and_then(|_| buf.pop())
}

/// Serial execution: the whole problem is one "rank" (optionally with an
/// intra-process thread pool under it).
pub(crate) struct SerialExec<'a> {
    a: &'a CsrMatrix,
    m: &'a dyn Preconditioner,
    mpk: Mpk<'a>,
    pk: ParKernels,
    /// The matrix's cached SELL form, whichever encoding
    /// [`SellMatrix::from_csr`] picked: what every one-column product runs
    /// on.
    sell: Arc<SellMatrix>,
    track: Option<Track>,
}

impl<'a> SerialExec<'a> {
    pub(crate) fn new(a: &'a CsrMatrix, m: &'a dyn Preconditioner, opts: &SolveOptions) -> Self {
        let pk = ParKernels::new(opts.threads);
        let track = opts.trace.as_ref().map(|t| t.track(0));
        SerialExec {
            a,
            m,
            mpk: Mpk::new_par(a, m, pk.clone()).with_track(track.clone()),
            pk,
            sell: a.sell(),
            track,
        }
    }
}

impl Exec for SerialExec<'_> {
    fn nl(&self) -> usize {
        self.a.nrows()
    }
    fn n_global(&self) -> u64 {
        self.a.nrows() as u64
    }
    fn spmv_flops(&self) -> u64 {
        self.a.spmv_flops()
    }
    fn m_flops(&self) -> u64 {
        self.m.flops_per_apply()
    }
    fn spmv(&mut self, x: &[f64], y: &mut [f64], _counters: &mut Counters) {
        let _s = spcg_obs::span(self.track.as_ref(), Phase::Spmv);
        self.pk.spmv_sell(&self.sell, x, y);
    }
    fn precond(&mut self, r: &[f64], z: &mut [f64], _counters: &mut Counters) {
        let _s = spcg_obs::span(self.track.as_ref(), Phase::Precond);
        self.m.apply_par_on(&self.pk, &self.sell, r, z);
    }
    fn mpk(
        &mut self,
        w: &[f64],
        known_mw: Option<&[f64]>,
        params: &BasisParams,
        v: &mut MultiVector,
        mv: &mut MultiVector,
        counters: &mut Counters,
    ) {
        self.mpk.run(w, known_mw, params, v, mv, counters);
    }
    fn allreduce(&mut self, buf: &mut [f64], counters: &mut Counters) {
        counters.record_collective(buf.len() as u64);
    }
    fn kernels(&self) -> &ParKernels {
        &self.pk
    }
    fn track(&self) -> Option<&Track> {
        self.track.as_ref()
    }
    fn pointwise(&self) -> Option<&[f64]> {
        match self.m.dist_form() {
            DistForm::Pointwise(w) => Some(w),
            _ => None,
        }
    }
    fn spmm(&mut self, x: &MultiVector, y: &mut MultiVector, counters: &mut [Counters]) {
        if x.k() == 1 {
            // One column is a plain SpMV: same kernel, same span.
            return self.spmv(x.col(0), y.col_mut(0), &mut counters[0]);
        }
        // SELL's diagonals stream no matrix, so a column at a time is the
        // cheapest product there; on slots the interleaved CSR kernel,
        // where one matrix entry feeds a whole column group while SELL's
        // slot SpMM walks the columns one at a time.
        let _s = spcg_obs::span(self.track.as_ref(), Phase::Spmm);
        if self.sell.is_diagonal() {
            self.pk.spmm_sell(&self.sell, x, y);
        } else {
            self.pk.spmm(self.a, x, y);
        }
    }
}

/// One rank of a block-row-partitioned solve.
pub(crate) struct RankExec<'a> {
    a: &'a CsrMatrix,
    m: &'a dyn Preconditioner,
    /// Collective transport — [`ThreadComm`] under the in-process backend,
    /// a socket hub client under the proc backend.
    comm: Box<dyn Comm>,
    lo: usize,
    hi: usize,
    board: Box<dyn Exchange>,
    board2: Box<dyn Exchange>,
    /// The rank-local operator, from the matrix's cache: as deep as
    /// `dist_mpk` needs (else 1) or deeper. Single SpMVs run on its
    /// owned-row prefix.
    zone: Arc<GhostZone>,
    /// Reusable gather plan for the zone's depth-1 ghosts (contiguous-run
    /// compressed, built once — no per-iteration index arithmetic or
    /// allocation).
    plan1: GatherPlan,
    /// Depth-s MPK on the same zone — present when the method is s-step
    /// and the preconditioner is pointwise (the paper's Jacobi
    /// configuration) — with the gather plan for its depth-s ghosts; both
    /// boards share the partition offsets, so one plan serves the seed and
    /// `M⁻¹`-seed.
    dist_mpk: Option<(DistMpk, GatherPlan)>,
    /// Overlap halo exchange with interior compute
    /// ([`SolveOptions::overlap`]).
    overlap: bool,
    /// Partition boundaries align with the block-operator boundaries, so a
    /// `DistForm::RankLocal` preconditioner can apply locally.
    rank_local_ok: bool,
    /// Per-rank thread pool: `SolveOptions::threads` workers under each of
    /// the `ranks` comm ranks (T·R workers in total).
    pk: ParKernels,
    ext_buf: Vec<f64>,
    ext_buf2: Vec<f64>,
    full_buf: Vec<f64>,
    /// This rank's trace track, created on the rank's own thread (the
    /// handle is deliberately not `Send`) — `None` when tracing is off.
    track: Option<Track>,
    /// Active fault plan of a faulted run (`None` otherwise): the
    /// `PoisonReduce` site corrupts this rank's allreduce contribution.
    faults: Option<FaultPlan>,
    /// Deterministic allreduce-call sequence number for `PoisonReduce`
    /// decisions — identical across ranks (SPMD control flow) and across
    /// schedule-equivalent runs.
    reduce_calls: u64,
}

impl<'a> RankExec<'a> {
    /// One rank of `method` under `opts` (its `threads` and `overlap`) on
    /// the transport the three boxes are handles of. `faults`
    /// is the solve's *active* plan ([`Ranking::plan`]), for the
    /// `PoisonReduce` site. The track is the caller's to make: it must be
    /// created on the rank's own thread.
    #[allow(clippy::too_many_arguments)] // internal constructor, two call sites
    pub(crate) fn new(
        a: &'a CsrMatrix,
        m: &'a dyn Preconditioner,
        method: &Method,
        opts: &SolveOptions,
        comm: Box<dyn Comm>,
        board: Box<dyn Exchange>,
        board2: Box<dyn Exchange>,
        track: Option<Track>,
        faults: Option<FaultPlan>,
    ) -> Self {
        let (lo, hi) = board.range(comm.rank());
        let pk = ParKernels::new(opts.threads);
        let mpk = match (method.mpk_depth(opts), m.dist_form()) {
            (Some(depth), DistForm::Pointwise(w)) => Some((depth, w)),
            _ => None,
        };
        let depth = mpk.map_or(1, |(depth, _)| depth);
        let zone = a.ghost_zone(lo, hi, depth);
        let plan1 = board.plan(&zone.ghost_indices()[..zone.reach_len(1) - (hi - lo)]);
        let dist_mpk = mpk.map(|(depth, w)| {
            let m_flops = m.flops_per_apply();
            let dk = DistMpk::new(a, Arc::clone(&zone), depth, w, m_flops, pk.clone())
                .with_track(track.clone());
            let plan_s = board.plan(dk.ghost_indices());
            (dk, plan_s)
        });
        let rank_local_ok = match m.dist_form() {
            DistForm::RankLocal { offsets, .. } => {
                offsets.binary_search(&lo).is_ok() && offsets.binary_search(&hi).is_ok()
            }
            _ => false,
        };
        RankExec {
            a,
            m,
            comm,
            lo,
            hi,
            board,
            board2,
            zone,
            plan1,
            dist_mpk,
            overlap: opts.overlap,
            rank_local_ok,
            pk,
            ext_buf: Vec::new(),
            ext_buf2: Vec::new(),
            full_buf: Vec::new(),
            track,
            faults,
            reduce_calls: 0,
        }
    }

    /// Replicated preconditioner application: post the local residual,
    /// apply the (coupled) operator on the assembled global vector, keep the
    /// owned rows. One exchange of the full remote vector; a coupled
    /// operator leaves nothing exchange-independent to overlap with, so the
    /// completion directly follows the post regardless of the overlap mode
    /// (counters therefore cannot differ between modes here either).
    fn precond_replicated(&mut self, r: &[f64], z: &mut [f64], counters: &mut Counters) {
        let (comm, track) = (&*self.comm, self.track.as_ref());
        self.board.post(comm, r, track);
        let r_full = self.board.complete_snapshot(comm, track);
        counters.record_halo_exchange((r_full.len() - (self.hi - self.lo)) as u64);
        self.full_buf.resize(r_full.len(), 0.0);
        self.m.apply_par(&self.pk, &r_full, &mut self.full_buf);
        z.copy_from_slice(&self.full_buf[self.lo..self.hi]);
    }
}

impl Exec for RankExec<'_> {
    fn nl(&self) -> usize {
        self.hi - self.lo
    }
    fn row_offset(&self) -> usize {
        self.lo
    }
    fn n_global(&self) -> u64 {
        self.a.nrows() as u64
    }
    fn spmv_flops(&self) -> u64 {
        self.a.spmv_flops()
    }
    fn m_flops(&self) -> u64 {
        self.m.flops_per_apply()
    }

    /// The distributed SpMV on the owned-row prefix of the rank's ghost
    /// zone, through the split-phase exchange; `plan1` gathers the zone's
    /// depth-1 ghosts, which is all the owned rows reference. With `overlap`
    /// on, the interior rows (no ghost operands) run between the post and
    /// the completion — inside the exchange's latency window — and only the
    /// frontier rows wait; with it off, the completion directly follows the
    /// post (the blocking schedule). Both schedules run the same per-row
    /// arithmetic on the same data and record the same halo traffic: one
    /// exchange of `plan1.words()` ghost words per call.
    fn spmv(&mut self, x: &[f64], y: &mut [f64], counters: &mut Counters) {
        let (comm, board, zone, plan) = (&*self.comm, &*self.board, &*self.zone, &self.plan1);
        let (pk, ext_buf, track) = (&self.pk, &mut self.ext_buf, self.track.as_ref());
        let nl = zone.n_owned();
        // The zone's kernels want a full-length operand; past the depth-1
        // ghosts it stays unread (owned rows reference nothing deeper).
        ext_buf.resize(zone.ext_len(), 0.0);
        board.post(comm, x, track);
        ext_buf[..nl].copy_from_slice(x);
        let ghosts = nl..nl + plan.words();
        if self.overlap {
            // Interior rows read only the owned prefix; the stale ghost tail
            // is never touched.
            {
                let _s = spcg_obs::span(track, Phase::Spmv);
                zone.spmv_interior(pk, ext_buf, y);
            }
            board.complete_into(comm, plan, &mut ext_buf[ghosts], track);
            counters.record_halo_exchange(plan.words() as u64);
            let _f = spcg_obs::span(track, Phase::Frontier);
            zone.spmv_frontier(pk, nl, ext_buf, y);
        } else {
            board.complete_into(comm, plan, &mut ext_buf[ghosts], track);
            counters.record_halo_exchange(plan.words() as u64);
            let _s = spcg_obs::span(track, Phase::Spmv);
            zone.spmv_prefix(pk, nl, ext_buf, y);
        }
    }

    fn precond(&mut self, r: &[f64], z: &mut [f64], counters: &mut Counters) {
        let _p = spcg_obs::span(self.track.as_ref(), Phase::Precond);
        // Detach the preconditioner borrow from `self` so the dispatch can
        // still use the mutable exchange state.
        let m: &dyn Preconditioner = self.m;
        match m.dist_form() {
            DistForm::Pointwise(w) => {
                // `w[i]·r[i]` vs the historical `r[i]·w[i]`: IEEE
                // multiplication commutes bitwise.
                self.pk.pointwise_mul(&w[self.lo..self.hi], r, z);
            }
            DistForm::RankLocal { op, .. } if self.rank_local_ok => {
                op.apply_rows(self.lo, self.hi, r, z);
            }
            DistForm::SpmvPolynomial(op) => {
                op.apply_with_spmv(r, z, &mut |xv, yv| self.spmv(xv, yv, counters));
            }
            // Coupled operators — and block operators whose boundaries cut
            // across the partition — need the assembled vector.
            DistForm::RankLocal { .. } | DistForm::Coupled => {
                self.precond_replicated(r, z, counters);
            }
        }
    }

    fn mpk(
        &mut self,
        w: &[f64],
        known_mw: Option<&[f64]>,
        params: &BasisParams,
        v: &mut MultiVector,
        mv: &mut MultiVector,
        counters: &mut Counters,
    ) {
        if let Some((dk, plan)) = &mut self.dist_mpk {
            // PA1: one depth-s ghost exchange covers the whole s-step block.
            let (comm, board, board2) = (&*self.comm, &*self.board, &*self.board2);
            let (ext_buf, ext_buf2) = (&mut self.ext_buf, &mut self.ext_buf2);
            let (plan, track) = (&*plan, self.track.as_ref());
            let vectors = if known_mw.is_some() { 2 } else { 1 };
            counters.record_halo_exchange(plan.words() as u64 * vectors);
            if self.overlap {
                // Post the seed(s), run the interior rows of the first
                // basis product inside the exchange window, complete the
                // exchange from the kernel's callback, finish frontier.
                board.post(comm, w, track);
                if let Some(mw) = known_mw {
                    board2.post(comm, mw, track);
                }
                dk.run_overlapped(w, known_mw, params, v, mv, counters, &mut |wg, mwg| {
                    board.complete_into(comm, plan, wg, track);
                    if let Some(mwg) = mwg {
                        board2.complete_into(comm, plan, mwg, track);
                    }
                });
            } else {
                // Blocking schedule: gather the extended seed(s) up front,
                // each the kernel's ghosts long inside a zone-length buffer.
                let nl = dk.ghost().n_owned();
                let ghosts = nl..nl + plan.words();
                ext_buf.resize(dk.ghost().ext_len(), 0.0);
                board.post(comm, w, track);
                ext_buf[..nl].copy_from_slice(w);
                board.complete_into(comm, plan, &mut ext_buf[ghosts.clone()], track);
                if let Some(mw) = known_mw {
                    ext_buf2.resize(dk.ghost().ext_len(), 0.0);
                    board2.post(comm, mw, track);
                    ext_buf2[..nl].copy_from_slice(mw);
                    board2.complete_into(comm, plan, &mut ext_buf2[ghosts], track);
                }
                let mw_ext = known_mw.map(|_| ext_buf2.as_slice());
                dk.run(ext_buf, mw_ext, params, v, mv, counters);
            }
        } else {
            // Non-pointwise preconditioner: the basis recurrence couples all
            // rows through M⁻¹, so replicate the kernel on the assembled
            // seed(s) and keep the owned rows. Costs a full-vector exchange
            // (still one round per s-step block); nothing is computable
            // before the seed assembles, so there is no overlap window and
            // both overlap modes take this identical path.
            let n = self.a.nrows();
            let nl = self.hi - self.lo;
            let (comm, track) = (&*self.comm, self.track.as_ref());
            self.board.post(comm, w, track);
            let w_full = self.board.complete_snapshot(comm, track);
            let mut words = (n - nl) as u64;
            let mw_full = known_mw.map(|mw| {
                self.board2.post(comm, mw, track);
                let full = self.board2.complete_snapshot(comm, track);
                words += (n - nl) as u64;
                full
            });
            counters.record_halo_exchange(words);
            let mut v_full = MultiVector::zeros(n, v.k());
            let mut mv_full = MultiVector::zeros(n, mv.k());
            Mpk::new_par(self.a, self.m, self.pk.clone())
                .with_track(self.track.clone())
                .run(
                    &w_full,
                    mw_full.as_deref(),
                    params,
                    &mut v_full,
                    &mut mv_full,
                    counters,
                );
            for (own, full) in [(v, &v_full), (mv, &mv_full)] {
                for j in 0..own.k() {
                    let block = &full.col(j)[self.lo..self.hi];
                    own.col_mut(j).copy_from_slice(block);
                }
            }
        }
    }

    fn allreduce(&mut self, buf: &mut [f64], counters: &mut Counters) {
        counters.record_collective(buf.len() as u64);
        if let Some(plan) = &self.faults {
            let seq = self.reduce_calls;
            self.reduce_calls += 1;
            // Salt 2: the two exchange boards use 0 and 1.
            if !buf.is_empty() && plan.fire(FaultSite::PoisonReduce, 2, self.comm.rank(), seq) {
                // Corrupt this rank's contribution; the deterministic
                // rank-order sum hands every rank the same NaN, driving
                // consensus breakdown detection rather than rank drift.
                buf[0] = f64::NAN;
            }
        }
        self.comm.allreduce_sum(buf);
    }

    fn kernels(&self) -> &ParKernels {
        &self.pk
    }

    fn track(&self) -> Option<&Track> {
        self.track.as_ref()
    }

    fn pointwise(&self) -> Option<&[f64]> {
        match self.m.dist_form() {
            DistForm::Pointwise(w) => Some(&w[self.lo..self.hi]),
            _ => None,
        }
    }
}

/// How one solve is laid over `ranks` ranks, whichever backend runs them:
/// the row partition, the fault plan and resilience policy the ranks run
/// under, and the assembly of their results.
pub(crate) struct Ranking {
    /// Partition offsets (length `ranks + 1`).
    pub(crate) offsets: Vec<usize>,
    /// The caller's fault plan, if it can inject into this solve at all.
    pub(crate) plan: Option<FaultPlan>,
    /// The policy the ranks' resilience driver runs under.
    pub(crate) resilience: Option<Resilience>,
    /// Injections the plan had counted before this solve.
    before: Option<FaultCounts>,
}

/// The shared objects of one world of ranks: the communicator group and the
/// two exchange boards (seed and `M⁻¹`-seed, fault salts 0 and 1), both
/// attached to the group's abort. Thread ranks call them directly; the proc
/// hub calls them on behalf of its workers.
pub(crate) struct World {
    pub(crate) group: Arc<CommGroup>,
    pub(crate) board: VectorBoard,
    pub(crate) board2: VectorBoard,
}

impl Ranking {
    pub(crate) fn new(n: usize, ranks: usize, opts: &SolveOptions) -> Self {
        let part = BlockRowPartition::balanced(n, ranks);
        let offsets = (0..=ranks)
            .map(|p| if p == 0 { 0 } else { part.range(p - 1).1 })
            .collect();
        // Single-rank runs have no exchange or reduction traffic worth
        // faulting; keeping them clean preserves ranks=1 ↔ serial parity.
        let plan = opts.faults.clone().filter(|p| p.active() && ranks > 1);
        // A faulted run needs self-healing to absorb poisoned payloads, so an
        // active plan arms the default policy unless the caller chose one.
        let resilience = opts
            .resilience
            .clone()
            .or_else(|| plan.as_ref().map(|_| Resilience::default()));
        Ranking {
            offsets,
            before: plan.as_ref().map(|p| p.counts()),
            plan,
            resilience,
        }
    }

    /// A fresh world for these ranks (epochs at zero, abort not raised).
    pub(crate) fn world(&self) -> World {
        let group = CommGroup::new(self.offsets.len() - 1);
        let board = |salt| {
            VectorBoard::new(self.offsets.clone())
                .with_faults(self.plan.clone(), salt)
                .with_abort(group.abort())
        };
        World {
            board: board(0),
            board2: board(1),
            group,
        }
    }

    /// Assembles the per-rank results, given in rank order, of a world on
    /// `backend` that completed `collectives` allreduces.
    ///
    /// Every branch a solver takes depends only on allreduced
    /// (deterministic, rank-order-summed) scalars, so all ranks run the same
    /// control flow; rank 0's outcome/iterations/counters describe the
    /// collective run, and the solution is the concatenation of the
    /// rank-local blocks.
    pub(crate) fn assemble(
        &self,
        results: Vec<SolveResult>,
        collectives: u64,
        backend: Backend,
    ) -> SolveResult {
        let mut x = Vec::with_capacity(*self.offsets.last().unwrap());
        for r in &results {
            x.extend_from_slice(&r.x);
        }
        let mut out = results.into_iter().next().unwrap();
        out.collectives_per_rank = Some(collectives);
        out.backend = Some(backend);
        out.x = x;
        if let (Some(plan), Some(before)) = (&self.plan, &self.before) {
            out.faults_absorbed = plan.counts().since(before).total();
        }
        out
    }
}

/// Runs `method` over `ranks` real ranks and assembles the result.
pub(crate) fn run_ranked(
    method: &Method,
    problem: &Problem<'_>,
    opts: &SolveOptions,
    ranks: usize,
) -> SolveResult {
    let n = problem.n();
    assert!(ranks >= 1, "Engine::Ranked: need at least one rank");
    assert!(ranks <= n, "Engine::Ranked: {ranks} ranks exceed {n} rows");
    // Process-level transport: each rank is a `spcg-rankd` worker process
    // over Unix-domain sockets. Single-rank runs have no communication to
    // move out of process, so they stay on the (identical) thread path.
    if opts.backend == Backend::Proc && ranks > 1 {
        #[cfg(unix)]
        match crate::procexec::run_proc(method, problem, opts, ranks) {
            Ok(out) => return out,
            Err(e) => eprintln!("spcg: proc backend unavailable ({e}); using thread backend"),
        }
        #[cfg(not(unix))]
        eprintln!("spcg: proc backend requires a Unix platform; using thread backend");
    }
    let ranking = Ranking::new(n, ranks, opts);
    let world = ranking.world();
    let results = run_ranks_in(&world.group, |comm: ThreadComm| {
        // The track must be created (and dropped) on the rank's own
        // thread: it is a thread-local buffer that drains into the shared
        // tracer when the rank exits.
        let track = opts.trace.as_ref().map(|t| t.track(comm.rank()));
        let (lo, hi) = world.board.range(comm.rank());
        let mut exec = RankExec::new(
            problem.a,
            problem.m,
            method,
            opts,
            Box::new(comm),
            Box::new(world.board.handle()),
            Box::new(world.board2.handle()),
            track,
            ranking.plan.clone(),
        );
        let b = &problem.b[lo..hi];
        solve_resilient(method, &mut exec, b, opts, ranking.resilience.as_ref())
    });
    ranking.assemble(results, world.group.allreduces(), Backend::Thread)
}

/// Dispatches a method onto an execution substrate, for the right-hand side
/// whose local block is `b` — the one place a [`Method`] variant is mapped to
/// a body and its configuration.
pub(crate) fn dispatch<E: Exec>(
    method: &Method,
    exec: &mut E,
    b: &[f64],
    opts: &SolveOptions,
) -> SolveResult {
    use crate::capcg::{capcg_g, BlockPolicy};
    use crate::sstep::{sstep_g, GramForm, GramSolve};
    match method {
        // EkCG with one block is plain PCG: the same body (at width 1), so
        // the degenerate case is bitwise identical to `Method::Pcg`, not
        // merely equivalent.
        Method::Pcg | Method::EkCg { t: 1 } => {
            let mut out = crate::pcg::pcg_g(exec, &[BatchRequest::new(b)], opts);
            out.pop().expect("pcg: one column in, one result out")
        }
        Method::Pcg3 => crate::pcg3::pcg3_g(exec, b, opts),
        Method::SPcg { s, basis } => {
            let form = GramForm::Direct(basis);
            sstep_g(exec, b, *s, form, GramSolve::Cholesky, opts)
        }
        Method::SPcgMon { s } => sstep_g(exec, b, *s, GramForm::Moments, GramSolve::Cholesky, opts),
        Method::CaPcgGs { s, basis } => {
            let form = GramForm::Direct(basis);
            sstep_g(exec, b, *s, form, GramSolve::GaussSeidel, opts)
        }
        Method::CaPcg { s, basis } => capcg_g(exec, b, *s, basis, BlockPolicy::Fixed, opts),
        Method::AdaptiveCaPcg { s, basis } => {
            capcg_g(exec, b, *s, basis, BlockPolicy::Adaptive, opts)
        }
        Method::CaPcg3 { s, basis } => crate::capcg3::capcg3_g(exec, b, *s, basis, opts),
        Method::EkCg { t } => crate::ekcg::ekcg_g(exec, b, *t, opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve;
    use spcg_sparse::generators::{paper_rhs, poisson::poisson_2d};

    /// An executor holds no per-solve state: every method, dispatched for two
    /// right-hand sides on one executor — a `SerialExec`, then the
    /// `RankExec`s of one 2-rank world — returns what a fresh `solve`
    /// returns: `x`, history, counters, schedule, report and outcome, by bits.
    #[test]
    fn one_executor_serves_many_right_hand_sides() {
        let a = poisson_2d(10);
        let m = spcg_precond::Jacobi::new(&a);
        let b0 = paper_rhs(&a);
        let b1: Vec<f64> = (0..b0.len())
            .map(|i| 0.5 * b0[i] - ((i * 7) % 11) as f64 * 0.03)
            .collect();
        // No fault plan: its sequence numbers run on across an executor's
        // solves and start over in a fresh one.
        let opts = SolveOptions::from_env().with_faults(None).with_history();
        let methods = Method::prototypes(4);
        let cases = || methods.iter().flat_map(|m| [(m, &b0[..]), (m, &b1[..])]);
        let check = |got: SolveResult, (method, b): (&Method, &[f64]), engine: Engine| {
            let key = |r: SolveResult| {
                let x: Vec<u64> = r.x.iter().map(|v| v.to_bits()).collect();
                let h: Vec<_> = (r.history.iter().map(|&(it, v)| (it, v.to_bits()))).collect();
                let rest = (r.outcome, r.iterations, r.s_schedule, r.adaptive);
                (x, h, r.counters, rest)
            };
            let want = solve(method, &Problem::new(&a, &m, b), &opts, engine);
            assert_eq!(key(got), key(want), "{} on {engine:?}", method.name());
        };

        let mut serial = SerialExec::new(&a, &m, &opts);
        for (method, b) in cases() {
            let got = dispatch(method, &mut serial, b, &opts);
            check(got, (method, b), Engine::Serial);
        }

        let ranking = Ranking::new(a.nrows(), 2, &opts);
        let world = ranking.world();
        let blocks = run_ranks_in(&world.group, |comm: ThreadComm| {
            let (lo, hi) = world.board.range(comm.rank());
            let track = opts.trace.as_ref().map(|t| t.track(comm.rank()));
            let mut out = Vec::new();
            for method in &methods {
                let comm = Box::new(comm.clone());
                let (h1, h2) = (world.board.handle(), world.board2.handle());
                let (h1, h2, tr) = (Box::new(h1), Box::new(h2), track.clone());
                let mut exec = RankExec::new(&a, &m, method, &opts, comm, h1, h2, tr, None);
                out.extend([&b0, &b1].map(|b| dispatch(method, &mut exec, &b[lo..hi], &opts)));
            }
            out
        });
        let mut blocks: Vec<_> = blocks.into_iter().map(Vec::into_iter).collect();
        for case in cases() {
            let got = blocks.iter_mut().map(|rank| rank.next().unwrap()).collect();
            // One world served every solve: its count is not one solve's.
            let got = ranking.assemble(got, 0, Backend::Thread);
            check(got, case, Engine::Ranked { ranks: 2 });
        }
    }

    /// The door charges one collective of `buf.len()` words per call,
    /// serially and on each rank of a world whose transport counts the calls.
    #[test]
    fn the_allreduce_door_charges_buf_len_words_per_call() {
        let (a, opts) = (poisson_2d(6), SolveOptions::from_env().with_faults(None));
        let m = spcg_precond::Jacobi::new(&a);
        fn check<E: Exec>(exec: &mut E) {
            let mut c = Counters::new();
            for (calls, len) in [1, 3, 0, 7].into_iter().enumerate() {
                let want = (calls as u64 + 1, c.allreduce_words + len as u64);
                exec.allreduce(&mut vec![1.0; len], &mut c);
                assert_eq!((c.global_collectives, c.allreduce_words), want);
            }
        }
        check(&mut SerialExec::new(&a, &m, &opts));
        let world = Ranking::new(a.nrows(), 2, &opts).world();
        run_ranks_in(&world.group, |comm: ThreadComm| {
            let (b1, b2) = (world.board.handle(), world.board2.handle());
            let (comm, h1, h2) = (Box::new(comm), Box::new(b1), Box::new(b2));
            let mut exec = RankExec::new(&a, &m, &Method::Pcg, &opts, comm, h1, h2, None, None);
            check(&mut exec);
        });
        assert_eq!(world.group.allreduces(), 4);
    }
}
