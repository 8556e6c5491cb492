//! Shared-memory parallel kernel layer: [`ThreadPool`] and [`ParKernels`].
//!
//! Parallelizes the per-rank hot path of the solvers — SpMV, the tall-skinny
//! Gram products, and the blocked/fused vector updates — over a persistent
//! pool of OS threads (no external dependencies; plain
//! `std::sync` primitives). The layer obeys one invariant throughout:
//!
//! > **Results are bitwise identical for any thread count.**
//!
//! Elementwise and row-partitioned kernels (SpMV, AXPY, the multivector
//! updates) get this for free: each output element is computed by exactly
//! one thread with the same scalar arithmetic as the serial kernel.
//! Reductions (dot products, Gram matrices) use the *fixed-shape* blocked
//! pairwise summation of [`crate::blas`]: per-[`REDUCE_BLOCK`] partials
//! computed by [`blas::dot_block`] (for a Gram matrix by the row-tile
//! kernel of [`crate::tile`], which performs `dot_block`'s operations per
//! entry) and combined by [`blas::pairwise_sum`], a shape that depends only
//! on the vector length — never on which thread computed which block. `threads = 1` therefore reproduces the serial
//! solver exactly, and the ranked-vs-serial parity tests remain meaningful
//! with threading enabled.
//!
//! Pool ownership: a [`ParKernels`] handle is an `Arc` around its pool, so
//! the executors clone handles freely; the workers park on a condvar while
//! idle and are joined when the last handle drops. With `threads = 1` no
//! worker threads exist at all and every kernel runs inline on the caller.
//!
//! # The band primitive
//!
//! [`ParKernels::spmv_bands`] is the SpMV for callers that consume the
//! product at once (a polynomial preconditioner's recurrence): rows are
//! walked in [`REDUCE_BLOCK`]-row bands, a band of `A·x` lands in an 8 KiB
//! stack buffer and a caller epilogue folds it into the caller's vectors
//! while it is in L1, so the product never makes a round trip through
//! memory as a full-length vector. The operator arrives as a [`MatRef`] —
//! CSR or SELL, the executor's choice. In SELL a band is four σ-windows =
//! 32 slices, and σ-confinement makes those slices' lanes exactly the
//! band's rows; that is why the fusion granule is a band and not the
//! kernel's per-lane `write(row, acc)` sink: fusing through the sink
//! scatters bounds-checked single-element updates over the caller's
//! vectors and measured no faster than an unfused SELL SpMV plus one
//! vector pass. Pooled runs hand each task a run of whole bands, so
//! row-local epilogues are thread-count independent by construction.
//!
//! The row-partitioned sparse kernels (SpMV and SpMM, both formats) also
//! run inline when splitting cannot pay: the pool is wider than the machine,
//! or the matrix is under `SPLIT_MIN_ENTRIES`. By the invariant above the
//! choice never shows in a result.

use crate::blas::{self, pairwise_sum, REDUCE_BLOCK};
use crate::csr::CsrMatrix;
use crate::dense::DenseMat;
use crate::multivector::MultiVector;
use crate::sell::{MatRef, SellMatrix, SELL_C};
use crate::tile::{combine, gram_block, with_scratch, GRAM_LANES, TILE, ZERO_TILE};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Stored matrix entries a row-partitioned sparse kernel must touch before
/// it is split over the pool: the measured break-even of a 2-member pool on
/// the reference runner, where handing a job to a parked worker and
/// collecting it costs 35–40 µs (an empty [`ThreadPool::run`]). Alternating
/// inline and split SpMV calls on 7-point Poisson grids read, split over
/// inline: 0.5–0.6× at 27 k and 54 k entries, 0.5–0.9× at 93 k, 0.7–0.8×
/// (SELL) and 0.95× (CSR) at 149 k, 0.8× and 1.0–1.1× at 223 k, 1.0–1.1×
/// and 1.2–1.3× at 438 k, 1.2–1.4× at 760 k. With the single-thread rates
/// of `results/BENCH_kernels.json` (1.9 CSR, 3.3 SELL GFLOP/s) the floor is
/// 160–280 µs of kernel, so one hand-off is 13–22 % of it; sizing for 10 %
/// (2¹⁹) would also have inlined the 438 k-entry operator, where the split
/// wins.
const SPLIT_MIN_ENTRIES: usize = 1 << 18;

/// A borrowed parallel job: invoked once per pool member with the member's
/// index. The `'static` lifetime is a lie told to the type system; see the
/// safety argument in [`ThreadPool::run`].
type Job = &'static (dyn Fn(usize) + Sync);

struct PoolState {
    job: Option<Job>,
    /// Bumped per `run` call so sleeping workers recognise fresh work.
    epoch: u64,
    /// Workers that have not yet finished the current job.
    pending: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    start: Condvar,
    done: Condvar,
}

/// A persistent pool of `threads - 1` worker threads; the caller of
/// [`ThreadPool::run`] participates as member 0, so `threads = 1` spawns
/// nothing and runs jobs inline.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Creates a pool with `threads` members total (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                pending: 0,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("spcg-par-{id}"))
                    .spawn(move || worker_loop(&shared, id))
                    .expect("ThreadPool: cannot spawn worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            threads,
        }
    }

    /// Total pool members (workers plus the calling thread).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(member_index)` once on every pool member (indices
    /// `0..threads`, the caller being member 0) and blocks until all
    /// invocations return. Not reentrant: kernels never nest pool calls.
    pub fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        if self.threads == 1 {
            f(0);
            return;
        }
        // SAFETY: the job reference is only dereferenced by workers between
        // the notify below and the `pending == 0` handshake at the end of
        // this function, during which `f` is kept alive by this stack
        // frame. The slot is cleared before returning.
        let job: Job = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        {
            let mut st = self.shared.state.lock().unwrap();
            st.job = Some(job);
            st.epoch += 1;
            st.pending = self.threads - 1;
            self.shared.start.notify_all();
        }
        f(0);
        let mut st = self.shared.state.lock().unwrap();
        while st.pending > 0 {
            st = self.shared.done.wait(st).unwrap();
        }
        st.job = None;
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.start.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, id: usize) {
    let mut seen_epoch = 0u64;
    let mut st = shared.state.lock().unwrap();
    loop {
        if st.shutdown {
            return;
        }
        if st.epoch != seen_epoch {
            seen_epoch = st.epoch;
            let job = st.job.expect("ThreadPool: epoch bumped without a job");
            drop(st);
            job(id);
            st = shared.state.lock().unwrap();
            st.pending -= 1;
            if st.pending == 0 {
                shared.done.notify_all();
            }
        } else {
            st = shared.start.wait(st).unwrap();
        }
    }
}

/// A raw pointer that may cross threads. Every use is confined to this
/// crate and guarded by a disjointness argument: concurrent tasks write
/// non-overlapping index ranges of the pointee.
pub(crate) struct SendPtr<T>(pub(crate) *mut T);
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the `Sync`
    /// wrapper, not the raw pointer itself.
    #[inline]
    pub(crate) fn get(&self) -> *mut T {
        self.0
    }
}

/// Splits the first `len` elements off every slice of `rest`, leaving the
/// tails behind: how a range is walked piece by piece without `unsafe`.
fn split_fronts<'a, T, const K: usize>(
    rest: &mut [&'a mut [T]; K],
    len: usize,
) -> [&'a mut [T]; K] {
    std::array::from_fn(|k| {
        let (front, tail) = std::mem::take(&mut rest[k]).split_at_mut(len);
        rest[k] = tail;
        front
    })
}

/// Handle to the parallel kernel layer. Cheap to clone (an `Arc` around the
/// pool); all kernels are deterministic in the sense documented at the
/// module level.
#[derive(Clone)]
pub struct ParKernels {
    pool: Arc<ThreadPool>,
    /// Stored matrix entries from which a row-partitioned sparse kernel is
    /// split over the pool: [`SPLIT_MIN_ENTRIES`], or never when the pool
    /// is wider than `available_parallelism()` (read once, at creation; it
    /// honours the CPU affinity mask) — an oversubscribed pool only adds
    /// hand-offs and context switches to the same cores.
    split_floor: usize,
}

impl std::fmt::Debug for ParKernels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParKernels")
            .field("threads", &self.threads())
            .finish()
    }
}

impl ParKernels {
    /// Creates a kernel layer over a fresh pool of `threads` members.
    pub fn new(threads: usize) -> Self {
        let pool = Arc::new(ThreadPool::new(threads));
        // A one-member pool never splits, so it need not ask (the query
        // reads the affinity mask and cgroup files on every call).
        let oversubscribed = pool.threads() > 1
            && pool.threads() > std::thread::available_parallelism().map_or(1, |p| p.get());
        let split_floor = if oversubscribed {
            usize::MAX
        } else {
            SPLIT_MIN_ENTRIES
        };
        ParKernels { pool, split_floor }
    }

    /// A layer that splits every kernel whatever its size and the machine's
    /// width, so unit tests drive the split paths on small matrices.
    #[cfg(test)]
    pub(crate) fn always_split(threads: usize) -> Self {
        ParKernels {
            split_floor: 0,
            ..Self::new(threads)
        }
    }

    /// The single-threaded layer: every kernel runs inline on the caller,
    /// reproducing the serial reference arithmetic verbatim.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Pool width.
    #[inline]
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Whether a row-partitioned kernel over `entries` stored matrix
    /// entries is split over the pool or runs inline on the caller.
    fn splits(&self, entries: usize) -> bool {
        self.threads() > 1 && entries >= self.split_floor
    }

    /// Runs `f(task_index)` for every index in `0..ntasks`, distributing
    /// tasks dynamically over the pool. Tasks must be independent; output
    /// placement must depend only on the task index (never on the executing
    /// thread) to preserve determinism.
    pub fn run_indexed<F: Fn(usize) + Sync>(&self, ntasks: usize, f: F) {
        if ntasks == 0 {
            return;
        }
        if self.threads() == 1 || ntasks == 1 {
            for i in 0..ntasks {
                f(i);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        self.pool.run(&|_member| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= ntasks {
                break;
            }
            f(i);
        });
    }

    /// Splits `data` into `chunk`-sized pieces and runs
    /// `f(chunk_index, offset, piece)` on each in parallel. The pieces are
    /// disjoint, so this is the safe gateway for parallel mutation.
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], chunk: usize, f: F)
    where
        T: Send,
        F: Fn(usize, usize, &mut [T]) + Sync,
    {
        assert!(chunk > 0, "for_each_chunk_mut: zero chunk size");
        let n = data.len();
        if self.threads() == 1 {
            for (c, piece) in data.chunks_mut(chunk).enumerate() {
                f(c, c * chunk, piece);
            }
            return;
        }
        let ptr = SendPtr(data.as_mut_ptr());
        self.run_indexed(n.div_ceil(chunk), |c| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(n);
            // SAFETY: `[lo, hi)` ranges are disjoint across task indices and
            // within bounds; the exclusive borrow of `data` outlives the run.
            let piece = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(lo), hi - lo) };
            f(c, lo, piece);
        });
    }

    /// Runs `f(range_index, piece)` on the contiguous, disjoint sub-slices
    /// of `data` delimited by `bounds` (as produced by
    /// [`CsrMatrix::row_schedule`] or a preconditioner's block offsets).
    pub fn for_each_range_mut<T, F>(&self, data: &mut [T], bounds: &[usize], f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        self.for_each_ranges_mut([data], bounds, |c, [piece]| f(c, piece));
    }

    /// [`ParKernels::for_each_range_mut`] over `K` vectors at once: task
    /// `c` receives the sub-slice `bounds[c]..bounds[c + 1]` of every one
    /// of `outs`, so a row-partitioned kernel can update several outputs
    /// in a single pass.
    ///
    /// # Panics
    /// Panics if the bounds exceed one of the vectors.
    pub fn for_each_ranges_mut<T, F, const K: usize>(
        &self,
        mut outs: [&mut [T]; K],
        bounds: &[usize],
        f: F,
    ) where
        T: Send,
        F: Fn(usize, [&mut [T]; K]) + Sync,
    {
        let nranges = bounds.len().saturating_sub(1);
        if nranges == 0 {
            return;
        }
        assert!(
            bounds.windows(2).all(|w| w[0] <= w[1]),
            "for_each_ranges_mut: bounds not monotone"
        );
        assert!(
            outs.iter().all(|o| bounds[nranges] <= o.len()),
            "for_each_ranges_mut: bounds exceed data"
        );
        if self.threads() == 1 {
            split_fronts(&mut outs, bounds[0]);
            for c in 0..nranges {
                f(c, split_fronts(&mut outs, bounds[c + 1] - bounds[c]));
            }
            return;
        }
        let ptrs = outs.map(|o| SendPtr(o.as_mut_ptr()));
        self.run_indexed(nranges, |c| {
            let (lo, hi) = (bounds[c], bounds[c + 1]);
            // SAFETY: the bounds are monotone and end inside every vector
            // (both asserted above), so the ranges of distinct task indices
            // are disjoint and in bounds; the vectors are distinct exclusive
            // borrows that outlive the run, and nothing else touches them
            // until it returns.
            let pieces = std::array::from_fn(|k| unsafe {
                std::slice::from_raw_parts_mut(ptrs[k].get().add(lo), hi - lo)
            });
            f(c, pieces);
        });
    }

    /// Dot product `x · y` — the parallel instance of the fixed-shape
    /// blocked pairwise reduction. Bitwise equal to [`blas::dot`] for any
    /// thread count.
    pub fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "dot: length mismatch");
        let n = x.len();
        if self.threads() == 1 || n <= REDUCE_BLOCK {
            return blas::dot(x, y);
        }
        let mut partials = vec![0.0f64; n.div_ceil(REDUCE_BLOCK)];
        self.for_each_chunk_mut(&mut partials, 1, |b, _, out| {
            let lo = b * REDUCE_BLOCK;
            let hi = (lo + REDUCE_BLOCK).min(n);
            out[0] = blas::dot_block(&x[lo..hi], &y[lo..hi]);
        });
        pairwise_sum(&mut partials)
    }

    /// Sparse matrix-vector product `y ← A·x` over the matrix's cached
    /// nnz-balanced row schedule. Row-partitioned, hence bitwise equal to
    /// [`CsrMatrix::spmv`] for any thread count.
    pub fn spmv(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) {
        if !self.splits(a.nnz()) {
            a.spmv(x, y);
            return;
        }
        assert_eq!(x.len(), a.ncols(), "spmv: x length mismatch");
        assert_eq!(y.len(), a.nrows(), "spmv: y length mismatch");
        let bounds = a.row_schedule(self.threads());
        self.for_each_range_mut(y, &bounds, |c, piece| {
            a.spmv_rows(bounds[c], bounds[c + 1], x, piece);
        });
    }

    /// Sparse matrix-vector product `y ← A·x` on a [`SellMatrix`], over
    /// the matrix's cached padded-work-balanced slice schedule.
    /// Slice-partitioned with an injective output permutation (threads
    /// write disjoint positions; on diagonals a slice range is a row range
    /// and each task writes its own contiguous piece), hence bitwise equal
    /// to [`SellMatrix::spmv`] — and to the CSR kernels — for any thread
    /// count.
    pub fn spmv_sell(&self, a: &SellMatrix, x: &[f64], y: &mut [f64]) {
        if !self.splits(a.padded_nnz()) || a.nslices() <= 1 {
            a.spmv(x, y);
            return;
        }
        assert!(x.len() >= a.ncols(), "spmv_sell: x length mismatch");
        assert!(y.len() >= a.out_len(), "spmv_sell: y length mismatch");
        let bounds = a.slice_schedule(self.threads());
        if a.is_diagonal() {
            // Diagonals keep rows in identity order: a slice range is a
            // row range, written contiguously by its own task.
            let n = a.out_len();
            let rows: Vec<usize> = bounds.iter().map(|&s| (s * SELL_C).min(n)).collect();
            self.for_each_range_mut(&mut y[..n], &rows, |c, piece| {
                a.rows_into(rows[c], rows[c + 1], x, piece);
            });
            return;
        }
        let ptr = SendPtr(y.as_mut_ptr());
        self.run_indexed(bounds.len() - 1, |c| {
            // Safety: chunks own disjoint slice ranges, the permutation is
            // injective, and out_len was bounds-checked above — so every
            // write lands in `y` and no position is written twice.
            let mut write = |i: usize, v: f64| unsafe { *ptr.get().add(i) = v };
            a.spmv_slices_into(bounds[c], bounds[c + 1], x, &mut write);
        });
    }

    /// [`ParKernels::spmv_sell`] restricted to the first `nlanes` lane
    /// positions (the ghost-zone frontier's per-level active prefix).
    /// Threads split the full slices of the prefix; the final partial
    /// slice runs inline. Bitwise equal to
    /// [`SellMatrix::spmv_lanes_prefix`] for any thread count.
    pub fn spmv_sell_prefix(&self, a: &SellMatrix, nlanes: usize, x: &[f64], y: &mut [f64]) {
        let full = nlanes / SELL_C;
        if full <= 1 || !self.splits(a.slice_ptr()[full]) {
            a.spmv_lanes_prefix(nlanes, x, y);
            return;
        }
        assert!(x.len() >= a.ncols(), "spmv_sell_prefix: x length mismatch");
        let y_len = y.len();
        let ptr = SendPtr(y.as_mut_ptr());
        // Per-call bounds over the prefix of full slices — the active
        // prefix changes per MPK level, so it cannot use the cached
        // full-matrix schedule (mirrors GhostZone::spmv_prefix_par).
        let bounds = crate::csr::nnz_balanced_bounds(a.slice_ptr(), full, self.threads());
        self.run_indexed(bounds.len() - 1, |c| {
            // Safety: disjoint slice ranges + injective permutation; each
            // output index is bounds-checked before the raw write.
            let mut write = |i: usize, v: f64| {
                assert!(i < y_len, "spmv_sell_prefix: y length mismatch");
                unsafe { *ptr.get().add(i) = v }
            };
            a.spmv_slices_into(bounds[c], bounds[c + 1], x, &mut write);
        });
        let rem = nlanes % SELL_C;
        if rem > 0 {
            a.spmv_slice_lanes_into(full, rem, x, &mut |i, v| y[i] = v);
        }
    }

    /// Sparse matrix–multivector product `Y ← A·X` over the matrix's
    /// cached nnz-balanced row schedule — the threaded instance of
    /// [`CsrMatrix::spmm`]. Row-partitioned (each chunk owns its rows in
    /// *every* column), hence column `j` of the result is bitwise equal
    /// to [`ParKernels::spmv`]`(a, x.col(j))` for any thread count.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn spmm(&self, a: &CsrMatrix, x: &MultiVector, y: &mut MultiVector) {
        assert_eq!(x.n(), a.ncols(), "spmm: x row mismatch");
        assert_eq!(y.n(), a.nrows(), "spmm: y row mismatch");
        assert_eq!(x.k(), y.k(), "spmm: column count mismatch");
        if !self.splits(a.nnz() * x.k()) {
            a.spmm(x, y);
            return;
        }
        let bounds = a.row_schedule(self.threads());
        let k = x.k();
        let ptr = SendPtr(y.data_mut().as_mut_ptr());
        if k == 1 {
            self.run_indexed(bounds.len() - 1, |c| {
                // Safety: chunks own disjoint row ranges, and the flat
                // index `j·nrows + r` stays inside `y`'s `nrows·k` buffer
                // for every (row, column) pair — so no position is
                // written twice.
                let mut write = |i: usize, v: f64| unsafe { *ptr.get().add(i) = v };
                a.spmm_rows_into(bounds[c], bounds[c + 1], x, &mut write);
            });
            return;
        }
        // Repack the operand once on the calling thread; every chunk
        // reads the same interleaved buffer.
        CsrMatrix::with_interleaved(x, |xr| {
            self.run_indexed(bounds.len() - 1, |c| {
                // Safety: as above — disjoint row ranges, in-bounds flat
                // indices.
                let mut write = |i: usize, v: f64| unsafe { *ptr.get().add(i) = v };
                a.spmm_rows_interleaved(bounds[c], bounds[c + 1], xr, k, &mut write);
            });
        });
    }

    /// Sparse matrix–multivector product `Y ← A·X` on a [`SellMatrix`]
    /// over the cached padded-work-balanced slice schedule — the threaded
    /// instance of [`SellMatrix::spmm`]. Slice-partitioned with an
    /// injective output permutation per column (on diagonals, one
    /// [`ParKernels::spmv_sell`] per column), hence column `j` of the
    /// result is bitwise equal to [`ParKernels::spmv_sell`] — and to the
    /// CSR kernels — for any thread count.
    ///
    /// A serial solve under [`crate::SparseFormat::Sell`] runs this kernel
    /// for its multi-column products only when `a` is on diagonals, which
    /// stream no matrix (k = 8, single thread, 48³ Poisson: 1.6–1.9× the
    /// interleaved CSR kernel). On slots it walks the columns one at a
    /// time where [`ParKernels::spmm`] feeds a whole column group from one
    /// matrix entry (≈1.5× this kernel's rate), so those products run on
    /// CSR. The benchmark's `sparse.spmm_gflops.k8` probe and the
    /// `kernels` bin's `spmm_gflops` row time it on both encodings.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn spmm_sell(&self, a: &SellMatrix, x: &MultiVector, y: &mut MultiVector) {
        assert!(x.n() >= a.ncols(), "spmm_sell: x row mismatch");
        assert!(y.n() >= a.out_len(), "spmm_sell: y row mismatch");
        assert_eq!(x.k(), y.k(), "spmm_sell: column count mismatch");
        if !self.splits(a.padded_nnz() * x.k()) || a.nslices() <= 1 {
            a.spmm(x, y);
            return;
        }
        if a.is_diagonal() {
            for j in 0..x.k() {
                self.spmv_sell(a, x.col(j), y.col_mut(j));
            }
            return;
        }
        let ld = y.n();
        let bounds = a.slice_schedule(self.threads());
        let ptr = SendPtr(y.data_mut().as_mut_ptr());
        self.run_indexed(bounds.len() - 1, |c| {
            // Safety: chunks own disjoint slice ranges, the permutation is
            // injective per column, and `j·ld + row` was bounds-checked by
            // the `out_len`/`k` asserts above.
            let mut write = |i: usize, v: f64| unsafe { *ptr.get().add(i) = v };
            a.spmm_slices_into(bounds[c], bounds[c + 1], x, ld, &mut write);
        });
    }

    /// `y ← A·x` on whichever stored form `op` is: [`ParKernels::spmv`] or
    /// [`ParKernels::spmv_sell`]. Same bits either way.
    pub fn spmv_on(&self, op: MatRef<'_>, x: &[f64], y: &mut [f64]) {
        match op {
            MatRef::Csr(a) => self.spmv(a, x, y),
            MatRef::Sell(a) => self.spmv_sell(a, x, y),
        }
    }

    /// The row partition of the band kernels: boundaries `b` with
    /// `b[0] = 0`, `b.last() = nrows` and every one in between a multiple
    /// of [`REDUCE_BLOCK`], so each task owns whole bands. `[0, nrows]`
    /// when the operator is too small to split (the rule of
    /// [`ParKernels::spmv`]); otherwise the format's work-balanced schedule
    /// ([`CsrMatrix::row_schedule`] / [`SellMatrix::slice_schedule`]) with
    /// each cut moved to the nearest band boundary.
    pub fn band_schedule(&self, op: MatRef<'_>) -> Vec<usize> {
        let n = op.nrows();
        // (work-balanced cuts, rows per unit they are counted in)
        let (cuts, unit) = match op {
            MatRef::Csr(a) if self.splits(a.nnz()) => (a.row_schedule(self.threads()), 1),
            MatRef::Sell(a) if self.splits(a.padded_nnz()) => {
                (a.slice_schedule(self.threads()), SELL_C)
            }
            _ => return vec![0, n],
        };
        let nearest_band = |row: usize| (row + REDUCE_BLOCK / 2) / REDUCE_BLOCK * REDUCE_BLOCK;
        let mut bounds: Vec<usize> = cuts[..cuts.len() - 1]
            .iter()
            .map(|&c| nearest_band(c * unit).min(n))
            .collect();
        bounds.push(n);
        bounds
    }

    /// The band-fused SpMV: rows are walked in [`REDUCE_BLOCK`]-row bands,
    /// `(A·x)[band]` lands in a stack buffer, and `epilogue(lo, ax_band,
    /// out_bands)` consumes it at once — `lo` the band's first row,
    /// `out_bands` the band's sub-slice of every one of `outs`. The
    /// product is never stored full-length, and whatever the epilogue
    /// reads of the band (`ax_band`, its own rows of other vectors) is
    /// cache-hot. `x` is read across bands, so it cannot be one of `outs`:
    /// a recurrence writes its next iterate to a second buffer.
    ///
    /// `ax_band` is bitwise the band of [`CsrMatrix::spmv`] in either
    /// format (see [`MatRef::spmv_band`]), and the pool is handed whole
    /// bands ([`ParKernels::band_schedule`]), so an epilogue that is
    /// row-local — element `i` of its outputs depends on row `i` of its
    /// inputs only — yields the same bits for every thread count.
    ///
    /// # Panics
    /// Panics on length mismatches, and as [`MatRef::spmv_band`] does.
    pub fn spmv_bands<F, const K: usize>(
        &self,
        op: MatRef<'_>,
        x: &[f64],
        outs: [&mut [f64]; K],
        epilogue: F,
    ) where
        F: Fn(usize, &[f64], [&mut [f64]; K]) + Sync,
    {
        let n = op.nrows();
        assert!(x.len() >= op.ncols(), "spmv_bands: x length mismatch");
        assert!(
            outs.iter().all(|o| o.len() == n),
            "spmv_bands: output length mismatch"
        );
        let bounds = self.band_schedule(op);
        self.for_each_ranges_mut(outs, &bounds, |c, mut rest| {
            let mut ax = [0.0f64; REDUCE_BLOCK];
            let mut lo = bounds[c];
            while lo < bounds[c + 1] {
                let len = REDUCE_BLOCK.min(bounds[c + 1] - lo);
                op.spmv_band(lo, lo + len, x, &mut ax[..len]);
                epilogue(lo, &ax[..len], split_fronts(&mut rest, len));
                lo += len;
            }
        });
    }

    /// `y ← y + a·x`.
    pub fn axpy(&self, a: f64, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "axpy: length mismatch");
        if self.threads() == 1 {
            blas::axpy(a, x, y);
            return;
        }
        self.for_each_chunk_mut(y, REDUCE_BLOCK, |_, lo, piece| {
            blas::axpy(a, &x[lo..lo + piece.len()], piece);
        });
    }

    /// `y ← x + b·y`.
    pub fn xpby(&self, x: &[f64], b: f64, y: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "xpby: length mismatch");
        if self.threads() == 1 {
            blas::xpby(x, b, y);
            return;
        }
        self.for_each_chunk_mut(y, REDUCE_BLOCK, |_, lo, piece| {
            blas::xpby(&x[lo..lo + piece.len()], b, piece);
        });
    }

    /// `z ← x - y`.
    pub fn sub(&self, x: &[f64], y: &[f64], z: &mut [f64]) {
        assert_eq!(x.len(), y.len(), "sub: length mismatch");
        assert_eq!(x.len(), z.len(), "sub: output length mismatch");
        if self.threads() == 1 {
            blas::sub(x, y, z);
            return;
        }
        self.for_each_chunk_mut(z, REDUCE_BLOCK, |_, lo, piece| {
            let hi = lo + piece.len();
            blas::sub(&x[lo..hi], &y[lo..hi], piece);
        });
    }

    /// `x ← a·x`.
    pub fn scale(&self, a: f64, x: &mut [f64]) {
        if self.threads() == 1 {
            blas::scale(a, x);
            return;
        }
        self.for_each_chunk_mut(x, REDUCE_BLOCK, |_, _, piece| {
            blas::scale(a, piece);
        });
    }

    /// Pointwise product `z[i] ← w[i] · x[i]` (Jacobi-style applications).
    pub fn pointwise_mul(&self, w: &[f64], x: &[f64], z: &mut [f64]) {
        assert_eq!(w.len(), x.len(), "pointwise_mul: length mismatch");
        assert_eq!(w.len(), z.len(), "pointwise_mul: output length mismatch");
        self.for_each_chunk_mut(z, REDUCE_BLOCK, |_, lo, piece| {
            for (i, zi) in piece.iter_mut().enumerate() {
                *zi = w[lo + i] * x[lo + i];
            }
        });
    }

    /// Fused PCG column step for pointwise preconditioners:
    /// `x ← x + α·p`, `r ← r − α·s`, `u ← w ∘ r`, returning `r · u` —
    /// one sweep over the column instead of four. Every element sees the
    /// identical expression it would see from the separate
    /// [`ParKernels::axpy`] / [`ParKernels::pointwise_mul`] /
    /// [`ParKernels::dot`] calls, and the returned dot keeps the
    /// fixed-shape blocked pairwise reduction (the fusion blocks *are*
    /// the reduction blocks), so the result is bitwise identical to the
    /// unfused sequence for any thread count. What changes is traffic:
    /// `r`'s update, its preconditioned image, and the dot all happen
    /// while the block is cache-hot, instead of three DRAM round trips.
    #[allow(clippy::too_many_arguments)]
    pub fn pcg_step_fused(
        &self,
        alpha: f64,
        p: &[f64],
        s: &[f64],
        w: &[f64],
        x: &mut [f64],
        r: &mut [f64],
        u: &mut [f64],
    ) -> f64 {
        let n = x.len();
        assert_eq!(p.len(), n, "pcg_step_fused: p length mismatch");
        assert_eq!(s.len(), n, "pcg_step_fused: s length mismatch");
        assert_eq!(w.len(), n, "pcg_step_fused: w length mismatch");
        assert_eq!(r.len(), n, "pcg_step_fused: r length mismatch");
        assert_eq!(u.len(), n, "pcg_step_fused: u length mismatch");
        let nblocks = n.div_ceil(REDUCE_BLOCK).max(1);
        let mut partials = vec![0.0f64; nblocks];
        if self.threads() == 1 {
            for (b, out) in partials.iter_mut().enumerate() {
                let lo = b * REDUCE_BLOCK;
                let hi = (lo + REDUCE_BLOCK).min(n);
                *out = pcg_fused_block(
                    alpha,
                    &p[lo..hi],
                    &s[lo..hi],
                    &w[lo..hi],
                    &mut x[lo..hi],
                    &mut r[lo..hi],
                    &mut u[lo..hi],
                );
            }
            return pairwise_sum(&mut partials);
        }
        let (px, pr, pu) = (
            SendPtr(x.as_mut_ptr()),
            SendPtr(r.as_mut_ptr()),
            SendPtr(u.as_mut_ptr()),
        );
        self.for_each_chunk_mut(&mut partials, 1, |b, _, out| {
            let lo = b * REDUCE_BLOCK;
            let hi = (lo + REDUCE_BLOCK).min(n);
            // Safety: each task owns the disjoint block `[lo, hi)` of
            // `x`, `r`, and `u`, all of length `n ≥ hi`.
            let (xs, rs, us) = unsafe {
                (
                    std::slice::from_raw_parts_mut(px.get().add(lo), hi - lo),
                    std::slice::from_raw_parts_mut(pr.get().add(lo), hi - lo),
                    std::slice::from_raw_parts_mut(pu.get().add(lo), hi - lo),
                )
            };
            out[0] = pcg_fused_block(alpha, &p[lo..hi], &s[lo..hi], &w[lo..hi], xs, rs, us);
        });
        pairwise_sum(&mut partials)
    }

    /// Fused three-term recurrence update
    /// `out[i] ← ρ·(base[i] + γ·dir[i]) + (1−ρ)·prev[i]`
    /// (PCG3 / CA-PCG3 iterate reconstruction; pass `−γ` for the residual
    /// form `base − γ·dir`).
    pub fn three_term(
        &self,
        rho: f64,
        gamma: f64,
        base: &[f64],
        dir: &[f64],
        prev: &[f64],
        out: &mut [f64],
    ) {
        let n = out.len();
        assert!(
            base.len() == n && dir.len() == n && prev.len() == n,
            "three_term: length mismatch"
        );
        self.for_each_chunk_mut(out, REDUCE_BLOCK, |_, lo, piece| {
            for (i, oi) in piece.iter_mut().enumerate() {
                let g = lo + i;
                *oi = rho * (base[g] + gamma * dir[g]) + (1.0 - rho) * prev[g];
            }
        });
    }

    /// Gram product `aᵀ · b` with the fixed-shape blocked pairwise
    /// reduction per entry. Bitwise equal to [`MultiVector::gram`] for any
    /// thread count.
    pub fn gram(&self, a: &MultiVector, b: &MultiVector) -> DenseMat {
        assert_eq!(a.n(), b.n(), "gram: row mismatch");
        let acols: Vec<&[f64]> = (0..a.k()).map(|i| a.col(i)).collect();
        let bcols: Vec<&[f64]> = (0..b.k()).map(|j| b.col(j)).collect();
        self.gram_cols(a.n(), &acols, &bcols)
    }

    /// Fused Gram product over explicit column sets: one pass over the rows
    /// computes all `|acols| × |bcols|` entries, each [`REDUCE_BLOCK`] walked
    /// in L1-sized sub-tiles under a 4×2 register tile of entries
    /// ([`crate::tile`]). The concatenated-block Gram `[Z|W]ᵀ·[Y|V]` of the
    /// s-step methods feeds all four sub-blocks through a single call, so
    /// each row block of every column is streamed once instead of once per
    /// sub-block pair.
    ///
    /// Per (i, j) entry the accumulation shape is exactly
    /// `pairwise_sum(dot_block per REDUCE_BLOCK)` — independent of tiling,
    /// fusion, and thread count.
    ///
    /// # Panics
    /// Panics if a column is not `n` long.
    pub fn gram_cols(&self, n: usize, acols: &[&[f64]], bcols: &[&[f64]]) -> DenseMat {
        gram_cols_impl(Some(self), n, acols, bcols)
    }

    /// Runs `f(lo, len)` on every [`TILE`]-row tile of `0..n`, tiles being
    /// what the pool hands to threads.
    fn for_each_tile(&self, n: usize, f: impl Fn(usize, usize) + Sync) {
        self.run_indexed(n.div_ceil(TILE), |t| f(t * TILE, (n - t * TILE).min(TILE)));
    }

    /// BLAS2 accumulation `out ← out + a · mv · coeffs`.
    pub fn gemv_acc(&self, mv: &MultiVector, a: f64, coeffs: &[f64], out: &mut [f64]) {
        let scaled: Vec<f64> = coeffs.iter().map(|&c| a * c).collect();
        self.gemv_multi(&[mv], &mut [GemvOut::Acc(&scaled, out)]);
    }

    /// Several BLAS2 products against one concatenated block
    /// `[blocks[0] | blocks[1] | …]` in a single pass over row tiles, so a
    /// tile of the block is read from memory once however many outputs
    /// consume it (CA-PCG recovers `q, r` from `[Q|R̂]` and `p, u, x` from
    /// `[P|U]` this way). Per output element the sum runs left to right
    /// over the concatenated columns with zero coefficients skipped,
    /// bitwise what separate per-block accumulation sweeps produce.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn gemv_multi(&self, blocks: &[&MultiVector], outs: &mut [GemvOut<'_>]) {
        let n = blocks.first().map_or(0, |b| b.n());
        let k: usize = blocks.iter().map(|b| b.k()).sum();
        assert!(
            blocks.iter().all(|b| b.n() == n),
            "gemv_multi: row mismatch"
        );
        // (coefficients, output, whether it starts from zero)
        let outs: Vec<(&[f64], SendPtr<f64>, bool)> = outs
            .iter_mut()
            .map(|o| match o {
                GemvOut::Set(c, out) => (*c, &mut **out, true),
                GemvOut::Acc(c, out) => (*c, &mut **out, false),
            })
            .map(|(c, out, set)| {
                assert_eq!(c.len(), k, "gemv_multi: coefficient length mismatch");
                assert_eq!(out.len(), n, "gemv_multi: output length mismatch");
                (c, SendPtr(out.as_mut_ptr()), set)
            })
            .collect();
        self.for_each_tile(n, |lo, len| {
            for (coeffs, ptr, set) in &outs {
                // SAFETY: rows `[lo, lo + len)` of this output belong to
                // this tile's task only, `lo + len ≤ n` was checked above,
                // and the caller's exclusive borrow outlives the run.
                let dst = unsafe { tile_mut(ptr, n, 0, lo, len) };
                let cols = blocks
                    .iter()
                    .flat_map(|b| (0..b.k()).map(move |l| &b.col(l)[lo..lo + len]));
                let init = set.then(|| &ZERO_TILE[..len]);
                combine(dst, init, coeffs.iter().copied().zip(cols));
            }
        });
    }

    /// BLAS3 accumulation `out ← out + src · b`.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn gemm_small_acc(&self, src: &MultiVector, b: &DenseMat, out: &mut MultiVector) {
        let n = src.n();
        assert!(
            b.nrows() == src.k() && out.n() == n && out.k() == b.ncols(),
            "gemm_small_acc: dimension mismatch"
        );
        let bt = b.transpose(); // row j = the coefficients of output column j
        let ptr = SendPtr(out.data_mut().as_mut_ptr());
        self.for_each_tile(n, |lo, len| {
            for j in 0..bt.nrows() {
                // SAFETY: row tile `[lo, lo + len)` of column j is touched
                // by this tile's task only; the exclusive borrow of `out`
                // outlives the run.
                let dst = unsafe { tile_mut(&ptr, n, j, lo, len) };
                let cols = (0..src.k()).map(|l| &src.col(l)[lo..lo + len]);
                combine(dst, None, bt.row(j).iter().copied().zip(cols));
            }
        });
    }

    /// Blocked search-direction update `p ← u + p · b` (Alg. 5 line 10 and
    /// Alg. 2 line 9), in place over row tiles; `b` is square.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn blocked_update(&self, p: &mut MultiVector, u: &MultiVector, b: &DenseMat) {
        let (n, s) = (p.n(), p.k());
        assert!(
            u.n() == n && u.k() == s && b.nrows() == s && b.ncols() == s,
            "blocked_update: dimension mismatch"
        );
        let bt = b.transpose();
        let ptr = SendPtr(p.data_mut().as_mut_ptr());
        self.for_each_tile(n, |lo, len| {
            let ucol = |j: usize| &u.col(j)[lo..lo + len];
            // SAFETY: row tile `[lo, lo + len)` of every column of `p` is
            // touched by this tile's task only; the exclusive borrow of
            // `p` outlives the run.
            with_scratch(s * TILE, |stage| unsafe {
                update_tile(&ptr, n, lo, len, ucol, Some(&bt), stage)
            });
        });
    }

    /// The whole vector-update phase of one s-step block (Alg. 5 lines
    /// 8–12) in **one pass over row tiles**: per tile it forms the
    /// `AU = S·B` tile from the three-term coefficients (kept in scratch,
    /// never stored to memory), updates `P ← U + P·B_k` and
    /// `AP ← AU + AP·B_k` in place, and applies `x += P·a`, `r −= AP·a`
    /// while the new tiles are cache-hot. `b_k = None` is the first block:
    /// `P ← U`, `AP ← AU`.
    ///
    /// In place is safe because the update is row-wise: row `i` of the new
    /// `P` depends on row `i` of the old `P` only, so a tile stages its own
    /// old rows and never looks at another tile's. Every output element
    /// sees the operations of the unfused sequence (scale/AXPYs for `AU`,
    /// copy + AXPY sweeps for `P`/`AP`, AXPY sweeps for `x`/`r`) in the
    /// same order, so the results are bitwise those.
    ///
    /// # Panics
    /// Panics on dimension mismatches.
    pub fn sstep_block_update(
        &self,
        blk: &SstepBlock<'_>,
        p: &mut MultiVector,
        ap: &mut MultiVector,
        x: &mut [f64],
        r: &mut [f64],
    ) {
        let (n, s) = (blk.u.n(), blk.u.k());
        let smat = blk.s_mat;
        assert!(
            smat.n() == n
                && smat.k() == s + 1
                && [&*p, &*ap].iter().all(|m| m.n() == n && m.k() == s)
                && [x.len(), r.len()] == [n, n]
                && blk.a.len() == s
                && blk.b_k.map_or(true, |b| b.nrows() == s && b.ncols() == s),
            "sstep_block_update: dimension mismatch"
        );
        assert!(
            blk.gamma.len() >= s && blk.theta.len() >= s && blk.mu.len() + 1 >= s,
            "sstep_block_update: recurrence shorter than the block"
        );
        let bt = blk.b_k.map(DenseMat::transpose);
        let neg_a: Vec<f64> = blk.a.iter().map(|&c| -c).collect();
        let (pp, pap) = (
            SendPtr(p.data_mut().as_mut_ptr()),
            SendPtr(ap.data_mut().as_mut_ptr()),
        );
        let (px, pr) = (SendPtr(x.as_mut_ptr()), SendPtr(r.as_mut_ptr()));
        self.for_each_tile(n, |lo, len| {
            let scol = |j: usize| &smat.col(j)[lo..lo + len];
            let ucol = |j: usize| &blk.u.col(j)[lo..lo + len];
            with_scratch(2 * s * TILE, |scratch| {
                let (au, stage) = scratch.split_at_mut(s * TILE);
                for (j, au_j) in au.chunks_mut(TILE).enumerate() {
                    let au_j = &mut au_j[..len];
                    let (gamma, next) = (blk.gamma[j], scol(j + 1));
                    // θ before μ; column 0 has no μ term.
                    let mu = if j >= 1 { blk.mu[j - 1] } else { 0.0 };
                    let terms = [(blk.theta[j], scol(j)), (mu, scol(j.max(1) - 1))];
                    if gamma == 1.0 {
                        combine(au_j, Some(next), terms);
                    } else {
                        for (d, &v) in au_j.iter_mut().zip(next) {
                            *d = gamma * v;
                        }
                        combine(au_j, None, terms);
                    }
                }
                let aucol = |j: usize| &au[j * TILE..j * TILE + len];
                // SAFETY: rows `[lo, lo + len)` of `p`, `ap`, `x` and `r`
                // are touched by this tile's task only, `lo + len ≤ n`
                // with the shapes checked above, and the exclusive borrows
                // outlive the run. Each tile view is dropped before the
                // next one of the same rows is made.
                unsafe {
                    update_tile(&pp, n, lo, len, ucol, bt.as_ref(), stage);
                    update_tile(&pap, n, lo, len, aucol, bt.as_ref(), stage);
                    for (out, coeffs, cols) in [(&px, blk.a, &pp), (&pr, &neg_a[..], &pap)] {
                        let cols = (0..s).map(|l| &*tile_mut(cols, n, l, lo, len));
                        combine(
                            tile_mut(out, n, 0, lo, len),
                            None,
                            coeffs.iter().copied().zip(cols),
                        );
                    }
                }
            });
        });
    }
}

/// Read-only operands of [`ParKernels::sstep_block_update`].
pub struct SstepBlock<'a> {
    /// The s-step basis `S^(k)`, `n × (s+1)`.
    pub s_mat: &'a MultiVector,
    /// Three-term recurrence of the basis polynomials: column `j` of
    /// `AU = S·B` is `γ_j·s_{j+1} + θ_j·s_j + μ_{j−1}·s_{j−1}`, the terms
    /// added in that order and zero `θ`/`μ` skipped.
    pub gamma: &'a [f64],
    /// See [`SstepBlock::gamma`].
    pub theta: &'a [f64],
    /// See [`SstepBlock::gamma`].
    pub mu: &'a [f64],
    /// `U^(k) = M⁻¹S^(k)[:, :s]`, `n × s`.
    pub u: &'a MultiVector,
    /// `B^(k)` (`s × s`), or `None` on the first block.
    pub b_k: Option<&'a DenseMat>,
    /// Step coefficients `a^(k)` (length `s`).
    pub a: &'a [f64],
}

/// One output of [`ParKernels::gemv_multi`], as `(coefficients, output)`.
pub enum GemvOut<'a> {
    /// `out ← block · coeffs`.
    Set(&'a [f64], &'a mut [f64]),
    /// `out ← out + block · coeffs`.
    Acc(&'a [f64], &'a mut [f64]),
}

/// Rows `[lo, lo + len)` of column `j` of column-major storage with leading
/// dimension `n`.
///
/// # Safety
/// The range must lie inside the allocation behind `ptr`, which must stay
/// exclusively borrowed for `'a`, and nothing else may access those rows
/// while the returned slice lives.
unsafe fn tile_mut<'a>(
    ptr: &SendPtr<f64>,
    n: usize,
    j: usize,
    lo: usize,
    len: usize,
) -> &'a mut [f64] {
    std::slice::from_raw_parts_mut(ptr.get().add(j * n + lo), len)
}

/// In-place block update of one row tile: columns `j` of the `n × s`
/// storage at `ptr` become `init(j) + Σ_l old_l·bt[j][l]` on rows
/// `[lo, lo + len)`, with the tile's old columns staged in `stage`
/// (`s·TILE`) first so every output reads pre-update values only.
/// `bt = None` is the plain copy `column j ← init(j)`.
///
/// # Safety
/// As [`tile_mut`] for all `s` columns of the tile.
unsafe fn update_tile<'a>(
    ptr: &SendPtr<f64>,
    n: usize,
    lo: usize,
    len: usize,
    init: impl Fn(usize) -> &'a [f64],
    bt: Option<&DenseMat>,
    stage: &mut [f64],
) {
    if bt.is_some() {
        for (l, old) in stage.chunks_mut(TILE).enumerate() {
            old[..len].copy_from_slice(tile_mut(ptr, n, l, lo, len));
        }
    }
    for j in 0..stage.len() / TILE {
        let dst = tile_mut(ptr, n, j, lo, len);
        match bt {
            Some(bt) => {
                let old = stage.chunks(TILE).map(|c| &c[..len]);
                combine(dst, Some(init(j)), bt.row(j).iter().copied().zip(old));
            }
            None => dst.copy_from_slice(init(j)),
        }
    }
}

/// Reduction blocks per Gram task. A task carries one lane array
/// (`4·ka·kb` doubles) through its blocks, so eight blocks per task keep the
/// scratch at 1.5× the per-block partial sums themselves; tasks of 8192
/// rows still outnumber the threads of any pool worth splitting over.
const GRAM_GROUP: usize = 8;

/// Shared Gram implementation: `pk = None` is the serial reference used by
/// [`MultiVector::gram`]; `Some` hands groups of [`GRAM_GROUP`] row blocks
/// to the pool. A group's record is its lane array followed by one
/// `ka·kb` slot of partial sums per block ([`gram_block`]); entry by entry
/// the slots are combined by [`pairwise_sum`] — the same layout and the
/// same combine in both paths.
///
/// The records and the combine's gather buffer are one borrow of the
/// calling thread's tile scratch, so a call allocates nothing but its
/// result. The lane arrays sit in the records rather than in each
/// thread's own scratch because the caller runs tasks too, and its scratch
/// is already borrowed here.
pub(crate) fn gram_cols_impl(
    pk: Option<&ParKernels>,
    n: usize,
    acols: &[&[f64]],
    bcols: &[&[f64]],
) -> DenseMat {
    let (ka, kb) = (acols.len(), bcols.len());
    let mut out = DenseMat::zeros(ka, kb);
    if ka == 0 || kb == 0 || n == 0 {
        return out;
    }
    assert!(
        acols.iter().chain(bcols).all(|c| c.len() == n),
        "gram: column length mismatch"
    );
    let kk = ka * kb;
    let nblocks = n.div_ceil(REDUCE_BLOCK);
    let ngroups = nblocks.div_ceil(GRAM_GROUP);
    let record = (GRAM_LANES + GRAM_GROUP) * kk;
    with_scratch(ngroups * record + nblocks, |scratch| {
        let (records, gather) = scratch.split_at_mut(ngroups * record);
        let fill = |group: usize, rec: &mut [f64]| {
            let (lanes, slots) = rec.split_at_mut(GRAM_LANES * kk);
            let blocks = (group * GRAM_GROUP..nblocks).zip(slots.chunks_mut(kk));
            for (blk, slot) in blocks {
                let lo = blk * REDUCE_BLOCK;
                gram_block(acols, bcols, lo, (lo + REDUCE_BLOCK).min(n), lanes, slot);
            }
        };
        match pk {
            Some(pk) if pk.threads() > 1 && ngroups > 1 => {
                pk.for_each_chunk_mut(records, record, |group, _, rec| fill(group, rec));
            }
            _ => {
                for (group, rec) in records.chunks_mut(record).enumerate() {
                    fill(group, rec);
                }
            }
        }
        for e in 0..kk {
            for (blk, slot) in gather.iter_mut().enumerate() {
                let at = blk / GRAM_GROUP * record + (GRAM_LANES + blk % GRAM_GROUP) * kk;
                *slot = records[at + e];
            }
            out.data_mut()[e] = pairwise_sum(gather);
        }
    });
    out
}

/// One [`REDUCE_BLOCK`]-sized block of [`ParKernels::pcg_step_fused`]:
/// the two AXPYs, the pointwise preconditioner application, and the
/// block's dot partial, each via the exact per-element expression (and
/// for the dot, the exact [`blas::dot_block`] kernel) of the unfused
/// operations.
fn pcg_fused_block(
    alpha: f64,
    p: &[f64],
    s: &[f64],
    w: &[f64],
    x: &mut [f64],
    r: &mut [f64],
    u: &mut [f64],
) -> f64 {
    blas::axpy(alpha, p, x);
    blas::axpy(-alpha, s, r);
    for (i, ui) in u.iter_mut().enumerate() {
        *ui = w[i] * r[i];
    }
    blas::dot_block(r, u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::perturb_diagonal;
    use crate::generators::poisson::{poisson_2d, poisson_3d};
    use crate::rng::Rng64;

    const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

    fn random_vec(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng64::seed_from_u64(seed);
        (0..n).map(|_| rng.next_f64() - 0.5).collect()
    }

    fn random_mv(n: usize, k: usize, seed: u64) -> MultiVector {
        let cols: Vec<Vec<f64>> = (0..k).map(|j| random_vec(n, seed + j as u64)).collect();
        MultiVector::from_columns(&cols)
    }

    #[test]
    fn pool_runs_every_member_and_is_reusable() {
        let pool = ThreadPool::new(4);
        for _ in 0..3 {
            let hits: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            pool.run(&|id| {
                hits[id].fetch_add(1, Ordering::Relaxed);
            });
            for h in &hits {
                assert_eq!(h.load(Ordering::Relaxed), 1);
            }
        }
    }

    #[test]
    fn run_indexed_covers_all_tasks_once() {
        for t in THREAD_COUNTS {
            let pk = ParKernels::new(t);
            let ntasks = 57;
            let hits: Vec<AtomicUsize> = (0..ntasks).map(|_| AtomicUsize::new(0)).collect();
            pk.run_indexed(ntasks, |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn for_each_chunk_mut_touches_disjoint_pieces() {
        for t in THREAD_COUNTS {
            let pk = ParKernels::new(t);
            let mut data = vec![0usize; 10_000];
            pk.for_each_chunk_mut(&mut data, 1024, |c, lo, piece| {
                for (i, v) in piece.iter_mut().enumerate() {
                    *v = c * 1_000_000 + lo + i;
                }
            });
            for (g, &v) in data.iter().enumerate() {
                assert_eq!(v, (g / 1024) * 1_000_000 + g);
            }
        }
    }

    #[test]
    fn dot_is_bitwise_identical_across_thread_counts() {
        for n in [8usize, 1000, 1024, 1025, 4096, 100_003] {
            let x = random_vec(n, 11);
            let y = random_vec(n, 99);
            let serial = blas::dot(&x, &y);
            for t in THREAD_COUNTS {
                let pk = ParKernels::new(t);
                assert_eq!(pk.dot(&x, &y), serial, "n={n} t={t}");
            }
        }
    }

    /// The shipped policy: small or oversubscribed means inline. The
    /// kernel tests below bypass it (`always_split`) to reach the split
    /// paths on matrices this small.
    #[test]
    fn small_matrices_and_oversubscribed_pools_run_inline() {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert!(!ParKernels::new(1).splits(usize::MAX));
        let wide = ParKernels::new(cores + 1);
        assert!(!wide.splits(usize::MAX - 1), "wider than the machine");
        if cores > 1 {
            let fits = ParKernels::new(cores);
            assert!(fits.splits(SPLIT_MIN_ENTRIES));
            assert!(!fits.splits(SPLIT_MIN_ENTRIES - 1));
        }
        assert!(ParKernels::always_split(cores + 1).splits(0));
    }

    #[test]
    fn spmv_is_bitwise_identical_across_thread_counts() {
        let a = poisson_3d(14); // n = 2744 — several schedule chunks
        let x = random_vec(a.ncols(), 5);
        let mut serial = vec![0.0; a.nrows()];
        a.spmv(&x, &mut serial);
        for t in THREAD_COUNTS {
            let pk = ParKernels::always_split(t);
            let mut y = vec![1.0; a.nrows()];
            pk.spmv(&a, &x, &mut y);
            assert_eq!(y, serial, "t={t}");
        }
    }

    /// The stencil (diagonal encoding) and its variable-coefficient twin
    /// (slots), each checked to have taken its encoding.
    fn both_encodings(a: CsrMatrix) -> [(CsrMatrix, Arc<SellMatrix>); 2] {
        let twin = perturb_diagonal(&a, 14);
        [(a, true), (twin, false)].map(|(m, diagonal)| {
            let sell = m.sell();
            assert_eq!(sell.is_diagonal(), diagonal);
            (m, sell)
        })
    }

    #[test]
    fn spmv_sell_is_bitwise_identical_across_thread_counts() {
        // n = 2744 — several slice-schedule chunks
        for (a, sell) in both_encodings(poisson_3d(14)) {
            let x = random_vec(a.ncols(), 5);
            let mut serial = vec![0.0; a.nrows()];
            a.spmv(&x, &mut serial);
            for t in THREAD_COUNTS {
                let pk = ParKernels::always_split(t);
                let mut y = vec![1.0; a.nrows()];
                pk.spmv_sell(&sell, &x, &mut y);
                assert_eq!(y, serial, "t={t} diagonal={}", sell.is_diagonal());
            }
        }
    }

    #[test]
    fn spmv_sell_prefix_is_bitwise_identical_across_thread_counts() {
        let a = poisson_2d(40); // 1600 rows in one ascending list
        let rows: Vec<usize> = (0..a.nrows()).collect();
        let sell = SellMatrix::from_rows(a.row_ptr(), a.col_idx(), a.values(), &rows);
        let x = random_vec(a.ncols(), 17);
        let mut full = vec![0.0; a.nrows()];
        a.spmv(&x, &mut full);
        for cut in [0usize, 31, 32, 33, 500, 1600] {
            let mut serial = vec![f64::NAN; a.nrows()];
            sell.spmv_lanes_prefix(cut, &x, &mut serial);
            for t in THREAD_COUNTS {
                let pk = ParKernels::always_split(t);
                let mut y = vec![f64::NAN; a.nrows()];
                pk.spmv_sell_prefix(&sell, cut, &x, &mut y);
                for r in 0..cut {
                    assert_eq!(y[r].to_bits(), full[r].to_bits(), "t={t} cut={cut} r={r}");
                    assert_eq!(y[r].to_bits(), serial[r].to_bits(), "t={t} cut={cut} r={r}");
                }
            }
        }
    }

    /// The operators of the band twins, `n` rows each: a tridiagonal
    /// stencil (on diagonals) and its variable-coefficient twin (every
    /// SELL slice on `u16` offsets), a rectangular matrix
    /// with five random columns out of 70 000 per row (`u32` slices), and
    /// a random square one whose every third row is empty.
    fn band_operators(n: usize) -> [(&'static str, CsrMatrix); 4] {
        let random = |ncols: usize, keep: &dyn Fn(usize) -> bool| {
            let mut rng = Rng64::seed_from_u64(n as u64);
            let mut coo = crate::CooMatrix::with_capacity(n, ncols, 5 * n);
            for r in (0..n).filter(|&r| keep(r)) {
                for _ in 0..5 {
                    let c = rng.below_inclusive(ncols - 1);
                    coo.push(r, c, rng.next_f64() - 0.5);
                }
            }
            coo.to_csr()
        };
        let banded = crate::generators::poisson::poisson_1d(n);
        [
            ("banded twin", perturb_diagonal(&banded, 1)),
            ("banded", banded),
            ("wide", random(70_000, &|_| true)),
            ("holes", random(n, &|r| r % 3 != 1)),
        ]
    }

    /// `x` with `specials` planted on both sides of the first band edges.
    fn band_operand(len: usize, specials: &[f64]) -> Vec<f64> {
        let mut x = random_vec(len, 17);
        let b = REDUCE_BLOCK;
        let edges = [b, b - 1, 0, 2 * b - 1, 2 * b + 1];
        for (k, &i) in edges.iter().filter(|&&i| i < len).enumerate() {
            x[i] = specials[k % specials.len()];
        }
        x
    }

    /// The band primitive under an epilogue that copies the band out must
    /// reproduce the whole-matrix SpMV, hand every row to exactly one
    /// epilogue call and report that call's first row, in both formats,
    /// for any thread count and any ragged tail. This is also the checked
    /// twin of the pooled disjoint-range writer under it.
    #[test]
    fn band_spmv_matches_whole_matrix_spmv_bitwise() {
        let sizes = [1usize, 31, 257, 1023, 1024, 1025, 1728, 4097, 3 * 1024 + 5];
        for n in sizes {
            for (what, a) in band_operators(n) {
                let sell = SellMatrix::from_csr(&a);
                // (A lone row's five columns may happen to span 16 bits, and
                // a slice of empty rows counts as wide.)
                if what.starts_with("banded") && n > 1 {
                    assert_eq!(sell.is_diagonal(), what == "banded", "{what} n={n}");
                }
                match what {
                    "banded twin" => assert_eq!(sell.wide_slices(), 0, "n={n}"),
                    "wide" if n > 1 => assert!(sell.wide_slices() > 0, "n={n}"),
                    _ => {}
                }
                // Signed zeros compare against CSR in both formats. A SELL
                // pad slot multiplies zero by an operand entry (module docs
                // of `sell`), which is NaN under ±Inf and, for the pad of an
                // empty row, under NaN: there SELL answers to its own kernel.
                let finite = band_operand(a.ncols(), &ZEROS);
                let non_finite = band_operand(a.ncols(), &NON_FINITE);
                for (x, sell_twin) in [(&finite, false), (&non_finite, true)] {
                    let mut want_csr = vec![0.0; n];
                    a.spmv(x, &mut want_csr);
                    let mut want_sell = vec![0.0; n];
                    sell.spmv(x, &mut want_sell);
                    if !sell_twin {
                        assert_same_bits(&want_sell, &want_csr, &format!("{what} n={n} formats"));
                    }
                    for t in THREAD_COUNTS {
                        let pk = ParKernels::always_split(t);
                        for (format, op, want) in [
                            ("csr", MatRef::Csr(&a), &want_csr),
                            ("sell", MatRef::Sell(&sell), &want_sell),
                        ] {
                            let tag = format!("{what} n={n} t={t} {format}");
                            let mut y = vec![f64::NAN; n];
                            let mut first_row = vec![usize::MAX as f64; n];
                            let calls = AtomicUsize::new(0);
                            pk.spmv_bands(op, x, [&mut y, &mut first_row], |lo, ax, [yb, fb]| {
                                assert_eq!(lo % REDUCE_BLOCK, 0, "{tag}: band start");
                                assert_eq!((yb.len(), fb.len()), (ax.len(), ax.len()));
                                calls.fetch_add(1, Ordering::Relaxed);
                                yb.copy_from_slice(ax);
                                fb.fill(lo as f64);
                            });
                            assert_same_bits(&y, want, &tag);
                            assert_eq!(calls.into_inner(), n.div_ceil(REDUCE_BLOCK), "{tag}");
                            for (i, &f) in first_row.iter().enumerate() {
                                assert_eq!(f, (i - i % REDUCE_BLOCK) as f64, "{tag}: row {i}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn band_schedule_cuts_on_band_boundaries() {
        let a = poisson_3d(17); // n = 4913: four full bands and a tail
        let sell = SellMatrix::from_csr(&a);
        for op in [MatRef::Csr(&a), MatRef::Sell(&sell)] {
            assert_eq!(ParKernels::new(1).band_schedule(op), [0, a.nrows()]);
            for t in THREAD_COUNTS {
                let b = ParKernels::always_split(t).band_schedule(op);
                assert_eq!((b[0], b[b.len() - 1]), (0, a.nrows()), "t={t}");
                assert!(b.windows(2).all(|w| w[0] <= w[1]), "t={t}: {b:?}");
                assert!(
                    b[..b.len() - 1].iter().all(|r| r % REDUCE_BLOCK == 0),
                    "t={t}: {b:?}"
                );
                if t > 1 {
                    assert_eq!(b.len(), t + 1);
                }
            }
        }
    }

    /// A row-list build carries no window-confinement promise, so the band
    /// kernel must refuse it rather than read a slice range as a row range.
    #[test]
    #[should_panic(expected = "not window-confined")]
    fn band_spmv_refuses_a_row_list_sell_matrix() {
        let a = poisson_2d(40);
        let rows: Vec<usize> = (0..a.nrows()).rev().collect();
        let sell = SellMatrix::from_rows(a.row_ptr(), a.col_idx(), a.values(), &rows);
        let x = vec![1.0; a.ncols()];
        let mut y = vec![0.0; a.nrows()];
        ParKernels::serial().spmv_bands(MatRef::Sell(&sell), &x, [&mut y], |_, ax, [yb]| {
            yb.copy_from_slice(ax)
        });
    }

    #[test]
    fn spmm_columns_match_spmv_bitwise_for_any_thread_count() {
        let a = poisson_3d(14);
        let n = a.nrows();
        for k in [1usize, 2, 4, 8] {
            let x = random_mv(n, k, 31 + k as u64);
            for t in THREAD_COUNTS {
                let pk = ParKernels::always_split(t);
                let mut y = random_mv(n, k, 99);
                pk.spmm(&a, &x, &mut y);
                for j in 0..k {
                    let mut want = vec![0.0; n];
                    a.spmv(x.col(j), &mut want);
                    assert_eq!(y.col(j), &want[..], "k={k} t={t} col={j}");
                }
            }
        }
    }

    #[test]
    fn spmm_sell_columns_match_spmv_bitwise_for_any_thread_count() {
        for (a, sell) in both_encodings(poisson_3d(14)) {
            let n = a.nrows();
            for k in [1usize, 2, 4, 8] {
                let x = random_mv(n, k, 53 + k as u64);
                for t in THREAD_COUNTS {
                    let pk = ParKernels::always_split(t);
                    let mut y = random_mv(n, k, 7);
                    pk.spmm_sell(&sell, &x, &mut y);
                    for j in 0..k {
                        let mut want = vec![0.0; n];
                        a.spmv(x.col(j), &mut want);
                        let tag = format!("k={k} t={t} col={j} diagonal={}", sell.is_diagonal());
                        assert_eq!(y.col(j), &want[..], "{tag}");
                    }
                }
            }
        }
    }

    #[test]
    fn gram_is_bitwise_identical_across_thread_counts() {
        let n = 5 * REDUCE_BLOCK + 321;
        let a = random_mv(n, 5, 7);
        let b = random_mv(n, 6, 1007);
        let serial = a.gram(&b);
        for t in THREAD_COUNTS {
            let pk = ParKernels::new(t);
            let g = pk.gram(&a, &b);
            for i in 0..5 {
                for j in 0..6 {
                    assert_eq!(g[(i, j)], serial[(i, j)], "t={t} ({i},{j})");
                }
            }
        }
    }

    #[test]
    fn gram_matches_naive_dot_products() {
        let n = 2 * REDUCE_BLOCK + 10;
        let a = random_mv(n, 3, 21);
        let b = random_mv(n, 4, 22);
        let g = ParKernels::new(4).gram(&a, &b);
        for i in 0..3 {
            for j in 0..4 {
                let naive: f64 = a.col(i).iter().zip(b.col(j)).map(|(p, q)| p * q).sum();
                assert!((g[(i, j)] - naive).abs() < 1e-10, "({i},{j})");
            }
        }
    }

    #[test]
    fn fused_gram_cols_equals_blockwise_grams() {
        // The fused concatenated Gram must reproduce the four independent
        // sub-block Grams bitwise (the per-pair reduction shape does not
        // see the concatenation).
        let n = 3 * REDUCE_BLOCK + 77;
        let zl = random_mv(n, 3, 31);
        let zr = random_mv(n, 2, 32);
        let yl = random_mv(n, 3, 33);
        let yr = random_mv(n, 4, 34);
        let pk = ParKernels::new(4);
        let acols: Vec<&[f64]> = (0..3)
            .map(|i| zl.col(i))
            .chain((0..2).map(|i| zr.col(i)))
            .collect();
        let bcols: Vec<&[f64]> = (0..3)
            .map(|j| yl.col(j))
            .chain((0..4).map(|j| yr.col(j)))
            .collect();
        let fused = pk.gram_cols(n, &acols, &bcols);
        let blocks = [
            (0, 0, pk.gram(&zl, &yl)),
            (0, 3, pk.gram(&zl, &yr)),
            (3, 0, pk.gram(&zr, &yl)),
            (3, 3, pk.gram(&zr, &yr)),
        ];
        for (ri, rj, g) in &blocks {
            for i in 0..g.nrows() {
                for j in 0..g.ncols() {
                    assert_eq!(fused[(ri + i, rj + j)], g[(i, j)]);
                }
            }
        }
    }

    /// The Gram product as [`crate::blas`] defines it, with no tiling at
    /// all: per entry one [`blas::dot_block`] per [`REDUCE_BLOCK`], combined
    /// by [`pairwise_sum`].
    fn gram_by_dot_blocks(n: usize, acols: &[&[f64]], bcols: &[&[f64]]) -> DenseMat {
        DenseMat::from_fn(acols.len(), bcols.len(), |i, j| {
            let mut partials: Vec<f64> = (0..n)
                .step_by(REDUCE_BLOCK)
                .map(|lo| {
                    let hi = (lo + REDUCE_BLOCK).min(n);
                    blas::dot_block(&acols[i][lo..hi], &bcols[j][lo..hi])
                })
                .collect();
            pairwise_sum(&mut partials)
        })
    }

    #[test]
    fn gram_matches_dot_block_partials_for_every_shape_thread_count_and_body() {
        use crate::tile::{tests::gram_operands, GRAM_SCALAR_ONLY};
        let k = 21;
        // Unoptimized builds walk a thinned shape grid that still has every
        // register-tile edge (ka mod 4, kb mod 2) and the solvers' shapes;
        // CI reruns this crate's tests optimized, where the grid is whole.
        let thin = cfg!(debug_assertions);
        // Lengths of more than one task group — the only ones a pool splits
        // — repeat the block kernel the grid has covered; there the
        // solvers' shapes and two edge ones suffice.
        let group_rows = GRAM_GROUP * REDUCE_BLOCK;
        let keep = |n: usize, ka: usize, kb: usize| {
            if n > group_rows {
                [(1, 1), (3, 2), (10, 6), (20, 11), (21, 21)].contains(&(ka, kb))
            } else {
                !thin || ([1, 2, 3, 4, 10, 20, 21].contains(&ka) && [1, 2, 6, 11, 21].contains(&kb))
            }
        };
        let pools: Vec<ParKernels> = THREAD_COUNTS.iter().map(|&t| ParKernels::new(t)).collect();
        for n in [
            0usize,
            1,
            3,
            4,
            127,
            128,
            129,
            255,
            256,
            257,
            1023,
            1024,
            1025,
            5000,
            2 * REDUCE_BLOCK + 10,
            group_rows + 1,
            3 * group_rows - REDUCE_BLOCK + 7,
        ] {
            let (a, b) = (
                gram_operands(n, k, 5 + n as u64),
                gram_operands(n, k, 77 + n as u64),
            );
            let (a, b): (Vec<&[f64]>, Vec<&[f64]>) = (
                a.iter().map(|c| &c[..]).collect(),
                b.iter().map(|c| &c[..]).collect(),
            );
            // An entry does not depend on the shape it is computed in.
            let full = gram_by_dot_blocks(n, &a, &b);
            for (ka, kb) in (1..=k).flat_map(|ka| (1..=k).map(move |kb| (ka, kb))) {
                if !keep(n, ka, kb) {
                    continue;
                }
                let want: Vec<f64> = (0..ka * kb).map(|e| full[(e / kb, e % kb)]).collect();
                for scalar in [false, true] {
                    GRAM_SCALAR_ONLY.store(scalar, Ordering::Relaxed);
                    let what = format!("n={n} {ka}x{kb} scalar={scalar}");
                    let serial = gram_cols_impl(None, n, &a[..ka], &b[..kb]);
                    assert_same_bits(serial.data(), &want, &what);
                    for pk in &pools {
                        let got = pk.gram_cols(n, &a[..ka], &b[..kb]);
                        let what = format!("{what} t={}", pk.threads());
                        assert_same_bits(got.data(), &want, &what);
                    }
                }
                GRAM_SCALAR_ONLY.store(false, Ordering::Relaxed);
            }
        }
    }

    /// The lane records and the gather buffer of a Gram call are one borrow
    /// of the caller's tile scratch. Neither the inline path nor a pooled
    /// call — whose caller runs block tasks as pool member 0 while holding
    /// that borrow — may borrow it again.
    #[test]
    fn gram_borrows_the_tile_scratch_once_inline_and_pooled() {
        let n = 40 * REDUCE_BLOCK + 3;
        let (a, b) = (random_mv(n, 3, 1), random_mv(n, 2, 2));
        let want = ParKernels::new(1).gram(&a, &b);
        assert_eq!(a.gram(&b), want);
        for t in [2usize, 4] {
            let pk = ParKernels::new(t);
            // Twice: the second call finds the scratch already grown.
            assert_eq!(pk.gram(&a, &b), want, "t={t}");
            assert_eq!(pk.gram(&a, &b), want, "t={t} again");
        }
        // …and the scratch is free again afterwards.
        with_scratch(8, |buf| buf.fill(1.0));
    }

    #[test]
    fn elementwise_kernels_match_serial_bitwise() {
        let n = 4 * REDUCE_BLOCK + 13;
        let x = random_vec(n, 3);
        let p = random_vec(n, 4);
        for t in THREAD_COUNTS {
            let pk = ParKernels::new(t);

            let mut y_ser = p.clone();
            blas::axpy(0.37, &x, &mut y_ser);
            let mut y_par = p.clone();
            pk.axpy(0.37, &x, &mut y_par);
            assert_eq!(y_par, y_ser, "axpy t={t}");

            let mut y_ser = p.clone();
            blas::xpby(&x, -1.4, &mut y_ser);
            let mut y_par = p.clone();
            pk.xpby(&x, -1.4, &mut y_par);
            assert_eq!(y_par, y_ser, "xpby t={t}");

            let mut z_ser = vec![0.0; n];
            blas::sub(&x, &p, &mut z_ser);
            let mut z_par = vec![1.0; n];
            pk.sub(&x, &p, &mut z_par);
            assert_eq!(z_par, z_ser, "sub t={t}");

            let mut z_ser = vec![0.0; n];
            for i in 0..n {
                z_ser[i] = x[i] * p[i];
            }
            let mut z_par = vec![0.0; n];
            pk.pointwise_mul(&x, &p, &mut z_par);
            assert_eq!(z_par, z_ser, "pointwise t={t}");

            let prev = random_vec(n, 5);
            let (rho, gamma) = (1.7, 0.23);
            let mut o_ser = vec![0.0; n];
            for i in 0..n {
                o_ser[i] = rho * (x[i] + gamma * p[i]) + (1.0 - rho) * prev[i];
            }
            let mut o_par = vec![0.0; n];
            pk.three_term(rho, gamma, &x, &p, &prev, &mut o_par);
            assert_eq!(o_par, o_ser, "three_term t={t}");
        }
    }

    /// The unfused kernels the tile primitive replaced, kept as checked
    /// twins: memory-to-memory AXPY sweeps over `REDUCE_BLOCK`-row blocks,
    /// one sweep per term, exactly as they ran before.
    mod unfused {
        use super::*;

        pub fn gemv_acc(mv: &MultiVector, a: f64, coeffs: &[f64], out: &mut [f64]) {
            let n = mv.n();
            let mut row = 0;
            while row < n {
                let hi = (row + REDUCE_BLOCK).min(n);
                for j in 0..mv.k() {
                    let c = a * coeffs[j];
                    if c == 0.0 {
                        continue;
                    }
                    for (oi, &ci) in out[row..hi].iter_mut().zip(&mv.col(j)[row..hi]) {
                        *oi += c * ci;
                    }
                }
                row = hi;
            }
        }

        pub fn gemv(mv: &MultiVector, coeffs: &[f64], out: &mut [f64]) {
            blas::zero(out);
            gemv_acc(mv, 1.0, coeffs, out);
        }

        pub fn gemm_small_acc(src: &MultiVector, b: &DenseMat, out: &mut MultiVector) {
            let n = src.n();
            let mut row = 0;
            while row < n {
                let hi = (row + REDUCE_BLOCK).min(n);
                for j in 0..b.ncols() {
                    for l in 0..src.k() {
                        let c = b[(l, j)];
                        if c == 0.0 {
                            continue;
                        }
                        let dst = &mut out.col_mut(j)[row..hi];
                        for (d, &v) in dst.iter_mut().zip(&src.col(l)[row..hi]) {
                            *d += c * v;
                        }
                    }
                }
                row = hi;
            }
        }

        /// `p ← u + p·b` through a scratch copy.
        pub fn blocked_update(p: &mut MultiVector, u: &MultiVector, b: &DenseMat) {
            let mut scratch = u.clone();
            gemm_small_acc(p, b, &mut scratch);
            *p = scratch;
        }

        /// `AU = S·B` column by column: scale (or copy) then two AXPYs.
        pub fn au(blk: &SstepBlock<'_>) -> MultiVector {
            let (n, s) = (blk.u.n(), blk.u.k());
            let mut out = MultiVector::zeros(n, s);
            for j in 0..s {
                let (gamma, theta) = (blk.gamma[j], blk.theta[j]);
                let mu = if j >= 1 { blk.mu[j - 1] } else { 0.0 };
                let dst = out.col_mut(j);
                if gamma == 1.0 {
                    dst.copy_from_slice(blk.s_mat.col(j + 1));
                } else {
                    for (d, &v) in dst.iter_mut().zip(blk.s_mat.col(j + 1)) {
                        *d = gamma * v;
                    }
                }
                if theta != 0.0 {
                    blas::axpy(theta, blk.s_mat.col(j), dst);
                }
                if mu != 0.0 {
                    blas::axpy(mu, blk.s_mat.col(j - 1), dst);
                }
            }
            out
        }

        /// The five-sweep vector-update phase of an s-step block.
        pub fn sstep_block_update(
            blk: &SstepBlock<'_>,
            p: &mut MultiVector,
            ap: &mut MultiVector,
            x: &mut [f64],
            r: &mut [f64],
        ) {
            let au = au(blk);
            match blk.b_k {
                Some(b_k) => {
                    blocked_update(p, blk.u, b_k);
                    blocked_update(ap, &au, b_k);
                }
                None => {
                    p.copy_from(blk.u);
                    ap.copy_from(&au);
                }
            }
            gemv_acc(p, 1.0, blk.a, x);
            gemv_acc(ap, -1.0, blk.a, r);
        }
    }

    use crate::tile::tests::same_bits as assert_same_bits;

    fn assert_same_mv(got: &MultiVector, want: &MultiVector, what: &str) {
        assert_eq!((got.n(), got.k()), (want.n(), want.k()), "{what}: shape");
        for j in 0..got.k() {
            assert_same_bits(got.col(j), want.col(j), &format!("{what} col {j}"));
        }
    }

    const ZEROS: [f64; 2] = [0.0, -0.0];
    const NON_FINITE: [f64; 5] = [0.0, f64::NAN, f64::INFINITY, -0.0, f64::NEG_INFINITY];

    /// Coefficients in `(-1, 1)` with `specials` planted every `stride`-th
    /// position.
    fn planted(len: usize, seed: u64, stride: usize, specials: &[f64]) -> Vec<f64> {
        let mut v = random_vec(len, seed);
        for (k, slot) in v.iter_mut().step_by(stride).enumerate() {
            *slot = specials[(k + seed as usize) % specials.len()];
        }
        v
    }

    /// NaN and ±Inf in a few rows of column `j`: data a zero coefficient
    /// must keep out of every output (`0·NaN` is NaN, skipping it is not).
    fn poison(mv: &mut MultiVector, j: usize) {
        for (i, v) in mv.col_mut(j).iter_mut().enumerate().step_by(5) {
            *v = NON_FINITE[1 + i % 2];
        }
    }

    /// Monomial, Newton and Chebyshev recurrences `(γ, θ, μ)` of degree `s`.
    fn recurrences(s: usize) -> [(Vec<f64>, Vec<f64>, Vec<f64>); 3] {
        let m = s.saturating_sub(1);
        let mut shifts = random_vec(s, 5);
        if s > 2 {
            shifts[2] = 0.0; // a skipped θ inside a live recurrence
        }
        let mut cheb_gamma = vec![0.6; s];
        cheb_gamma[0] = 1.2;
        [
            (vec![1.0; s], vec![0.0; s], vec![0.0; m]),
            (vec![1.0; s], shifts, vec![0.0; m]),
            (cheb_gamma, vec![1.5; s], vec![0.6; m]),
        ]
    }

    #[test]
    fn sstep_block_update_matches_the_unfused_sequence_bitwise() {
        let mut case = 0u64;
        for n in [0usize, 1, 7, 255, 256, 257, 1024 + 17, 5000] {
            for s in 1..=12usize {
                case += 1;
                let (gamma, theta, mu) = recurrences(s)[(case % 3) as usize].clone();
                let s_mat = random_mv(n, s + 1, 100 * case);
                let u = random_mv(n, s, 100 * case + 20);
                // Every third case is a first block. Otherwise row `dead`
                // of B_k is ±0.0 and column `dead` of the old P/AP is
                // poisoned, so the outputs stay finite only if the
                // zero-skip survived; every fourth case instead plants NaN
                // and ±Inf in the coefficients themselves.
                let specials: &[f64] = if case % 4 == 3 { &NON_FINITE } else { &ZEROS };
                let dead = case as usize % s;
                let b_k = (case % 3 != 0).then(|| {
                    let mut b = DenseMat::from_row_major(s, s, planted(s * s, case, 3, specials));
                    for j in 0..s {
                        b[(dead, j)] = ZEROS[j % 2];
                    }
                    b
                });
                let a = planted(s, case + 7, 4, specials);
                let blk = SstepBlock {
                    s_mat: &s_mat,
                    gamma: &gamma,
                    theta: &theta,
                    mu: &mu,
                    u: &u,
                    b_k: b_k.as_ref(),
                    a: &a,
                };
                let (mut p0, mut ap0) = (random_mv(n, s, case + 40), random_mv(n, s, case + 60));
                poison(&mut p0, dead);
                poison(&mut ap0, dead);
                let (x0, r0) = (random_vec(n, case + 80), random_vec(n, case + 81));

                let (mut p_ref, mut ap_ref) = (p0.clone(), ap0.clone());
                let (mut x_ref, mut r_ref) = (x0.clone(), r0.clone());
                unfused::sstep_block_update(&blk, &mut p_ref, &mut ap_ref, &mut x_ref, &mut r_ref);

                for t in THREAD_COUNTS {
                    let pk = ParKernels::new(t);
                    let (mut p, mut ap) = (p0.clone(), ap0.clone());
                    let (mut x, mut r) = (x0.clone(), r0.clone());
                    pk.sstep_block_update(&blk, &mut p, &mut ap, &mut x, &mut r);
                    let what = format!("n={n} s={s} t={t}");
                    assert_same_mv(&p, &p_ref, &format!("{what} P"));
                    assert_same_mv(&ap, &ap_ref, &format!("{what} AP"));
                    assert_same_bits(&x, &x_ref, &format!("{what} x"));
                    assert_same_bits(&r, &r_ref, &format!("{what} r"));
                    if b_k.is_some() && case % 4 != 3 {
                        assert!(
                            !p.has_non_finite() && !ap.has_non_finite(),
                            "{what}: skip lost"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gemv_multi_matches_five_separate_concat_products() {
        for (n, s) in [
            (0usize, 2usize),
            (7, 2),
            (257, 5),
            (1024 + 17, 10),
            (5000, 16),
        ] {
            let (q, rh) = (random_mv(n, s + 1, 1), random_mv(n, s, 2));
            let (pm, um) = (random_mv(n, s + 1, 3), random_mv(n, s, 4));
            let dim = 2 * s + 1;
            let (p_c, r_c, x_c) = (
                planted(dim, 11, 4, &ZEROS),
                random_vec(dim, 12),
                planted(dim, 13, 5, &NON_FINITE),
            );
            let x0 = random_vec(n, 14);
            // out ← [l|r]·coef as it ran before: zero, then one
            // accumulation sweep per block.
            let concat = |l: &MultiVector, r: &MultiVector, coef: &[f64], out: &mut [f64]| {
                unfused::gemv(l, &coef[..l.k()], out);
                unfused::gemv_acc(r, 1.0, &coef[l.k()..], out);
            };
            let mut want = vec![vec![f64::NAN; n]; 4];
            concat(&q, &rh, &p_c, &mut want[0]);
            concat(&q, &rh, &r_c, &mut want[1]);
            concat(&pm, &um, &p_c, &mut want[2]);
            concat(&pm, &um, &r_c, &mut want[3]);
            let mut x_want = x0.clone();
            unfused::gemv_acc(&pm, 1.0, &x_c[..s + 1], &mut x_want);
            unfused::gemv_acc(&um, 1.0, &x_c[s + 1..], &mut x_want);

            for t in THREAD_COUNTS {
                let pk = ParKernels::new(t);
                let mut got = vec![vec![f64::NAN; n]; 4];
                let mut x = x0.clone();
                let [qv, rv, pv, uv] = &mut got[..] else {
                    unreachable!()
                };
                pk.gemv_multi(
                    &[&q, &rh],
                    &mut [GemvOut::Set(&p_c, qv), GemvOut::Set(&r_c, rv)],
                );
                pk.gemv_multi(
                    &[&pm, &um],
                    &mut [
                        GemvOut::Set(&p_c, pv),
                        GemvOut::Set(&r_c, uv),
                        GemvOut::Acc(&x_c, &mut x),
                    ],
                );
                for (g, w) in got.iter().zip(&want) {
                    assert_same_bits(g, w, &format!("n={n} s={s} t={t}"));
                }
                assert_same_bits(&x, &x_want, &format!("n={n} s={s} t={t} x"));
            }
        }
    }

    #[test]
    fn gemv_gemm_and_blocked_update_match_their_unfused_loops() {
        // k = 20 terms per output crosses the primitive's 16-term pass.
        for (n, k) in [
            (1usize, 1usize),
            (255, 3),
            (3 * REDUCE_BLOCK + 5, 5),
            (777, 20),
        ] {
            let mv = random_mv(n, k, 41);
            let coeffs = planted(k, 42, 3, &ZEROS);
            let b = DenseMat::from_row_major(k, k, planted(k * k, 43, 4, &NON_FINITE));
            let base = random_mv(n, k, 55);
            let out0 = random_vec(n, 60);

            let mut out_ref = out0.clone();
            unfused::gemv_acc(&mv, -1.5, &coeffs, &mut out_ref);
            let mut g_ref = base.clone();
            unfused::gemm_small_acc(&mv, &b, &mut g_ref);
            let mut p_ref = base.clone();
            unfused::blocked_update(&mut p_ref, &mv, &b);

            for t in THREAD_COUNTS {
                let pk = ParKernels::new(t);
                let mut out = out0.clone();
                pk.gemv_acc(&mv, -1.5, &coeffs, &mut out);
                assert_same_bits(&out, &out_ref, &format!("gemv_acc n={n} k={k} t={t}"));

                let mut g = base.clone();
                pk.gemm_small_acc(&mv, &b, &mut g);
                assert_same_mv(&g, &g_ref, &format!("gemm_small_acc n={n} k={k} t={t}"));

                let mut p = base.clone();
                pk.blocked_update(&mut p, &mv, &b);
                assert_same_mv(&p, &p_ref, &format!("blocked_update n={n} k={k} t={t}"));
            }
        }
    }

    #[test]
    fn blocked_update_is_u_plus_pb() {
        let col = |c: &[f64]| c.to_vec();
        let mut p = MultiVector::from_columns(&[col(&[1.0, 0.0]), col(&[0.0, 1.0])]);
        let u = MultiVector::from_columns(&[col(&[10.0, 10.0]), col(&[20.0, 20.0])]);
        let b = DenseMat::from_row_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        ParKernels::serial().blocked_update(&mut p, &u, &b);
        // col0 = u0 + 1*p0 + 3*p1 = [10,10] + [1,0] + [0,3] = [11,13]
        assert_eq!(p.col(0), &[11.0, 13.0]);
        // col1 = u1 + 2*p0 + 4*p1 = [20,20] + [2,0] + [0,4] = [22,24]
        assert_eq!(p.col(1), &[22.0, 24.0]);
    }

    #[test]
    fn more_threads_than_work_is_fine() {
        let pk = ParKernels::new(8);
        let a = poisson_2d(3); // n = 9, fewer rows than threads
        let x = random_vec(9, 2);
        let mut y = vec![0.0; 9];
        pk.spmv(&a, &x, &mut y);
        let mut serial = vec![0.0; 9];
        a.spmv(&x, &mut serial);
        assert_eq!(y, serial);
        assert_eq!(pk.dot(&x, &x), blas::dot(&x, &x));
    }
}
