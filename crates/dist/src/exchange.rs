//! Distributed-vector exchange board with a split-phase halo protocol.
//!
//! In the block-row-distributed SpMV each rank owns a contiguous chunk of
//! the vector and needs a halo of remote entries. On shared memory the
//! natural analogue is a full-length board that ranks publish chunks into
//! and read halos out of. The published/consumed word counts — what an MPI
//! halo exchange would actually send — are what the performance model
//! charges, via [`crate::Counters`] and the ghost-zone analysis.
//!
//! The exchange is **split-phase**, the shared-memory analogue of
//! `MPI_Isend`/`MPI_Irecv` + `MPI_Wait`:
//!
//! * [`VectorBoard::post`] writes the rank's chunk and raises its
//!   per-rank readiness flag — the *send* side; it returns immediately
//!   (waiting only for stragglers still reading the previous round).
//! * [`VectorBoard::complete_into`] waits for the readiness flags of the
//!   **neighbour ranks a [`GatherPlan`] names** (not a full barrier) and
//!   then copies the ghost runs — the *receive completion*.
//!
//! Between the two calls the rank is free to compute on data that needs no
//! remote input — interior SpMV rows — which is exactly the
//! communication–computation overlap the ranked engine exploits. Rounds
//! are sequenced by per-rank epoch counters (`published`/`consumed` under
//! one mutex + condvar): a rank cannot overwrite its chunk for round
//! `e + 1` until every rank has finished consuming round `e`, which makes
//! the blocking and overlapped schedules touch identical data and keeps
//! message/volume counters provably unchanged (the *same* one exchange per
//! round happens either way; only the wait moves).
//!
//! Every round on a board must be exactly one `post` followed by exactly
//! one completion (`complete_into` or [`VectorBoard::complete_snapshot`])
//! on every rank — the SPMD control flow of the solvers guarantees this,
//! and the board asserts it.
//!
//! Both backends run this protocol on this type: thread ranks call it
//! themselves, and the proc hub's per-rank proxies call it for their
//! workers (`crate::backend`). A board attached to its group's
//! [`Abort`] ([`VectorBoard::with_abort`]) gives up every wait the moment a
//! rank is lost, so neither kind of caller sits out the wait budget for a
//! peer that is gone.

use crate::backend::Comm;
use crate::comm::Abort;
use crate::fault::{FaultPlan, FaultSite, STALL};
use spcg_obs::{Phase, Track};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::Duration;

/// Wait slice of the retry protocol when the board carries an active fault
/// plan: short, so injected stalls (which sleep [`STALL`]) are observed as
/// expired slices and the retry path actually runs.
const ARMED_WAIT_SLICE: Duration = Duration::from_millis(2);

/// First wait slice without a fault plan: a near-spin park. Clean waits
/// start here and double per expiry (up to [`CLEAN_WAIT_MAX`]), so a rank
/// whose neighbour publishes microseconds later wakes immediately instead
/// of serializing on a quarter-second timer — the adaptive spin-then-park
/// the proc backend's request/reply hub depends on.
const CLEAN_WAIT_MIN: Duration = Duration::from_micros(50);

/// Ceiling of the clean-run wait slice, and the cumulative-wait mark at
/// which a clean wait starts counting retries. Long enough that healthy
/// runs — where a neighbour is merely slow, not failed — essentially never
/// reach it, so the retry accounting stays silent.
const CLEAN_WAIT_MAX: Duration = Duration::from_millis(250);

/// Total wait budget per exchange before the board declares the run wedged
/// and panics with flag-state diagnostics. A genuine deadlock (a rank that
/// died or SPMD control-flow divergence) is the only way to spend this.
const WAIT_BUDGET: Duration = Duration::from_secs(30);

/// One contiguous source run of a [`GatherPlan`].
#[derive(Debug, Clone, Copy)]
struct Run {
    /// Rank owning the run.
    src: usize,
    /// First board index of the run.
    start: usize,
    /// Length in words.
    len: usize,
}

/// A precomputed halo-gather plan: the ghost indices of one rank,
/// compressed into maximal contiguous runs (each run within a single
/// source rank's range), plus the sorted set of source ranks whose
/// readiness the completion must wait for.
///
/// Built once per ghost zone via [`VectorBoard::plan`] and reused every
/// iteration — the per-call index arithmetic and allocation churn of an
/// elementwise gather happen once, at plan-build time. The destination
/// layout of [`VectorBoard::complete_into`] follows the index order given
/// to [`VectorBoard::plan`], so a ghost-zone's extended-vector layout is
/// preserved run by run.
#[derive(Debug, Clone)]
pub struct GatherPlan {
    runs: Vec<Run>,
    src_ranks: Vec<usize>,
    total: usize,
}

impl GatherPlan {
    /// Compresses `indices` (global vector positions) into a plan against
    /// the partition described by `offsets` (length `nranks + 1`) — the
    /// shared constructor every [`crate::backend::Exchange`] backend's
    /// `plan` delegates to, so thread and proc solves gather identically.
    ///
    /// # Panics
    /// Panics if an index is out of the partition's range.
    pub fn build(offsets: &[usize], indices: &[usize]) -> GatherPlan {
        let n = *offsets.last().unwrap();
        let owner = |idx: usize| offsets.partition_point(|&o| o <= idx) - 1;
        let mut runs: Vec<Run> = Vec::new();
        for &idx in indices {
            assert!(idx < n, "GatherPlan: index {idx} out of range");
            let src = owner(idx);
            match runs.last_mut() {
                Some(run) if run.start + run.len == idx && run.src == src => run.len += 1,
                _ => runs.push(Run {
                    src,
                    start: idx,
                    len: 1,
                }),
            }
        }
        let mut src_ranks: Vec<usize> = runs.iter().map(|r| r.src).collect();
        src_ranks.sort_unstable();
        src_ranks.dedup();
        GatherPlan {
            runs,
            src_ranks,
            total: indices.len(),
        }
    }

    /// Rebuilds a plan from runs `(first board index, words)` that arrived
    /// from outside the program — the request a proc-backend worker sends
    /// for its own plan's [`GatherPlan::runs`], or the single run `(0, n)`
    /// of a snapshot. Every run must lie inside the board, and together
    /// they may ask for at most one board's worth of words (ghost indices
    /// are distinct), which bounds what a completion of the plan copies.
    /// Unlike [`GatherPlan::build`]'s, a run here may span several ranks; the
    /// completion then waits for all of them.
    pub fn from_runs(
        offsets: &[usize],
        runs: impl Iterator<Item = (usize, usize)>,
    ) -> Result<GatherPlan, String> {
        let n = *offsets.last().expect("offsets hold at least [0, n]");
        let owner = |idx: usize| offsets.partition_point(|&o| o <= idx) - 1;
        let mut plan = GatherPlan {
            runs: Vec::new(),
            src_ranks: Vec::new(),
            total: 0,
        };
        for (start, len) in runs {
            let end = start.checked_add(len).filter(|&end| end <= n);
            let Some(end) = end else {
                return Err(format!("run [{start}, +{len}) leaves the {n}-word board"));
            };
            plan.total += len;
            if plan.total > n {
                return Err(format!("runs ask for more than the {n}-word board"));
            }
            if len > 0 {
                let src = owner(start);
                plan.runs.push(Run { src, start, len });
                plan.src_ranks.extend(src..=owner(end - 1));
            }
        }
        plan.src_ranks.sort_unstable();
        plan.src_ranks.dedup();
        Ok(plan)
    }

    /// Total words the plan gathers (the halo volume of one exchange of
    /// one vector — the number [`crate::Counters::record_halo_exchange`]
    /// is charged with).
    pub fn words(&self) -> usize {
        self.total
    }

    /// The plan's contiguous runs as `(first board index, words)`, in plan
    /// order — what a transport without shared memory asks its peer for.
    pub fn runs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.runs.iter().map(|run| (run.start, run.len))
    }

    /// Sorted, deduplicated ranks this plan reads from — the neighbour set
    /// of the halo exchange.
    pub fn src_ranks(&self) -> &[usize] {
        &self.src_ranks
    }

    /// True if the plan gathers nothing (single-rank runs).
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Copies the plan's runs out of a full-length `board` slice into
    /// `out`, in plan order — the gather of a completion that can see the
    /// whole board.
    ///
    /// # Panics
    /// Panics if `out.len() != self.words()` or a run exceeds `board`.
    pub fn gather(&self, board: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.total, "gather: out length mismatch");
        let mut pos = 0;
        for run in &self.runs {
            out[pos..pos + run.len].copy_from_slice(&board[run.start..run.start + run.len]);
            pos += run.len;
        }
    }
}

/// Per-rank round flags of a board: `published[r]` is the round rank `r`
/// has posted, `consumed[r]` the round it has finished reading.
struct Flags {
    state: Mutex<FlagState>,
    cvar: Condvar,
}

struct FlagState {
    published: Vec<u64>,
    consumed: Vec<u64>,
}

/// A shared full-length vector that ranks publish chunks into through the
/// split-phase protocol described at the module level.
pub struct VectorBoard {
    data: Arc<RwLock<Vec<f64>>>,
    offsets: Arc<Vec<usize>>,
    flags: Arc<Flags>,
    /// Fault-injection plan, when this board participates in one.
    faults: Option<FaultPlan>,
    /// Decorrelation salt mixed into the plan's decisions, so the two
    /// boards of a ranked solve draw distinct injection streams.
    salt: u64,
    /// The abort every wait on this board watches; never raised unless the
    /// board was attached to a group's ([`VectorBoard::with_abort`]).
    abort: Abort,
    /// Expired wait slices across all ranks — the retry protocol's
    /// diagnostic odometer. Timing-dependent; never part of [`crate::Counters`].
    retries: Arc<AtomicU64>,
}

impl VectorBoard {
    /// Creates a board for a vector of `n` entries partitioned at `offsets`
    /// (length `nranks + 1`, `offsets[0] == 0`, `offsets[nranks] == n`).
    pub fn new(offsets: Vec<usize>) -> Self {
        assert!(
            offsets.len() >= 2 && offsets[0] == 0,
            "VectorBoard: bad offsets"
        );
        for w in offsets.windows(2) {
            assert!(w[0] <= w[1], "VectorBoard: offsets must be monotone");
        }
        let n = *offsets.last().unwrap();
        let nranks = offsets.len() - 1;
        VectorBoard {
            data: Arc::new(RwLock::new(vec![0.0; n])),
            offsets: Arc::new(offsets),
            flags: Arc::new(Flags {
                state: Mutex::new(FlagState {
                    published: vec![0; nranks],
                    consumed: vec![0; nranks],
                }),
                cvar: Condvar::new(),
            }),
            faults: None,
            salt: 0,
            abort: Abort::default(),
            retries: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Attaches the board to its group's [`Abort`]
    /// ([`crate::CommGroup::abort`]): a rank waiting on the board for a peer
    /// that is lost unwinds as soon as the abort is raised, instead of
    /// spending the 30 s wait budget. Call on the board the rank handles are
    /// cloned from, before the ranks start.
    pub fn with_abort(mut self, abort: &Abort) -> Self {
        let flags = Arc::clone(&self.flags);
        abort.on_raise(move || {
            // Taken (poisoned or not) so that the notification comes after
            // the test of the flag a waiter makes with this lock held.
            drop(flags.state.lock());
            flags.cvar.notify_all();
        });
        self.abort = abort.clone();
        self
    }

    /// Attaches a fault plan to the board (`None` detaches). `salt`
    /// decorrelates this board's injection stream from other boards
    /// sharing the plan (give each board of a solve a distinct salt).
    /// With an inactive plan the board behaves exactly like an unfaulted
    /// one, except that its wait slices shorten to the armed setting.
    pub fn with_faults(mut self, plan: Option<FaultPlan>, salt: u64) -> Self {
        self.faults = plan;
        self.salt = salt;
        self
    }

    /// Expired wait slices observed so far across all ranks of this board
    /// — nonzero only when some completion or post actually had to wait
    /// past a slice (a stalled neighbour). Timing-dependent diagnostics;
    /// results and [`crate::Counters`] never depend on it.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Clones a handle for another rank's thread.
    pub fn handle(&self) -> VectorBoard {
        VectorBoard {
            data: Arc::clone(&self.data),
            offsets: Arc::clone(&self.offsets),
            flags: Arc::clone(&self.flags),
            faults: self.faults.clone(),
            salt: self.salt,
            abort: self.abort.clone(),
            retries: Arc::clone(&self.retries),
        }
    }

    /// Row range owned by `rank`.
    pub fn range(&self, rank: usize) -> (usize, usize) {
        (self.offsets[rank], self.offsets[rank + 1])
    }

    /// The partition offsets (length `nranks + 1`).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// Compresses `indices` (board positions, e.g. a ghost zone's global
    /// ghost indices) into a reusable [`GatherPlan`]. Runs never cross a
    /// rank boundary, so each run has a single source whose readiness flag
    /// gates it.
    ///
    /// # Panics
    /// Panics if an index is out of the board's range.
    pub fn plan(&self, indices: &[usize]) -> GatherPlan {
        GatherPlan::build(&self.offsets, indices)
    }

    /// Posts this rank's chunk for the next round: waits until every rank
    /// has consumed the previous round (so no reader races the overwrite),
    /// writes the chunk, and raises this rank's readiness flag. Returns
    /// without waiting for any other rank's data — compute on interior
    /// rows between this and the completion call.
    ///
    /// # Panics
    /// Panics on a chunk-length mismatch or if the previous round was
    /// never completed on this rank.
    pub fn post(&self, comm: &dyn Comm, chunk: &[f64]) {
        self.post_traced(comm, chunk, None);
    }

    /// [`VectorBoard::post`] wrapped in an [`ExchangePost`](Phase) span
    /// when a trace track is given. Instrumentation only — the protocol is
    /// identical with `None`.
    pub fn post_traced(&self, comm: &dyn Comm, chunk: &[f64], track: Option<&Track>) {
        let _span = spcg_obs::span(track, Phase::ExchangePost);
        let me = comm.rank();
        let (lo, hi) = self.range(me);
        assert_eq!(chunk.len(), hi - lo, "post: chunk length mismatch");
        let faults = self.injector(comm);
        let round = {
            let mut st = self.flags.state.lock().unwrap();
            assert_eq!(
                st.consumed[me], st.published[me],
                "post: previous round not completed on rank {me}"
            );
            let round = st.published[me] + 1;
            st = self.wait_while(
                st,
                |st| !st.consumed.iter().all(|&c| c + 1 >= round),
                track,
                "post",
                me,
            );
            drop(st);
            round
        };
        let poisoned = faults
            .map(|p| p.fire(FaultSite::PoisonHalo, self.salt, me, round))
            .unwrap_or(false);
        {
            let mut board = self.data.write().unwrap();
            board[lo..hi].copy_from_slice(chunk);
            if poisoned && hi > lo {
                // Corrupt the board copy only — the owner's local data
                // stays clean, so only gathered halos see the NaN.
                board[hi - 1] = f64::NAN;
            }
        }
        if faults
            .map(|p| p.fire(FaultSite::PostStall, self.salt, me, round))
            .unwrap_or(false)
        {
            // Hold the readiness flag back: neighbours completing this
            // round see the stall and exercise the retry path.
            std::thread::sleep(STALL);
        }
        {
            let mut st = self.flags.state.lock().unwrap();
            st.published[me] = round;
            self.flags.cvar.notify_all();
        }
        if faults
            .map(|p| p.fire(FaultSite::PublishDuplicate, self.salt, me, round))
            .unwrap_or(false)
        {
            // A redundant second publish of the identical payload (poison
            // included) plus a spurious wakeup — the protocol must absorb
            // the duplicate without corrupting the round.
            let mut board = self.data.write().unwrap();
            board[lo..hi].copy_from_slice(chunk);
            if poisoned && hi > lo {
                board[hi - 1] = f64::NAN;
            }
            drop(board);
            self.flags.cvar.notify_all();
        }
    }

    /// Completes the round this rank posted: waits for the readiness flags
    /// of the plan's source ranks only, then copies the plan's runs into
    /// `out` (in plan order — the ghost segment of an extended vector).
    ///
    /// # Panics
    /// Panics if `out.len() != plan.words()` or this rank has not posted
    /// the round it is completing.
    pub fn complete_into(&self, comm: &dyn Comm, plan: &GatherPlan, out: &mut [f64]) {
        self.complete_into_traced(comm, plan, out, None);
    }

    /// [`VectorBoard::complete_into`] wrapped in an
    /// [`ExchangeWait`](Phase) span when a trace track is given — the span
    /// covers both the wait on neighbour readiness and the gather copy.
    pub fn complete_into_traced(
        &self,
        comm: &dyn Comm,
        plan: &GatherPlan,
        out: &mut [f64],
        track: Option<&Track>,
    ) {
        let _span = spcg_obs::span(track, Phase::ExchangeWait);
        assert_eq!(out.len(), plan.total, "complete_into: out length mismatch");
        let me = comm.rank();
        let round = self.begin_complete(comm, plan.src_ranks.iter().copied(), track);
        plan.gather(&self.data.read().unwrap(), out);
        self.end_complete(me, round);
    }

    /// Completes the round with a copy of the **full** board — the
    /// all-neighbour variant used by the replicated (non-pointwise
    /// preconditioner) fallback paths, which need the assembled vector.
    ///
    /// # Panics
    /// Panics if this rank has not posted the round it is completing.
    pub fn complete_snapshot(&self, comm: &dyn Comm) -> Vec<f64> {
        self.complete_snapshot_traced(comm, None)
    }

    /// [`VectorBoard::complete_snapshot`] wrapped in an
    /// [`ExchangeWait`](Phase) span when a trace track is given.
    pub fn complete_snapshot_traced(&self, comm: &dyn Comm, track: Option<&Track>) -> Vec<f64> {
        let _span = spcg_obs::span(track, Phase::ExchangeWait);
        let me = comm.rank();
        let round = self.begin_complete(comm, 0..comm.nranks(), track);
        let full = self.data.read().unwrap().clone();
        self.end_complete(me, round);
        full
    }

    /// Waits until every rank in `sources` has published this rank's
    /// current round, returning the round number.
    fn begin_complete(
        &self,
        comm: &dyn Comm,
        sources: impl Iterator<Item = usize> + Clone,
        track: Option<&Track>,
    ) -> u64 {
        let me = comm.rank();
        let round = {
            let st = self.flags.state.lock().unwrap();
            let round = st.published[me];
            assert_eq!(
                st.consumed[me] + 1,
                round,
                "complete: rank {me} has not posted this round"
            );
            round
        };
        if self
            .injector(comm)
            .map(|p| p.fire(FaultSite::CompleteStall, self.salt, me, round))
            .unwrap_or(false)
        {
            // Consumer-side stall: this rank is late to read, which holds
            // every neighbour's *next* post back.
            std::thread::sleep(STALL);
        }
        let st = self.flags.state.lock().unwrap();
        let st = self.wait_while(
            st,
            |st| !sources.clone().all(|src| st.published[src] >= round),
            track,
            "complete",
            me,
        );
        drop(st);
        round
    }

    /// The board's fault plan, when it is active and the run actually has
    /// neighbours — single-rank boards never inject (there is nothing
    /// distributed to fail), preserving ranks=1-versus-serial parity.
    fn injector(&self, comm: &dyn Comm) -> Option<&FaultPlan> {
        self.faults
            .as_ref()
            .filter(|p| p.active() && comm.nranks() > 1)
    }

    /// Timeout/retry wait loop shared by the post and completion sides:
    /// waits in slices while `pending` holds, unwinds when the board's
    /// [`Abort`] is raised, and panics with flag-state diagnostics once
    /// [`WAIT_BUDGET`] is spent — bounded waiting instead of a silent wedge.
    ///
    /// With a fault plan attached, every expired [`ARMED_WAIT_SLICE`]
    /// counts as a retry (recorded as a [`Retry`](Phase) span) — injected
    /// stalls outlast several slices, so the retry path visibly engages.
    /// Without one, the slice is adaptive: it starts near a spin
    /// ([`CLEAN_WAIT_MIN`]) and doubles per expiry up to
    /// [`CLEAN_WAIT_MAX`], and a retry is counted only each time the
    /// *cumulative* wait crosses a [`CLEAN_WAIT_MAX`] mark — so healthy
    /// runs stay retry-silent while waking at microsecond latency.
    fn wait_while<'a>(
        &self,
        mut st: MutexGuard<'a, FlagState>,
        pending: impl Fn(&FlagState) -> bool,
        track: Option<&Track>,
        what: &str,
        me: usize,
    ) -> MutexGuard<'a, FlagState> {
        let armed = self.faults.is_some();
        let mut slice = if armed {
            ARMED_WAIT_SLICE
        } else {
            CLEAN_WAIT_MIN
        };
        let mut waited = Duration::ZERO;
        let mut retry_mark = CLEAN_WAIT_MAX;
        while pending(&st) {
            if self.abort.raised() {
                drop(st);
                self.abort.unwind();
            }
            let (next, timeout) = self.flags.cvar.wait_timeout(st, slice).unwrap();
            st = next;
            if timeout.timed_out() && pending(&st) {
                waited += slice;
                if armed {
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    let _retry = spcg_obs::span(track, Phase::Retry);
                } else {
                    slice = (slice * 2).min(CLEAN_WAIT_MAX);
                    while waited >= retry_mark {
                        self.retries.fetch_add(1, Ordering::Relaxed);
                        let _retry = spcg_obs::span(track, Phase::Retry);
                        retry_mark += CLEAN_WAIT_MAX;
                    }
                }
                assert!(
                    waited < WAIT_BUDGET,
                    "{what}: rank {me} wedged after {waited:?} \
                     (published {:?}, consumed {:?})",
                    st.published,
                    st.consumed,
                );
            }
        }
        st
    }

    /// Marks this rank's round consumed, releasing the next `post`.
    fn end_complete(&self, me: usize, round: u64) {
        let mut st = self.flags.state.lock().unwrap();
        st.consumed[me] = round;
        self.flags.cvar.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommGroup;

    #[test]
    fn post_and_complete_snapshot_roundtrip() {
        let g = CommGroup::new(3);
        let board = VectorBoard::new(vec![0, 2, 4, 6]);
        let handles: Vec<_> = (0..3)
            .map(|r| {
                let c = g.rank_comm(r);
                let b = board.handle();
                std::thread::spawn(move || {
                    let chunk = vec![r as f64; 2];
                    b.post(&c, &chunk);
                    b.complete_snapshot(&c)
                })
            })
            .collect();
        for h in handles {
            let snap = h.join().unwrap();
            assert_eq!(snap, vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0]);
        }
    }

    #[test]
    fn plan_compresses_contiguous_indices_into_runs() {
        let board = VectorBoard::new(vec![0, 4, 8, 12]);
        // BFS-distance-grouped ghosts of a middle rank: two one-sided
        // neighbours, then the next layer out.
        let plan = board.plan(&[3, 8, 2, 9]);
        assert_eq!(plan.words(), 4);
        assert_eq!(plan.runs().count(), 4); // 3 | 8 | 2 | 9 (order preserved)
        assert_eq!(plan.src_ranks(), &[0, 2]);
        // A sorted contiguous block compresses maximally and never crosses
        // the rank boundary at 8.
        let plan = board.plan(&[5, 6, 7, 8, 9]);
        assert_eq!(plan.runs().collect::<Vec<_>>(), vec![(5, 3), (8, 2)]);
        assert_eq!(plan.src_ranks(), &[1, 2]);
        assert!(!plan.is_empty());
        assert!(board.plan(&[]).is_empty());
    }

    /// What a proc worker sends for its plan rebuilds the plan; a snapshot is
    /// one run over every rank.
    #[test]
    fn from_runs_rebuilds_a_plan_and_a_snapshot() {
        let offsets = [0, 4, 8, 12];
        let built = GatherPlan::build(&offsets, &[5, 6, 7, 8, 9, 2]);
        let rebuilt = GatherPlan::from_runs(&offsets, built.runs()).unwrap();
        assert_eq!(rebuilt.runs().collect::<Vec<_>>(), [(5, 3), (8, 2), (2, 1)]);
        assert_eq!(rebuilt.words(), built.words());
        assert_eq!(rebuilt.src_ranks(), built.src_ranks());
        let snapshot = GatherPlan::from_runs(&offsets, [(0, 12)].into_iter()).unwrap();
        assert_eq!(
            (snapshot.words(), snapshot.src_ranks()),
            (12, &[0, 1, 2][..])
        );
        // Empty requests and empty runs gather nothing and wait for nobody.
        for runs in [&[][..], &[(12, 0)], &[(3, 0)]] {
            let plan = GatherPlan::from_runs(&offsets, runs.iter().copied()).unwrap();
            assert!(plan.is_empty() && plan.src_ranks().is_empty(), "{runs:?}");
        }
    }

    #[test]
    fn from_runs_rejects_what_leaves_the_board() {
        for bad in [
            &[(10, 1)][..],     // starts past the end
            &[(8, 3)],          // overlaps the end
            &[(usize::MAX, 2)], // start + len overflows
            &[(0, 10), (3, 1)], // more than one board of words
        ] {
            let plan = GatherPlan::from_runs(&[0, 5, 10], bad.iter().copied());
            assert!(plan.is_err(), "{bad:?}");
        }
    }

    #[test]
    fn complete_into_gathers_plan_order() {
        let g = CommGroup::new(2);
        let board = VectorBoard::new(vec![0, 3, 6]);
        let handles: Vec<_> = (0..2)
            .map(|r| {
                let c = g.rank_comm(r);
                let b = board.handle();
                std::thread::spawn(move || {
                    let chunk: Vec<f64> = (0..3).map(|i| (r * 3 + i) as f64 * 10.0).collect();
                    // Each rank pulls the other rank's boundary entry.
                    let plan = b.plan(if r == 0 { &[3] } else { &[2] });
                    b.post(&c, &chunk);
                    let mut halo = [0.0];
                    b.complete_into(&c, &plan, &mut halo);
                    halo[0]
                })
            })
            .collect();
        let got: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(got, vec![30.0, 20.0]);
    }

    /// The epoch flags must keep a fast rank from overwriting its chunk
    /// while a slow rank still reads the previous round, for many rounds.
    #[test]
    fn rounds_are_isolated_across_ranks() {
        let g = CommGroup::new(3);
        let board = VectorBoard::new(vec![0, 2, 4, 6]);
        let handles: Vec<_> = (0..3)
            .map(|r| {
                let c = g.rank_comm(r);
                let b = board.handle();
                std::thread::spawn(move || {
                    // Every rank gathers both remote chunks; plan reuse
                    // across rounds is the satellite's allocation fix.
                    let ghosts: Vec<usize> = (0..6).filter(|i| i / 2 != r).collect();
                    let plan = b.plan(&ghosts);
                    let mut out = vec![0.0; 4];
                    for round in 0..100 {
                        let val = (round * 3 + r) as f64;
                        b.post(&c, &[val, val]);
                        // Rank-dependent delay to shake out races.
                        if (round + r) % 3 == 0 {
                            std::thread::yield_now();
                        }
                        b.complete_into(&c, &plan, &mut out);
                        let others: Vec<usize> = (0..3).filter(|&q| q != r).collect();
                        let expect: Vec<f64> = others
                            .iter()
                            .flat_map(|&q| {
                                let v = (round * 3 + q) as f64;
                                [v, v]
                            })
                            .collect();
                        assert_eq!(out, expect, "rank {r} round {round}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Overlapped schedule: one rank computes "interior work" between post
    /// and complete while the others lag; the data read at completion must
    /// still be the current round's.
    #[test]
    fn overlap_window_reads_current_round() {
        let g = CommGroup::new(2);
        let board = VectorBoard::new(vec![0, 1, 2]);
        let handles: Vec<_> = (0..2)
            .map(|r| {
                let c = g.rank_comm(r);
                let b = board.handle();
                std::thread::spawn(move || {
                    let plan = b.plan(&[1 - r]);
                    let mut ghost = [0.0];
                    let mut acc = 0.0;
                    for round in 0..200 {
                        b.post(&c, &[(round * 2 + r) as f64]);
                        // Interior compute stand-in of rank-skewed length.
                        acc += (0..(r + 1) * 40).map(|i| i as f64).sum::<f64>();
                        b.complete_into(&c, &plan, &mut ghost);
                        assert_eq!(ghost[0], (round * 2 + (1 - r)) as f64);
                    }
                    acc
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "offsets must be monotone")]
    fn rejects_bad_offsets() {
        VectorBoard::new(vec![0, 5, 3]);
    }

    /// A board with stall-only faults at rate 1 must still deliver every
    /// round's data exactly — stalls move waits around, never values.
    #[test]
    fn stall_faults_preserve_exchange_data() {
        let g = CommGroup::new(2);
        let plan =
            FaultPlan::new(7, 1.0).with_sites(&[FaultSite::PostStall, FaultSite::CompleteStall]);
        let board = VectorBoard::new(vec![0, 2, 4]).with_faults(Some(plan.clone()), 0);
        let handles: Vec<_> = (0..2)
            .map(|r| {
                let c = g.rank_comm(r);
                let b = board.handle();
                std::thread::spawn(move || {
                    let gather = b.plan(if r == 0 { &[2, 3] } else { &[0, 1] });
                    let mut halo = vec![0.0; 2];
                    for round in 0..8 {
                        let v = (round * 2 + r) as f64;
                        b.post(&c, &[v, v]);
                        b.complete_into(&c, &gather, &mut halo);
                        let other = (round * 2 + (1 - r)) as f64;
                        assert_eq!(halo, vec![other, other], "rank {r} round {round}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(plan.counts().site(FaultSite::PostStall) > 0);
        assert!(plan.counts().site(FaultSite::CompleteStall) > 0);
        assert_eq!(plan.counts().site(FaultSite::PoisonHalo), 0);
    }

    /// A rank that posts late is absorbed by the timeout/retry protocol:
    /// the waiting rank spins expired slices (visible via `retries()`)
    /// and still gathers the correct data.
    #[test]
    fn late_post_is_absorbed_with_retries() {
        let g = CommGroup::new(2);
        // An inactive plan still arms the short wait slice.
        let plan = FaultPlan::new(1, 0.0);
        let board = VectorBoard::new(vec![0, 1, 2]).with_faults(Some(plan), 0);
        let handles: Vec<_> = (0..2)
            .map(|r| {
                let c = g.rank_comm(r);
                let b = board.handle();
                std::thread::spawn(move || {
                    if r == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(30));
                    }
                    let gather = b.plan(&[1 - r]);
                    let mut halo = [0.0];
                    b.post(&c, &[r as f64 + 10.0]);
                    b.complete_into(&c, &gather, &mut halo);
                    assert_eq!(halo[0], (1 - r) as f64 + 10.0);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(board.retries() > 0, "the waiting rank should have retried");
    }

    /// Poisoned halos corrupt only the board copy: the gathering side
    /// sees NaN, the owner's local chunk stays clean.
    #[test]
    fn poison_halo_corrupts_gathered_copy_only() {
        let g = CommGroup::new(2);
        let plan = FaultPlan::new(3, 1.0).with_sites(&[FaultSite::PoisonHalo]);
        let board = VectorBoard::new(vec![0, 2, 4]).with_faults(Some(plan.clone()), 0);
        let handles: Vec<_> = (0..2)
            .map(|r| {
                let c = g.rank_comm(r);
                let b = board.handle();
                std::thread::spawn(move || {
                    // Each rank gathers the other's *last* entry — the
                    // poisoned position.
                    let gather = b.plan(if r == 0 { &[3] } else { &[1] });
                    let chunk = [r as f64, r as f64 + 0.5];
                    let mut halo = [0.0];
                    b.post(&c, &chunk);
                    b.complete_into(&c, &gather, &mut halo);
                    assert!(halo[0].is_nan(), "rank {r} should gather poison");
                    // The local chunk the rank posted is untouched.
                    assert_eq!(chunk, [r as f64, r as f64 + 0.5]);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(plan.counts().site(FaultSite::PoisonHalo), 2);
    }

    /// Duplicate publishes are idempotent: rounds keep their isolation
    /// and values under rate-1 duplication.
    #[test]
    fn duplicate_publish_is_idempotent() {
        let g = CommGroup::new(2);
        let plan = FaultPlan::new(11, 1.0).with_sites(&[FaultSite::PublishDuplicate]);
        let board = VectorBoard::new(vec![0, 1, 2]).with_faults(Some(plan.clone()), 0);
        let handles: Vec<_> = (0..2)
            .map(|r| {
                let c = g.rank_comm(r);
                let b = board.handle();
                std::thread::spawn(move || {
                    let gather = b.plan(&[1 - r]);
                    let mut halo = [0.0];
                    for round in 0..12 {
                        b.post(&c, &[(round * 2 + r) as f64]);
                        b.complete_into(&c, &gather, &mut halo);
                        assert_eq!(halo[0], (round * 2 + (1 - r)) as f64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(plan.counts().site(FaultSite::PublishDuplicate) > 0);
    }

    /// Single-rank boards never inject, whatever the plan says.
    #[test]
    fn single_rank_boards_do_not_inject() {
        let g = CommGroup::new(1);
        let c = g.rank_comm(0);
        let plan = FaultPlan::new(5, 1.0);
        let board = VectorBoard::new(vec![0, 3]).with_faults(Some(plan.clone()), 0);
        board.post(&c, &[1.0, 2.0, 3.0]);
        let snap = board.complete_snapshot(&c);
        assert_eq!(snap, vec![1.0, 2.0, 3.0]);
        assert_eq!(plan.counts().total(), 0);
    }

    #[test]
    #[should_panic(expected = "has not posted this round")]
    fn complete_without_post_is_rejected() {
        let g = CommGroup::new(1);
        let c = g.rank_comm(0);
        let board = VectorBoard::new(vec![0, 2]);
        let plan = board.plan(&[]);
        board.complete_into(&c, &plan, &mut []);
    }
}
