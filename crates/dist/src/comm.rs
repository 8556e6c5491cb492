//! Shared-memory communicator with MPI-style collectives.
//!
//! [`CommGroup`] owns the shared state for `nranks` participants;
//! [`ThreadComm`] is the per-rank handle passed into each rank's closure by
//! [`crate::executor::run_ranks`]. The only collective the s-step solvers
//! need is `allreduce_sum` (plus barriers), mirroring the paper's claim that
//! each solver performs exactly one global reduction per s steps.
//!
//! Determinism: contributions are deposited into per-rank slots and summed
//! in rank order by every participant, so results are bit-identical across
//! runs regardless of thread scheduling.
//!
//! Cost: a collective is **one** barrier. Waiters first spin on the
//! barrier's generation word (the release then costs a cache-line transfer,
//! not a futex wake) and park on a condvar only when the release is late;
//! the deposit slots come in two banks picked by the parity of the barrier
//! generation, which is what makes a second, exit barrier unnecessary (see
//! [`ThreadComm::allreduce_sum`]).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The world-wide abort of one group of ranks: raised when a rank is lost
/// (its thread panicked, its worker process died, its frames stopped making
/// sense), observed by every wait loop of the group's barrier and of the
/// [`crate::VectorBoard`]s attached to it.
///
/// A rank that finds the abort raised while it waits for its peers will
/// never be released by them, so it *unwinds*: quietly, with an [`Aborted`]
/// payload instead of a panic message, and with no lock held. Whoever joins
/// the rank threads ([`crate::executor::run_ranks_in`], the proc hub) tells
/// that payload from a real panic and reports only the rank that failed.
///
/// Ordering: `raise` stores the flag and *then* takes each registered
/// waiter lock before notifying its condvar; a waiter tests the flag with
/// that lock held and keeps it until it sleeps. So either the waiter sees
/// the flag, or it is asleep by the time the raiser gets the lock and the
/// notification reaches it — no wait loop can sleep through an abort.
#[derive(Clone, Default)]
pub struct Abort {
    inner: Arc<AbortInner>,
}

#[derive(Default)]
struct AbortInner {
    raised: AtomicBool,
    /// What `raise` runs to get blocked ranks to look at the flag.
    wakers: Mutex<Vec<Waker>>,
}

type Waker = Box<dyn Fn() + Send + Sync>;

/// Panic payload of a rank unwound by a raised [`Abort`] — a consequence of
/// some other rank's failure, never a failure of its own.
pub struct Aborted;

impl Abort {
    /// Raises the abort and wakes every registered waiter. Idempotent, and
    /// safe to call while unwinding.
    pub fn raise(&self) {
        if self.inner.raised.swap(true, Ordering::SeqCst) {
            return;
        }
        // A poisoned list is still the list: wakers are only ever pushed.
        let wakers = self.inner.wakers.lock().unwrap_or_else(|e| e.into_inner());
        for wake in wakers.iter() {
            wake();
        }
    }

    /// True once the abort has been raised.
    pub fn raised(&self) -> bool {
        self.inner.raised.load(Ordering::SeqCst)
    }

    /// Registers what `raise` must do to unblock one kind of waiter (notify
    /// a condvar, shut a socket down). Register before the ranks start.
    pub fn on_raise(&self, wake: impl Fn() + Send + Sync + 'static) {
        let mut wakers = self.inner.wakers.lock().unwrap_or_else(|e| e.into_inner());
        wakers.push(Box::new(wake));
    }

    /// Leaves the calling rank's wait for good. Call with no lock held.
    pub(crate) fn unwind(&self) -> ! {
        std::panic::resume_unwind(Box::new(Aborted))
    }
}

/// How long a barrier waiter polls the generation word before it parks. A
/// park/unpark round trip through the futex costs 20–25 µs on the reference
/// runner, so the bound sits a few round trips up: ranks that arrive within
/// a few kernel times of each other never sleep, while a rank that is late
/// by a scheduler tick, an injected stall or a dead peer costs its waiters
/// this much CPU and no more.
const SPIN_FOR: Duration = Duration::from_micros(100);

/// Polls separated by a `spin_loop` hint only, before the waiter starts to
/// `yield_now` between polls. The hint-only phase (microseconds) is where a
/// release between ranks on cores of their own lands. The yielding phase is
/// for ranks the scheduler has put on *one* core — it does, after a wake-up —
/// where a waiter that only spun would keep the core from the very rank it
/// waits for until `SPIN_FOR` ran out (measured: 103 µs per collective
/// against 2.5 µs with the yield); a waiter alone on its core pays one cheap
/// syscall per poll.
const HINT_ONLY_POLLS: u32 = 128;

/// Watchdog slice of a parked waiter: long enough that a healthy barrier
/// (even under injected exchange stalls, which sleep milliseconds) never
/// trips it, short enough to turn a genuine deadlock — a dead rank or
/// diverged SPMD control flow — into a diagnosable panic instead of a
/// silent wedge. Unit tests shorten it so the stuck-barrier test is quick.
const WATCHDOG_SLICE: Duration = if cfg!(test) {
    Duration::from_millis(20)
} else {
    Duration::from_secs(5)
};
const WATCHDOG_SLICES: u32 = 6;

/// A reusable generation barrier: an arrival counter and a generation word
/// on atomics, with a mutex + condvar that only late waiters touch.
///
/// Memory ordering (every access is `SeqCst`; only the last point needs it):
///
/// * *Arrivals → release.* Arrivals are read-modify-writes of `arrived`, so
///   the last arriver synchronises with every earlier one. It then stores
///   `generation`, and a waiter leaves only after loading the new value:
///   that pair is the release/acquire edge that makes everything any rank
///   wrote before arriving visible to every rank after leaving, which
///   `allreduce_sum` relies on for its deposit slots.
/// * *Counter reset before the generation store.* A rank can start the next
///   round only after observing the new generation, so its next increment
///   is ordered after the reset. Resetting afterwards would let a fast
///   rank's arrival for round `g + 1` be wiped.
/// * *No lost wake-up.* A waiter that gives up polling increments `parked`
///   and re-reads `generation` under the lock before it sleeps; the releaser
///   stores `generation` and then reads `parked`. One of the two must see
///   the other (store buffering), so either the waiter never sleeps, or the
///   releaser takes the lock — which it can get only once the waiter is
///   inside `wait_timeout` — and notifies. When nobody parked the releaser
///   skips the lock and the futex wake.
struct Barrier {
    total: usize,
    /// Whether waiters may spin at all (see [`CommGroup::new`]).
    spin: bool,
    arrived: AtomicUsize,
    generation: AtomicU64,
    /// Waiters that have stopped spinning and are (about to be) asleep.
    parked: AtomicUsize,
    /// Where waiters park; shared with the abort's waker.
    park: Arc<Park>,
    /// The group's abort. A waiter looks at it once it has polled past the
    /// hint-only phase, so a collective between ranks that arrive together
    /// never reads it.
    abort: Abort,
}

#[derive(Default)]
struct Park {
    lock: Mutex<()>,
    cvar: Condvar,
}

impl Barrier {
    fn new(total: usize, spin: bool) -> Self {
        let park = Arc::new(Park::default());
        let abort = Abort::default();
        let waiters = Arc::clone(&park);
        abort.on_raise(move || {
            // Taken (poisoned or not) so that the notification comes after
            // the test of the flag a waiter makes with this lock held.
            drop(waiters.lock.lock());
            waiters.cvar.notify_all();
        });
        Barrier {
            total,
            spin,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            parked: AtomicUsize::new(0),
            park,
            abort,
        }
    }

    /// The generation the next `wait` will complete. Stable between two
    /// waits of the calling rank: nobody can advance it until this rank
    /// arrives too.
    fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    fn wait(&self) {
        let gen = self.generation();
        if self.arrived.fetch_add(1, Ordering::SeqCst) + 1 == self.total {
            self.arrived.store(0, Ordering::SeqCst);
            self.generation.store(gen.wrapping_add(1), Ordering::SeqCst);
            if self.parked.load(Ordering::SeqCst) > 0 {
                drop(self.park.lock.lock().expect("barrier lock poisoned"));
                self.park.cvar.notify_all();
            }
            return;
        }
        if self.spin && self.spin_until_released(gen) {
            return;
        }
        self.park_until_released(gen);
    }

    /// Polls the generation word for at most [`SPIN_FOR`] (less when the
    /// group aborts); true once the barrier has been released.
    fn spin_until_released(&self, gen: u64) -> bool {
        for _ in 0..HINT_ONLY_POLLS {
            if self.generation() != gen {
                return true;
            }
            std::hint::spin_loop();
        }
        let start = Instant::now();
        while start.elapsed() < SPIN_FOR && !self.abort.raised() {
            std::thread::yield_now();
            if self.generation() != gen {
                return true;
            }
        }
        false
    }

    /// Sleeps on the condvar until the barrier is released, in watchdog
    /// slices; unwinds if the group aborts first.
    fn park_until_released(&self, gen: u64) {
        self.parked.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.park.lock.lock().expect("barrier lock poisoned");
        let mut slices = 0;
        while self.generation() == gen && !self.abort.raised() {
            let (next, timeout) = self
                .park
                .cvar
                .wait_timeout(guard, WATCHDOG_SLICE)
                .expect("barrier lock poisoned");
            guard = next;
            if timeout.timed_out() && self.generation() == gen {
                slices += 1;
                assert!(
                    slices < WATCHDOG_SLICES,
                    "barrier stuck: {}/{} ranks arrived after {:?}",
                    self.arrived.load(Ordering::SeqCst),
                    self.total,
                    WATCHDOG_SLICE * slices,
                );
            }
        }
        drop(guard);
        self.parked.fetch_sub(1, Ordering::SeqCst);
        if self.generation() == gen {
            self.abort.unwind();
        }
    }
}

/// Shared state of a communicator over `nranks` participants.
pub struct CommGroup {
    nranks: usize,
    barrier: Barrier,
    /// Two banks of one deposit slot per rank; an allreduce uses the bank
    /// named by the parity of the barrier generation it completes.
    banks: [Vec<Mutex<Vec<f64>>>; 2],
    /// Allreduces completed, counted by rank 0 ([`CommGroup::allreduces`]).
    allreduces: AtomicU64,
}

impl CommGroup {
    /// Creates the shared state for `nranks` ranks.
    ///
    /// Barrier waiters spin before they park only when every rank can have
    /// a core of its own, i.e. `nranks ≤ available_parallelism()` (read
    /// once, here; it honours the process's CPU affinity mask). With more
    /// ranks than cores a spinning waiter would burn the time slice the
    /// rank it waits for needs, so waiters park at once.
    ///
    /// # Panics
    /// Panics if `nranks == 0`.
    pub fn new(nranks: usize) -> Arc<Self> {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        Self::with_spin(nranks, nranks <= cores)
    }

    fn with_spin(nranks: usize, spin: bool) -> Arc<Self> {
        assert!(nranks > 0, "CommGroup: nranks must be positive");
        let bank = || (0..nranks).map(|_| Mutex::new(Vec::new())).collect();
        Arc::new(CommGroup {
            nranks,
            barrier: Barrier::new(nranks, spin),
            banks: [bank(), bank()],
            allreduces: AtomicU64::new(0),
        })
    }

    /// Allreduces the group has completed (read it once the ranks joined).
    pub fn allreduces(&self) -> u64 {
        self.allreduces.load(Ordering::Relaxed)
    }

    /// The group's [`Abort`]: raise it when a rank is lost, attach it to the
    /// group's boards ([`crate::VectorBoard::with_abort`]).
    pub fn abort(&self) -> &Abort {
        &self.barrier.abort
    }

    /// Number of ranks in the group.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// Hands out the per-rank communicator handle.
    pub fn rank_comm(self: &Arc<Self>, rank: usize) -> ThreadComm {
        assert!(rank < self.nranks, "rank_comm: rank out of range");
        ThreadComm {
            group: Arc::clone(self),
            rank,
        }
    }
}

/// Per-rank handle to a [`CommGroup`].
#[derive(Clone)]
pub struct ThreadComm {
    group: Arc<CommGroup>,
    rank: usize,
}

impl ThreadComm {
    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of participants.
    pub fn nranks(&self) -> usize {
        self.group.nranks
    }

    /// Blocks until every rank has arrived.
    pub fn barrier(&self) {
        self.group.barrier.wait();
    }

    /// Global sum-reduction of `buf` across all ranks, in place. Every rank
    /// receives the same result; the summation order is fixed (zero, then
    /// rank 0, 1, …) so the result is deterministic.
    ///
    /// One barrier per call: each rank deposits into its slot of the bank
    /// named by the parity of the barrier generation `g` it is about to
    /// complete, waits, and sums that bank. No exit barrier is needed,
    /// because the next collective deposits into the *other* bank, and bank
    /// `g mod 2` is written again only for generation `g + 2` — which a
    /// rank can reach only through barrier `g + 1`, and that one completes
    /// only once every rank has arrived at it, i.e. has finished reading
    /// bank `g mod 2`. Plain [`ThreadComm::barrier`] calls in between
    /// advance the generation too and only lengthen that gap.
    ///
    /// # Panics
    /// Panics if ranks pass buffers of different lengths: after the
    /// barrier each rank checks every slot's length against its own.
    pub fn allreduce_sum(&self, buf: &mut [f64]) {
        if let Err(e) = self.try_allreduce_sum(buf) {
            panic!("allreduce_sum: {e}");
        }
    }

    /// [`ThreadComm::allreduce_sum`] for a caller that does not vouch for
    /// the buffer lengths (the proc hub reduces what worker frames carry):
    /// a mismatch is an `Err` on every rank that sees one, after the
    /// barrier, with `buf` left in an unspecified state.
    pub fn try_allreduce_sum(&self, buf: &mut [f64]) -> Result<(), String> {
        let group = &*self.group;
        let bank = &group.banks[(group.barrier.generation() & 1) as usize];
        {
            let mut slot = bank[self.rank].lock().expect("allreduce slot poisoned");
            slot.clear();
            slot.extend_from_slice(buf);
        }
        group.barrier.wait();
        buf.fill(0.0);
        for slot in bank {
            let slot = slot.lock().expect("allreduce slot poisoned");
            if slot.len() != buf.len() {
                return Err(format!(
                    "length mismatch across ranks ({} vs {} words)",
                    buf.len(),
                    slot.len()
                ));
            }
            for (b, s) in buf.iter_mut().zip(slot.iter()) {
                *b += *s;
            }
        }
        if self.rank == 0 {
            group.allreduces.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Convenience: allreduce a single scalar.
    pub fn allreduce_scalar(&self, v: f64) -> f64 {
        let mut buf = [v];
        self.allreduce_sum(&mut buf);
        buf[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_allreduce_is_identity() {
        let g = CommGroup::new(1);
        let c = g.rank_comm(0);
        let mut buf = [1.5, -2.0];
        c.allreduce_sum(&mut buf);
        assert_eq!(buf, [1.5, -2.0]);
    }

    #[test]
    fn multi_rank_allreduce_sums() {
        let g = CommGroup::new(4);
        let handles: Vec<_> = (0..4)
            .map(|r| {
                let c = g.rank_comm(r);
                std::thread::spawn(move || {
                    let mut buf = vec![r as f64, 1.0];
                    c.allreduce_sum(&mut buf);
                    buf
                })
            })
            .collect();
        for h in handles {
            let out = h.join().unwrap();
            assert_eq!(out, vec![6.0, 4.0]);
        }
    }

    #[test]
    fn allreduce_is_reusable_and_deterministic() {
        let g = CommGroup::new(3);
        let handles: Vec<_> = (0..3)
            .map(|r| {
                let c = g.rank_comm(r);
                std::thread::spawn(move || {
                    let mut results = Vec::new();
                    for round in 0..50 {
                        let x = (r as f64 + 1.0) * 0.1 + round as f64;
                        results.push(c.allreduce_scalar(x));
                    }
                    results
                })
            })
            .collect();
        let all: Vec<Vec<f64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Every rank sees identical values in every round.
        assert_eq!(all[0], all[1]);
        assert_eq!(all[1], all[2]);
        assert!((all[0][0] - 0.6).abs() < 1e-15);
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let g = CommGroup::new(8);
        let counter = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|r| {
                let c = g.rank_comm(r);
                let k = Arc::clone(&counter);
                std::thread::spawn(move || {
                    k.fetch_add(1, Ordering::SeqCst);
                    c.barrier();
                    // After the barrier every increment must be visible.
                    assert_eq!(k.load(Ordering::SeqCst), 8);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Deterministic contribution of `rank` to word `i` of collective `gen`:
    /// mixed magnitudes and signs, so the rank-order sum differs in its low
    /// bits from any other order.
    fn contribution(rank: usize, gen: usize, i: usize) -> f64 {
        let h = (rank as u64 + 1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((gen as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add((i as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
        let mantissa = (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        mantissa * [1e-8, 1.0, 1e8][(h % 3) as usize]
    }

    /// What every rank must read back: zero, then rank 0, 1, … added in.
    fn rank_order_sum(nranks: usize, gen: usize, i: usize) -> f64 {
        (0..nranks).fold(0.0, |acc, r| acc + contribution(r, gen, i))
    }

    /// Runs `gens` collectives on every rank of `group`, cycling through
    /// barrier / scalar / vector calls, each rank dawdling on its own
    /// schedule, and checks every word on every rank bit for bit.
    fn stress(group: &Arc<CommGroup>, gens: usize) {
        const LENS: [usize; 3] = [1, 121, 441];
        let nranks = group.nranks;
        std::thread::scope(|scope| {
            for rank in 0..nranks {
                let c = group.rank_comm(rank);
                scope.spawn(move || {
                    let mut buf = Vec::new();
                    for gen in 0..gens {
                        // Per-rank jitter: now and then give the core away
                        // or burn a little, out of step with the others.
                        match (gen * 7 + rank * 13) % 11 {
                            0 => std::thread::yield_now(),
                            1 => (0..200 * (rank + 1)).for_each(|_| std::hint::spin_loop()),
                            _ => {}
                        }
                        match gen % 5 {
                            0 => c.barrier(),
                            1 => {
                                let got = c.allreduce_scalar(contribution(rank, gen, 0));
                                let want = rank_order_sum(nranks, gen, 0);
                                assert_eq!(got.to_bits(), want.to_bits(), "rank {rank} gen {gen}");
                            }
                            k => {
                                let len = LENS[k - 2];
                                buf.clear();
                                buf.extend((0..len).map(|i| contribution(rank, gen, i)));
                                c.allreduce_sum(&mut buf);
                                for (i, got) in buf.iter().enumerate() {
                                    let want = rank_order_sum(nranks, gen, i);
                                    assert_eq!(
                                        got.to_bits(),
                                        want.to_bits(),
                                        "rank {rank} gen {gen} word {i}"
                                    );
                                }
                            }
                        }
                    }
                });
            }
        });
    }

    /// 10 000 generations per rank count as the group would be built here
    /// (8 ranks oversubscribe the reference runner, so they park at once),
    /// then the other wait policy on the same counts, so both branches run
    /// on any machine.
    #[test]
    fn interleaved_collectives_sum_in_rank_order_bit_for_bit() {
        for nranks in [1, 2, 3, 4, 8] {
            let natural = CommGroup::new(nranks);
            let spin = natural.barrier.spin;
            stress(&natural, 10_000);
            stress(&CommGroup::with_spin(nranks, !spin), 1_000);
        }
    }

    /// A rank that arrives long after its peer stopped spinning: the peer
    /// must be released through the condvar. The late rank waits until it
    /// sees the peer parked, so the park path is forced, not hoped for.
    #[test]
    fn late_rank_releases_a_parked_waiter() {
        let g = CommGroup::with_spin(2, true);
        std::thread::scope(|scope| {
            let early = g.rank_comm(0);
            scope.spawn(move || assert_eq!(early.allreduce_scalar(1.0), 3.0));
            while g.barrier.parked.load(Ordering::SeqCst) == 0 {
                std::thread::sleep(Duration::from_millis(5));
            }
            assert_eq!(g.rank_comm(1).allreduce_scalar(2.0), 3.0);
        });
        assert_eq!(g.barrier.parked.load(Ordering::SeqCst), 0);
    }

    /// A raised abort ends a wait that nobody will release — parked or still
    /// polling — with the quiet [`Aborted`] payload, and leaves the barrier's
    /// lock unpoisoned for the ranks unwound after it.
    #[test]
    fn raised_abort_unwinds_waiters_quietly() {
        for spin in [false, true] {
            let g = CommGroup::with_spin(3, spin);
            std::thread::scope(|scope| {
                let waiters: Vec<_> = (0..2)
                    .map(|r| {
                        let c = g.rank_comm(r);
                        scope.spawn(move || c.allreduce_scalar(1.0))
                    })
                    .collect();
                if !spin {
                    while g.barrier.parked.load(Ordering::SeqCst) < 2 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                g.abort().raise();
                for waiter in waiters {
                    let payload = waiter.join().expect_err("nobody released the barrier");
                    assert!(payload.is::<Aborted>(), "spin = {spin}");
                }
            });
            assert!(g.barrier.park.lock.lock().is_ok());
        }
    }

    #[test]
    #[should_panic(expected = "barrier stuck: 1/2 ranks arrived")]
    fn absent_rank_trips_the_watchdog() {
        CommGroup::new(2).rank_comm(0).barrier();
    }

    #[test]
    #[should_panic(expected = "length mismatch across ranks")]
    fn mismatched_lengths_panic() {
        let g = CommGroup::new(2);
        std::thread::scope(|scope| {
            let other = g.rank_comm(1);
            scope.spawn(move || other.allreduce_sum(&mut [1.0, 2.0]));
            g.rank_comm(0).allreduce_sum(&mut [1.0]);
        });
    }

    /// The fallible form reports the mismatch on both ranks and poisons
    /// nothing: the group is good for the next collective.
    #[test]
    fn mismatched_lengths_are_an_error_to_try_allreduce() {
        let g = CommGroup::new(2);
        std::thread::scope(|scope| {
            let other = g.rank_comm(1);
            scope.spawn(move || {
                assert!(other.try_allreduce_sum(&mut [1.0, 2.0]).is_err());
                assert_eq!(other.allreduce_scalar(1.0), 3.0);
            });
            let me = g.rank_comm(0);
            let err = me.try_allreduce_sum(&mut [1.0]).unwrap_err();
            assert!(err.contains("1 vs 2 words"), "{err}");
            assert_eq!(me.allreduce_scalar(2.0), 3.0);
        });
    }
}
