//! Process-level communication backend ([`Backend::Proc`]
//! (spcg_dist::Backend)): each rank is a `spcg-rankd` worker **process**
//! talking to a parent-side hub over Unix-domain sockets.
//!
//! The thread backend shares one address space, so a "rank failure" there
//! can only be simulated. This backend makes rank death *real*: a worker
//! process can be killed (or kill itself, see `SPCG_PROC_KILL`) mid-solve,
//! the parent detects the broken connection, respawns the world, and
//! re-solves — charging the incarnation as a restart. Everything else is
//! bitwise identical to the thread backend, because it *is* the thread
//! backend:
//!
//! * **The hub is a thread world.** For each solve (and each incarnation)
//!   the parent builds the same world `run_ranked` builds — one
//!   `CommGroup`, two `VectorBoard`s with the fault plan attached, epochs
//!   at zero — and runs one **proxy** thread per rank in it. A proxy reads
//!   its worker's frames and performs each one on the real objects, as
//!   that rank: `POST` is `VectorBoard::post`, `WANT` is `complete_into` of
//!   the runs it names, `BARRIER` and `REDUCE` are the `ThreadComm`
//!   collectives. Round sequencing, the rank-order reduction and the four
//!   exchange fault sites therefore exist once, in `spcg_dist`; nothing
//!   here keeps an epoch or adds two numbers.
//! * **Same arithmetic** — a worker holds the matrix of its last `LOAD`
//!   frame and builds the preconditioner from the `SOLVE` frame's
//!   [`PrecondSpec`], which also carries the rank's block of `b`, the
//!   [`Method`] and the caller's [`SolveOptions`] whole, and runs the same
//!   `RankExec` + resilient driver as a thread rank. Its `Comm` and
//!   `Exchange` are "send a frame, read the reply".
//! * **Same fault semantics** — the exchange sites fire in the hub's boards
//!   at the `(site, salt, rank, round)` points they fire at under threads.
//!   `PoisonReduce` corrupts a rank's *contribution*, so it stays with the
//!   rank: the worker fires it in `RankExec` from a plan rebuilt from
//!   `(seed, rate, sites)` and reports the count home.
//!
//! **Residency.** Workers outlive a solve. A process-wide slot holds at
//! most one idle world per `(spcg-rankd path, ranks)`, with the
//! [`CsrMatrix::instance_id`] of the matrix its workers hold. A solve takes
//! that world or spawns one (the spawn that also serves a respawn), sends
//! `LOAD` only for another matrix, and parks the world again only if every
//! rank shipped `RESULT`; any other end kills and reaps it, and a world
//! parked on an occupied slot is dropped. An exit hook, registered by the
//! first park, kills and reaps the idle worlds' workers before the parent
//! exits, so none outlives it, not even as a zombie. Their matrix keeps its
//! derived caches warm across solves, as a thread rank's does.
//!
//! Frames are `[tag][len][payload]` (see `spcg_dist::wire`):
//!
//! | tag | direction | payload | reply |
//! |---|---|---|---|
//! | `HELLO` | worker → hub | protocol version, rank | none |
//! | `LOAD` | hub → worker | partition, matrix | none |
//! | `SOLVE` | hub → worker | kill drill, the rank's block of `b`, preconditioner recipe, method, options | the solve's frames, then `RESULT` |
//! | `POST` | worker → hub | board, the rank's chunk | none |
//! | `WANT` | worker → hub | board, runs `(first index, words)` | `BOARD` |
//! | `BOARD` | hub → worker | the words of those runs, in order | — |
//! | `BARRIER` | worker → hub | empty | `BARRIER_OK` |
//! | `BARRIER_OK` | hub → worker | empty | — |
//! | `REDUCE` | worker → hub | the rank's contribution | `REDUCE_SUM` |
//! | `REDUCE_SUM` | hub → worker | the rank-order sum | — |
//! | `RESULT` | worker → hub | solve result, `PoisonReduce` count, trace tracks | none |
//!
//! A worker blocks on exactly one reply after `WANT`/`BARRIER`/`REDUCE`, so
//! its proxy may write replies synchronously without deadlock.
//!
//! **Losing a rank.** A proxy that reads EOF before `RESULT` (the worker
//! died), fails to parse a frame, or unwinds records why and raises the
//! world's [`Abort`](spcg_dist::Abort). That wakes every proxy blocked in a
//! collective or on a board, which unwind quietly, and shuts every socket
//! down, which ends the proxies blocked in a read — so the hub returns at
//! once, with the first cause. The cause is recorded *before* the abort is
//! raised, so the EOFs the shutdown itself produces never overwrite it. A
//! dead worker respawns the world (one line on stderr); anything malformed
//! refuses the transport, and the caller falls back to threads. Nothing a
//! worker sends can panic the parent: every worker → hub frame is decoded
//! fallibly.

use crate::engine::{RankExec, Ranking, World};
use crate::method::{decode_precond, encode_precond, Method};
use crate::options::{Problem, SolveOptions, SolveResult};
use crate::resilience::solve_resilient;
use spcg_dist::wire::{read_frame, write_frame, WireReader, WireResult, WireWriter};
use spcg_dist::{Aborted, Backend, Comm, Exchange, FaultSite, GatherPlan};
use spcg_obs::{Phase, RawTrack, Track};
use spcg_precond::{PrecondSpec, Preconditioner};
use spcg_sparse::CsrMatrix;

use std::cell::{Cell, RefCell};
use std::io::{BufReader, ErrorKind};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, PoisonError, TryLockError};
use std::time::{Duration, Instant};

/// Protocol version — bumped on any frame-layout change so a stale
/// `spcg-rankd` binary fails loudly instead of misparsing.
const PROTO: u64 = 8;

// Frame tags; the module docs have the table.
const TAG_LOAD: u8 = 1;
const TAG_HELLO: u8 = 2;
const TAG_POST: u8 = 3;
const TAG_WANT: u8 = 4;
const TAG_BARRIER: u8 = 5;
const TAG_REDUCE: u8 = 6;
const TAG_RESULT: u8 = 7;
const TAG_BOARD: u8 = 8;
const TAG_BARRIER_OK: u8 = 9;
const TAG_REDUCE_SUM: u8 = 10;
const TAG_SOLVE: u8 = 11;

/// How long a proxy waits for its worker's next frame before declaring the
/// world wedged. Generous: the in-process exchange's own wait budget is
/// 30 s.
const HUB_TIMEOUT: Duration = Duration::from_secs(120);

/// How long the parent waits for all workers to connect and say hello.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(20);

/// Sleep between two empty polls of the rendezvous listener: starts at the
/// first value and doubles up to the second. A worker connects within a
/// millisecond or so of its spawn, so a flat 2 ms poll made every world pay
/// up to 2 ms per worker before its first frame.
const ACCEPT_POLL: (Duration, Duration) = (Duration::from_micros(50), Duration::from_millis(2));

/// World respawns allowed after rank deaths before the solve is abandoned.
const MAX_INCARNATIONS: usize = 3;

// ---------------------------------------------------------------------------
// Load / solve / result payloads
// ---------------------------------------------------------------------------

/// A `LOAD` frame: the partition and the matrix every later `SOLVE` of the
/// world runs on. The same bytes go to every rank.
struct Load {
    offsets: Vec<usize>,
    a: CsrMatrix,
}

impl Load {
    fn encode(offsets: &[usize], a: &CsrMatrix) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.usizes(offsets);
        w.usize(a.nrows());
        w.usize(a.ncols());
        w.usizes(a.row_ptr());
        w.usizes(a.col_idx());
        w.f64s(a.values());
        w.into_bytes()
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Load> {
        Ok(Load {
            offsets: r.usizes()?,
            a: CsrMatrix::from_raw(r.usize()?, r.usize()?, r.usizes()?, r.usizes()?, r.f64s()?),
        })
    }
}

/// One rank's `SOLVE` frame: everything a solve on the loaded matrix needs
/// besides it. Workers never consult the environment, so `SPCG_*`
/// variables in the parent's environment cannot skew a remote solve.
struct Solve {
    /// Fault-drill directive: die just before allreduce number `n`
    /// (0-based). Shipped only to the targeted rank of incarnation 0.
    kill_at_reduce: Option<u64>,
    b: Vec<f64>,
    spec: PrecondSpec,
    method: Method,
    /// The caller's options, with the solve's active fault plan and armed
    /// resilience policy ([`Ranking`]) in place of the caller's.
    opts: SolveOptions,
}

impl Solve {
    /// The part of the frame that every rank of a solve shares — all of it
    /// but the kill drill and the block of `b` — encoded once per solve.
    fn encode_shared(
        ranking: &Ranking,
        spec: &PrecondSpec,
        method: &Method,
        opts: &SolveOptions,
    ) -> Vec<u8> {
        let mut w = WireWriter::new();
        encode_precond(spec, &mut w);
        method.encode(&mut w);
        let shipped = SolveOptions {
            faults: ranking.plan.clone(),
            resilience: ranking.resilience.clone(),
            ..opts.clone()
        };
        shipped.encode(&mut w);
        w.into_bytes()
    }

    /// One rank's frame: its kill drill and block of `b`, then the shared
    /// part.
    fn encode(kill_at_reduce: Option<u64>, b: &[f64], shared: &[u8]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.option(kill_at_reduce, WireWriter::u64);
        w.f64s(b);
        let mut frame = w.into_bytes();
        frame.extend_from_slice(shared);
        frame
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<Solve> {
        Ok(Solve {
            kill_at_reduce: r.option(WireReader::u64)?,
            b: r.f64s()?,
            spec: decode_precond(r)?,
            method: Method::decode(r)?,
            opts: SolveOptions::decode(r)?,
        })
    }
}

/// A worker's `RESULT` frame.
struct WorkerResult {
    /// The rank's solve, as the resilient driver returned it.
    res: SolveResult,
    /// `PoisonReduce` faults this worker's plan injected — the one site that
    /// fires on the worker — credited into the parent plan via
    /// `record_remote`.
    poisoned_reduces: u64,
    tracks: Vec<RawTrack>,
}

impl WorkerResult {
    fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.res.encode(&mut w);
        w.u64(self.poisoned_reduces);
        w.seq(&self.tracks, |w, track| {
            let RawTrack {
                rank,
                thread,
                events,
                dropped,
            } = track;
            w.usize(*rank);
            w.usize(*thread);
            w.seq(events, |w, &(phase, begin, t_ns)| {
                w.usize(phase);
                w.bool(begin);
                w.u64(t_ns);
            });
            w.u64(*dropped);
        });
        w.into_bytes()
    }

    fn decode(r: &mut WireReader<'_>) -> WireResult<WorkerResult> {
        Ok(WorkerResult {
            res: SolveResult::decode(r)?,
            poisoned_reduces: r.u64()?,
            tracks: r.seq(|r| {
                Ok(RawTrack {
                    rank: r.usize()?,
                    thread: r.usize()?,
                    events: r.seq(|r| {
                        let phase = r.usize()?;
                        // `Tracer::import_raw` panics on an index it does
                        // not know; refuse it here instead.
                        if Phase::from_index(phase).is_none() {
                            return Err(format!("unknown trace phase {phase}"));
                        }
                        Ok((phase, r.bool()?, r.u64()?))
                    })?,
                    dropped: r.u64()?,
                })
            })?,
        })
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// The worker's connection to the hub: buffered reads, unbuffered writes
/// (every frame is flushed), shared by the comm and both boards through
/// an `Rc` — the solve is single-threaded per rank, so `RefCell` suffices.
struct Link {
    reader: RefCell<BufReader<UnixStream>>,
    writer: RefCell<UnixStream>,
    rank: usize,
}

impl Link {
    fn send(&self, tag: u8, payload: &[u8]) {
        if write_frame(&mut *self.writer.borrow_mut(), tag, payload).is_err() {
            self.hub_is_gone();
        }
    }

    /// The hub's next frame.
    fn next(&self) -> (u8, Vec<u8>) {
        read_frame(&mut *self.reader.borrow_mut()).unwrap_or_else(|_| self.hub_is_gone())
    }

    /// Reads the reply to the request just sent: a frame that must carry
    /// `tag` — the protocol is strict request/reply — parsed by `get`.
    ///
    /// # Panics
    /// Panics on any other frame. The hub is this program; a reply that
    /// does not parse is a bug in it, and a worker that dies of it is a
    /// rank death the hub knows how to report.
    fn reply<T>(&self, tag: u8, get: impl FnOnce(&mut WireReader<'_>) -> WireResult<T>) -> T {
        let (got, payload) = self.next();
        assert_eq!(got, tag, "rankd[{}]: expected frame tag {tag}", self.rank);
        self.parse(tag, &payload, get)
    }

    /// Parses a hub frame, panicking (see [`Link::reply`]) if it does not.
    fn parse<T, G>(&self, tag: u8, payload: &[u8], get: G) -> T
    where
        G: FnOnce(&mut WireReader<'_>) -> WireResult<T>,
    {
        let rank = self.rank;
        WireReader::parse(payload, get)
            .unwrap_or_else(|e| panic!("rankd[{rank}]: malformed frame {tag}: {e}"))
    }

    /// The hub hung up: the parent exited or dropped this world, or it
    /// aborted a solve because another rank died. Either way nobody is
    /// left to report to, so leave quietly.
    fn hub_is_gone(&self) -> ! {
        std::process::exit(4)
    }
}

/// [`Comm`] over the hub: a barrier or an allreduce is one request/reply
/// round trip to this rank's proxy, which performs it in the hub's group.
struct ProcComm {
    link: Rc<Link>,
    nranks: usize,
    /// Fault drill: die (without a word) just before performing allreduce
    /// number `n` — a *real* rank failure for the parent to detect.
    kill_at_reduce: Option<u64>,
    reduces: Cell<u64>,
}

impl Comm for ProcComm {
    fn rank(&self) -> usize {
        self.link.rank
    }

    fn nranks(&self) -> usize {
        self.nranks
    }

    fn barrier(&self) {
        self.link.send(TAG_BARRIER, &[]);
        self.link.reply(TAG_BARRIER_OK, |_| Ok(()));
    }

    fn allreduce_sum(&self, buf: &mut [f64]) {
        let seq = self.reduces.get();
        self.reduces.set(seq + 1);
        if self.kill_at_reduce == Some(seq) {
            // Simulated hardware loss: no farewell frame, just a dead
            // socket for the rank's proxy to trip over.
            std::process::exit(3);
        }
        let mut w = WireWriter::new();
        w.f64s(buf);
        self.link.send(TAG_REDUCE, &w.into_bytes());
        self.link.reply(TAG_REDUCE_SUM, |r| r.f64s_into(buf));
    }
}

/// [`Exchange`] over the hub: a post ships the chunk, a completion asks for
/// the runs of its [`GatherPlan`] and receives exactly those words. The
/// rank's proxy does both on the hub's board, where the round sequencing
/// and the fault sites live.
struct ProcBoard {
    link: Rc<Link>,
    /// Which of the two hub boards this is (exchange seed vs `M⁻¹`-seed).
    board_id: u8,
    offsets: Rc<Vec<usize>>,
}

impl ProcBoard {
    /// Completes the current round with the words of `runs`, in order.
    fn fetch(
        &self,
        runs: impl Iterator<Item = (usize, usize)>,
        out: &mut [f64],
        track: Option<&Track>,
    ) {
        let _span = spcg_obs::span(track, Phase::ExchangeWait);
        self.link.send(TAG_WANT, &encode_want(self.board_id, runs));
        self.link.reply(TAG_BOARD, |r| r.f64s_into(out));
    }
}

fn encode_want(board_id: u8, runs: impl Iterator<Item = (usize, usize)>) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u8(board_id);
    w.seq(&runs.collect::<Vec<_>>(), |w, &(start, len)| {
        w.usize(start);
        w.usize(len);
    });
    w.into_bytes()
}

fn encode_post(board_id: u8, chunk: &[f64]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u8(board_id);
    w.f64s(chunk);
    w.into_bytes()
}

impl Exchange for ProcBoard {
    fn post(&self, _comm: &dyn Comm, chunk: &[f64], track: Option<&Track>) {
        let _span = spcg_obs::span(track, Phase::ExchangePost);
        let (lo, hi) = self.range(self.link.rank);
        assert_eq!(chunk.len(), hi - lo, "post: chunk length mismatch");
        self.link.send(TAG_POST, &encode_post(self.board_id, chunk));
    }

    fn complete_into(
        &self,
        _comm: &dyn Comm,
        plan: &GatherPlan,
        out: &mut [f64],
        track: Option<&Track>,
    ) {
        assert_eq!(
            out.len(),
            plan.words(),
            "complete_into: out length mismatch"
        );
        self.fetch(plan.runs(), out, track);
    }

    fn complete_snapshot(&self, _comm: &dyn Comm, track: Option<&Track>) -> Vec<f64> {
        let n = *self.offsets.last().unwrap();
        let mut full = vec![0.0; n];
        self.fetch(std::iter::once((0, n)), &mut full, track);
        full
    }

    fn offsets(&self) -> &[usize] {
        &self.offsets
    }
}

/// What a worker holds between solves: its last `LOAD`, and the operator
/// its last recipe built on that matrix, by the recipe's wire bytes.
struct Resident {
    offsets: Rc<Vec<usize>>,
    a: Arc<CsrMatrix>,
    precond: Option<(Vec<u8>, Box<dyn Preconditioner>)>,
}

impl Resident {
    /// The operator `spec` builds on the resident matrix: the last solve's
    /// if the recipe is the same, otherwise built in its place.
    fn precond(&mut self, spec: &PrecondSpec) -> &dyn Preconditioner {
        let mut w = WireWriter::new();
        encode_precond(spec, &mut w);
        let key = w.into_bytes();
        let kept = match self.precond.take() {
            Some((k, m)) if k == key => (k, m),
            stale => {
                drop(stale); // one operator in memory at a time
                (key, spec.build(&self.a))
            }
        };
        &*self.precond.insert(kept).1
    }
}

/// Entry point of the `spcg-rankd` worker binary: connect, say hello, then
/// serve the hub's frames — keep each `LOAD`, run each `SOLVE` and ship
/// its result — until the hub hangs up. Never returns.
///
/// # Panics
/// Panics (exiting the process, which the hub reads as rank death) on any
/// protocol or setup violation.
pub fn worker_main() -> ! {
    let mut args = std::env::args().skip(1);
    let sock = args.next().expect("usage: spcg-rankd <socket> <rank>");
    let rank: usize = args
        .next()
        .and_then(|r| r.parse().ok())
        .expect("usage: spcg-rankd <socket> <rank>");
    let stream =
        UnixStream::connect(&sock).unwrap_or_else(|e| panic!("rankd[{rank}]: connect {sock}: {e}"));
    let link = Rc::new(Link {
        reader: RefCell::new(BufReader::new(
            stream.try_clone().expect("rankd: clone stream"),
        )),
        writer: RefCell::new(stream),
        rank,
    });
    let mut hello = WireWriter::new();
    hello.u64(PROTO);
    hello.usize(rank);
    link.send(TAG_HELLO, &hello.into_bytes());
    let mut resident: Option<Resident> = None;
    loop {
        let (tag, payload) = link.next();
        match tag {
            TAG_LOAD => {
                drop(resident.take()); // one matrix in memory at a time
                let load = link.parse(tag, &payload, Load::decode);
                resident = Some(Resident {
                    offsets: Rc::new(load.offsets),
                    a: Arc::new(load.a),
                    precond: None,
                });
            }
            TAG_SOLVE => {
                let solve = link.parse(tag, &payload, Solve::decode);
                let held = resident.as_mut().expect("rankd: SOLVE before LOAD");
                let result = run_worker(held, solve, &link);
                link.send(TAG_RESULT, &result.encode());
            }
            _ => panic!("rankd[{rank}]: unexpected frame tag {tag}"),
        }
    }
}

/// Runs one rank's solve against the hub — the process-backend twin of
/// `run_ranked`'s per-rank closure.
fn run_worker(held: &mut Resident, solve: Solve, link: &Rc<Link>) -> WorkerResult {
    let (a, offsets) = (Arc::clone(&held.a), Rc::clone(&held.offsets));
    let m = held.precond(&solve.spec);
    // The decoded tracer and fault plan are fresh handles, this process's
    // own; the one field a worker overrides is the backend, since it *is*
    // the proc backend's rank and must not try to spawn another.
    let opts = SolveOptions {
        backend: Backend::Thread,
        ..solve.opts
    };
    let track = opts.trace.as_ref().map(|t| t.track(link.rank));
    let board = |board_id| {
        Box::new(ProcBoard {
            link: Rc::clone(link),
            board_id,
            offsets: Rc::clone(&offsets),
        })
    };
    let comm = ProcComm {
        link: Rc::clone(link),
        nranks: offsets.len() - 1,
        kill_at_reduce: solve.kill_at_reduce,
        reduces: Cell::new(0),
    };
    let mut exec = RankExec::new(
        &a,
        m,
        &solve.method,
        &opts,
        Box::new(comm),
        board(0),
        board(1),
        track,
        opts.faults.clone(),
    );
    let pol = opts.resilience.as_ref();
    let res = solve_resilient(&solve.method, &mut exec, &solve.b, &opts, pol);
    drop(exec); // drains this rank's trace track into the tracer
    WorkerResult {
        res,
        poisoned_reduces: opts
            .faults
            .map_or(0, |p| p.counts().site(FaultSite::PoisonReduce)),
        tracks: opts.trace.map(|t| t.raw_tracks()).unwrap_or_default(),
    }
}

// ---------------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------------

/// Locates the `spcg-rankd` worker binary: `SPCG_RANKD` when set,
/// otherwise next to (or one directory above) the current executable —
/// which finds `target/<profile>/spcg-rankd` from both `cargo test`
/// binaries (in `deps/`) and installed tools. `None` when neither exists;
/// ranked solves then fall back to the thread backend.
pub fn rankd_path() -> Option<PathBuf> {
    if let Some(p) = std::env::var_os("SPCG_RANKD") {
        let p = PathBuf::from(p);
        return p.is_file().then_some(p);
    }
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?;
    for d in [Some(dir), dir.parent()].into_iter().flatten() {
        let cand = d.join("spcg-rankd");
        if cand.is_file() {
            return Some(cand);
        }
    }
    None
}

#[derive(Debug)]
enum WorldError {
    /// A rank died mid-solve — respawn the world.
    RankDied(usize),
    Fatal(String),
}

/// Kills and reaps the worker processes on every exit path.
struct ChildReaper(Vec<Child>);

impl Drop for ChildReaper {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// Removes the rendezvous socket file on every exit path.
struct SockCleanup(PathBuf);

impl Drop for SockCleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A unique-per-call rendezvous socket path under the system temp dir.
fn sock_path() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("spcg-rankd-{}-{seq}.sock", std::process::id()))
}

/// Parses `SPCG_PROC_KILL=<rank>:<nth>` — the fault drill that makes the
/// targeted rank of incarnation 0 exit just before its nth allreduce.
fn kill_directive() -> Option<(usize, u64)> {
    let v = std::env::var("SPCG_PROC_KILL").ok()?;
    let (rank, nth) = v.split_once(':')?;
    Some((rank.trim().parse().ok()?, nth.trim().parse().ok()?))
}

#[cfg(test)]
thread_local! {
    /// Worlds spawned, and `LOAD`s sent, by this thread's proc solves.
    static SPAWNS: Cell<u64> = const { Cell::new(0) };
    static LOADS: Cell<u64> = const { Cell::new(0) };
}

/// One rank's proxy in the hub: performs each of the worker's frames on the
/// world's real communicator and boards, as that rank, until the worker
/// ships its result. Blocks in those calls exactly as a thread rank would;
/// a raised abort unwinds it out of them (see the module docs).
fn proxy(
    rank: usize,
    mut stream: &UnixStream,
    world: &World,
    offsets: &[usize],
) -> Result<WorkerResult, WorldError> {
    let comm = world.group.rank_comm(rank);
    let mut reader = BufReader::new(stream);
    let mut chunk = vec![0.0; offsets[rank + 1] - offsets[rank]];
    let mut halo = Vec::new();
    loop {
        let (tag, payload) = read_frame(&mut reader).map_err(|e| match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                WorldError::Fatal(format!("hub: no frame from rank {rank} in {HUB_TIMEOUT:?}"))
            }
            ErrorKind::InvalidData => WorldError::Fatal(format!("hub: rank {rank}: {e}")),
            // EOF or a reset before RESULT: the worker is gone.
            _ => WorldError::RankDied(rank),
        })?;
        let malformed =
            |e: String| WorldError::Fatal(format!("hub: rank {rank}: malformed frame {tag}: {e}"));
        let board = |r: &mut WireReader<'_>| match r.u8()? {
            0 => Ok(&world.board),
            1 => Ok(&world.board2),
            id => Err(format!("no board {id}")),
        };
        let mut reply = WireWriter::new();
        let reply_tag = match tag {
            TAG_POST => {
                let post = |r: &mut WireReader<'_>| {
                    let board = board(r)?;
                    r.f64s_into(&mut chunk)?;
                    Ok(board)
                };
                let board = WireReader::parse(&payload, post).map_err(malformed)?;
                board.post_traced(&comm, &chunk, None);
                continue;
            }
            TAG_WANT => {
                let want = |r: &mut WireReader<'_>| {
                    let board = board(r)?;
                    let runs = r.seq(|r| Ok((r.usize()?, r.usize()?)))?;
                    Ok((board, GatherPlan::from_runs(offsets, runs.into_iter())?))
                };
                let (board, plan) = WireReader::parse(&payload, want).map_err(malformed)?;
                halo.resize(plan.words(), 0.0);
                board.complete_into_traced(&comm, &plan, &mut halo, None);
                reply.f64s(&halo);
                TAG_BOARD
            }
            TAG_BARRIER => {
                WireReader::parse(&payload, |_| Ok(())).map_err(malformed)?;
                comm.barrier();
                TAG_BARRIER_OK
            }
            TAG_REDUCE => {
                let mut buf = WireReader::parse(&payload, WireReader::f64s).map_err(malformed)?;
                comm.try_allreduce_sum(&mut buf).map_err(malformed)?;
                reply.f64s(&buf);
                TAG_REDUCE_SUM
            }
            TAG_RESULT => {
                let result =
                    WireReader::parse(&payload, WorkerResult::decode).map_err(malformed)?;
                if result.res.x.len() != chunk.len() {
                    return Err(malformed("solution block of the wrong length".into()));
                }
                return Ok(result);
            }
            _ => return Err(malformed("not a worker frame".into())),
        };
        write_frame(&mut stream, reply_tag, &reply.into_bytes())
            .map_err(|_| WorldError::RankDied(rank))?;
    }
}

/// Runs the hub over connected, set-up workers: one proxy per stream, in
/// `world`, until every rank has shipped its result or one is lost.
fn serve(
    world: &World,
    offsets: &[usize],
    streams: &[UnixStream],
) -> Result<Vec<WorkerResult>, WorldError> {
    let abort = world.group.abort();
    let cause = Mutex::new(None);
    // First cause wins, and is in place before the abort takes effect.
    let lose = |e: WorldError| {
        cause.lock().expect("cause lock").get_or_insert(e);
        abort.raise();
    };
    // Proxies blocked in a read are not woken by the group or the boards.
    let sockets: Vec<UnixStream> = streams
        .iter()
        .map(|s| {
            s.set_read_timeout(Some(HUB_TIMEOUT))?;
            s.try_clone()
        })
        .collect::<std::io::Result<_>>()
        .map_err(|e| WorldError::Fatal(format!("hub socket: {e}")))?;
    abort.on_raise(move || {
        for socket in &sockets {
            let _ = socket.shutdown(Shutdown::Both);
        }
    });
    let results = std::thread::scope(|scope| {
        let proxies: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(rank, stream)| {
                let lose = &lose;
                scope.spawn(move || {
                    let served =
                        catch_unwind(AssertUnwindSafe(|| proxy(rank, stream, world, offsets)));
                    match served {
                        Ok(Ok(result)) => return Some(result),
                        Ok(Err(e)) => lose(e),
                        // Unwound by the abort: somebody else has said why.
                        Err(payload) if payload.is::<Aborted>() => {}
                        // A frame sequence no rank would send (two posts in
                        // a row) trips the board's own asserts; that is a
                        // refusal too.
                        Err(_) => lose(WorldError::Fatal(format!(
                            "hub: the proxy of rank {rank} panicked"
                        ))),
                    }
                    None
                })
            })
            .collect();
        let served = proxies.into_iter().map(|p| p.join());
        served
            .map(|result| result.expect("a proxy catches its own unwinds"))
            .collect::<Option<Vec<_>>>()
    });
    match cause.into_inner().expect("cause lock") {
        Some(e) => Err(e),
        None => Ok(results.expect("no cause, so every proxy returned its result")),
    }
}

/// A world of live workers: their connected streams in rank order, the
/// processes, and the [`CsrMatrix::instance_id`] of the matrix they hold.
struct ProcWorld {
    streams: Vec<UnixStream>,
    workers: ChildReaper,
    loaded: Option<u64>,
}

/// The idle worlds, at most one per `(spcg-rankd path, ranks)`.
static IDLE: Mutex<Vec<(WorldKey, ProcWorld)>> = Mutex::new(Vec::new());
type WorldKey = (PathBuf, usize);

/// Registers, once per process, an exit hook that kills and reaps every
/// idle world's workers. Nothing else ever drops the `IDLE` slot, so
/// without it the workers would see their parent's EOF only after it is
/// gone, and linger as zombies of whatever process inherits them.
fn reap_idle_at_exit() {
    extern "C" {
        fn atexit(hook: extern "C" fn()) -> std::os::raw::c_int;
    }
    extern "C" fn reap_idle() {
        // A lock still held at exit is left alone: exit must not hang.
        let mut idle = match IDLE.try_lock() {
            Ok(idle) => idle,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
            Err(TryLockError::WouldBlock) => return,
        };
        let worlds = std::mem::take(&mut *idle);
        drop(idle);
        drop(worlds); // each world's `ChildReaper` kills and waits
    }
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        // SAFETY: `atexit` is the C library's own, which std links on every
        // Unix, declared with its C signature. `reap_idle` takes nothing,
        // is a plain function (valid for the life of the process), and
        // cannot unwind: it only try-locks, moves a vector out and drops
        // worlds, whose drops ignore every error. A registration that fails
        // (a full table) only leaves the workers to their EOF, as before.
        unsafe { atexit(reap_idle) };
    });
}

impl ProcWorld {
    /// Spawns `spcg-rankd` per rank and accepts each one's hello — the one
    /// place a world is born, the first time and on a respawn alike.
    fn spawn(rankd: &Path, nranks: usize) -> Result<ProcWorld, String> {
        #[cfg(test)]
        SPAWNS.with(|n| n.set(n.get() + 1));
        let path = sock_path();
        let _cleanup = SockCleanup(path.clone());
        let listener =
            UnixListener::bind(&path).map_err(|e| format!("bind {}: {e}", path.display()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("listener: {e}"))?;

        let mut workers = ChildReaper(Vec::with_capacity(nranks));
        for rank in 0..nranks {
            let child = Command::new(rankd)
                .arg(&path)
                .arg(rank.to_string())
                .stdin(Stdio::null())
                .spawn()
                .map_err(|e| format!("spawn {}: {e}", rankd.display()))?;
            workers.0.push(child);
        }

        // Accept all workers; the Hello frame tells us who is who (accept
        // order is scheduler-dependent).
        let mut streams: Vec<Option<UnixStream>> = (0..nranks).map(|_| None).collect();
        let deadline = Instant::now() + CONNECT_TIMEOUT;
        let mut connected = 0;
        let mut poll = ACCEPT_POLL.0;
        while connected < nranks {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    stream
                        .set_nonblocking(false)
                        .map_err(|e| format!("accept: {e}"))?;
                    // Unbuffered, so no byte past the Hello leaves the socket.
                    let (tag, payload) =
                        read_frame(&mut stream).map_err(|e| format!("hello: {e}"))?;
                    if tag != TAG_HELLO {
                        return Err(format!("expected hello, got tag {tag}"));
                    }
                    let (proto, rank) = WireReader::parse(&payload, |r| Ok((r.u64()?, r.usize()?)))
                        .map_err(|e| format!("hello: {e}"))?;
                    if proto != PROTO {
                        return Err(format!(
                            "spcg-rankd speaks protocol {proto}, parent speaks {PROTO} — rebuild"
                        ));
                    }
                    if rank >= nranks || streams[rank].is_some() {
                        return Err(format!("bogus hello from rank {rank}"));
                    }
                    streams[rank] = Some(stream);
                    connected += 1;
                    poll = ACCEPT_POLL.0;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        return Err(format!(
                            "only {connected}/{nranks} workers connected within {CONNECT_TIMEOUT:?}"
                        ));
                    }
                    std::thread::sleep(poll);
                    poll = (poll * 2).min(ACCEPT_POLL.1);
                }
                Err(e) => return Err(format!("accept: {e}")),
            }
        }
        Ok(ProcWorld {
            streams: streams.into_iter().flatten().collect(), // every rank said hello
            workers,
            loaded: None,
        })
    }

    /// The idle world of `key`, taken out of the slot — unless a worker of
    /// it has exited meanwhile, which drops it.
    fn take_idle(key: &WorldKey) -> Option<ProcWorld> {
        let mut idle = IDLE.lock().unwrap_or_else(PoisonError::into_inner);
        let at = idle.iter().position(|(k, _)| k == key)?;
        let (_, mut world) = idle.swap_remove(at);
        let live = |c: &mut Child| matches!(c.try_wait(), Ok(None));
        world.workers.0.iter_mut().all(live).then_some(world)
    }

    /// Puts a world that served its solve back in the slot, or drops it
    /// (killed and reaped) if another one got there first.
    fn park(self, key: &WorldKey) {
        reap_idle_at_exit();
        let mut idle = IDLE.lock().unwrap_or_else(PoisonError::into_inner);
        if !idle.iter().any(|(k, _)| k == key) {
            idle.push((key.clone(), self));
        }
    }

    /// Runs one solve on this world: `LOAD` if it holds another matrix, each
    /// rank's `SOLVE`, then a fresh hub until every rank has shipped its
    /// result — returned with the count of allreduces the hub completed.
    fn solve(
        &mut self,
        ranking: &Ranking,
        problem: &Problem<'_>,
        shared: &[u8],
        kill_at_reduce: &[Option<u64>],
    ) -> Result<(Vec<WorkerResult>, u64), WorldError> {
        let id = problem.a.instance_id();
        if self.loaded != Some(id) {
            #[cfg(test)]
            LOADS.with(|n| n.set(n.get() + 1));
            let load = Load::encode(&ranking.offsets, problem.a);
            for (rank, stream) in self.streams.iter_mut().enumerate() {
                write_frame(stream, TAG_LOAD, &load).map_err(|_| WorldError::RankDied(rank))?;
            }
            self.loaded = Some(id);
        }
        for (rank, stream) in self.streams.iter_mut().enumerate() {
            let b = &problem.b[ranking.offsets[rank]..ranking.offsets[rank + 1]];
            let frame = Solve::encode(kill_at_reduce[rank], b, shared);
            write_frame(stream, TAG_SOLVE, &frame).map_err(|_| WorldError::RankDied(rank))?;
        }
        let world = ranking.world();
        serve(&world, &ranking.offsets, &self.streams).map(|res| (res, world.group.allreduces()))
    }
}

/// Runs `method` over `ranks` worker processes — the proc-backend twin of
/// `run_ranked`, assembling the identical `SolveResult` — on the resident
/// world of that rank count (see the module docs). `Err` means the
/// transport could not run at all (the caller falls back to threads); rank
/// deaths are healed internally by respawning the world.
pub(crate) fn run_proc(
    method: &Method,
    problem: &Problem<'_>,
    opts: &SolveOptions,
    ranks: usize,
) -> Result<SolveResult, String> {
    let spec = problem.m.spec().ok_or_else(|| {
        format!(
            "preconditioner {} has no serializable spec",
            problem.m.name()
        )
    })?;
    let rankd = rankd_path().ok_or("spcg-rankd binary not found (set SPCG_RANKD or build it)")?;
    let key = (rankd, ranks);
    let ranking = Ranking::new(problem.n(), ranks, opts);
    let shared = Solve::encode_shared(&ranking, &spec, method, opts);
    let kill = kill_directive();

    let mut incarnation = 0usize;
    let (results, collectives) = loop {
        let kill_at_reduce: Vec<Option<u64>> = (0..ranks)
            .map(|rank| {
                kill.filter(|&(target, _)| incarnation == 0 && target == rank)
                    .map(|(_, nth)| nth)
            })
            .collect();
        let mut world = match ProcWorld::take_idle(&key) {
            Some(world) => world,
            None => ProcWorld::spawn(&key.0, ranks)?,
        };
        match world.solve(&ranking, problem, &shared, &kill_at_reduce) {
            Ok(done) => {
                world.park(&key);
                break done;
            }
            Err(WorldError::RankDied(rank)) => {
                incarnation += 1;
                if incarnation >= MAX_INCARNATIONS {
                    return Err(format!(
                        "rank {rank} died and the world was respawned {} times already",
                        incarnation - 1
                    ));
                }
                eprintln!(
                    "spcg: proc rank {rank} died; respawning the world (incarnation {incarnation})"
                );
            }
            Err(WorldError::Fatal(msg)) => return Err(msg),
        }
    };

    let mut solves = Vec::with_capacity(ranks);
    for worker in results {
        if let Some(tracer) = &opts.trace {
            worker.tracks.into_iter().for_each(|t| tracer.import_raw(t));
        }
        if let Some(plan) = &ranking.plan {
            plan.record_remote(FaultSite::PoisonReduce, worker.poisoned_reduces);
        }
        solves.push(worker.res);
    }
    let mut out = ranking.assemble(solves, collectives, Backend::Proc);
    // World respawns are restarts the driver took on the caller's behalf;
    // charge them like the resilience layer charges its own.
    out.restarts += incarnation;
    out.counters.restarts += incarnation as u64;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::StoppingCriterion;
    use crate::resilience::Resilience;
    use spcg_adapt::AdaptivePolicy;
    use spcg_basis::BasisType;
    use spcg_dist::FaultPlan;
    use spcg_obs::Tracer;
    use spcg_sparse::generators::poisson::{poisson_1d, poisson_2d};
    use std::thread::JoinHandle;

    type Served = JoinHandle<Result<Vec<WorkerResult>, WorldError>>;

    /// How the hub ended, as the number of results or the error. The hub
    /// never panics, whatever its workers send.
    fn joined(served: Served) -> Result<usize, WorldError> {
        let outcome = served.join().expect("the hub must not panic");
        outcome.map(|results| results.len())
    }

    /// A hub over socket pairs for 2 ranks of a 6-word board (3 words
    /// each); the test plays the workers on the returned ends.
    fn hub() -> (UnixStream, UnixStream, Served) {
        let ranking = Ranking::new(6, 2, &SolveOptions::default());
        let (hub0, rank0) = UnixStream::pair().unwrap();
        let (hub1, rank1) = UnixStream::pair().unwrap();
        for end in [&rank0, &rank1] {
            // A reply that never comes fails the test instead of hanging it.
            end.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        }
        let served =
            std::thread::spawn(move || serve(&ranking.world(), &ranking.offsets, &[hub0, hub1]));
        (rank0, rank1, served)
    }

    fn send(mut end: &UnixStream, tag: u8, payload: &[u8]) {
        write_frame(&mut end, tag, payload).unwrap();
    }

    /// Reads a `BOARD` reply of exactly `words` words.
    fn board_reply(mut end: &UnixStream, words: usize) -> Vec<f64> {
        let (tag, reply) = read_frame(&mut end).unwrap();
        assert_eq!(tag, TAG_BOARD);
        assert_eq!(reply.len(), 8 + 8 * words, "the requested words only");
        let mut halo = vec![0.0; words];
        WireReader::parse(&reply, |r| r.f64s_into(&mut halo)).unwrap();
        halo
    }

    fn want(runs: &[(usize, usize)]) -> Vec<u8> {
        encode_want(0, runs.iter().copied())
    }

    /// What the worker-side board sends for a plan comes back as the plan's
    /// gather of the published round; a snapshot is the whole board; and an
    /// empty plan is an empty reply.
    #[test]
    fn want_roundtrips_a_plan_and_a_snapshot() {
        let (rank0, rank1, served) = hub();
        send(&rank0, TAG_POST, &encode_post(0, &[0.0, 1.0, 2.0]));
        send(&rank1, TAG_POST, &encode_post(0, &[3.0, 4.0, 5.0]));
        let plan = GatherPlan::build(&[0, 3, 6], &[4, 5, 3]);
        send(&rank0, TAG_WANT, &encode_want(0, plan.runs()));
        assert_eq!(board_reply(&rank0, 3), [4.0, 5.0, 3.0]);
        send(&rank1, TAG_WANT, &want(&[(0, 6)]));
        assert_eq!(board_reply(&rank1, 6), [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        // The other board is its own round counter.
        for end in [&rank0, &rank1] {
            send(end, TAG_POST, &encode_post(1, &[7.0; 3]));
            send(end, TAG_WANT, &encode_want(1, std::iter::empty()));
            assert!(board_reply(end, 0).is_empty());
        }
        drop((rank0, rank1));
        assert!(matches!(joined(served), Err(WorldError::RankDied(_))));
    }

    /// A completion is answered with the requested words only, in run
    /// order, not before the round is fully published — and the reply is
    /// the consumption that lets the next round be posted.
    #[test]
    fn hub_serves_the_requested_runs_of_a_published_round() {
        let (rank0, rank1, served) = hub();
        send(&rank0, TAG_POST, &encode_post(0, &[0.0, 1.0, 2.0]));
        send(&rank0, TAG_WANT, &want(&[(5, 1), (3, 2)]));
        // Rank 1 has not published: no reply may come. (A wait can only
        // miss a wrong early reply, never invent one.)
        rank0
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let early = read_frame(&mut &rank0).unwrap_err();
        assert!(matches!(
            early.kind(),
            ErrorKind::WouldBlock | ErrorKind::TimedOut
        ));
        rank0
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        send(&rank1, TAG_POST, &encode_post(0, &[3.0, 4.0, 5.0]));
        assert_eq!(board_reply(&rank0, 3), [5.0, 3.0, 4.0]);
        // Round 2 can be published over round 1 only once both ranks have
        // consumed it, and the hub learns of a consumption no other way
        // than by having replied.
        send(&rank1, TAG_WANT, &want(&[(0, 1)]));
        assert_eq!(board_reply(&rank1, 1), [0.0]);
        send(&rank1, TAG_POST, &encode_post(0, &[6.0, 7.0, 8.0]));
        send(&rank0, TAG_POST, &encode_post(0, &[9.0, 10.0, 11.0]));
        send(&rank0, TAG_WANT, &want(&[(3, 3)]));
        assert_eq!(board_reply(&rank0, 3), [6.0, 7.0, 8.0]);
        drop((rank0, rank1));
        assert!(matches!(joined(served), Err(WorldError::RankDied(_))));
    }

    /// Sends `frame` from rank 1 while rank 0's proxy waits in a barrier
    /// for it: the hub must refuse the world — no panic, the waiting proxy
    /// unblocked (the hub returned at all).
    fn assert_refused(what: &str, tag: u8, payload: &[u8]) {
        let (rank0, rank1, served) = hub();
        send(&rank0, TAG_BARRIER, &[]);
        send(&rank1, tag, payload);
        match joined(served) {
            Err(WorldError::Fatal(msg)) => assert!(msg.contains("rank 1"), "{what}: {msg}"),
            other => panic!("{what}: expected a refusal, got {other:?}"),
        }
        drop((rank0, rank1));
    }

    #[test]
    fn want_outside_the_board_is_rejected() {
        for bad in [
            &[(6, 1)][..],      // starts past the end
            &[(4, 3)],          // overlaps the end
            &[(usize::MAX, 2)], // start + len overflows
            &[(0, 6), (3, 1)],  // more than one board of words
        ] {
            assert_refused(&format!("{bad:?}"), TAG_WANT, &want(bad));
        }
        // A board the hub does not have, and half a run.
        let board2 = encode_want(2, std::iter::empty());
        assert_refused("board 2", TAG_WANT, &board2);
        let whole = want(&[(0, 1)]);
        assert_refused("half a run", TAG_WANT, &whole[..whole.len() - 8]);
    }

    /// A sequence count far beyond the payload, after `head`.
    fn oversized_count(head: &[u8]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u64(u64::MAX >> 4);
        w.f64(1.0);
        [head, &w.into_bytes()].concat()
    }

    fn result_frame(edit: impl FnOnce(&mut WorkerResult)) -> Vec<u8> {
        let res = SolveResult::new(
            vec![0.0; 3],
            crate::Outcome::Converged,
            1,
            vec![],
            Default::default(),
        );
        let mut result = WorkerResult {
            res,
            poisoned_reduces: 0,
            tracks: vec![RawTrack {
                rank: 1,
                thread: 0,
                events: vec![(0, true, 5)],
                dropped: 0,
            }],
        };
        edit(&mut result);
        result.encode()
    }

    #[test]
    fn malformed_worker_frames_refuse_the_world() {
        let post = encode_post(0, &[1.0, 2.0, 3.0]);
        assert_refused("truncated POST", TAG_POST, &post[..post.len() - 1]);
        assert_refused("oversized POST", TAG_POST, &oversized_count(&[0]));
        assert_refused("short POST", TAG_POST, &encode_post(0, &[1.0, 2.0]));
        assert_refused("long POST", TAG_POST, &[&post[..], &[0]].concat());
        assert_refused("POST to board 2", TAG_POST, &encode_post(2, &[1.0; 3]));
        assert_refused("oversized WANT", TAG_WANT, &oversized_count(&[0]));
        assert_refused("BARRIER with a payload", TAG_BARRIER, &[0]);

        let mut reduce = WireWriter::new();
        reduce.f64s(&[1.0, 2.0]);
        let reduce = reduce.into_bytes();
        assert_refused("truncated REDUCE", TAG_REDUCE, &reduce[..reduce.len() - 1]);
        assert_refused("oversized REDUCE", TAG_REDUCE, &oversized_count(&[]));

        let good = result_frame(|_| {});
        assert_refused("truncated RESULT", TAG_RESULT, &good[..good.len() - 1]);
        assert_refused("oversized RESULT", TAG_RESULT, &oversized_count(&[]));
        assert_refused(
            "RESULT with trailing bytes",
            TAG_RESULT,
            &[&good[..], &[0]].concat(),
        );
        let wrong_block = result_frame(|r| r.res.x.push(0.0));
        assert_refused("RESULT of 4 rows for 3", TAG_RESULT, &wrong_block);
        let phase = result_frame(|r| r.tracks[0].events[0].0 = usize::MAX);
        assert_refused("RESULT with an unknown phase", TAG_RESULT, &phase);
        // The outcome kind is the byte after the 3-word solution block.
        let mut outcome = good.clone();
        outcome[8 + 3 * 8] = 9;
        assert_refused("RESULT with an unknown outcome", TAG_RESULT, &outcome);

        assert_refused("an unknown tag", 99, &[]);
        assert_refused("a hub → worker tag", TAG_BOARD, &[]);
    }

    /// Contributions of different lengths — each frame well-formed on its
    /// own — are refused by both proxies, after the barrier, without the
    /// panic the thread backend's `allreduce_sum` has for it.
    #[test]
    fn mismatched_reduce_lengths_refuse_the_world() {
        let (rank0, rank1, served) = hub();
        for (end, words) in [(&rank0, 1), (&rank1, 2)] {
            let mut w = WireWriter::new();
            w.f64s(&vec![1.0; words]);
            send(end, TAG_REDUCE, &w.into_bytes());
        }
        match joined(served) {
            Err(WorldError::Fatal(msg)) => assert!(msg.contains("length mismatch"), "{msg}"),
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    /// A worker that dies is reported as dead — not as whatever its peers'
    /// sockets say once the hub shuts them down — and at once: the peer's
    /// proxy, parked in a collective the dead rank will never join, is
    /// unwound rather than waited for.
    #[test]
    fn dead_worker_is_reported_promptly() {
        let (rank0, rank1, served) = hub();
        let mut reduce = WireWriter::new();
        reduce.f64s(&[1.0]);
        send(&rank0, TAG_REDUCE, &reduce.into_bytes());
        // Give proxy 0 time to be inside the collective (either side of
        // that race must end the same way; this exercises the parked one).
        std::thread::sleep(Duration::from_millis(20));
        let eof = Instant::now();
        drop(rank1);
        let outcome = joined(served);
        let took = eof.elapsed();
        assert!(
            matches!(outcome, Err(WorldError::RankDied(1))),
            "{outcome:?}"
        );
        assert!(took < Duration::from_millis(100), "hub took {took:?}");
        // The hub hung up on the survivor.
        assert!(read_frame(&mut &rank0).is_err());
    }

    fn assert_same_options(a: &SolveOptions, b: &SolveOptions) {
        // Exhaustive on both sides: a new field must be compared too.
        let SolveOptions {
            tol,
            max_iters,
            criterion,
            divergence_factor,
            stall_checks,
            keep_history,
            residual_replacement,
            threads,
            overlap,
            format: _, // inert, and not shipped
            backend,
            trace,
            faults,
            resilience,
            adaptive,
        } = a;
        assert_eq!(tol.to_bits(), b.tol.to_bits());
        assert_eq!(*max_iters, b.max_iters);
        assert_eq!(*criterion, b.criterion);
        assert_eq!(divergence_factor.to_bits(), b.divergence_factor.to_bits());
        assert_eq!(*stall_checks, b.stall_checks);
        assert_eq!(*keep_history, b.keep_history);
        assert_eq!(
            residual_replacement.map(f64::to_bits),
            b.residual_replacement.map(f64::to_bits)
        );
        assert_eq!(*threads, b.threads);
        assert_eq!(*overlap, b.overlap);
        assert_eq!(*backend, b.backend);
        let capacity = |t: &Option<Tracer>| t.as_ref().map(Tracer::capacity);
        assert_eq!(capacity(trace), capacity(&b.trace));
        let plan = |p: &Option<FaultPlan>| {
            p.as_ref()
                .map(|p| (p.seed(), p.rate().to_bits(), p.sites_mask()))
        };
        assert_eq!(plan(faults), plan(&b.faults));
        assert_eq!(*resilience, b.resilience);
        let AdaptivePolicy {
            s_min,
            s_max,
            cond_grow,
            cond_shrink,
            cond_reject,
            gap_tol,
            drift_tol,
            grow_patience,
            min_ritz,
            max_ritz,
            margin,
        } = adaptive;
        let theirs = &b.adaptive;
        assert_eq!(
            [*s_min, *s_max, *grow_patience, *min_ritz, *max_ritz],
            [
                theirs.s_min,
                theirs.s_max,
                theirs.grow_patience,
                theirs.min_ritz,
                theirs.max_ritz
            ]
        );
        assert_eq!(
            [
                *cond_grow,
                *cond_shrink,
                *cond_reject,
                *gap_tol,
                *drift_tol,
                *margin
            ]
            .map(f64::to_bits),
            [
                theirs.cond_grow,
                theirs.cond_shrink,
                theirs.cond_reject,
                theirs.gap_tol,
                theirs.drift_tol,
                theirs.margin
            ]
            .map(f64::to_bits)
        );
    }

    /// The `LOAD` frame carries the partition and the matrix, and the
    /// `SOLVE` frame `Method` and `SolveOptions` whole: every method ×
    /// options that differ from the default in every field × every
    /// preconditioner recipe comes back as it went in.
    #[test]
    fn load_and_solve_frames_roundtrip_every_method_option_and_preconditioner() {
        let a = poisson_1d(6);
        let b: Vec<f64> = (0..6).map(|i| 0.5 - i as f64).collect();
        let cheb = BasisType::Chebyshev {
            lambda_min: 0.125,
            lambda_max: 1.875,
        };
        let newton = BasisType::Newton {
            shifts: vec![0.5, -0.0, 1.5],
        };
        let methods = [
            Method::Pcg,
            Method::Pcg3,
            Method::SPcg {
                s: 4,
                basis: cheb.clone(),
            },
            Method::SPcgMon { s: 5 },
            Method::CaPcg {
                s: 6,
                basis: newton,
            },
            Method::CaPcg3 {
                s: 7,
                basis: BasisType::Monomial,
            },
            Method::AdaptiveCaPcg {
                s: 8,
                basis: cheb.clone(),
            },
            Method::CaPcgGs { s: 9, basis: cheb },
            Method::EkCg { t: 3 },
        ];
        let specs = [
            PrecondSpec::Identity { n: 6 },
            PrecondSpec::Jacobi {
                inv_diag: vec![0.5, 0.25, -0.0, 1e-300, 3.0, 7.0],
            },
            PrecondSpec::BlockJacobi { block: 3 },
            PrecondSpec::Chebyshev {
                degree: 3,
                lo: 0.05,
                hi: 8.0,
            },
            PrecondSpec::Ssor { omega: 1.2 },
            PrecondSpec::Ic0,
        ];
        let opts = SolveOptions {
            tol: 3e-7,
            max_iters: 321,
            criterion: StoppingCriterion::PrecondMNorm,
            divergence_factor: 1.5e6,
            stall_checks: 17,
            keep_history: true,
            residual_replacement: Some(0.125),
            threads: 3,
            overlap: false,
            format: Default::default(),
            backend: Backend::Proc,
            trace: Some(Tracer::with_capacity(777)),
            faults: Some(FaultPlan::new(9, 0.25).with_sites_mask(0b10101)),
            resilience: Some(Resilience {
                max_restarts: 7,
                shrink_s: false,
                gs_recovery: false,
            }),
            adaptive: AdaptivePolicy {
                s_min: 3,
                s_max: 11,
                cond_grow: 1.5e3,
                cond_shrink: 2.5e6,
                cond_reject: 3.5e9,
                gap_tol: 0.375,
                drift_tol: 0.625,
                grow_patience: 5,
                min_ritz: 6,
                max_ritz: 33,
                margin: 0.0625,
            },
        };
        let ranking = Ranking::new(6, 2, &opts);
        let frame = Load::encode(&ranking.offsets, &a);
        let load = WireReader::parse(&frame, Load::decode).unwrap();
        assert_eq!(load.offsets, [0, 3, 6]);
        assert_eq!(load.a.row_ptr(), a.row_ptr());
        assert_eq!(load.a.col_idx(), a.col_idx());
        assert_eq!(load.a.values(), a.values());
        assert!(WireReader::parse(&frame[..frame.len() - 1], Load::decode).is_err());
        for method in &methods {
            for spec in &specs {
                let shared = Solve::encode_shared(&ranking, spec, method, &opts);
                let frame = Solve::encode(Some(4), &b[3..], &shared);
                let solve = WireReader::parse(&frame, Solve::decode).unwrap();
                assert_eq!(solve.kill_at_reduce, Some(4));
                assert_eq!(solve.b, b[3..]);
                assert_eq!(&solve.spec, spec);
                assert_eq!(&solve.method, method);
                assert_same_options(&solve.opts, &opts);
                // Not one byte of the frame is optional.
                let cut = WireReader::parse(&frame[..frame.len() - 1], Solve::decode);
                assert!(cut.is_err());
            }
        }
    }

    /// A worker keeps one operator, the last recipe's, and whatever order
    /// the recipes come in hands out the operator the asked-for one builds.
    #[test]
    fn resident_keeps_the_last_recipes_operator() {
        let a = Arc::new(poisson_1d(6));
        let mut held = Resident {
            offsets: Rc::new(vec![0, 6]),
            a: Arc::clone(&a),
            precond: None,
        };
        let r: Vec<f64> = (0..6).map(|i| 1.0 + i as f64).collect();
        let jacobi = PrecondSpec::Jacobi {
            inv_diag: vec![0.5; 6],
        };
        for spec in [&jacobi, &jacobi, &PrecondSpec::Ic0, &jacobi] {
            let (mut got, mut want) = (vec![0.0; 6], vec![0.0; 6]);
            held.precond(spec).apply(&r, &mut got);
            spec.build(&a).apply(&r, &mut want);
            assert_eq!(got, want, "{spec:?}");
            let mut key = WireWriter::new();
            encode_precond(spec, &mut key);
            assert_eq!(held.precond.as_ref().unwrap().0, key.into_bytes());
        }
    }

    /// Spawns and `LOAD`s this thread's proc solves performed.
    fn tally() -> (u64, u64) {
        (SPAWNS.with(Cell::get), LOADS.with(Cell::get))
    }

    /// One world serves a sequence of solves: spawned once, loaded once
    /// per matrix identity — A, B, A, A edited in place, a clone of A —
    /// and every solve bitwise the thread backend's.
    #[test]
    fn one_world_serves_a_sequence_and_loads_once_per_identity() {
        if rankd_path().is_none() {
            eprintln!("skipped: spcg-rankd is not built");
            return;
        }
        // No other test of this binary solves on 3 ranks, so none takes
        // this world from the slot between two of these solves.
        let engine = crate::Engine::Ranked { ranks: 3 };
        let opts = SolveOptions::default().with_history();
        let run = |a: &CsrMatrix| {
            let m = spcg_precond::Jacobi::new(a);
            let b: Vec<f64> = (0..a.nrows()).map(|i| 1.0 + (i % 7) as f64).collect();
            let problem = Problem::new(a, &m, &b);
            let basis = crate::chebyshev_basis(&problem, 20, 0.05);
            for method in [Method::Pcg, Method::SPcg { s: 5, basis }] {
                let proc = opts.clone().with_backend(Backend::Proc);
                let p = crate::solve(&method, &problem, &proc, engine);
                let t = crate::solve(&method, &problem, &opts, engine);
                assert_eq!(p.backend, Some(Backend::Proc), "stale spcg-rankd?");
                let key = |r: &SolveResult| {
                    let x: Vec<u64> = r.x.iter().map(|v| v.to_bits()).collect();
                    (x, r.iterations, r.counters.clone(), r.collectives_per_rank)
                };
                assert_eq!(key(&p), key(&t), "{}", method.name());
            }
        };
        let (mut a, b) = (poisson_2d(9), poisson_2d(8));
        let before = tally();
        run(&a);
        run(&b);
        run(&a);
        a.scale(2.0);
        run(&a);
        run(&a.clone());
        let (spawns, loads) = tally();
        assert_eq!((spawns - before.0, loads - before.1), (1, 5));
    }
}
