//! Process-level communication backend ([`Backend::Proc`]
//! (spcg_dist::Backend)): each rank is a `spcg-rankd` worker **process**
//! talking to a parent-side hub over Unix-domain sockets.
//!
//! The thread backend shares one address space, so a "rank failure" there
//! can only be simulated. This backend makes rank death *real*: a worker
//! process can be killed (or kill itself, see `SPCG_PROC_KILL`) mid-solve,
//! the parent detects the broken connection, respawns the world, and
//! re-solves — charging the incarnation as a restart. Everything else is
//! bitwise identical to the thread backend by construction:
//!
//! * **Same arithmetic** — workers rebuild the matrix, right-hand side,
//!   and preconditioner (via [`PrecondSpec`])
//!   from the Setup frame and run the *same* `RankExec` + resilient
//!   driver as a thread rank.
//! * **Same reduction order** — the hub sums allreduce contributions in
//!   rank order from a zeroed accumulator, exactly like
//!   `ThreadComm::allreduce_sum`.
//! * **Same exchange protocol** — the hub keeps the two vector boards'
//!   `published`/`consumed` epochs and applies a rank's post for round
//!   `p` only once every rank has consumed round `p − 1`; a completion
//!   for round `w` is answered (with the words of the runs it names —
//!   the rank's halo, or the whole board for a snapshot) only once every
//!   rank has published `w`. These are the `VectorBoard` invariants,
//!   moved across a socket.
//! * **Same fault semantics** — workers rebuild the deterministic
//!   [`FaultPlan`] from `(seed, rate, sites)` and fire it at the same
//!   `(site, salt, rank, round)` decision points, reporting per-site
//!   counts back so the parent's plan sees every remote injection.
//!
//! Frames are `[tag][len][payload]` (see `spcg_dist::wire`). Workers are
//! strictly request/reply — after sending a `Want`/`Barrier`/`Reduce`
//! they block on exactly one typed reply — so the hub may write replies
//! synchronously without deadlock.

use crate::method::Method;
use crate::options::{Outcome, Problem, SolveOptions, SolveResult, StoppingCriterion};
use crate::resilience::{solve_resilient, Resilience};
use spcg_adapt::{AdaptivePolicy, AdaptiveReport, ShiftUpdate};
use spcg_basis::BasisType;
use spcg_dist::wire::{read_frame, write_frame, WireReader, WireWriter};
use spcg_dist::{Backend, Comm, Counters, Exchange, FaultPlan, GatherPlan, FAULT_SITES};
use spcg_obs::{Phase, RawTrack, Tracer, Track};
use spcg_precond::PrecondSpec;
use spcg_sparse::partition::BlockRowPartition;
use spcg_sparse::{CsrMatrix, SparseFormat};

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::io::BufReader;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Protocol version — bumped on any frame-layout change so a stale
/// `spcg-rankd` binary fails loudly instead of misparsing.
const PROTO: u64 = 5;

// Frame tags. Worker → hub: HELLO, POST, WANT, BARRIER, REDUCE, RESULT.
// Hub → worker: SETUP, BOARD, BARRIER_OK, REDUCE_SUM.
const TAG_SETUP: u8 = 1;
const TAG_HELLO: u8 = 2;
const TAG_POST: u8 = 3;
const TAG_WANT: u8 = 4;
const TAG_BARRIER: u8 = 5;
const TAG_REDUCE: u8 = 6;
const TAG_RESULT: u8 = 7;
const TAG_BOARD: u8 = 8;
const TAG_BARRIER_OK: u8 = 9;
const TAG_REDUCE_SUM: u8 = 10;

/// How long the hub waits for *any* worker message before declaring the
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
// Setup / result payloads
// ---------------------------------------------------------------------------

/// Everything a worker needs to run its rank, self-contained — workers
/// never consult the environment, so `SPCG_*` variables in the parent's
/// environment cannot skew a remote solve.
struct Setup {
    rank: usize,
    nranks: usize,
    offsets: Vec<usize>,
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
    b: Vec<f64>,
    spec: PrecondSpec,
    method: Method,
    tol: f64,
    max_iters: usize,
    criterion: StoppingCriterion,
    divergence_factor: f64,
    stall_checks: usize,
    keep_history: bool,
    residual_replacement: Option<f64>,
    threads: usize,
    overlap: bool,
    format: SparseFormat,
    trace_cap: Option<usize>,
    faults: Option<(u64, f64, u8)>,
    resilience: Option<Resilience>,
    /// Adaptive-s controller policy — shipped whole so a worker's
    /// `SPCG_ADAPTIVE_*` environment cannot skew a remote solve.
    adaptive: AdaptivePolicy,
    /// Fault-drill directive: die just before allreduce number `n`
    /// (0-based). Shipped only to the targeted rank of incarnation 0.
    kill_at_reduce: Option<u64>,
}

fn encode_spec(w: &mut WireWriter, spec: &PrecondSpec) {
    match spec {
        PrecondSpec::Identity { n } => {
            w.u8(0);
            w.usize(*n);
        }
        PrecondSpec::Jacobi { inv_diag } => {
            w.u8(1);
            w.f64s(inv_diag);
        }
        PrecondSpec::BlockJacobi { block } => {
            w.u8(2);
            w.usize(*block);
        }
        PrecondSpec::Chebyshev { degree, lo, hi } => {
            w.u8(3);
            w.usize(*degree);
            w.f64(*lo);
            w.f64(*hi);
        }
        PrecondSpec::Ssor { omega } => {
            w.u8(4);
            w.f64(*omega);
        }
        PrecondSpec::Ic0 => w.u8(5),
    }
}

fn decode_spec(r: &mut WireReader<'_>) -> PrecondSpec {
    match r.u8() {
        0 => PrecondSpec::Identity { n: r.usize() },
        1 => PrecondSpec::Jacobi { inv_diag: r.f64s() },
        2 => PrecondSpec::BlockJacobi { block: r.usize() },
        3 => PrecondSpec::Chebyshev {
            degree: r.usize(),
            lo: r.f64(),
            hi: r.f64(),
        },
        4 => PrecondSpec::Ssor { omega: r.f64() },
        5 => PrecondSpec::Ic0,
        k => panic!("setup: unknown preconditioner spec kind {k}"),
    }
}

fn encode_basis(w: &mut WireWriter, basis: &BasisType) {
    match basis {
        BasisType::Monomial => w.u8(0),
        BasisType::Newton { shifts } => {
            w.u8(1);
            w.f64s(shifts);
        }
        BasisType::Chebyshev {
            lambda_min,
            lambda_max,
        } => {
            w.u8(2);
            w.f64(*lambda_min);
            w.f64(*lambda_max);
        }
    }
}

fn decode_basis(r: &mut WireReader<'_>) -> BasisType {
    match r.u8() {
        0 => BasisType::Monomial,
        1 => BasisType::Newton { shifts: r.f64s() },
        2 => BasisType::Chebyshev {
            lambda_min: r.f64(),
            lambda_max: r.f64(),
        },
        k => panic!("setup: unknown basis kind {k}"),
    }
}

fn encode_method(w: &mut WireWriter, method: &Method) {
    match method {
        Method::Pcg => w.u8(0),
        Method::Pcg3 => w.u8(1),
        Method::SPcg { s, basis } => {
            w.u8(2);
            w.usize(*s);
            encode_basis(w, basis);
        }
        Method::SPcgMon { s } => {
            w.u8(3);
            w.usize(*s);
        }
        Method::CaPcg { s, basis } => {
            w.u8(4);
            w.usize(*s);
            encode_basis(w, basis);
        }
        Method::CaPcg3 { s, basis } => {
            w.u8(5);
            w.usize(*s);
            encode_basis(w, basis);
        }
        Method::AdaptiveCaPcg { s, basis } => {
            w.u8(6);
            w.usize(*s);
            encode_basis(w, basis);
        }
        Method::CaPcgGs { s, basis } => {
            w.u8(7);
            w.usize(*s);
            encode_basis(w, basis);
        }
        Method::EkCg { t } => {
            w.u8(8);
            w.usize(*t);
        }
    }
}

fn decode_method(r: &mut WireReader<'_>) -> Method {
    match r.u8() {
        0 => Method::Pcg,
        1 => Method::Pcg3,
        2 => Method::SPcg {
            s: r.usize(),
            basis: decode_basis(r),
        },
        3 => Method::SPcgMon { s: r.usize() },
        4 => Method::CaPcg {
            s: r.usize(),
            basis: decode_basis(r),
        },
        5 => Method::CaPcg3 {
            s: r.usize(),
            basis: decode_basis(r),
        },
        6 => Method::AdaptiveCaPcg {
            s: r.usize(),
            basis: decode_basis(r),
        },
        7 => Method::CaPcgGs {
            s: r.usize(),
            basis: decode_basis(r),
        },
        8 => Method::EkCg { t: r.usize() },
        k => panic!("setup: unknown method kind {k}"),
    }
}

impl Setup {
    fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u64(PROTO);
        w.usize(self.rank);
        w.usize(self.nranks);
        w.usizes(&self.offsets);
        w.usize(self.nrows);
        w.usize(self.ncols);
        w.usizes(&self.row_ptr);
        w.usizes(&self.col_idx);
        w.f64s(&self.values);
        w.f64s(&self.b);
        encode_spec(&mut w, &self.spec);
        encode_method(&mut w, &self.method);
        w.f64(self.tol);
        w.usize(self.max_iters);
        w.u8(match self.criterion {
            StoppingCriterion::TrueResidual2Norm => 0,
            StoppingCriterion::RecursiveResidual2Norm => 1,
            StoppingCriterion::PrecondMNorm => 2,
        });
        w.f64(self.divergence_factor);
        w.usize(self.stall_checks);
        w.u8(self.keep_history as u8);
        match self.residual_replacement {
            Some(f) => {
                w.u8(1);
                w.f64(f);
            }
            None => w.u8(0),
        }
        w.usize(self.threads);
        w.u8(self.overlap as u8);
        w.u8(match self.format {
            SparseFormat::Csr => 0,
            SparseFormat::Sell => 1,
        });
        match self.trace_cap {
            Some(cap) => {
                w.u8(1);
                w.usize(cap);
            }
            None => w.u8(0),
        }
        match self.faults {
            Some((seed, rate, mask)) => {
                w.u8(1);
                w.u64(seed);
                w.f64(rate);
                w.u8(mask);
            }
            None => w.u8(0),
        }
        match &self.resilience {
            Some(res) => {
                w.u8(1);
                w.usize(res.max_restarts);
                w.u8(res.shrink_s as u8);
                w.u8(res.gs_recovery as u8);
            }
            None => w.u8(0),
        }
        w.usize(self.adaptive.s_min);
        w.usize(self.adaptive.s_max);
        w.f64(self.adaptive.cond_grow);
        w.f64(self.adaptive.cond_shrink);
        w.f64(self.adaptive.cond_reject);
        w.f64(self.adaptive.gap_tol);
        w.f64(self.adaptive.drift_tol);
        w.usize(self.adaptive.grow_patience);
        w.usize(self.adaptive.min_ritz);
        w.usize(self.adaptive.max_ritz);
        w.f64(self.adaptive.margin);
        match self.kill_at_reduce {
            Some(n) => {
                w.u8(1);
                w.u64(n);
            }
            None => w.u8(0),
        }
        w.into_bytes()
    }

    fn decode(buf: &[u8]) -> Setup {
        let mut r = WireReader::new(buf);
        let proto = r.u64();
        assert_eq!(proto, PROTO, "setup: protocol mismatch (stale spcg-rankd?)");
        let s = Setup {
            rank: r.usize(),
            nranks: r.usize(),
            offsets: r.usizes(),
            nrows: r.usize(),
            ncols: r.usize(),
            row_ptr: r.usizes(),
            col_idx: r.usizes(),
            values: r.f64s(),
            b: r.f64s(),
            spec: decode_spec(&mut r),
            method: decode_method(&mut r),
            tol: r.f64(),
            max_iters: r.usize(),
            criterion: match r.u8() {
                0 => StoppingCriterion::TrueResidual2Norm,
                1 => StoppingCriterion::RecursiveResidual2Norm,
                2 => StoppingCriterion::PrecondMNorm,
                k => panic!("setup: unknown criterion {k}"),
            },
            divergence_factor: r.f64(),
            stall_checks: r.usize(),
            keep_history: r.u8() != 0,
            residual_replacement: (r.u8() != 0).then(|| r.f64()),
            threads: r.usize(),
            overlap: r.u8() != 0,
            format: match r.u8() {
                0 => SparseFormat::Csr,
                1 => SparseFormat::Sell,
                k => panic!("setup: unknown sparse format {k}"),
            },
            trace_cap: (r.u8() != 0).then(|| r.usize()),
            faults: (r.u8() != 0).then(|| (r.u64(), r.f64(), r.u8())),
            resilience: (r.u8() != 0).then(|| Resilience {
                max_restarts: r.usize(),
                shrink_s: r.u8() != 0,
                gs_recovery: r.u8() != 0,
            }),
            adaptive: AdaptivePolicy {
                s_min: r.usize(),
                s_max: r.usize(),
                cond_grow: r.f64(),
                cond_shrink: r.f64(),
                cond_reject: r.f64(),
                gap_tol: r.f64(),
                drift_tol: r.f64(),
                grow_patience: r.usize(),
                min_ritz: r.usize(),
                max_ritz: r.usize(),
                margin: r.f64(),
            },
            kill_at_reduce: (r.u8() != 0).then(|| r.u64()),
        };
        assert!(r.is_done(), "setup: trailing bytes");
        s
    }
}

/// A worker's solve outcome, shipped back as the `RESULT` frame.
struct WorkerResult {
    x_local: Vec<f64>,
    outcome: Outcome,
    iterations: usize,
    history: Vec<(usize, f64)>,
    counters: Counters,
    restarts: usize,
    s_schedule: Vec<usize>,
    /// Adaptive controller report (`Some` exactly for `AdaptiveCaPcg`).
    adaptive: Option<AdaptiveReport>,
    /// Faults this worker's plan injected, per site in `FAULT_SITES`
    /// order — credited into the parent plan via `record_remote`.
    site_deltas: [u64; 5],
    tracks: Vec<RawTrack>,
}

fn encode_counters(w: &mut WireWriter, c: &Counters) {
    w.u64s(&[
        c.spmv_count,
        c.spmv_flops,
        c.precond_count,
        c.precond_flops,
        c.global_collectives,
        c.allreduce_words,
        c.dot_count,
        c.local_reduction_flops,
        c.blas1_flops,
        c.blas2_flops,
        c.blas3_flops,
        c.small_flops,
        c.iterations,
        c.outer_iterations,
        c.halo_exchanges,
        c.halo_words,
        c.restarts,
    ]);
}

fn decode_counters(r: &mut WireReader<'_>) -> Counters {
    let v = r.u64s();
    assert_eq!(v.len(), 17, "result: counter field count");
    Counters {
        spmv_count: v[0],
        spmv_flops: v[1],
        precond_count: v[2],
        precond_flops: v[3],
        global_collectives: v[4],
        allreduce_words: v[5],
        dot_count: v[6],
        local_reduction_flops: v[7],
        blas1_flops: v[8],
        blas2_flops: v[9],
        blas3_flops: v[10],
        small_flops: v[11],
        iterations: v[12],
        outer_iterations: v[13],
        halo_exchanges: v[14],
        halo_words: v[15],
        restarts: v[16],
    }
}

impl WorkerResult {
    fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.f64s(&self.x_local);
        match &self.outcome {
            Outcome::Converged => w.u8(0),
            Outcome::MaxIterations => w.u8(1),
            Outcome::Diverged => w.u8(2),
            Outcome::Stagnated => w.u8(3),
            Outcome::Breakdown(msg) => {
                w.u8(4);
                w.str(msg);
            }
            // Ranked workers run plain solves, which never report a
            // deadline; encoded anyway so the codec stays total.
            Outcome::DeadlineExpired => w.u8(5),
        }
        w.usize(self.iterations);
        w.usizes(&self.history.iter().map(|&(i, _)| i).collect::<Vec<_>>());
        w.f64s(&self.history.iter().map(|&(_, v)| v).collect::<Vec<_>>());
        encode_counters(&mut w, &self.counters);
        w.usize(self.restarts);
        w.usizes(&self.s_schedule);
        match &self.adaptive {
            Some(rep) => {
                w.u8(1);
                w.usize(rep.shift_history.len());
                for u in &rep.shift_history {
                    w.usize(u.iteration);
                    w.str(&u.basis);
                    w.f64(u.lambda_min);
                    w.f64(u.lambda_max);
                    w.usize(u.ritz_count);
                }
                w.f64s(&rep.ritz);
            }
            None => w.u8(0),
        }
        w.u64s(&self.site_deltas);
        w.usize(self.tracks.len());
        for t in &self.tracks {
            w.usize(t.rank);
            w.usize(t.thread);
            w.u64(t.dropped);
            w.usize(t.events.len());
            for &(phase, begin, t_ns) in &t.events {
                w.usize(phase);
                w.u8(begin as u8);
                w.u64(t_ns);
            }
        }
        w.into_bytes()
    }

    fn decode(buf: &[u8]) -> WorkerResult {
        let mut r = WireReader::new(buf);
        let x_local = r.f64s();
        let outcome = match r.u8() {
            0 => Outcome::Converged,
            1 => Outcome::MaxIterations,
            2 => Outcome::Diverged,
            3 => Outcome::Stagnated,
            4 => Outcome::Breakdown(r.str()),
            5 => Outcome::DeadlineExpired,
            k => panic!("result: unknown outcome {k}"),
        };
        let iterations = r.usize();
        let hist_iters = r.usizes();
        let hist_vals = r.f64s();
        assert_eq!(hist_iters.len(), hist_vals.len(), "result: history length");
        let history = hist_iters.into_iter().zip(hist_vals).collect();
        let counters = decode_counters(&mut r);
        let restarts = r.usize();
        let s_schedule = r.usizes();
        let adaptive = (r.u8() != 0).then(|| {
            let nshifts = r.usize();
            let mut shift_history = Vec::with_capacity(nshifts);
            for _ in 0..nshifts {
                shift_history.push(ShiftUpdate {
                    iteration: r.usize(),
                    basis: r.str(),
                    lambda_min: r.f64(),
                    lambda_max: r.f64(),
                    ritz_count: r.usize(),
                });
            }
            AdaptiveReport {
                shift_history,
                ritz: r.f64s(),
            }
        });
        let deltas = r.u64s();
        assert_eq!(deltas.len(), 5, "result: fault site count");
        let mut site_deltas = [0u64; 5];
        site_deltas.copy_from_slice(&deltas);
        let ntracks = r.usize();
        let mut tracks = Vec::with_capacity(ntracks);
        for _ in 0..ntracks {
            let rank = r.usize();
            let thread = r.usize();
            let dropped = r.u64();
            let nevents = r.usize();
            let mut events = Vec::with_capacity(nevents);
            for _ in 0..nevents {
                events.push((r.usize(), r.u8() != 0, r.u64()));
            }
            tracks.push(RawTrack {
                rank,
                thread,
                events,
                dropped,
            });
        }
        assert!(r.is_done(), "result: trailing bytes");
        WorkerResult {
            x_local,
            outcome,
            iterations,
            history,
            counters,
            restarts,
            s_schedule,
            adaptive,
            site_deltas,
            tracks,
        }
    }
}

/// The `WANT` frame, a completion request: board, round, and the runs
/// `(first board index, words)` whose words the `BOARD` reply must carry, in
/// this order. A halo completion sends its [`GatherPlan`]'s runs; a snapshot
/// is the single run `(0, n)`.
struct Want {
    board_id: usize,
    round: u64,
    runs: Vec<(usize, usize)>,
}

impl Want {
    fn encode(board_id: u8, round: u64, runs: impl Iterator<Item = (usize, usize)>) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.u8(board_id);
        w.u64(round);
        w.usizes(
            &runs
                .flat_map(|(start, len)| [start, len])
                .collect::<Vec<_>>(),
        );
        w.into_bytes()
    }

    /// Parses a request against a board of `n` words. Every run must lie
    /// inside the board, and together they may ask for at most one board's
    /// worth of words (ghost indices are distinct), which bounds the reply
    /// the hub builds.
    fn decode(payload: &[u8], n: usize) -> Result<Want, String> {
        let mut r = WireReader::new(payload);
        let board_id = r.u8() as usize;
        let round = r.u64();
        let flat = r.usizes();
        if board_id >= 2 || flat.len() % 2 != 0 || !r.is_done() {
            return Err(format!("malformed WANT for board {board_id}"));
        }
        let runs: Vec<(usize, usize)> = flat.chunks_exact(2).map(|p| (p[0], p[1])).collect();
        let mut total = 0usize;
        for &(start, len) in &runs {
            if !start.checked_add(len).is_some_and(|end| end <= n) {
                return Err(format!(
                    "WANT run [{start}, +{len}) leaves the {n}-word board"
                ));
            }
            total += len;
            if total > n {
                return Err(format!("WANT asks for more than the {n}-word board"));
            }
        }
        Ok(Want {
            board_id,
            round,
            runs,
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
    nranks: usize,
}

impl Link {
    fn send(&self, tag: u8, payload: &[u8]) {
        write_frame(&mut *self.writer.borrow_mut(), tag, payload)
            .unwrap_or_else(|e| panic!("rankd[{}]: hub write failed: {e}", self.rank));
    }

    /// Reads the next frame, asserting it carries the awaited tag — the
    /// protocol is strict request/reply, so anything else is a bug.
    fn expect(&self, tag: u8) -> Vec<u8> {
        let (got, payload) = read_frame(&mut *self.reader.borrow_mut())
            .unwrap_or_else(|e| panic!("rankd[{}]: hub read failed: {e}", self.rank));
        assert_eq!(
            got, tag,
            "rankd[{}]: expected frame tag {tag}, got {got}",
            self.rank
        );
        payload
    }
}

/// [`Comm`] over the hub: barriers and rank-order-summed allreduces as
/// single request/reply round trips.
struct ProcComm {
    link: Rc<Link>,
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
        self.link.nranks
    }

    fn barrier(&self) {
        self.link.send(TAG_BARRIER, &[]);
        let reply = self.link.expect(TAG_BARRIER_OK);
        assert!(reply.is_empty(), "barrier: unexpected payload");
    }

    fn allreduce_sum(&self, buf: &mut [f64]) {
        let seq = self.reduces.get();
        self.reduces.set(seq + 1);
        if self.kill_at_reduce == Some(seq) {
            // Simulated hardware loss: no farewell frame, just a dead
            // socket for the hub's reader to trip over.
            std::process::exit(3);
        }
        let mut w = WireWriter::new();
        w.f64s(buf);
        self.link.send(TAG_REDUCE, &w.into_bytes());
        let reply = self.link.expect(TAG_REDUCE_SUM);
        let mut r = WireReader::new(&reply);
        let sum = r.f64s();
        assert_eq!(sum.len(), buf.len(), "allreduce: length mismatch");
        buf.copy_from_slice(&sum);
    }
}

/// [`Exchange`] over the hub, mirroring `VectorBoard`'s observable
/// behaviour: the same epoch asserts, the same `(site, salt, rank,
/// round)` fault decision points in the same order, the same
/// `ExchangePost`/`ExchangeWait` spans. A completion asks the hub for the
/// runs of its [`GatherPlan`] and receives exactly those words.
struct ProcBoard {
    link: Rc<Link>,
    /// Which of the two hub boards this is (exchange seed vs `M⁻¹`-seed).
    board_id: u8,
    offsets: Arc<Vec<usize>>,
    /// Round this rank has posted (local view of the hub epoch).
    published: Cell<u64>,
    /// Round this rank has finished reading.
    consumed: Cell<u64>,
    faults: Option<FaultPlan>,
    /// Fault-decision salt: 0 and 1, matching the thread backend's boards.
    salt: u64,
}

impl ProcBoard {
    fn new(
        link: Rc<Link>,
        board_id: u8,
        offsets: Arc<Vec<usize>>,
        faults: Option<FaultPlan>,
    ) -> Self {
        ProcBoard {
            link,
            board_id,
            offsets,
            published: Cell::new(0),
            consumed: Cell::new(0),
            faults,
            salt: board_id as u64,
        }
    }

    /// Completes the current round: request `runs` of the board and copy
    /// the reply, which carries those words in order, into `out`. The hub
    /// holds the reply until every rank has published the round, which is
    /// exactly `VectorBoard`'s completion wait.
    fn fetch(
        &self,
        runs: impl Iterator<Item = (usize, usize)>,
        out: &mut [f64],
        track: Option<&Track>,
    ) {
        let _span = spcg_obs::span(track, Phase::ExchangeWait);
        let me = self.link.rank;
        let round = self.published.get();
        assert_eq!(
            self.consumed.get() + 1,
            round,
            "complete: rank {me} has not posted this round"
        );
        if self
            .faults
            .as_ref()
            .map(|p| p.fire(spcg_dist::FaultSite::CompleteStall, self.salt, me, round))
            .unwrap_or(false)
        {
            std::thread::sleep(spcg_dist::fault::STALL);
        }
        self.link
            .send(TAG_WANT, &Want::encode(self.board_id, round, runs));
        let reply = self.link.expect(TAG_BOARD);
        let mut r = WireReader::new(&reply);
        r.f64s_into(out);
        assert!(r.is_done(), "complete: trailing bytes in board reply");
        self.consumed.set(round);
    }
}

impl Exchange for ProcBoard {
    fn post(&self, chunk: &[f64], track: Option<&Track>) {
        let _span = spcg_obs::span(track, Phase::ExchangePost);
        let me = self.link.rank;
        let (lo, hi) = self.range(me);
        assert_eq!(chunk.len(), hi - lo, "post: chunk length mismatch");
        assert_eq!(
            self.consumed.get(),
            self.published.get(),
            "post: previous round not completed on rank {me}"
        );
        let round = self.published.get() + 1;
        // Same decision sequence as `VectorBoard::post`: poison the sent
        // copy's last entry, stall before the publish, then optionally
        // re-publish the identical payload. The hub's pending-post queue
        // absorbs the duplicate idempotently.
        let mut owned = chunk.to_vec();
        let faults = self.faults.as_ref();
        let poisoned = faults
            .map(|p| p.fire(spcg_dist::FaultSite::PoisonHalo, self.salt, me, round))
            .unwrap_or(false);
        if poisoned && hi > lo {
            *owned.last_mut().unwrap() = f64::NAN;
        }
        if faults
            .map(|p| p.fire(spcg_dist::FaultSite::PostStall, self.salt, me, round))
            .unwrap_or(false)
        {
            std::thread::sleep(spcg_dist::fault::STALL);
        }
        let mut w = WireWriter::new();
        w.u8(self.board_id);
        w.u64(round);
        w.f64s(&owned);
        let payload = w.into_bytes();
        self.link.send(TAG_POST, &payload);
        self.published.set(round);
        if faults
            .map(|p| p.fire(spcg_dist::FaultSite::PublishDuplicate, self.salt, me, round))
            .unwrap_or(false)
        {
            self.link.send(TAG_POST, &payload);
        }
    }

    fn complete_into(&self, plan: &GatherPlan, out: &mut [f64], track: Option<&Track>) {
        assert_eq!(
            out.len(),
            plan.words(),
            "complete_into: out length mismatch"
        );
        self.fetch(plan.runs(), out, track);
    }

    fn complete_snapshot(&self, track: Option<&Track>) -> Vec<f64> {
        let n = *self.offsets.last().unwrap();
        let mut full = vec![0.0; n];
        self.fetch(std::iter::once((0, n)), &mut full, track);
        full
    }

    fn plan(&self, indices: &[usize]) -> GatherPlan {
        GatherPlan::build(&self.offsets, indices)
    }

    fn range(&self, rank: usize) -> (usize, usize) {
        (self.offsets[rank], self.offsets[rank + 1])
    }
}

/// Entry point of the `spcg-rankd` worker binary: connect, say hello,
/// receive the Setup, run the rank, ship the result. Never returns.
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
    let mut reader = BufReader::new(stream.try_clone().expect("rankd: clone stream"));
    let mut hello = WireWriter::new();
    hello.u64(PROTO);
    hello.usize(rank);
    write_frame(&mut &stream, TAG_HELLO, &hello.into_bytes()).expect("rankd: hello");
    let (tag, payload) = read_frame(&mut reader).expect("rankd: setup read");
    assert_eq!(
        tag, TAG_SETUP,
        "rankd[{rank}]: expected setup, got tag {tag}"
    );
    let setup = Setup::decode(&payload);
    assert_eq!(setup.rank, rank, "rankd[{rank}]: setup for wrong rank");
    let link = Rc::new(Link {
        reader: RefCell::new(reader),
        writer: RefCell::new(stream),
        rank,
        nranks: setup.nranks,
    });
    let result = run_worker(&setup, Rc::clone(&link));
    link.send(TAG_RESULT, &result.encode());
    std::process::exit(0);
}

/// Runs one rank's solve against the hub — the process-backend twin of
/// `run_ranked`'s per-rank closure.
fn run_worker(setup: &Setup, link: Rc<Link>) -> WorkerResult {
    let a = Arc::new(CsrMatrix::from_raw(
        setup.nrows,
        setup.ncols,
        setup.row_ptr.clone(),
        setup.col_idx.clone(),
        setup.values.clone(),
    ));
    let m = setup.spec.build(&a);
    let problem = Problem::new(&a, &*m, &setup.b);
    let offsets = Arc::new(setup.offsets.clone());
    let (lo, hi) = (offsets[setup.rank], offsets[setup.rank + 1]);
    let plan = setup
        .faults
        .map(|(seed, rate, mask)| FaultPlan::new(seed, rate).with_sites_mask(mask));
    let tracer = setup.trace_cap.map(Tracer::with_capacity);
    let track = tracer.as_ref().map(|t| t.track(setup.rank));
    // Built field by field from the Setup — never from `Default`, which
    // would let the worker's environment bleed into the solve.
    let opts = SolveOptions {
        tol: setup.tol,
        max_iters: setup.max_iters,
        criterion: setup.criterion,
        divergence_factor: setup.divergence_factor,
        stall_checks: setup.stall_checks,
        keep_history: setup.keep_history,
        residual_replacement: setup.residual_replacement,
        threads: setup.threads,
        overlap: setup.overlap,
        format: setup.format,
        backend: Backend::Thread,
        trace: tracer.clone(),
        faults: plan.clone(),
        resilience: setup.resilience.clone(),
        adaptive: setup.adaptive.clone(),
    };
    let mpk_depth = setup.method.mpk_depth(&opts);
    let comm = ProcComm {
        link: Rc::clone(&link),
        kill_at_reduce: setup.kill_at_reduce,
        reduces: Cell::new(0),
    };
    let board = ProcBoard::new(Rc::clone(&link), 0, Arc::clone(&offsets), plan.clone());
    let board2 = ProcBoard::new(Rc::clone(&link), 1, Arc::clone(&offsets), plan.clone());
    let mut exec = crate::engine::RankExec::new(
        &problem,
        Box::new(comm),
        lo,
        hi,
        Box::new(board),
        Box::new(board2),
        mpk_depth,
        setup.threads,
        setup.overlap,
        setup.format,
        track,
        plan.clone(),
    );
    let res = solve_resilient(&setup.method, &mut exec, &opts, setup.resilience.as_ref());
    drop(exec); // drains this rank's trace track into the tracer
    let mut site_deltas = [0u64; 5];
    if let Some(p) = &plan {
        let counts = p.counts();
        for (i, site) in FAULT_SITES.iter().enumerate() {
            site_deltas[i] = counts.site(*site);
        }
    }
    WorkerResult {
        x_local: res.x,
        outcome: res.outcome,
        iterations: res.iterations,
        history: res.history,
        counters: res.counters,
        restarts: res.restarts,
        s_schedule: res.s_schedule,
        adaptive: res.adaptive,
        site_deltas,
        tracks: tracer.map(|t| t.raw_tracks()).unwrap_or_default(),
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
    if let Some(p) = crate::options::env::raw("SPCG_RANKD") {
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

/// Per-board exchange state the hub keeps on behalf of the world — the
/// `VectorBoard` flags table, one socket hop away.
struct HubBoard {
    data: Vec<f64>,
    published: Vec<u64>,
    consumed: Vec<u64>,
    /// Posts that arrived before every rank consumed the previous round.
    pending_post: Vec<VecDeque<(u64, Vec<f64>)>>,
    /// Completion requests awaiting the round's last publisher.
    pending_want: Vec<Option<Want>>,
}

impl HubBoard {
    fn new(n: usize, nranks: usize) -> Self {
        HubBoard {
            data: vec![0.0; n],
            published: vec![0; nranks],
            consumed: vec![0; nranks],
            pending_post: vec![VecDeque::new(); nranks],
            pending_want: (0..nranks).map(|_| None).collect(),
        }
    }
}

enum HubMsg {
    Frame(usize, u8, Vec<u8>),
    /// The rank's socket hit EOF or an error. Normal after its RESULT
    /// frame; rank death before it.
    Gone(usize),
}

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
    let v = crate::options::env::raw("SPCG_PROC_KILL")?;
    let (rank, nth) = v.split_once(':')?;
    Some((rank.trim().parse().ok()?, nth.trim().parse().ok()?))
}

/// Applies every hub-side state transition that has become legal, to a
/// fixpoint: posts whose previous round is fully consumed, completions
/// whose round is fully published. Replies are written synchronously —
/// the requesting worker is blocked reading them.
fn drain_board(
    board: &mut HubBoard,
    offsets: &[usize],
    writers: &mut [UnixStream],
) -> Result<(), WorldError> {
    let nranks = writers.len();
    loop {
        let mut progressed = false;
        for r in 0..nranks {
            if let Some(&(round, _)) = board.pending_post[r].front() {
                let apply = if round == board.published[r] {
                    // PublishDuplicate's second copy of an already-applied
                    // round: identical payload, re-apply idempotently.
                    true
                } else {
                    assert_eq!(
                        round,
                        board.published[r] + 1,
                        "hub: rank {r} posted round {round} out of order"
                    );
                    board.consumed.iter().all(|&c| c + 1 >= round)
                };
                if apply {
                    let (round, chunk) = board.pending_post[r].pop_front().unwrap();
                    board.data[offsets[r]..offsets[r + 1]].copy_from_slice(&chunk);
                    board.published[r] = board.published[r].max(round);
                    progressed = true;
                }
            }
        }
        for r in 0..nranks {
            let ready = board.pending_want[r]
                .as_ref()
                .is_some_and(|want| board.published.iter().all(|&p| p >= want.round));
            if ready {
                let Want { round, runs, .. } = board.pending_want[r].take().unwrap();
                // The f64-sequence layout, written run by run.
                let mut w = WireWriter::new();
                w.usize(runs.iter().map(|&(_, len)| len).sum());
                for (start, len) in runs {
                    for &v in &board.data[start..start + len] {
                        w.f64(v);
                    }
                }
                write_frame(&mut writers[r], TAG_BOARD, &w.into_bytes())
                    .map_err(|_| WorldError::RankDied(r))?;
                // The reply *is* the consumption: the rank now holds
                // everything it asked to gather from this round.
                board.consumed[r] = round;
                progressed = true;
            }
        }
        if !progressed {
            return Ok(());
        }
    }
}

/// Runs one world incarnation: spawn `spcg-rankd` per rank, feed Setups,
/// relay exchanges/reductions until every rank ships its result.
fn run_world(
    rankd: &PathBuf,
    setups: &[Setup],
    offsets: &[usize],
) -> Result<Vec<WorkerResult>, WorldError> {
    let nranks = setups.len();
    let n = *offsets.last().unwrap();
    let path = sock_path();
    let _cleanup = SockCleanup(path.clone());
    let listener = UnixListener::bind(&path)
        .map_err(|e| WorldError::Fatal(format!("bind {}: {e}", path.display())))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| WorldError::Fatal(format!("listener: {e}")))?;

    let mut reaper = ChildReaper(Vec::with_capacity(nranks));
    for rank in 0..nranks {
        let child = Command::new(rankd)
            .arg(&path)
            .arg(rank.to_string())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| WorldError::Fatal(format!("spawn {}: {e}", rankd.display())))?;
        reaper.0.push(child);
    }

    // Accept all workers; the Hello frame tells us who is who (accept
    // order is scheduler-dependent).
    let mut streams: Vec<Option<UnixStream>> = (0..nranks).map(|_| None).collect();
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    let mut connected = 0;
    let mut poll = ACCEPT_POLL.0;
    while connected < nranks {
        match listener.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| WorldError::Fatal(format!("accept: {e}")))?;
                let mut rdr = BufReader::new(
                    stream
                        .try_clone()
                        .map_err(|e| WorldError::Fatal(format!("clone: {e}")))?,
                );
                let (tag, payload) =
                    read_frame(&mut rdr).map_err(|e| WorldError::Fatal(format!("hello: {e}")))?;
                if tag != TAG_HELLO {
                    return Err(WorldError::Fatal(format!("expected hello, got tag {tag}")));
                }
                let mut r = WireReader::new(&payload);
                let proto = r.u64();
                if proto != PROTO {
                    return Err(WorldError::Fatal(format!(
                        "spcg-rankd speaks protocol {proto}, parent speaks {PROTO} — rebuild"
                    )));
                }
                let rank = r.usize();
                if rank >= nranks || streams[rank].is_some() {
                    return Err(WorldError::Fatal(format!("bogus hello from rank {rank}")));
                }
                streams[rank] = Some(stream);
                connected += 1;
                poll = ACCEPT_POLL.0;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(WorldError::Fatal(format!(
                        "only {connected}/{nranks} workers connected within {CONNECT_TIMEOUT:?}"
                    )));
                }
                std::thread::sleep(poll);
                poll = (poll * 2).min(ACCEPT_POLL.1);
            }
            Err(e) => return Err(WorldError::Fatal(format!("accept: {e}"))),
        }
    }
    let mut writers: Vec<UnixStream> = streams.into_iter().map(|s| s.unwrap()).collect();

    for (rank, setup) in setups.iter().enumerate() {
        write_frame(&mut writers[rank], TAG_SETUP, &setup.encode())
            .map_err(|_| WorldError::RankDied(rank))?;
    }

    let (tx, rx) = mpsc::channel::<HubMsg>();
    let mut reader_handles = Vec::with_capacity(nranks);
    for (rank, stream) in writers.iter().enumerate() {
        let tx = tx.clone();
        let mut rdr = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| WorldError::Fatal(format!("clone: {e}")))?,
        );
        reader_handles.push(std::thread::spawn(move || loop {
            match read_frame(&mut rdr) {
                Ok((tag, payload)) => {
                    if tx.send(HubMsg::Frame(rank, tag, payload)).is_err() {
                        return;
                    }
                }
                Err(_) => {
                    let _ = tx.send(HubMsg::Gone(rank));
                    return;
                }
            }
        }));
    }
    drop(tx);

    let hub = hub_loop(&rx, &mut writers, offsets, n, nranks);
    // Readers exit on their own once the sockets close (reaper kills any
    // stragglers when it drops); detach rather than block on a wedge.
    drop(rx);
    drop(reaper);
    for h in reader_handles {
        let _ = h.join();
    }
    hub
}

/// The hub's message loop: applies board/barrier/reduce transitions until
/// every rank's RESULT has arrived.
fn hub_loop(
    rx: &mpsc::Receiver<HubMsg>,
    writers: &mut [UnixStream],
    offsets: &[usize],
    n: usize,
    nranks: usize,
) -> Result<Vec<WorkerResult>, WorldError> {
    let mut boards = [HubBoard::new(n, nranks), HubBoard::new(n, nranks)];
    let mut barrier_in: Vec<bool> = vec![false; nranks];
    let mut reduce_slots: Vec<Option<Vec<f64>>> = vec![None; nranks];
    let mut results: Vec<Option<WorkerResult>> = (0..nranks).map(|_| None).collect();
    let mut done = 0;
    while done < nranks {
        let msg = rx
            .recv_timeout(HUB_TIMEOUT)
            .map_err(|_| WorldError::Fatal(format!("hub: no worker message in {HUB_TIMEOUT:?}")))?;
        match msg {
            HubMsg::Gone(rank) => {
                if results[rank].is_none() {
                    return Err(WorldError::RankDied(rank));
                }
            }
            HubMsg::Frame(rank, TAG_POST, payload) => {
                let mut r = WireReader::new(&payload);
                let board_id = r.u8() as usize;
                let round = r.u64();
                let chunk = r.f64s();
                assert!(board_id < 2, "hub: bogus board id");
                assert_eq!(
                    chunk.len(),
                    offsets[rank + 1] - offsets[rank],
                    "hub: post chunk length"
                );
                boards[board_id].pending_post[rank].push_back((round, chunk));
                drain_board(&mut boards[board_id], offsets, writers)?;
            }
            HubMsg::Frame(rank, TAG_WANT, payload) => {
                let want = Want::decode(&payload, n)
                    .map_err(|e| WorldError::Fatal(format!("hub: rank {rank}: {e}")))?;
                let board = &mut boards[want.board_id];
                assert!(
                    board.pending_want[rank].is_none(),
                    "hub: rank {rank} double-completed"
                );
                board.pending_want[rank] = Some(want);
                drain_board(board, offsets, writers)?;
            }
            HubMsg::Frame(rank, TAG_BARRIER, _) => {
                assert!(!barrier_in[rank], "hub: rank {rank} double-barriered");
                barrier_in[rank] = true;
                if barrier_in.iter().all(|&b| b) {
                    for (r, w) in writers.iter_mut().enumerate() {
                        write_frame(w, TAG_BARRIER_OK, &[]).map_err(|_| WorldError::RankDied(r))?;
                    }
                    barrier_in.iter_mut().for_each(|b| *b = false);
                }
            }
            HubMsg::Frame(rank, TAG_REDUCE, payload) => {
                let mut r = WireReader::new(&payload);
                let slot = r.f64s();
                assert!(
                    reduce_slots[rank].is_none(),
                    "hub: rank {rank} double-reduced"
                );
                reduce_slots[rank] = Some(slot);
                if reduce_slots.iter().all(|s| s.is_some()) {
                    let len = reduce_slots[0].as_ref().unwrap().len();
                    // Zero + rank-order accumulation: bitwise identical to
                    // ThreadComm::allreduce_sum for every arrival order.
                    let mut sum = vec![0.0; len];
                    for slot in reduce_slots.iter() {
                        let slot = slot.as_ref().unwrap();
                        assert_eq!(slot.len(), len, "hub: allreduce length mismatch");
                        for (acc, v) in sum.iter_mut().zip(slot) {
                            *acc += v;
                        }
                    }
                    let mut w = WireWriter::new();
                    w.f64s(&sum);
                    let frame = w.into_bytes();
                    for (r, wtr) in writers.iter_mut().enumerate() {
                        write_frame(wtr, TAG_REDUCE_SUM, &frame)
                            .map_err(|_| WorldError::RankDied(r))?;
                    }
                    reduce_slots.iter_mut().for_each(|s| *s = None);
                }
            }
            HubMsg::Frame(rank, TAG_RESULT, payload) => {
                assert!(results[rank].is_none(), "hub: rank {rank} double result");
                results[rank] = Some(WorkerResult::decode(&payload));
                done += 1;
            }
            HubMsg::Frame(rank, tag, _) => {
                return Err(WorldError::Fatal(format!(
                    "hub: unexpected frame tag {tag} from rank {rank}"
                )));
            }
        }
    }
    Ok(results.into_iter().map(|r| r.unwrap()).collect())
}

/// Runs `method` over `ranks` worker processes — the proc-backend twin of
/// `run_ranked`, assembling the identical `SolveResult`. `Err` means the
/// transport could not run at all (the caller falls back to threads);
/// rank deaths are healed internally by respawning the world.
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
    let n = problem.n();
    let part = BlockRowPartition::balanced(n, ranks);
    let offsets: Vec<usize> = (0..=ranks)
        .map(|p| if p == 0 { 0 } else { part.range(p - 1).1 })
        .collect();
    let plan = opts.faults.clone().filter(|p| p.active() && ranks > 1);
    let resilience = opts
        .resilience
        .clone()
        .or_else(|| plan.as_ref().map(|_| Resilience::default()));
    let before = plan.as_ref().map(|p| p.counts());
    let kill = kill_directive();

    let mut incarnation = 0usize;
    let results = loop {
        let setups: Vec<Setup> = (0..ranks)
            .map(|rank| Setup {
                rank,
                nranks: ranks,
                offsets: offsets.clone(),
                nrows: problem.a.nrows(),
                ncols: problem.a.ncols(),
                row_ptr: problem.a.row_ptr().to_vec(),
                col_idx: problem.a.col_idx().to_vec(),
                values: problem.a.values().to_vec(),
                b: problem.b.to_vec(),
                spec: spec.clone(),
                method: method.clone(),
                tol: opts.tol,
                max_iters: opts.max_iters,
                criterion: opts.criterion,
                divergence_factor: opts.divergence_factor,
                stall_checks: opts.stall_checks,
                keep_history: opts.keep_history,
                residual_replacement: opts.residual_replacement,
                threads: opts.threads,
                overlap: opts.overlap,
                format: opts.format,
                trace_cap: opts.trace.as_ref().map(|t| t.capacity()),
                faults: plan.as_ref().map(|p| (p.seed(), p.rate(), p.sites_mask())),
                resilience: resilience.clone(),
                adaptive: opts.adaptive.clone(),
                kill_at_reduce: kill
                    .filter(|&(target, _)| incarnation == 0 && target == rank)
                    .map(|(_, nth)| nth),
            })
            .collect();
        match run_world(&rankd, &setups, &offsets) {
            Ok(results) => break results,
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

    // Assemble exactly like `run_ranked`: x is the concatenation of the
    // rank blocks, everything else comes from rank 0 (SPMD control flow
    // makes every rank's view of the collective run identical).
    let mut x = Vec::with_capacity(n);
    for r in &results {
        x.extend_from_slice(&r.x_local);
    }
    if let Some(tracer) = &opts.trace {
        for r in &results {
            for t in r.tracks.clone() {
                tracer.import_raw(t);
            }
        }
    }
    if let Some(plan) = &plan {
        for r in &results {
            for (i, site) in FAULT_SITES.iter().enumerate() {
                plan.record_remote(*site, r.site_deltas[i]);
            }
        }
    }
    let r0 = &results[0];
    let mut out = SolveResult {
        x,
        outcome: r0.outcome.clone(),
        iterations: r0.iterations,
        history: r0.history.clone(),
        counters: r0.counters.clone(),
        collectives_per_rank: Some(r0.counters.global_collectives),
        restarts: r0.restarts,
        s_schedule: r0.s_schedule.clone(),
        faults_absorbed: 0,
        adaptive: r0.adaptive.clone(),
    };
    if let (Some(plan), Some(before)) = (&plan, &before) {
        out.faults_absorbed = plan.counts().since(before).total();
    }
    // World respawns are restarts the driver took on the caller's behalf;
    // charge them like the resilience layer charges its own.
    out.restarts += incarnation;
    out.counters.restarts += incarnation as u64;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn want(runs: &[(usize, usize)]) -> Vec<u8> {
        Want::encode(1, 7, runs.iter().copied())
    }

    #[test]
    fn want_roundtrips_a_plan_and_a_snapshot() {
        let w = Want::decode(&want(&[(4, 2), (0, 1), (9, 1)]), 10).unwrap();
        assert_eq!((w.board_id, w.round), (1, 7));
        assert_eq!(w.runs, vec![(4, 2), (0, 1), (9, 1)]);
        assert_eq!(Want::decode(&want(&[(0, 10)]), 10).unwrap().runs, [(0, 10)]);
        assert!(Want::decode(&want(&[]), 10).unwrap().runs.is_empty());
    }

    #[test]
    fn want_outside_the_board_is_rejected() {
        for bad in [
            &[(10, 1)][..],     // starts past the end
            &[(8, 3)],          // overlaps the end
            &[(usize::MAX, 2)], // start + len overflows
            &[(0, 10), (3, 1)], // more than one board of words
        ] {
            assert!(Want::decode(&want(bad), 10).is_err(), "{bad:?}");
        }
        // An odd-length run list and a board the hub does not have.
        let mut odd = WireWriter::new();
        odd.u8(0);
        odd.u64(1);
        odd.usizes(&[0, 1, 2]);
        assert!(Want::decode(&odd.into_bytes(), 10).is_err());
        assert!(Want::decode(&Want::encode(2, 1, std::iter::empty()), 10).is_err());
    }

    /// The hub answers a completion with the requested words only, in run
    /// order, once the round is fully published — and not before.
    #[test]
    fn hub_replies_with_the_requested_runs() {
        let offsets = [0, 3, 6];
        let mut board = HubBoard::new(6, 2);
        let (hub0, mut rank0) = UnixStream::pair().unwrap();
        let (hub1, _rank1) = UnixStream::pair().unwrap();
        let mut writers = [hub0, hub1];
        rank0.set_nonblocking(true).unwrap();

        board.pending_post[0].push_back((1, vec![0.0, 1.0, 2.0]));
        let request = Want::encode(0, 1, [(5, 1), (3, 2)].into_iter());
        board.pending_want[0] = Some(Want::decode(&request, 6).unwrap());
        assert!(drain_board(&mut board, &offsets, &mut writers).is_ok());
        let early = read_frame(&mut rank0).unwrap_err();
        assert_eq!(early.kind(), std::io::ErrorKind::WouldBlock);
        assert_eq!(board.consumed, [0, 0]);

        board.pending_post[1].push_back((1, vec![3.0, 4.0, 5.0]));
        assert!(drain_board(&mut board, &offsets, &mut writers).is_ok());
        rank0.set_nonblocking(false).unwrap();
        let (tag, reply) = read_frame(&mut rank0).unwrap();
        assert_eq!(tag, TAG_BOARD);
        assert_eq!(
            reply.len(),
            8 + 3 * 8,
            "three words, not the six-word board"
        );
        let mut halo = [0.0; 3];
        WireReader::new(&reply).f64s_into(&mut halo);
        assert_eq!(halo, [5.0, 3.0, 4.0]);
        // The reply is the consumption.
        assert_eq!(board.consumed, [1, 0]);
        assert!(board.pending_want[0].is_none());
    }
}
