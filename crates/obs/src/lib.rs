//! Span-based tracing and per-rank timeline observability.
//!
//! The FLOP/communication `Counters` of the solver stack say *how much*
//! work of each class a solve performed; this crate says *where the
//! wall-clock went*. A [`Tracer`] hands every rank a
//! [`Track`]; the rank opens RAII [`Span`]s (`track.span(Phase::Spmv)`)
//! around the phases of the paper's §4 cost model — SpMV, MPK levels,
//! preconditioner applies, Gram products, scalar work, vector updates —
//! plus the split-phase exchange phases (`ExchangePost`, `ExchangeWait`,
//! `Frontier`) whose relative placement shows whether the overlapped halo
//! exchange actually hides communication behind interior computation.
//!
//! Design constraints, in priority order:
//!
//! 1. **Tracing off is a no-op.** Every instrumentation site branches on
//!    an `Option`; with `None` no timestamp is taken and no allocation
//!    happens. Solver results and counters are bitwise identical with
//!    tracing on, off, or absent — spans only *observe*.
//! 2. **Recording is lock-free.** A [`Track`] owns its event buffer
//!    (single-threaded `RefCell<Vec<Event>>`); the only synchronization
//!    is one mutex acquisition when the track drains into the shared
//!    [`Tracer`] at rank exit (RAII, on drop).
//! 3. **Bounded.** Each track stops recording after a configurable event
//!    cap (default 1 M events; [`Tracer::with_capacity`] overrides) and
//!    counts what it dropped, so tracing a long solve cannot exhaust memory.
//!
//! Two exporters read the collected tracks:
//!
//! * [`Tracer::chrome_trace_json`] — Chrome trace-event JSON (load in
//!   `chrome://tracing` or <https://ui.perfetto.dev>), one track per
//!   rank×thread (`pid` = rank, `tid` = thread), `B`/`E` duration events;
//! * [`Tracer::summary_json`] / [`Tracer::export_json`] — per-phase
//!   aggregation (count, total/min/max/mean wall-clock) with an optional
//!   caller-supplied counters object spliced in, the shape written to
//!   `results/TRACE_*.json`.
//!
//! [`validate_chrome_trace`] round-trips an export through the bundled
//! minimal JSON parser ([`json`]) and checks the `B`/`E` events of every
//! track nest and are monotone — the well-formedness check CI runs on
//! exported traces.

pub mod json;

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default per-track event cap (one `B` + one `E` per span).
pub const DEFAULT_EVENT_CAP: usize = 1 << 20;

/// The fixed phase taxonomy, matching the cost classes of the paper's
/// Table 1 plus the split-phase exchange schedule of the ranked engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Sparse matrix–vector product (interior rows under the overlapped
    /// schedule — the work that runs *inside* the exchange window).
    Spmv,
    /// One level (column) of the matrix powers kernel past the first
    /// product: recurrence SpMV plus basis corrections.
    MpkLevel,
    /// Preconditioner application.
    Precond,
    /// Local reduction work: dot products and Gram-matrix blocks,
    /// including the allreduce combining the partials.
    Gram,
    /// Replicated `O(s³)` scalar work (Alg. 6 coefficient systems).
    ScalarWork,
    /// Vector/block updates: AXPY, three-term recurrences, `P ← U + P·B`.
    VecUpdate,
    /// Split-phase exchange send side: publish the owned chunk.
    ExchangePost,
    /// Split-phase exchange receive completion: wait for neighbour
    /// readiness and gather the ghost runs.
    ExchangeWait,
    /// Frontier SpMV rows — the rows that had to wait for the exchange.
    Frontier,
    /// Small `s×s` solves (Cholesky with eigendecomposition fallback).
    SmallSolve,
    /// Residual-replacement restart of the resilience layer: recomputing
    /// the true residual and re-seeding the next solve stage.
    Restart,
    /// One expired wait slice inside a split-phase exchange — the
    /// timeout/retry protocol noticing a stalled neighbour and re-arming
    /// its wait.
    Retry,
    /// Sparse matrix–multivector product `Y ← A·X` of the batched solve
    /// path: one matrix stream serving every right-hand-side column.
    Spmm,
    /// Batch admission in the solve service: coalescing queued requests
    /// that share an operator fingerprint into one multi-RHS solve.
    BatchAdmit,
    /// Spectral estimation of the adaptive controller: symmetrized Gram
    /// Cholesky conditioning plus running Ritz values from the CG
    /// tridiagonal.
    SpectralEst,
    /// Mid-solve basis rebuild: recomputing the Chebyshev interval /
    /// Newton–Leja shifts and the MPK polynomial coefficients.
    BasisRebuild,
    /// Gauss-Seidel sweeps over a replicated Gram system (the CA-PCG-GS
    /// inner solve replacing the Cholesky [`Phase::SmallSolve`]).
    GramSweep,
}

impl Phase {
    /// Every phase, in export order.
    pub const ALL: [Phase; 17] = [
        Phase::Spmv,
        Phase::MpkLevel,
        Phase::Precond,
        Phase::Gram,
        Phase::ScalarWork,
        Phase::VecUpdate,
        Phase::ExchangePost,
        Phase::ExchangeWait,
        Phase::Frontier,
        Phase::SmallSolve,
        Phase::Restart,
        Phase::Retry,
        Phase::Spmm,
        Phase::BatchAdmit,
        Phase::SpectralEst,
        Phase::BasisRebuild,
        Phase::GramSweep,
    ];

    /// Stable snake_case name used in every export.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Spmv => "spmv",
            Phase::MpkLevel => "mpk_level",
            Phase::Precond => "precond",
            Phase::Gram => "gram",
            Phase::ScalarWork => "scalar_work",
            Phase::VecUpdate => "vec_update",
            Phase::ExchangePost => "exchange_post",
            Phase::ExchangeWait => "exchange_wait",
            Phase::Frontier => "frontier",
            Phase::SmallSolve => "small_solve",
            Phase::Restart => "restart",
            Phase::Retry => "retry",
            Phase::Spmm => "spmm",
            Phase::BatchAdmit => "batch_admit",
            Phase::SpectralEst => "spectral_est",
            Phase::BasisRebuild => "basis_rebuild",
            Phase::GramSweep => "gram_sweep",
        }
    }

    /// Position of this phase in [`Phase::ALL`] — the stable numeric id
    /// raw-event exports ([`Tracer::raw_tracks`]) use on the wire.
    pub fn index(self) -> usize {
        Phase::ALL.iter().position(|p| *p == self).unwrap()
    }

    /// Inverse of [`Phase::index`]; `None` for out-of-range ids.
    pub fn from_index(i: usize) -> Option<Phase> {
        Phase::ALL.get(i).copied()
    }
}

/// One recorded begin/end marker.
#[derive(Debug, Clone, Copy)]
struct Event {
    phase: Phase,
    begin: bool,
    t_ns: u64,
}

/// A drained track's raw data.
#[derive(Debug, Clone)]
struct TrackData {
    rank: usize,
    thread: usize,
    events: Vec<Event>,
    dropped: u64,
}

struct Shared {
    epoch: Instant,
    cap: usize,
    tracks: Mutex<Vec<TrackData>>,
}

/// The shared trace collector. Cheap to clone (an `Arc`); hand one to
/// `SolveOptions::trace` and read the exports back after the solve.
pub struct Tracer {
    shared: Arc<Shared>,
}

impl Clone for Tracer {
    fn clone(&self) -> Self {
        Tracer {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tracks = self.shared.tracks.lock().unwrap();
        f.debug_struct("Tracer")
            .field("tracks", &tracks.len())
            .field("cap", &self.shared.cap)
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A fresh tracer with the default per-track event cap.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_EVENT_CAP)
    }

    /// A fresh tracer capping each track at `cap` events; past the cap a
    /// track stops recording and counts what it dropped.
    pub fn with_capacity(cap: usize) -> Self {
        Tracer {
            shared: Arc::new(Shared {
                epoch: Instant::now(),
                cap: cap.max(2),
                tracks: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The per-track event cap this tracer was built with — forwarded to
    /// worker-process tracers so remote tracks drop at the same bound.
    pub fn capacity(&self) -> usize {
        self.shared.cap
    }

    /// Opens the recording track of `rank` (thread 0). Must be created —
    /// and dropped — on the thread that records into it; dropping drains
    /// the buffer into the tracer.
    pub fn track(&self, rank: usize) -> Track {
        self.track_on(rank, 0)
    }

    /// Opens a track for an explicit rank×thread pair.
    pub fn track_on(&self, rank: usize, thread: usize) -> Track {
        Track {
            inner: Rc::new(TrackInner {
                rank,
                thread,
                epoch: self.shared.epoch,
                cap: self.shared.cap,
                buf: RefCell::new(Vec::new()),
                dropped: RefCell::new(0),
                shared: Arc::clone(&self.shared),
            }),
        }
    }

    /// All drained tracks, with their spans reconstructed from the
    /// begin/end events (order of recording, i.e. span-*end* order;
    /// `depth` 0 is top level). Live (undropped) tracks are not included.
    pub fn tracks(&self) -> Vec<TrackSpans> {
        let tracks = self.shared.tracks.lock().unwrap();
        tracks
            .iter()
            .map(|t| {
                let mut spans = Vec::new();
                let mut stack: Vec<(Phase, u64)> = Vec::new();
                for e in &t.events {
                    if e.begin {
                        stack.push((e.phase, e.t_ns));
                    } else {
                        let (phase, begin_ns) = stack
                            .pop()
                            .expect("unbalanced trace events: end without begin");
                        debug_assert_eq!(phase, e.phase, "unbalanced trace events");
                        spans.push(SpanRecord {
                            phase,
                            begin_s: begin_ns as f64 * 1e-9,
                            end_s: e.t_ns as f64 * 1e-9,
                            depth: stack.len(),
                        });
                    }
                }
                assert!(stack.is_empty(), "unbalanced trace events: unclosed span");
                TrackSpans {
                    rank: t.rank,
                    thread: t.thread,
                    dropped: t.dropped,
                    spans,
                }
            })
            .collect()
    }

    /// Per-phase aggregation over every drained track: span count and
    /// total/min/max/mean wall-clock (spans include their nested
    /// children's time). Phases with no spans are omitted.
    pub fn phase_summary(&self) -> Vec<PhaseSummary> {
        let mut agg: [Option<PhaseSummary>; 17] = Default::default();
        for track in self.tracks() {
            for s in &track.spans {
                let d = s.duration_s();
                let e = agg[s.phase.index()].get_or_insert(PhaseSummary {
                    phase: s.phase,
                    count: 0,
                    total_s: 0.0,
                    min_s: f64::INFINITY,
                    max_s: 0.0,
                    mean_s: 0.0,
                });
                e.count += 1;
                e.total_s += d;
                e.min_s = e.min_s.min(d);
                e.max_s = e.max_s.max(d);
            }
        }
        let mut out: Vec<PhaseSummary> = agg.into_iter().flatten().collect();
        for e in &mut out {
            e.mean_s = e.total_s / e.count as f64;
        }
        out
    }

    /// Chrome trace-event JSON (object format): one `B`/`E` pair per span,
    /// `pid` = rank, `tid` = thread, timestamps in microseconds since the
    /// tracer epoch. Loadable in `chrome://tracing` and Perfetto.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        let tracks = self.shared.tracks.lock().unwrap();
        let mut first = true;
        let mut push = |out: &mut String, ev: String| {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            out.push_str(&ev);
        };
        let mut named: Vec<usize> = Vec::new();
        for t in tracks.iter() {
            if !named.contains(&t.rank) {
                named.push(t.rank);
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":{},\"args\":{{\"name\":\"rank {}\"}}}}",
                        t.rank, t.thread, t.rank
                    ),
                );
            }
            for e in &t.events {
                push(
                    &mut out,
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":{},\"tid\":{}}}",
                        e.phase.as_str(),
                        if e.begin { 'B' } else { 'E' },
                        e.t_ns as f64 / 1e3,
                        t.rank,
                        t.thread
                    ),
                );
            }
        }
        out.push_str("\n]}\n");
        out
    }

    /// The aggregated per-phase summary as a JSON object (no trace
    /// events). `counters_json`, when given, must be a JSON object (e.g.
    /// `Counters::to_json` from the instrumentation layer) and is spliced
    /// in verbatim as the `"counters"` field, merging the FLOP/
    /// communication counts with the wall-clock attribution.
    pub fn summary_json(&self, counters_json: Option<&str>) -> String {
        let mut out = String::from("{\n  \"phases\": [\n");
        let phases = self.phase_summary();
        for (i, p) in phases.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"phase\":\"{}\",\"count\":{},\"total_s\":{:.9},\"min_s\":{:.9},\"max_s\":{:.9},\"mean_s\":{:.9}}}{}\n",
                p.phase.as_str(),
                p.count,
                p.total_s,
                p.min_s,
                p.max_s,
                p.mean_s,
                if i + 1 < phases.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"tracks\": [\n");
        let tracks = self.tracks();
        for (i, t) in tracks.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"rank\":{},\"thread\":{},\"spans\":{},\"dropped_events\":{}}}{}\n",
                t.rank,
                t.thread,
                t.spans.len(),
                t.dropped,
                if i + 1 < tracks.len() { "," } else { "" }
            ));
        }
        out.push_str("  ],\n  \"counters\": ");
        out.push_str(counters_json.unwrap_or("null"));
        out.push_str("\n}");
        out
    }

    /// Every drained track in raw event form — `(phase index, is-begin,
    /// nanoseconds since this tracer's epoch)` triples — the
    /// representation a proc-backend worker ships to its parent, which
    /// replays it with [`Tracer::import_raw`].
    pub fn raw_tracks(&self) -> Vec<RawTrack> {
        let tracks = self.shared.tracks.lock().unwrap();
        tracks
            .iter()
            .map(|t| RawTrack {
                rank: t.rank,
                thread: t.thread,
                events: t
                    .events
                    .iter()
                    .map(|e| (e.phase.index(), e.begin, e.t_ns))
                    .collect(),
                dropped: t.dropped,
            })
            .collect()
    }

    /// Imports a track recorded by *another* tracer (typically in a worker
    /// process) as a drained track of this one. Timestamps stay relative
    /// to the recording tracer's epoch — they are internally consistent
    /// per track, which is all the exports require.
    ///
    /// # Panics
    /// Panics on an unknown phase index (a wire-protocol bug).
    pub fn import_raw(&self, raw: RawTrack) {
        let events: Vec<Event> = raw
            .events
            .iter()
            .map(|&(phase, begin, t_ns)| Event {
                phase: Phase::from_index(phase).expect("import_raw: unknown phase index"),
                begin,
                t_ns,
            })
            .collect();
        if events.is_empty() && raw.dropped == 0 {
            return;
        }
        self.shared.tracks.lock().unwrap().push(TrackData {
            rank: raw.rank,
            thread: raw.thread,
            events,
            dropped: raw.dropped,
        });
    }

    /// The full export written to `results/TRACE_*.json`: the Chrome
    /// trace events plus the per-phase summary (and optional counters) in
    /// one object. Perfetto reads the `traceEvents` key and ignores the
    /// rest, so the same file serves both the timeline and the report.
    pub fn export_json(&self, counters_json: Option<&str>) -> String {
        let chrome = self.chrome_trace_json();
        // Splice the summary object before the trailing `}` of the
        // chrome object.
        let body = chrome
            .trim_end()
            .strip_suffix('}')
            .expect("chrome export is an object");
        let mut out = String::from(body);
        out.push_str(",\"summary\": ");
        out.push_str(&self.summary_json(counters_json));
        out.push_str("\n}\n");
        out
    }
}

/// One track in the raw event form of [`Tracer::raw_tracks`] /
/// [`Tracer::import_raw`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawTrack {
    /// Rank that recorded the track.
    pub rank: usize,
    /// Thread within the rank.
    pub thread: usize,
    /// `(phase index, is-begin, ns since the recording tracer's epoch)`.
    pub events: Vec<(usize, bool, u64)>,
    /// Events discarded after the track hit the event cap.
    pub dropped: u64,
}

/// A reconstructed span: phase, absolute begin/end (seconds since the
/// tracer epoch), and nesting depth (0 = top level).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Phase of the span.
    pub phase: Phase,
    /// Begin time in seconds since the tracer epoch.
    pub begin_s: f64,
    /// End time in seconds since the tracer epoch.
    pub end_s: f64,
    /// Nesting depth at which the span ran (0 = top level).
    pub depth: usize,
}

impl SpanRecord {
    /// Wall-clock duration in seconds (includes nested children).
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.begin_s
    }
}

/// One drained rank×thread track with its reconstructed spans.
#[derive(Debug, Clone)]
pub struct TrackSpans {
    /// Rank that recorded the track (`pid` in the Chrome export).
    pub rank: usize,
    /// Thread within the rank (`tid` in the Chrome export).
    pub thread: usize,
    /// Events discarded after the track hit the event cap.
    pub dropped: u64,
    /// Spans in recording (end-time) order.
    pub spans: Vec<SpanRecord>,
}

impl TrackSpans {
    /// The spans of one phase, in recording order.
    pub fn phase_spans(&self, phase: Phase) -> Vec<SpanRecord> {
        self.spans
            .iter()
            .copied()
            .filter(|s| s.phase == phase)
            .collect()
    }

    /// Minimum duration among this track's spans of `phase` (the
    /// best-of-reps number benchmarks report), if any were recorded.
    pub fn min_duration_s(&self, phase: Phase) -> Option<f64> {
        self.spans
            .iter()
            .filter(|s| s.phase == phase)
            .map(SpanRecord::duration_s)
            .reduce(f64::min)
    }
}

/// Per-phase aggregate over every span of every track.
#[derive(Debug, Clone, Copy)]
pub struct PhaseSummary {
    /// The phase.
    pub phase: Phase,
    /// Number of spans.
    pub count: u64,
    /// Summed wall-clock seconds.
    pub total_s: f64,
    /// Shortest span.
    pub min_s: f64,
    /// Longest span.
    pub max_s: f64,
    /// `total_s / count`.
    pub mean_s: f64,
}

struct TrackInner {
    rank: usize,
    thread: usize,
    epoch: Instant,
    cap: usize,
    buf: RefCell<Vec<Event>>,
    dropped: RefCell<u64>,
    shared: Arc<Shared>,
}

impl TrackInner {
    /// Records one event unless the cap is hit; returns whether it was
    /// recorded (a begin that was dropped must drop its end too, keeping
    /// the buffer balanced).
    fn record(&self, phase: Phase, begin: bool) -> bool {
        let mut buf = self.buf.borrow_mut();
        if buf.len() >= self.cap {
            *self.dropped.borrow_mut() += 1;
            return false;
        }
        buf.push(Event {
            phase,
            begin,
            t_ns: self.epoch.elapsed().as_nanos() as u64,
        });
        true
    }
}

impl Drop for TrackInner {
    fn drop(&mut self) {
        let events = std::mem::take(&mut *self.buf.borrow_mut());
        let dropped = *self.dropped.borrow();
        if events.is_empty() && dropped == 0 {
            return;
        }
        self.shared.tracks.lock().unwrap().push(TrackData {
            rank: self.rank,
            thread: self.thread,
            events,
            dropped,
        });
    }
}

/// A per-rank (per-thread) recording handle. Cheap to clone (`Rc`); all
/// clones share one buffer, which drains into the tracer when the last
/// clone drops — at rank exit.
pub struct Track {
    inner: Rc<TrackInner>,
}

impl Clone for Track {
    fn clone(&self) -> Self {
        Track {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl std::fmt::Debug for Track {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Track")
            .field("rank", &self.inner.rank)
            .field("thread", &self.inner.thread)
            .field("events", &self.inner.buf.borrow().len())
            .finish()
    }
}

impl Track {
    /// Opens a span of `phase`; the span ends when the guard drops.
    /// Spans nest: open another before dropping this one and the Chrome
    /// timeline shows it inside.
    pub fn span(&self, phase: Phase) -> Span {
        let recorded = self.inner.record(phase, true);
        Span {
            inner: Rc::clone(&self.inner),
            phase,
            recorded,
        }
    }
}

/// RAII span guard — see [`Track::span`].
pub struct Span {
    inner: Rc<TrackInner>,
    phase: Phase,
    recorded: bool,
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.recorded {
            // The end event must always pair the begin: bypass the cap.
            self.inner.buf.borrow_mut().push(Event {
                phase: self.phase,
                begin: false,
                t_ns: self.inner.epoch.elapsed().as_nanos() as u64,
            });
        }
    }
}

/// The branch-on-`Option` instrumentation helper every call site uses:
/// `let _s = obs::span(track, Phase::Spmv);`. With `None` nothing happens —
/// no timestamp, no allocation.
#[inline]
pub fn span(track: Option<&Track>, phase: Phase) -> Option<Span> {
    track.map(|t| t.span(phase))
}

/// Statistics of a validated Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// `B`/`E` duration events checked.
    pub events: usize,
    /// Complete (matched) spans.
    pub spans: usize,
    /// Distinct `pid`×`tid` tracks.
    pub tracks: usize,
}

/// Round-trips a Chrome trace-event export through the bundled JSON
/// parser and checks well-formedness: a `traceEvents` array whose `B`/`E`
/// events carry `name`/`ts`/`pid`/`tid`, nest properly per track (every
/// `E` matches the innermost open `B` of the same name), close fully, and
/// have non-decreasing timestamps per track.
pub fn validate_chrome_trace(src: &str) -> Result<TraceStats, String> {
    let root = json::parse(src)?;
    let events = root
        .get("traceEvents")
        .and_then(json::Value::as_array)
        .ok_or("missing traceEvents array")?;
    // Per-(pid, tid) open-span stacks and last timestamps.
    let mut tracks: Vec<((i64, i64), Vec<String>, f64)> = Vec::new();
    let mut stats = TraceStats {
        events: 0,
        spans: 0,
        tracks: 0,
    };
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph == "M" {
            continue; // metadata
        }
        if ph != "B" && ph != "E" {
            return Err(format!("event {i}: unsupported ph {ph:?}"));
        }
        let name = ev
            .get("name")
            .and_then(json::Value::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let ts = ev
            .get("ts")
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        let pid = ev
            .get("pid")
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing pid"))? as i64;
        let tid = ev
            .get("tid")
            .and_then(json::Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing tid"))? as i64;
        let key = (pid, tid);
        let track = match tracks.iter_mut().find(|(k, _, _)| *k == key) {
            Some(t) => t,
            None => {
                tracks.push((key, Vec::new(), f64::NEG_INFINITY));
                stats.tracks += 1;
                tracks.last_mut().unwrap()
            }
        };
        if ts < track.2 {
            return Err(format!(
                "event {i}: track {key:?} timestamp {ts} decreases (last {})",
                track.2
            ));
        }
        track.2 = ts;
        match ph {
            "B" => track.1.push(name.to_string()),
            _ => {
                let open = track
                    .1
                    .pop()
                    .ok_or_else(|| format!("event {i}: E without open B on track {key:?}"))?;
                if open != name {
                    return Err(format!(
                        "event {i}: E {name:?} does not match open B {open:?} on track {key:?}"
                    ));
                }
                stats.spans += 1;
            }
        }
        stats.events += 1;
    }
    for (key, stack, _) in &tracks {
        if !stack.is_empty() {
            return Err(format!("track {key:?}: {} unclosed span(s)", stack.len()));
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_reconstruct() {
        let tracer = Tracer::new();
        {
            let track = tracer.track(3);
            let _outer = track.span(Phase::MpkLevel);
            {
                let _inner = track.span(Phase::Spmv);
            }
            {
                let _inner = track.span(Phase::Precond);
            }
        }
        let tracks = tracer.tracks();
        assert_eq!(tracks.len(), 1);
        let t = &tracks[0];
        assert_eq!(t.rank, 3);
        assert_eq!(t.spans.len(), 3);
        // End order: spmv, precond, mpk_level.
        assert_eq!(t.spans[0].phase, Phase::Spmv);
        assert_eq!(t.spans[1].phase, Phase::Precond);
        assert_eq!(t.spans[2].phase, Phase::MpkLevel);
        assert_eq!(t.spans[0].depth, 1);
        assert_eq!(t.spans[2].depth, 0);
        let outer = t.spans[2];
        for inner in &t.spans[..2] {
            assert!(outer.begin_s <= inner.begin_s);
            assert!(inner.end_s <= outer.end_s);
            assert!(inner.begin_s <= inner.end_s);
        }
        // Siblings are disjoint in time.
        assert!(t.spans[0].end_s <= t.spans[1].begin_s);
    }

    #[test]
    fn none_track_records_nothing() {
        let _s = span(None, Phase::Spmv);
        let tracer = Tracer::new();
        {
            let track = tracer.track(0);
            let _s = span(Some(&track), Phase::Gram);
        }
        assert_eq!(tracer.tracks()[0].spans.len(), 1);
    }

    #[test]
    fn chrome_export_validates() {
        let tracer = Tracer::new();
        for rank in 0..2 {
            let track = tracer.track(rank);
            for _ in 0..3 {
                let _p = track.span(Phase::ExchangePost);
                drop(_p);
                let _o = track.span(Phase::Spmv);
                let _i = track.span(Phase::Frontier);
            }
        }
        let chrome = tracer.chrome_trace_json();
        let stats = validate_chrome_trace(&chrome).expect("trace must validate");
        assert_eq!(stats.tracks, 2);
        assert_eq!(stats.spans, 2 * 3 * 3);
        assert_eq!(stats.events, 2 * stats.spans);
        // The combined export keeps the trace loadable too.
        let export = tracer.export_json(Some("{\"spmv_count\": 7}"));
        let stats2 = validate_chrome_trace(&export).expect("export must validate");
        assert_eq!(stats2, stats);
        let root = json::parse(&export).unwrap();
        let counters = root.get("summary").and_then(|s| s.get("counters")).unwrap();
        assert_eq!(
            counters.get("spmv_count").and_then(json::Value::as_f64),
            Some(7.0)
        );
    }

    #[test]
    fn summary_aggregates_counts_and_bounds() {
        let tracer = Tracer::new();
        {
            let track = tracer.track(0);
            for _ in 0..5 {
                let _s = track.span(Phase::VecUpdate);
            }
        }
        let summary = tracer.phase_summary();
        assert_eq!(summary.len(), 1);
        let s = &summary[0];
        assert_eq!(s.phase, Phase::VecUpdate);
        assert_eq!(s.count, 5);
        assert!(s.min_s <= s.mean_s && s.mean_s <= s.max_s);
        assert!((s.total_s - s.mean_s * 5.0).abs() < 1e-12);
    }

    #[test]
    fn event_cap_drops_whole_spans_and_stays_balanced() {
        let tracer = Tracer::with_capacity(4);
        {
            let track = tracer.track(0);
            for _ in 0..10 {
                let _s = track.span(Phase::Spmv);
            }
        }
        let tracks = tracer.tracks();
        assert_eq!(tracks[0].spans.len(), 2); // 4-event cap = 2 spans
        assert_eq!(tracks[0].dropped, 8);
        validate_chrome_trace(&tracer.chrome_trace_json()).unwrap();
    }

    #[test]
    fn tracks_from_many_threads_collect() {
        let tracer = Tracer::new();
        std::thread::scope(|scope| {
            for rank in 0..4 {
                let tr = tracer.clone();
                scope.spawn(move || {
                    let track = tr.track(rank);
                    let _s = track.span(Phase::Gram);
                });
            }
        });
        let tracks = tracer.tracks();
        assert_eq!(tracks.len(), 4);
        let mut ranks: Vec<usize> = tracks.iter().map(|t| t.rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2, 3]);
        validate_chrome_trace(&tracer.chrome_trace_json()).unwrap();
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{\"x\": 1}").is_err());
        // E without B.
        let bad =
            "{\"traceEvents\":[{\"name\":\"spmv\",\"ph\":\"E\",\"ts\":1,\"pid\":0,\"tid\":0}]}";
        assert!(validate_chrome_trace(bad).is_err());
        // Unclosed B.
        let bad =
            "{\"traceEvents\":[{\"name\":\"spmv\",\"ph\":\"B\",\"ts\":1,\"pid\":0,\"tid\":0}]}";
        assert!(validate_chrome_trace(bad).is_err());
        // Name mismatch.
        let bad = "{\"traceEvents\":[\
            {\"name\":\"spmv\",\"ph\":\"B\",\"ts\":1,\"pid\":0,\"tid\":0},\
            {\"name\":\"gram\",\"ph\":\"E\",\"ts\":2,\"pid\":0,\"tid\":0}]}";
        assert!(validate_chrome_trace(bad).is_err());
        // Decreasing timestamps.
        let bad = "{\"traceEvents\":[\
            {\"name\":\"spmv\",\"ph\":\"B\",\"ts\":5,\"pid\":0,\"tid\":0},\
            {\"name\":\"spmv\",\"ph\":\"E\",\"ts\":2,\"pid\":0,\"tid\":0}]}";
        assert!(validate_chrome_trace(bad).is_err());
    }

    #[test]
    fn phase_index_roundtrips() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(Phase::from_index(i), Some(*p));
        }
        assert_eq!(Phase::from_index(Phase::ALL.len()), None);
    }

    #[test]
    fn raw_tracks_roundtrip_through_import() {
        let worker = Tracer::new();
        {
            let track = worker.track_on(1, 2);
            let _o = track.span(Phase::ExchangeWait);
            let _i = track.span(Phase::Spmv);
        }
        let parent = Tracer::new();
        for raw in worker.raw_tracks() {
            parent.import_raw(raw);
        }
        let tracks = parent.tracks();
        assert_eq!(tracks.len(), 1);
        assert_eq!((tracks[0].rank, tracks[0].thread), (1, 2));
        assert_eq!(tracks[0].spans.len(), 2);
        assert_eq!(tracks[0].spans[0].phase, Phase::Spmv);
        assert_eq!(tracks[0].spans[1].phase, Phase::ExchangeWait);
        validate_chrome_trace(&parent.chrome_trace_json()).unwrap();
        // The raw form is faithful: re-exporting reproduces it.
        assert_eq!(parent.raw_tracks(), worker.raw_tracks());
    }
}
