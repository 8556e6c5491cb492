//! Where the time of one solve went: self time per phase from the spans
//! the program records, under a benchmark-owned root span per solve.
//!
//! Every traced solve sits under a root span `<member>#<pass>` that the
//! benchmark opens around the public call. The program's own phase spans
//! (`SolveOptions::trace`) hang under it. A span's self time is its
//! duration minus what its direct children cover; per rank, the self times
//! plus `unattributed` (root minus the rank's top-level spans) equal the
//! root. Ranked solves report the mean over ranks, so the identity holds
//! for the reported numbers too. Spans stay in memory; `TraceSink::finish`
//! writes them as Chrome trace events when the run ends.

use spcg::obs::{Phase, TrackSpans};
use std::fmt::Write as _;
use std::time::Instant;

pub const NPHASES: usize = Phase::ALL.len();

/// The per-layer metric a phase's self time is reported under. `Retry`
/// slices sit inside `ExchangeWait` and `GramSweep` is the Gauss-Seidel
/// stand-in for `SmallSolve`, so each shares its sibling's metric.
pub fn phase_metric(phase: Phase) -> &'static str {
    match phase {
        Phase::Spmv => "sparse.spmv_s",
        Phase::MpkLevel => "basis.mpk_s",
        Phase::Precond => "precond.apply_s",
        Phase::Gram => "sparse.gram_s",
        Phase::ScalarWork => "solvers.scalar_work_s",
        Phase::VecUpdate => "sparse.vec_update_s",
        Phase::ExchangePost => "dist.exchange_post_s",
        Phase::ExchangeWait | Phase::Retry => "dist.exchange_wait_s",
        Phase::Frontier => "dist.frontier_s",
        Phase::SmallSolve | Phase::GramSweep => "sparse.small_solve_s",
        Phase::Restart => "solvers.restart_s",
        Phase::Spmm => "sparse.spmm_s",
        Phase::BatchAdmit => "service.batch_admit_s",
        Phase::SpectralEst => "adapt.spectral_est_s",
        Phase::BasisRebuild => "adapt.basis_rebuild_s",
    }
}

/// Self time per phase of one track, and the time its top-level spans cover.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackTime {
    pub self_s: [f64; NPHASES],
    pub top_level_s: f64,
}

/// Spans arrive in end order, so when a span at depth `d` ends, every span
/// at depth `d + 1` seen since the previous depth-`d` span is its child.
pub fn track_time(track: &TrackSpans) -> TrackTime {
    let mut self_s = [0.0; NPHASES];
    let mut child_sum: Vec<f64> = vec![0.0];
    for s in &track.spans {
        if child_sum.len() < s.depth + 2 {
            child_sum.resize(s.depth + 2, 0.0);
        }
        let d = s.duration_s();
        self_s[s.phase.index()] += d - child_sum[s.depth + 1];
        child_sum[s.depth + 1] = 0.0;
        child_sum[s.depth] += d;
    }
    TrackTime {
        self_s,
        top_level_s: child_sum[0],
    }
}

/// What one traced solve contributes to the per-layer metrics.
#[derive(Debug, Clone)]
pub struct SolveTrace {
    pub root_s: f64,
    /// Mean over ranks of the per-rank self time.
    pub self_s: [f64; NPHASES],
    /// `root_s` minus the mean over ranks of the top-level span time.
    pub unattributed_s: f64,
    /// `(max − min) / max` of the per-rank top-level span time; `None` for
    /// a single rank.
    pub rank_skew: Option<f64>,
    pub events: u64,
    pub dropped: u64,
    pub retries: u64,
    /// `Err` when a rank's spans cover more than the root, or the self
    /// times do not add up to the top-level time.
    pub consistent: Result<(), String>,
}

/// Collects the Chrome trace events of a run.
pub struct TraceSink {
    epoch: Instant,
    /// Chrome events, comma-separated.
    events: String,
    /// Solves from passes at or past this index are attributed but not
    /// exported, which bounds the file on workloads of many short passes.
    export_passes: usize,
}

impl TraceSink {
    pub fn new(export_passes: usize) -> Self {
        TraceSink {
            epoch: Instant::now(),
            events: String::new(),
            export_passes,
        }
    }

    /// Seconds since the sink's epoch — take it just before creating the
    /// solve's `Tracer`, so the tracer's epoch is the root span's start.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn push(&mut self, name: &str, begin: bool, t_s: f64, pid: usize, tid: usize) {
        if !self.events.is_empty() {
            self.events.push_str(",\n");
        }
        let _ = write!(
            self.events,
            "{{\"name\":\"{name}\",\"cat\":\"bench\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":{pid},\"tid\":{tid}}}",
            if begin { 'B' } else { 'E' },
            t_s * 1e6,
        );
    }

    /// A benchmark-owned span with no program spans under it (the probes).
    pub fn span(&mut self, name: &str, begin_s: f64, dur_s: f64) {
        self.push(name, true, begin_s, 0, 0);
        self.push(name, false, begin_s + dur_s, 0, 0);
    }

    /// Attributes one solve and, for exported passes, hangs its tracks
    /// under the root span `name` on every rank that recorded one.
    ///
    /// Track times are relative to their tracer's epoch, `tracer_epoch_s`
    /// on the sink's clock: the root's start for a per-solve tracer. A
    /// proc-backend worker's epoch is its own (later) start, so its spans
    /// are drawn early by the spawn time — still inside the root,
    /// durations exact.
    pub fn record_solve(
        &mut self,
        name: &str,
        pass: usize,
        root_begin_s: f64,
        root_s: f64,
        tracer_epoch_s: f64,
        tracks: &[TrackSpans],
    ) -> SolveTrace {
        let mut ranks: Vec<(usize, TrackTime)> = Vec::new();
        let (mut events, mut dropped, mut retries) = (0u64, 0u64, 0u64);
        for t in tracks {
            let tt = track_time(t);
            events += 2 * t.spans.len() as u64;
            dropped += t.dropped;
            retries += t.spans.iter().filter(|s| s.phase == Phase::Retry).count() as u64;
            match ranks.iter_mut().find(|(r, _)| *r == t.rank) {
                Some((_, acc)) => {
                    for (a, b) in acc.self_s.iter_mut().zip(tt.self_s) {
                        *a += b;
                    }
                    acc.top_level_s += tt.top_level_s;
                }
                None => ranks.push((t.rank, tt)),
            }
        }
        let nr = ranks.len().max(1) as f64;
        let mut self_s = [0.0; NPHASES];
        let mut consistent = Ok(());
        for (rank, tt) in &ranks {
            for (a, b) in self_s.iter_mut().zip(tt.self_s) {
                *a += b / nr;
            }
            let sum: f64 = tt.self_s.iter().sum();
            if (sum - tt.top_level_s).abs() > 1e-9 * root_s.max(1e-3) {
                consistent = Err(format!(
                    "{name}: rank {rank} self times {sum} != top-level {}",
                    tt.top_level_s
                ));
            }
            // 10 µs of slack: the root's clock reads are not the tracer's.
            if tt.top_level_s > root_s + 1e-5 {
                consistent = Err(format!(
                    "{name}: rank {rank} spans cover {} of a {root_s} root",
                    tt.top_level_s
                ));
            }
        }
        let tops: Vec<f64> = ranks.iter().map(|(_, t)| t.top_level_s).collect();
        let top_mean = tops.iter().sum::<f64>() / nr;
        let rank_skew = (tops.len() > 1).then(|| {
            let max = tops.iter().copied().fold(0.0, f64::max);
            let min = tops.iter().copied().fold(f64::INFINITY, f64::min);
            if max > 0.0 {
                (max - min) / max
            } else {
                0.0
            }
        });

        if pass < self.export_passes {
            let mut by_start: Vec<&TrackSpans> =
                tracks.iter().filter(|t| !t.spans.is_empty()).collect();
            let start = |t: &TrackSpans| {
                t.spans
                    .iter()
                    .map(|s| s.begin_s)
                    .fold(f64::INFINITY, f64::min)
            };
            by_start.sort_by(|a, b| start(a).total_cmp(&start(b)));
            let mut lanes: Vec<(usize, usize)> =
                by_start.iter().map(|t| (t.rank, t.thread)).collect();
            lanes.sort_unstable();
            lanes.dedup();
            if lanes.is_empty() {
                lanes.push((0, 0));
            }
            let root_end_s = root_begin_s + root_s;
            for &(pid, tid) in &lanes {
                self.push(name, true, root_begin_s, pid, tid);
                for t in by_start.iter().filter(|t| (t.rank, t.thread) == (pid, tid)) {
                    self.push_track(t, tracer_epoch_s, root_begin_s, root_end_s);
                }
                self.push(name, false, root_end_s, pid, tid);
            }
        }

        SolveTrace {
            root_s,
            self_s,
            unattributed_s: root_s - top_mean,
            rank_skew,
            events,
            dropped,
            retries,
            consistent,
        }
    }

    /// Replays one track's spans as nested `B`/`E` events. The spans come
    /// in end order (post-order of the nesting forest): when a span at
    /// depth `d` ends, the events pending at depth `d + 1` are its children.
    fn push_track(&mut self, t: &TrackSpans, offset_s: f64, begin_s: f64, end_s: f64) {
        let mut pending: Vec<Vec<(f64, bool, &'static str)>> = vec![Vec::new()];
        for s in &t.spans {
            if pending.len() < s.depth + 2 {
                pending.resize_with(s.depth + 2, Vec::new);
            }
            let children = std::mem::take(&mut pending[s.depth + 1]);
            let level = &mut pending[s.depth];
            level.push((s.begin_s, true, s.phase.as_str()));
            level.extend(children);
            level.push((s.end_s, false, s.phase.as_str()));
        }
        for (t_s, begin, name) in std::mem::take(&mut pending[0]) {
            self.push(
                name,
                begin,
                (offset_s + t_s).clamp(begin_s, end_s),
                t.rank,
                t.thread,
            );
        }
    }

    /// The Chrome trace-event document.
    pub fn finish(self) -> String {
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            self.events
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcg::obs::{validate_chrome_trace, Tracer};

    /// Two ranks, each `mpk_level{spmv, precond}` then `gram`.
    fn traced() -> (Tracer, f64) {
        let t0 = Instant::now();
        let tracer = Tracer::new();
        for rank in 0..2 {
            let track = tracer.track(rank);
            {
                let _outer = track.span(Phase::MpkLevel);
                drop(track.span(Phase::Spmv));
                drop(track.span(Phase::Precond));
            }
            drop(track.span(Phase::Gram));
        }
        (tracer, t0.elapsed().as_secs_f64())
    }

    #[test]
    fn self_times_add_up_to_the_top_level_spans() {
        let (tracer, _) = traced();
        for track in tracer.tracks() {
            let tt = track_time(&track);
            let spans = |p: Phase| track.phase_spans(p)[0].duration_s();
            let outer = spans(Phase::MpkLevel);
            let nested = spans(Phase::Spmv) + spans(Phase::Precond);
            assert!((tt.self_s[Phase::MpkLevel.index()] - (outer - nested)).abs() < 1e-12);
            assert!((tt.top_level_s - (outer + spans(Phase::Gram))).abs() < 1e-12);
            assert!((tt.self_s.iter().sum::<f64>() - tt.top_level_s).abs() < 1e-12);
        }
    }

    #[test]
    fn a_recorded_solve_closes_and_exports_a_valid_trace() {
        let mut sink = TraceSink::new(1);
        let begin = sink.now();
        let (tracer, root_s) = traced();
        let st = sink.record_solve("m#0", 0, begin, root_s, begin, &tracer.tracks());
        assert_eq!(st.consistent, Ok(()));
        assert_eq!(st.events, 16);
        assert!(st.rank_skew.is_some());
        let closed = st.self_s.iter().sum::<f64>() + st.unattributed_s;
        assert!((closed - st.root_s).abs() < 1e-12);
        // A later pass is attributed but not exported.
        sink.record_solve("m#1", 1, begin, root_s, begin, &tracer.tracks());
        sink.span("probe:x", sink.now(), 1e-3);
        let stats = validate_chrome_trace(&sink.finish()).expect("valid trace");
        // Per rank: root + 4 program spans; plus the probe.
        assert_eq!(stats.spans, 2 * 5 + 1);
    }
}
