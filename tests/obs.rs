//! Integration tests for the span tracer: solves traced end-to-end must
//! produce valid, well-nested per-rank timelines — and identical numbers.
//!
//! The tracing invariants under test:
//!
//! * spans nest (every span lies inside its parent, depths consistent);
//! * each rank writes its own track, timestamps monotone within a track;
//! * the Chrome export is valid JSON with matched B/E pairs per track;
//! * a traced solve is **bitwise identical** to an untraced one — same
//!   iterates and the same full `Counters`;
//! * under the overlapped ranked schedule, `ExchangeWait` spans sit
//!   strictly inside the window opened by `ExchangePost`, with interior
//!   SpMV spans in between (the compute/communication overlap the split
//!   was built for).
//!
//! Tracers are constructed explicitly — never via `SPCG_TRACE` — so the
//! tests stay independent of the environment and of each other.

use spcg::obs::{Phase, SpanRecord, Tracer};
use spcg::precond::Jacobi;
use spcg::solvers::{
    chebyshev_basis, solve, Engine, Method, Problem, SolveOptions, StoppingCriterion,
};
use spcg::sparse::generators::paper_rhs;
use spcg::sparse::generators::poisson::{poisson_2d, poisson_3d};

fn opts() -> SolveOptions {
    SolveOptions::from_env()
        .with_criterion(StoppingCriterion::PrecondMNorm)
        .with_tol(1e-8)
        .with_trace(None)
}

fn spcg_method(problem: &Problem<'_>, s: usize) -> Method {
    Method::SPcg {
        s,
        basis: chebyshev_basis(problem, 20, 0.05),
    }
}

#[test]
fn traced_ranked_spcg_is_bitwise_identical_to_untraced() {
    let a = poisson_3d(8);
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let method = spcg_method(&problem, 4);
    let engine = Engine::Ranked { ranks: 2 };

    let plain = solve(&method, &problem, &opts(), engine);
    let tracer = Tracer::new();
    let traced = solve(
        &method,
        &problem,
        &opts().with_trace(Some(tracer.clone())),
        engine,
    );

    assert!(plain.converged(), "{:?}", plain.outcome);
    assert_eq!(plain.iterations, traced.iterations);
    assert_eq!(plain.outcome, traced.outcome);
    assert_eq!(plain.x, traced.x, "iterates must be bitwise identical");
    assert_eq!(plain.counters, traced.counters, "full Counters must match");
    assert_eq!(plain.collectives_per_rank, traced.collectives_per_rank);
    // And the trace is not empty — tracing actually happened.
    let tracks = tracer.tracks();
    assert!(!tracks.is_empty());
}

#[test]
fn serial_traced_solve_is_bitwise_identical_too() {
    let a = poisson_2d(16);
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    for method in [Method::Pcg, Method::Pcg3, spcg_method(&problem, 4)] {
        let plain = solve(&method, &problem, &opts(), Engine::Serial);
        let tracer = Tracer::new();
        let traced = solve(
            &method,
            &problem,
            &opts().with_trace(Some(tracer.clone())),
            Engine::Serial,
        );
        assert_eq!(plain.x, traced.x, "{}", method.name());
        assert_eq!(plain.counters, traced.counters, "{}", method.name());
        assert!(tracer.tracks().iter().any(|t| !t.spans.is_empty()));
    }
}

#[test]
fn per_rank_tracks_are_disjoint_and_monotone() {
    let a = poisson_3d(8);
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let tracer = Tracer::new();
    let res = solve(
        &spcg_method(&problem, 4),
        &problem,
        &opts().with_trace(Some(tracer.clone())),
        Engine::Ranked { ranks: 4 },
    );
    assert!(res.converged());

    let tracks = tracer.tracks();
    // One solver track per rank, each under its own rank id.
    let mut ranks: Vec<usize> = tracks.iter().map(|t| t.rank).collect();
    ranks.sort_unstable();
    ranks.dedup();
    assert_eq!(ranks, vec![0, 1, 2, 3]);
    for track in &tracks {
        assert_eq!(track.dropped, 0, "no events may be dropped at this size");
        assert!(!track.spans.is_empty());
        for s in &track.spans {
            assert!(s.end_s >= s.begin_s, "span with negative duration");
        }
        // Spans of equal depth never overlap; children nest inside parents.
        let mut stack: Vec<SpanRecord> = Vec::new();
        let mut by_begin = track.spans.clone();
        by_begin.sort_by(|p, q| p.begin_s.total_cmp(&q.begin_s));
        let mut last_begin = f64::NEG_INFINITY;
        for s in &by_begin {
            assert!(s.begin_s >= last_begin, "begin times must be monotone");
            last_begin = s.begin_s;
            while let Some(top) = stack.last() {
                if s.begin_s >= top.end_s {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(parent) = stack.last() {
                assert!(
                    s.end_s <= parent.end_s,
                    "span must close before its parent: {:?} inside {:?}",
                    s.phase,
                    parent.phase
                );
                assert_eq!(s.depth, parent.depth + 1, "depth must count nesting");
            } else {
                assert_eq!(s.depth, 0, "top-level span at nonzero depth");
            }
            stack.push(*s);
        }
    }
}

#[test]
fn chrome_export_is_valid_and_balanced() {
    let a = poisson_2d(14);
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let tracer = Tracer::new();
    let res = solve(
        &spcg_method(&problem, 4),
        &problem,
        &opts().with_trace(Some(tracer.clone())),
        Engine::Ranked { ranks: 2 },
    );
    assert!(res.converged());

    // Bare Chrome export: every B has a matching E, timestamps ordered.
    let chrome = tracer.chrome_trace_json();
    let stats = spcg::obs::validate_chrome_trace(&chrome).expect("chrome export invalid");
    assert!(stats.spans > 0);
    assert_eq!(stats.events, 2 * stats.spans);
    assert_eq!(stats.tracks, 2);

    // Full export with the counters summary spliced in stays loadable.
    let full = tracer.export_json(Some(&res.counters.to_json()));
    let stats2 = spcg::obs::validate_chrome_trace(&full).expect("full export invalid");
    assert_eq!(stats.spans, stats2.spans);
    let parsed = spcg::obs::json::parse(&full).expect("export must parse");
    let summary = parsed.get("summary").expect("summary object");
    let counters = summary.get("counters").expect("counters spliced");
    assert_eq!(
        counters.get("iterations").and_then(|v| v.as_f64()),
        Some(res.counters.iterations as f64)
    );
}

#[test]
fn overlapped_exchange_wait_sits_inside_post_window() {
    let a = poisson_3d(10);
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let tracer = Tracer::new();
    let res = solve(
        &spcg_method(&problem, 4),
        &problem,
        &opts().with_overlap(true).with_trace(Some(tracer.clone())),
        Engine::Ranked { ranks: 2 },
    );
    assert!(res.converged());

    for track in tracer.tracks() {
        let mut spans = track.spans.clone();
        spans.sort_by(|p, q| p.begin_s.total_cmp(&q.begin_s));
        let mut last_post: Option<SpanRecord> = None;
        let mut interior_since_post: Vec<SpanRecord> = Vec::new();
        let mut overlapped_waits = 0usize;
        let mut waits = 0usize;
        for s in &spans {
            match s.phase {
                Phase::ExchangePost => {
                    last_post = Some(*s);
                    interior_since_post.clear();
                }
                Phase::Spmv => interior_since_post.push(*s),
                Phase::ExchangeWait => {
                    waits += 1;
                    let post = last_post
                        .as_ref()
                        .expect("every ExchangeWait needs a prior ExchangePost");
                    assert!(
                        post.end_s <= s.begin_s,
                        "wait must begin after its post returned (rank {})",
                        track.rank
                    );
                    // Interior SpMVs issued between post and wait are the
                    // compute overlapped with the in-flight exchange.
                    if interior_since_post
                        .iter()
                        .any(|i| i.begin_s >= post.end_s && i.end_s <= s.begin_s)
                    {
                        overlapped_waits += 1;
                    }
                }
                _ => {}
            }
        }
        assert!(waits > 0, "rank {} recorded no exchange waits", track.rank);
        assert!(
            overlapped_waits > 0,
            "rank {} never overlapped interior SpMV with an open exchange",
            track.rank
        );
    }
}

#[test]
fn overlap_on_and_off_trace_the_same_numbers() {
    // The overlapped and blocking schedules must agree bitwise even while
    // both are being traced (spans differ, numbers do not).
    let a = poisson_3d(8);
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let method = spcg_method(&problem, 4);
    let t1 = Tracer::new();
    let t2 = Tracer::new();
    let on = solve(
        &method,
        &problem,
        &opts().with_overlap(true).with_trace(Some(t1.clone())),
        Engine::Ranked { ranks: 2 },
    );
    let off = solve(
        &method,
        &problem,
        &opts().with_overlap(false).with_trace(Some(t2.clone())),
        Engine::Ranked { ranks: 2 },
    );
    assert_eq!(on.x, off.x);
    assert_eq!(on.counters, off.counters);
    // The blocking schedule records no interior/frontier split around the
    // wait: frontier spans only exist under overlap.
    let frontier_on: usize = t1
        .tracks()
        .iter()
        .map(|t| t.phase_spans(Phase::Frontier).len())
        .sum();
    assert!(frontier_on > 0, "overlapped run must record Frontier spans");
}
