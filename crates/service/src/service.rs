//! The solve service: fingerprint-keyed setup cache + batch admission.
//!
//! [`SolveService`] is the resident front door for repeated solves. Each
//! submission is fingerprinted ([`crate::fingerprint()`]); the first
//! submission under a fingerprint builds a [`SolverHandle`] (the expensive
//! setup), every later one reuses it — an LRU of configurable capacity
//! holds the resident handles.
//!
//! Concurrent submissions that share a fingerprint are **coalesced**: the
//! first submitting thread becomes the fingerprint's *leader*, drains the
//! pending queue (up to [`ServiceConfig::max_batch`] requests), and runs
//! one blocked multi-RHS solve for the whole batch; the other threads
//! park until their column's result is published. Requests that arrive
//! while a batch is in flight are picked up by the leader's next drain,
//! so a hot operator under concurrent load naturally runs wide batches —
//! one matrix stream per iteration serving every queued right-hand side.
//! Admission never changes results: column `j` of any batch is bitwise
//! identical to a standalone solve of that right-hand side (see
//! [`spcg_solvers::batch`]).

use crate::fingerprint::{fingerprint, Fingerprint};
use crate::handle::{SolveSpec, SolverHandle};
use spcg_obs::Phase;
use spcg_solvers::{BatchRequest, SolveResult};
use spcg_sparse::CsrMatrix;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Largest batch one admission drain hands to the blocked solver.
    pub max_batch: usize,
    /// Resident [`SolverHandle`]s kept; least-recently-used is evicted.
    pub cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_batch: 16,
            cache_capacity: 8,
        }
    }
}

/// Monotonic service counters (snapshot via [`SolveService::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Submissions answered by a resident handle.
    pub hits: u64,
    /// Submissions that had to build a handle.
    pub misses: u64,
    /// Handles evicted by the LRU.
    pub evictions: u64,
    /// Requests admitted (every submission, plus every column of a
    /// [`SolveService::submit_batch`]).
    pub requests: u64,
    /// Blocked solves dispatched.
    pub batches: u64,
    /// Requests that rode along in a batch behind another request
    /// (batch width minus one, summed).
    pub coalesced: u64,
}

/// One parked submission's result slot.
struct Waiter {
    slot: Mutex<Option<SolveResult>>,
    cv: Condvar,
}

/// A queued right-hand side awaiting admission.
struct QueuedRequest {
    b: Vec<f64>,
    deadline: Option<Instant>,
    waiter: Arc<Waiter>,
}

/// Per-fingerprint admission queue.
#[derive(Default)]
struct AdmissionQueue {
    pending: VecDeque<QueuedRequest>,
    /// A thread is currently draining this queue.
    has_leader: bool,
}

struct State {
    /// MRU-ordered resident handles.
    handles: Vec<(u64, Arc<SolverHandle>)>,
    queues: HashMap<u64, AdmissionQueue>,
    stats: ServiceStats,
}

/// The resident solve service. Cheap to share: all state sits behind one
/// internal lock; solves themselves run outside it.
pub struct SolveService {
    cfg: ServiceConfig,
    state: Mutex<State>,
}

impl Default for SolveService {
    fn default() -> Self {
        Self::new(ServiceConfig::default())
    }
}

impl SolveService {
    /// An empty service.
    pub fn new(cfg: ServiceConfig) -> Self {
        assert!(cfg.max_batch >= 1, "SolveService: max_batch must be ≥ 1");
        assert!(
            cfg.cache_capacity >= 1,
            "SolveService: cache_capacity must be ≥ 1"
        );
        SolveService {
            cfg,
            state: Mutex::new(State {
                handles: Vec::new(),
                queues: HashMap::new(),
                stats: ServiceStats::default(),
            }),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        self.state.lock().unwrap().stats
    }

    /// The resident handle for `(a, spec)`, building it on first use.
    /// Records a cache hit or miss and refreshes the LRU position.
    pub fn handle_for(&self, a: &Arc<CsrMatrix>, spec: &SolveSpec) -> Arc<SolverHandle> {
        let fp = fingerprint(a, spec);
        self.handle_for_fp(a, spec, fp)
    }

    fn handle_for_fp(
        &self,
        a: &Arc<CsrMatrix>,
        spec: &SolveSpec,
        fp: Fingerprint,
    ) -> Arc<SolverHandle> {
        let mut st = self.state.lock().unwrap();
        if let Some(pos) = st.handles.iter().position(|(k, _)| *k == fp.0) {
            st.stats.hits += 1;
            let entry = st.handles.remove(pos);
            st.handles.insert(0, entry);
            return Arc::clone(&st.handles[0].1);
        }
        // Build under the lock: simple, and it guarantees concurrent
        // submissions of a new fingerprint build exactly once. Setup is
        // bounded (factorization + warm-up), solves happen outside.
        st.stats.misses += 1;
        let handle = Arc::new(SolverHandle::build(Arc::clone(a), spec.clone()));
        st.handles.insert(0, (fp.0, Arc::clone(&handle)));
        while st.handles.len() > self.cfg.cache_capacity {
            st.handles.pop();
            st.stats.evictions += 1;
        }
        handle
    }

    /// Solves one right-hand side, coalescing with concurrent submissions
    /// that share the fingerprint. Blocks until the result is ready (or
    /// the deadline freezes the request — see
    /// [`spcg_solvers::Outcome::DeadlineExpired`]).
    pub fn submit(
        &self,
        a: &Arc<CsrMatrix>,
        spec: &SolveSpec,
        b: &[f64],
        deadline: Option<Instant>,
    ) -> SolveResult {
        let fp = fingerprint(a, spec);
        let handle = self.handle_for_fp(a, spec, fp);
        let waiter = Arc::new(Waiter {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        });
        let lead = {
            let mut st = self.state.lock().unwrap();
            st.stats.requests += 1;
            let q = st.queues.entry(fp.0).or_default();
            q.pending.push_back(QueuedRequest {
                b: b.to_vec(),
                deadline,
                waiter: Arc::clone(&waiter),
            });
            if q.has_leader {
                false
            } else {
                q.has_leader = true;
                true
            }
        };
        if lead {
            self.drain(fp, &handle);
        }
        let mut slot = waiter.slot.lock().unwrap();
        while slot.is_none() {
            slot = waiter.cv.wait(slot).unwrap();
        }
        slot.take().expect("waiter woken with a result")
    }

    /// Solves a caller-assembled batch directly against the cached handle —
    /// the service's synchronous wide entry point (the admission queue is
    /// for *concurrent* callers). Returns one result per right-hand side,
    /// in order.
    pub fn submit_batch(
        &self,
        a: &Arc<CsrMatrix>,
        spec: &SolveSpec,
        rhs: &[&[f64]],
        deadline: Option<Instant>,
    ) -> Vec<SolveResult> {
        let handle = self.handle_for(a, spec);
        {
            let mut st = self.state.lock().unwrap();
            st.stats.requests += rhs.len() as u64;
            if !rhs.is_empty() {
                st.stats.batches += 1;
                st.stats.coalesced += rhs.len() as u64 - 1;
            }
        }
        let requests: Vec<BatchRequest<'_>> =
            rhs.iter().map(|b| BatchRequest { b, deadline }).collect();
        handle.solve_batch(&requests)
    }

    /// Leader loop: repeatedly drain the fingerprint's queue into blocked
    /// solves until it runs dry, then resign leadership.
    fn drain(&self, fp: Fingerprint, handle: &Arc<SolverHandle>) {
        let tracer = handle.spec().opts.trace.clone();
        loop {
            let batch: Vec<QueuedRequest> = {
                // The admission decision itself: everything queued now
                // (capped) becomes one blocked solve.
                let track = tracer.as_ref().map(|t| t.track(0));
                let _g = spcg_obs::span(track.as_ref(), Phase::BatchAdmit);
                let mut st = self.state.lock().unwrap();
                let q = st.queues.get_mut(&fp.0).expect("leader owns a live queue");
                let take = q.pending.len().min(self.cfg.max_batch);
                let batch: Vec<QueuedRequest> = q.pending.drain(..take).collect();
                if batch.is_empty() {
                    q.has_leader = false;
                    st.queues.remove(&fp.0);
                    return;
                }
                st.stats.batches += 1;
                st.stats.coalesced += batch.len() as u64 - 1;
                batch
            };
            let requests: Vec<BatchRequest<'_>> = batch
                .iter()
                .map(|r| BatchRequest {
                    b: &r.b,
                    deadline: r.deadline,
                })
                .collect();
            let results = handle.solve_batch(&requests);
            for (req, res) in batch.into_iter().zip(results) {
                *req.waiter.slot.lock().unwrap() = Some(res);
                req.waiter.cv.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcg_precond::{Jacobi, Preconditioner};
    use spcg_solvers::{Method, Resilience, SolveOptions};
    use spcg_sparse::generators::paper_rhs;
    use spcg_sparse::generators::poisson::poisson_2d;

    fn setup() -> (Arc<CsrMatrix>, SolveSpec, Vec<f64>) {
        let a = Arc::new(poisson_2d(12));
        let spec = SolveSpec::new(Method::Pcg, Jacobi::new(&a).spec().unwrap())
            .with_opts(SolveOptions::from_env());
        let b = paper_rhs(&a);
        (a, spec, b)
    }

    #[test]
    fn second_submission_hits_the_cache() {
        let (a, spec, b) = setup();
        let svc = SolveService::default();
        let r1 = svc.submit(&a, &spec, &b, None);
        let r2 = svc.submit(&a, &spec, &b, None);
        assert!(r1.converged() && r2.converged());
        assert_eq!(r1.x, r2.x, "same request must reproduce bitwise");
        let stats = svc.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert_eq!(stats.requests, 2);
    }

    #[test]
    fn different_options_are_different_cache_entries() {
        let (a, spec, b) = setup();
        let svc = SolveService::default();
        svc.submit(&a, &spec, &b, None);
        let mut tighter = spec.clone();
        tighter.opts.tol = 1e-12;
        svc.submit(&a, &tighter, &b, None);
        assert_eq!(svc.stats().misses, 2);
        // Specs that differ only in the recovery policy, or only in the
        // fault plan, once shared the first one's handle (and were solved
        // under its policy).
        let mut gs = spec.clone();
        gs.opts.resilience = Some(Resilience::default());
        let mut no_gs = spec.clone();
        no_gs.opts.resilience = Some(Resilience::default().with_gs_recovery(false));
        let mut faulted = spec.clone();
        faulted.opts.faults = Some(spcg_dist::FaultPlan::new(7, 0.25));
        for other in [&gs, &no_gs, &faulted] {
            svc.submit(&a, other, &b, None);
        }
        assert_eq!((svc.stats().misses, svc.stats().hits), (5, 0));
    }

    #[test]
    fn lru_evicts_beyond_capacity() {
        let (a, spec, b) = setup();
        let svc = SolveService::new(ServiceConfig {
            max_batch: 16,
            cache_capacity: 2,
        });
        for tol in [1e-6, 1e-7, 1e-8] {
            let mut s = spec.clone();
            s.opts.tol = tol;
            svc.submit(&a, &s, &b, None);
        }
        let stats = svc.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.evictions, 1);
        // Oldest (1e-6) was evicted; resubmitting misses again.
        let mut s = spec.clone();
        s.opts.tol = 1e-6;
        svc.submit(&a, &s, &b, None);
        assert_eq!(svc.stats().misses, 4);
    }

    #[test]
    fn concurrent_submissions_all_get_their_own_bitwise_result() {
        let (a, spec, _) = setup();
        let svc = Arc::new(SolveService::default());
        let rhs: Vec<Vec<f64>> = (0..8)
            .map(|j| {
                paper_rhs(&a)
                    .into_iter()
                    .map(|v| v * (1.0 + j as f64))
                    .collect()
            })
            .collect();
        let mut expected = Vec::new();
        for b in &rhs {
            expected.push(svc.submit(&a, &spec, b, None));
        }
        let got: Vec<SolveResult> = std::thread::scope(|scope| {
            let joins: Vec<_> = rhs
                .iter()
                .map(|b| {
                    let svc = Arc::clone(&svc);
                    let a = Arc::clone(&a);
                    let spec = spec.clone();
                    scope.spawn(move || svc.submit(&a, &spec, b, None))
                })
                .collect();
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        for (j, (g, e)) in got.iter().zip(&expected).enumerate() {
            assert_eq!(g.x, e.x, "request {j} not bitwise reproducible");
            assert_eq!(g.counters, e.counters, "request {j} counters");
        }
        let stats = svc.stats();
        assert_eq!(stats.requests, 16);
        assert_eq!(stats.misses, 1, "one operator, one build");
    }

    #[test]
    fn submit_batch_returns_per_rhs_results_in_order() {
        let (a, spec, b) = setup();
        let svc = SolveService::default();
        let b2: Vec<f64> = b.iter().map(|v| v * 2.0).collect();
        let out = svc.submit_batch(&a, &spec, &[&b, &b2], None);
        assert_eq!(out.len(), 2);
        assert!(out[0].converged() && out[1].converged());
        let stats = svc.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.coalesced, 1);
    }
}
