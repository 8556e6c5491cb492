//! `service_batch`: one closed-loop client against a `SolveService`.
//!
//! A pass is `SERVICE_CYCLES` cycles; a cycle makes one operator hot:
//! `SERVICE_SINGLES` `submit`s on it (the first misses — the other hot
//! operator's cycle evicted it from the two-entry cache), one
//! `submit_batch` of `SERVICE_BATCH`, then one sPCG `submit` on operator C.
//! The client sends its next request only when the previous one returned.
//! A request's time is the time inside the service; what the client does
//! between requests (checking the answer, re-creating the hot operator) is
//! outside the timed region.

use crate::attribution::TraceSink;
use crate::harness::{check_result, Driver, Ops, Pass, Sample};
use crate::workloads::{
    kind, Inputs, Roles, ServiceInputs, SERVICE_BATCH, SERVICE_CYCLES, SERVICE_ROLES,
    SERVICE_SINGLES,
};
use spcg::dist::Counters;
use spcg::obs::Tracer;
use spcg::service::{ServiceConfig, ServiceStats, SolveService, SolveSpec};
use spcg::solvers::SolveResult;
use spcg::sparse::CsrMatrix;
use std::sync::Arc;
use std::time::Instant;

/// Probes of a traced run use a block size like the solver workloads'.
const PROBE_S: usize = 5;

pub struct ServiceDriver<'a> {
    inputs: &'a ServiceInputs,
    service: SolveService,
    specs: Vec<SolveSpec>,
    /// One tracer for the driver's life: a resident handle keeps the
    /// tracer of the spec it was built from, so a fresh tracer per request
    /// would never see a cache hit's spans.
    tracer: Option<(Tracer, f64)>,
    tracks_seen: usize,
    rtol: f64,
}

impl<'a> ServiceDriver<'a> {
    /// A fresh service, primed with one unrecorded pass so that every
    /// recorded pass starts from the same steady cache state (C resident,
    /// the hot operator about to miss). A traced driver takes the sink to
    /// place its tracer's epoch on the sink's clock.
    pub fn new(inputs: &'a ServiceInputs, rtol: f64, sink: Option<&TraceSink>) -> Self {
        let tracer = sink.map(|s| {
            let epoch_s = s.now();
            (Tracer::new(), epoch_s)
        });
        let specs = inputs
            .ops
            .iter()
            .map(|op| {
                let mut spec = op.spec.clone();
                spec.opts.tol = rtol;
                spec.opts.trace = tracer.as_ref().map(|(t, _)| t.clone());
                spec
            })
            .collect();
        let mut driver = ServiceDriver {
            inputs,
            service: SolveService::new(ServiceConfig {
                max_batch: 16,
                cache_capacity: 2,
            }),
            specs,
            tracer,
            tracks_seen: 0,
            rtol,
        };
        driver.run_pass(0, None, &mut Ops::default());
        driver.tracks_seen = driver.tracer.as_ref().map_or(0, |(t, _)| t.tracks().len());
        driver
    }

    /// One timed request; `call` returns one result per right-hand side.
    #[allow(clippy::too_many_arguments)]
    fn request(
        &mut self,
        key: &'static str,
        pass: usize,
        a: &CsrMatrix,
        rhs: &[&[f64]],
        sink: &mut Option<&mut TraceSink>,
        ops: &mut Ops,
        call: impl FnOnce(&SolveService) -> Vec<SolveResult>,
    ) -> Sample {
        let before = self.service.stats();
        let root_begin = sink.as_ref().map(|s| s.now());
        let t0 = Instant::now();
        let results = call(&self.service);
        let secs = t0.elapsed().as_secs_f64();

        let mut failures = Vec::new();
        let missed = self.service.stats().misses - before.misses;
        if missed != u64::from(key == kind::COLD) {
            failures.push(format!("{key}: {missed} cache misses"));
        }
        let mut counters = Counters::new();
        let (mut iters, mut relres) = (0u64, 0.0f64);
        for (res, b) in results.iter().zip(rhs) {
            let (r, f) = check_result(key, res, a, b, self.rtol);
            failures.extend(f);
            relres = relres.max(r);
            iters += res.iterations as u64;
            counters.merge(&res.counters);
        }
        let trace = match (sink.as_deref_mut(), &self.tracer) {
            (Some(s), Some((tracer, epoch_s))) => {
                let tracks = tracer.tracks();
                let fresh = &tracks[self.tracks_seen..];
                self.tracks_seen = tracks.len();
                let name = format!("{key}#{pass}");
                let begin = root_begin.expect("traced request");
                let st = s.record_solve(&name, pass, begin, secs, *epoch_s, fresh);
                if let Err(e) = &st.consistent {
                    failures.push(e.clone());
                }
                Some(st)
            }
            _ => None,
        };
        ops.record(failures);
        Sample {
            key,
            secs,
            rhs: rhs.len(),
            iters,
            counters,
            relres,
            adaptive: None,
            trace,
        }
    }

    fn run_pass(&mut self, index: usize, mut sink: Option<&mut TraceSink>, ops: &mut Ops) -> Pass {
        let inputs = self.inputs;
        let before = self.service.stats();
        let mut samples = Vec::new();
        for cycle in 0..SERVICE_CYCLES {
            let hot = &inputs.ops[cycle % 2];
            let spec = self.specs[cycle % 2].clone();
            // The client re-creates the hot operator, as one that dropped
            // it after its last use would: the miss pays the whole handle
            // build, SELL conversion included, not just the cache lookup.
            let a = Arc::new(CsrMatrix::clone(&hot.inputs.a));
            let order = &inputs.order[cycle];
            for (i, &j) in order[..SERVICE_SINGLES].iter().enumerate() {
                let key = if i == 0 { kind::COLD } else { kind::SINGLE };
                let b = hot.pool[j].as_slice();
                samples.push(self.request(key, index, &a, &[b], &mut sink, ops, |svc| {
                    vec![svc.submit(&a, &spec, b, None)]
                }));
            }
            let batch: Vec<&[f64]> = order[SERVICE_SINGLES..]
                .iter()
                .map(|&j| hot.pool[j].as_slice())
                .collect();
            debug_assert_eq!(batch.len(), SERVICE_BATCH);
            samples.push(
                self.request(kind::BATCH8, index, &a, &batch, &mut sink, ops, |svc| {
                    svc.submit_batch(&a, &spec, &batch, None)
                }),
            );
            let (c, c_spec) = (&inputs.ops[2], self.specs[2].clone());
            let b = c.pool[order[0]].as_slice();
            samples.push(self.request(
                kind::SSTEP,
                index,
                &c.inputs.a,
                &[b],
                &mut sink,
                ops,
                |svc| vec![svc.submit(&c.inputs.a, &c_spec, b, None)],
            ));
        }
        let after = self.service.stats();
        Pass {
            samples,
            service: Some(ServiceStats {
                hits: after.hits - before.hits,
                misses: after.misses - before.misses,
                evictions: after.evictions - before.evictions,
                requests: after.requests - before.requests,
                batches: after.batches - before.batches,
                coalesced: after.coalesced - before.coalesced,
            }),
        }
    }
}

impl Driver for ServiceDriver<'_> {
    fn roles(&self) -> Roles {
        SERVICE_ROLES
    }

    fn probe_target(&self) -> (&Inputs, usize) {
        (&self.inputs.ops[0].inputs, PROBE_S)
    }

    fn pass(&mut self, index: usize, sink: Option<&mut TraceSink>, ops: &mut Ops) -> Pass {
        assert_eq!(
            sink.is_some(),
            self.tracer.is_some(),
            "a ServiceDriver is traced from construction or not at all"
        );
        self.run_pass(index, sink, ops)
    }
}
