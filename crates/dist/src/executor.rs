//! Scoped-thread rank executor.
//!
//! Maps `nranks` SPMD rank functions onto OS threads, handing each one its
//! [`crate::ThreadComm`]. This is the shared-memory analogue of
//! `mpiexec -n <nranks>`: the same solver code that records communication
//! through [`crate::Counters`] can be executed with *real* synchronization
//! to validate that the communication structure (one reduction per s steps)
//! is what the instrumentation claims.

use crate::comm::{Abort, Aborted, CommGroup, ThreadComm};
use std::sync::Arc;

/// Runs `f(comm)` once per rank on `nranks` scoped threads and collects the
/// per-rank results in rank order. A panic in any rank propagates, with
/// that rank's own message (see [`run_ranks_in`]).
pub fn run_ranks<R, F>(nranks: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(ThreadComm) -> R + Sync,
{
    run_ranks_in(&CommGroup::new(nranks), f)
}

/// [`run_ranks`] on a group the caller built — which is how the caller gets
/// to attach its boards to the group's [`Abort`] first
/// ([`crate::VectorBoard::with_abort`]).
///
/// A rank whose closure panics raises the group's abort on its way out, so
/// peers blocked in a collective or on an attached board unwind at once
/// instead of waiting out their watchdogs for a rank that will never
/// arrive; the panic that propagates to the caller is the failed rank's,
/// not a peer's.
pub fn run_ranks_in<R, F>(group: &Arc<CommGroup>, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(ThreadComm) -> R + Sync,
{
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..group.nranks())
            .map(|r| {
                let comm = group.rank_comm(r);
                let f = &f;
                scope.spawn(move || {
                    let _guard = AbortOnUnwind(group.abort());
                    f(comm)
                })
            })
            .collect();
        let mut results = Vec::with_capacity(handles.len());
        let mut failure: Option<Box<dyn std::any::Any + Send>> = None;
        for handle in handles {
            match handle.join() {
                Ok(result) => results.push(result),
                // Joined in rank order; keep the first payload that is a
                // rank's own panic rather than the echo of somebody else's.
                Err(payload) => {
                    if failure.as_ref().map_or(true, |f| f.is::<Aborted>()) {
                        failure = Some(payload);
                    }
                }
            }
        }
        match failure {
            Some(payload) => std::panic::resume_unwind(payload),
            None => results,
        }
    })
}

/// Raises the abort when dropped by a panic.
struct AbortOnUnwind<'a>(&'a Abort);

impl Drop for AbortOnUnwind<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.raise();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_rank_order() {
        let out = run_ranks(6, |c| c.rank() * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn ranks_cooperate_via_allreduce() {
        let out = run_ranks(5, |c| c.allreduce_scalar(c.rank() as f64));
        assert!(out.iter().all(|&v| v == 10.0));
    }

    #[test]
    fn distributed_dot_product_matches_serial() {
        // A length-103 dot product split over 4 ranks.
        let x: Vec<f64> = (0..103).map(|i| (i as f64).sin()).collect();
        let y: Vec<f64> = (0..103).map(|i| (i as f64 * 0.5).cos()).collect();
        let serial: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let part = spcg_partition(103, 4);
        let x2 = x.clone();
        let y2 = y.clone();
        let out = run_ranks(4, move |c| {
            let (lo, hi) = part[c.rank()];
            let local: f64 = x2[lo..hi].iter().zip(&y2[lo..hi]).map(|(a, b)| a * b).sum();
            c.allreduce_scalar(local)
        });
        for v in out {
            assert!((v - serial).abs() < 1e-12);
        }
    }

    fn spcg_partition(n: usize, p: usize) -> Vec<(usize, usize)> {
        let base = n / p;
        let extra = n % p;
        let mut out = Vec::new();
        let mut acc = 0;
        for i in 0..p {
            let len = base + usize::from(i < extra);
            out.push((acc, acc + len));
            acc += len;
        }
        out
    }

    #[test]
    #[should_panic(expected = "nranks must be positive")]
    fn zero_ranks_rejected() {
        run_ranks(0, |_| ());
    }
}
