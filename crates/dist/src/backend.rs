//! Pluggable communication backends: the [`Comm`] and [`Exchange`] traits.
//!
//! The paper's experiments run on MPI; this workspace originally ran on a
//! single concrete substrate, [`ThreadComm`] + [`crate::VectorBoard`] —
//! R ranks as OS threads over shared memory. This module extracts what the
//! solvers actually *require* from that substrate into two object-safe
//! traits so transports can be swapped without touching solver code:
//!
//! * [`Comm`] — rank identity and the collectives (barrier, deterministic
//!   `allreduce_sum`). Exactly the MPI subset the s-step methods use: one
//!   global reduction per s steps.
//! * [`Exchange`] — the split-phase halo protocol (`post` /
//!   `complete_into` / `complete_snapshot`) plus plan construction. Every
//!   call names the rank making it by that rank's [`Comm`].
//!
//! Both traits are dyn-safe on purpose: the ranked engine holds
//! `Box<dyn Comm>` and `Box<dyn Exchange>`, so a solve is generic over the
//! transport at zero algorithmic cost.
//!
//! Two backends exist ([`Backend`]):
//!
//! * [`Backend::Thread`] — [`ThreadComm`] + a [`VectorBoard`] handle.
//!   In-process, shared-memory, the default.
//! * [`Backend::Proc`] — worker *processes* over Unix-domain sockets
//!   (implemented in `spcg-solvers`, which owns the solver state a worker
//!   must rebuild). A worker's [`Comm`] and [`Exchange`] send a frame and
//!   read the reply; the parent answers each frame by performing it on a
//!   [`ThreadComm`] / [`VectorBoard`] world of its own, one proxy thread
//!   per rank. Real rank death becomes observable: a killed worker closes
//!   its socket, and the driver heals through the same restart path that
//!   absorbs injected faults.
//!
//! The determinism contract is backend-independent because the protocol
//! exists once: reductions sum contributions in rank order, exchanges
//! deliver whole published rounds, and fault injection decides from
//! `(seed, site, rank, seq)` in the same objects under both backends — so
//! thread and proc solves of the same problem are bitwise identical.

use crate::comm::ThreadComm;
use crate::exchange::{GatherPlan, VectorBoard};
use spcg_obs::Track;

/// Collective communication contract of one rank.
///
/// Implementations must make [`Comm::allreduce_sum`] deterministic: every
/// rank receives the bitwise-identical result of summing the per-rank
/// contributions in rank order (0, 1, …), independent of arrival order.
pub trait Comm {
    /// This rank's id, in `0..nranks`.
    fn rank(&self) -> usize;

    /// Number of participating ranks.
    fn nranks(&self) -> usize;

    /// Blocks until every rank has arrived.
    fn barrier(&self);

    /// Global sum-reduction of `buf` across all ranks, in place, summed in
    /// rank order (deterministic; see the trait docs).
    fn allreduce_sum(&self, buf: &mut [f64]);

    /// Convenience: allreduce a single scalar.
    fn allreduce_scalar(&self, v: f64) -> f64 {
        let mut buf = [v];
        self.allreduce_sum(&mut buf);
        buf[0]
    }
}

impl Comm for ThreadComm {
    fn rank(&self) -> usize {
        ThreadComm::rank(self)
    }

    fn nranks(&self) -> usize {
        ThreadComm::nranks(self)
    }

    fn barrier(&self) {
        ThreadComm::barrier(self)
    }

    fn allreduce_sum(&self, buf: &mut [f64]) {
        ThreadComm::allreduce_sum(self, buf)
    }
}

/// Split-phase halo-exchange contract of one rank.
///
/// The protocol is the one documented on [`crate::exchange`]: every round
/// on a board is exactly one [`Exchange::post`] followed by exactly one
/// completion ([`Exchange::complete_into`] or
/// [`Exchange::complete_snapshot`]) on every rank, rounds are sequenced by
/// per-rank epochs, and a completion returns only whole published rounds.
/// `comm` is the calling rank's communicator (a transport whose handle is
/// already one rank's own may ignore it).
pub trait Exchange {
    /// Posts this rank's chunk for the next round (the *send* side);
    /// returns without waiting for remote data. `track` wraps the call in
    /// an `ExchangePost` span when given.
    fn post(&self, comm: &dyn Comm, chunk: &[f64], track: Option<&Track>);

    /// Completes the posted round: waits for the plan's source ranks and
    /// gathers the plan's runs into `out` (in plan order). `track` wraps
    /// the call in an `ExchangeWait` span when given.
    fn complete_into(
        &self,
        comm: &dyn Comm,
        plan: &GatherPlan,
        out: &mut [f64],
        track: Option<&Track>,
    );

    /// Completes the posted round with a copy of the full assembled
    /// vector — the all-neighbour variant of the replicated fallbacks.
    fn complete_snapshot(&self, comm: &dyn Comm, track: Option<&Track>) -> Vec<f64>;

    /// This board's partition offsets (length `nranks + 1`).
    fn offsets(&self) -> &[usize];

    /// Compresses `indices` (global vector positions) into a reusable
    /// [`GatherPlan`] against this board's partition.
    fn plan(&self, indices: &[usize]) -> GatherPlan {
        GatherPlan::build(self.offsets(), indices)
    }

    /// Row range owned by `rank` under this board's partition.
    fn range(&self, rank: usize) -> (usize, usize) {
        (self.offsets()[rank], self.offsets()[rank + 1])
    }
}

/// The thread backend's [`Exchange`] is a [`VectorBoard`] handle itself.
impl Exchange for VectorBoard {
    fn post(&self, comm: &dyn Comm, chunk: &[f64], track: Option<&Track>) {
        self.post_traced(comm, chunk, track);
    }

    fn complete_into(
        &self,
        comm: &dyn Comm,
        plan: &GatherPlan,
        out: &mut [f64],
        track: Option<&Track>,
    ) {
        self.complete_into_traced(comm, plan, out, track);
    }

    fn complete_snapshot(&self, comm: &dyn Comm, track: Option<&Track>) -> Vec<f64> {
        self.complete_snapshot_traced(comm, track)
    }

    fn offsets(&self) -> &[usize] {
        VectorBoard::offsets(self)
    }
}

/// Which transport a ranked solve runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Ranks as OS threads over shared memory ([`ThreadComm`]). Default.
    #[default]
    Thread,
    /// Ranks as worker processes over Unix-domain sockets. Selected with
    /// `SolveOptions::backend`.
    Proc,
}

impl Backend {
    /// Stable lowercase name (env/report key).
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Thread => "thread",
            Backend::Proc => "proc",
        }
    }

    /// Parses `"thread"` / `"proc"` (ASCII case-insensitive).
    pub fn parse(s: &str) -> Option<Backend> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("thread") {
            Some(Backend::Thread)
        } else if s.eq_ignore_ascii_case("proc") {
            Some(Backend::Proc)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommGroup;

    #[test]
    fn backend_parse_roundtrip() {
        for b in [Backend::Thread, Backend::Proc] {
            assert_eq!(Backend::parse(b.as_str()), Some(b));
        }
        assert_eq!(Backend::parse(" PROC "), Some(Backend::Proc));
        assert_eq!(Backend::parse("mpi"), None);
        assert_eq!(Backend::default(), Backend::Thread);
    }

    #[test]
    fn thread_comm_through_dyn_object() {
        let g = CommGroup::new(1);
        let c: Box<dyn Comm> = Box::new(g.rank_comm(0));
        assert_eq!(c.rank(), 0);
        assert_eq!(c.nranks(), 1);
        c.barrier();
        assert_eq!(c.allreduce_scalar(2.5), 2.5);
    }

    #[test]
    fn thread_board_roundtrip_through_trait() {
        let g = CommGroup::new(2);
        let board = VectorBoard::new(vec![0, 2, 4]);
        let handles: Vec<_> = (0..2)
            .map(|r| {
                let ex: Box<dyn Exchange + Send> = Box::new(board.handle());
                let comm = g.rank_comm(r);
                std::thread::spawn(move || {
                    let plan = ex.plan(if r == 0 { &[2, 3] } else { &[0, 1] });
                    assert_eq!(ex.range(r), (2 * r, 2 * r + 2));
                    ex.post(&comm, &[r as f64, r as f64], None);
                    let mut halo = vec![0.0; 2];
                    ex.complete_into(&comm, &plan, &mut halo, None);
                    halo
                })
            })
            .collect();
        for (r, h) in handles.into_iter().enumerate() {
            let other = (1 - r) as f64;
            assert_eq!(h.join().unwrap(), vec![other, other]);
        }
    }
}
