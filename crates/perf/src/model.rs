//! The α-β time model: instrumented counters → modeled cluster time.

use crate::machine::MachineParams;
use spcg_dist::{Counters, MachineTopology};

/// Modeled time of a solve, broken down by cost class (seconds).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeBreakdown {
    /// SpMV compute.
    pub spmv: f64,
    /// Preconditioner compute.
    pub precond: f64,
    /// BLAS1 vector updates and local reduction arithmetic.
    pub blas1: f64,
    /// Blocked BLAS2/BLAS3 updates.
    pub blas23: f64,
    /// Replicated O(s³) scalar work.
    pub small: f64,
    /// Global reductions (latency + payload).
    pub allreduce: f64,
    /// Neighbour halo exchange attached to SpMVs.
    pub halo: f64,
}

impl TimeBreakdown {
    /// Total modeled wall time.
    pub fn total(&self) -> f64 {
        self.spmv
            + self.precond
            + self.blas1
            + self.blas23
            + self.small
            + self.allreduce
            + self.halo
    }

    /// Fraction of total time spent communicating.
    pub fn comm_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            (self.allreduce + self.halo) / t
        }
    }
}

/// Time of one allreduce of `words` values on `topo`: a reduce+broadcast
/// tree over nodes (inter-node hops) after an intra-node tree.
pub fn allreduce_time(machine: &MachineParams, topo: &MachineTopology, words: f64) -> f64 {
    let inter = topo.internode_hops() as f64;
    let intra = topo.intranode_hops() as f64;
    2.0 * (inter * (machine.alpha_inter + words * machine.beta_inter)
        + intra * (machine.alpha_intra + words * machine.beta_intra))
}

/// Converts a solve's counters into modeled time on `topo`.
///
/// `halo_words_per_rank` is the average number of remote vector entries one
/// rank consumes per SpMV under block-row partitioning (the sizes of
/// `BlockRowPartition::halo_columns` averaged over ranks, or the stencil
/// closed form).
pub fn predict_time(
    counters: &Counters,
    machine: &MachineParams,
    topo: &MachineTopology,
    halo_words_per_rank: f64,
) -> TimeBreakdown {
    machine.validate();
    let p = topo.total_ranks() as f64;
    let words_per_collective = if counters.global_collectives == 0 {
        0.0
    } else {
        counters.allreduce_words as f64 / counters.global_collectives as f64
    };
    TimeBreakdown {
        spmv: counters.spmv_flops as f64 / p / machine.spmv_flops,
        precond: counters.precond_flops as f64 / p / machine.spmv_flops,
        blas1: counters.blas1_flops as f64 / p / machine.blas1_flops,
        // Local reductions are Gram blocks (Uᵀ·S etc.) — GEMM-shaped and
        // cache-blocked, so they run at the blocked rate. (Standard PCG's
        // two scalar dots are slightly undercharged by this; they are a
        // few percent of its per-iteration work.)
        blas23: (counters.blas2_flops + counters.blas3_flops + counters.local_reduction_flops)
            as f64
            / p
            / machine.blas23_flops,
        small: counters.small_flops as f64 / machine.small_flops,
        allreduce: counters.global_collectives as f64
            * allreduce_time(machine, topo, words_per_collective),
        halo: counters.spmv_count as f64
            * (2.0 * machine.alpha_p2p + halo_words_per_rank * machine.beta_p2p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_counters() -> Counters {
        let mut c = Counters::new();
        c.spmv_count = 100;
        c.spmv_flops = 100 * 2_000_000;
        c.precond_count = 100;
        c.precond_flops = 100 * 1_000_000;
        c.blas1_flops = 100 * 600_000;
        c.record_dots(200, 100_000);
        c.global_collectives = 200;
        c.allreduce_words = 200;
        c
    }

    #[test]
    fn compute_shrinks_with_ranks_comm_grows_with_nodes() {
        let m = MachineParams::default();
        let c = sample_counters();
        let t1 = predict_time(&c, &m, &MachineTopology::paper(1), 1000.0);
        let t16 = predict_time(&c, &m, &MachineTopology::paper(16), 1000.0);
        assert!(t16.spmv < t1.spmv);
        assert!(t16.blas1 < t1.blas1);
        assert!(t16.allreduce > t1.allreduce);
    }

    #[test]
    fn allreduce_time_monotone_in_nodes_and_words() {
        let m = MachineParams::default();
        let t4 = allreduce_time(&m, &MachineTopology::paper(4), 1.0);
        let t64 = allreduce_time(&m, &MachineTopology::paper(64), 1.0);
        assert!(t64 > t4);
        let tbig = allreduce_time(&m, &MachineTopology::paper(4), 1e6);
        assert!(tbig > t4);
    }

    #[test]
    fn breakdown_total_is_sum() {
        let m = MachineParams::default();
        let c = sample_counters();
        let t = predict_time(&c, &m, &MachineTopology::paper(2), 10.0);
        let sum = t.spmv + t.precond + t.blas1 + t.blas23 + t.small + t.allreduce + t.halo;
        assert!((t.total() - sum).abs() < 1e-15);
        assert!(t.comm_fraction() > 0.0 && t.comm_fraction() < 1.0);
    }

    #[test]
    fn small_work_is_not_parallelized() {
        let m = MachineParams::default();
        let mut c = Counters::new();
        c.small_flops = 1_000_000;
        let t1 = predict_time(&c, &m, &MachineTopology::paper(1), 0.0);
        let t64 = predict_time(&c, &m, &MachineTopology::paper(64), 0.0);
        assert_eq!(t1.small, t64.small);
    }

    #[test]
    fn zero_counters_give_zero_time() {
        let m = MachineParams::default();
        let t = predict_time(&Counters::new(), &m, &MachineTopology::paper(1), 0.0);
        assert_eq!(t.total(), 0.0);
    }
}
