//! Operation counters — the instrumentation behind Table 1 and the
//! performance model.
//!
//! The paper's cost analysis (§4, Table 1) classifies work into: matrix-
//! vector products + preconditioner applications; local reduction FLOPs
//! (the local parts of dot products / Gram matrices); and vector /
//! matrix-column update FLOPs, split here by BLAS level because the paper's
//! performance argument for sPCG over CA-PCG3 is precisely that blocked
//! (BLAS2/3) updates beat BLAS1 updates at equal FLOP count. Communication
//! is recorded as the number of global collectives and their payloads.

use crate::wire::{WireReader, WireResult, WireWriter};

/// Counts of every cost-relevant operation a solver performed.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counters {
    /// Sparse matrix-vector products.
    pub spmv_count: u64,
    /// FLOPs spent in SpMV (`2·nnz` each).
    pub spmv_flops: u64,
    /// Preconditioner applications.
    pub precond_count: u64,
    /// FLOPs spent applying the preconditioner.
    pub precond_flops: u64,
    /// Global reduction operations (MPI_Allreduce equivalents).
    pub global_collectives: u64,
    /// Total words (f64 values) reduced across all collectives.
    pub allreduce_words: u64,
    /// Number of length-n scalar products computed locally (dot products /
    /// Gram-matrix entries). Table 1 counts local reductions in this unit
    /// (one dot ≡ n FLOPs ≡ 1 FLOP per matrix row).
    pub dot_count: u64,
    /// Local FLOPs of reductions (dot products, Gram matrices): `2n` per
    /// scalar product of length-n vectors.
    pub local_reduction_flops: u64,
    /// FLOPs in unblocked vector updates (axpy, xpby, 3-term recurrences).
    pub blas1_flops: u64,
    /// FLOPs in matrix-vector-shaped dense updates (basis × small vector).
    pub blas2_flops: u64,
    /// FLOPs in blocked matrix-matrix-shaped updates (`P ← U + P·B`).
    pub blas3_flops: u64,
    /// FLOPs in `O(s)`-sized scalar work (small solves, small matmuls).
    pub small_flops: u64,
    /// Fine-grained iterations (PCG-equivalent steps; an s-step outer
    /// iteration advances this by s).
    pub iterations: u64,
    /// Outer iterations (equals `iterations` for standard PCG).
    pub outer_iterations: u64,
    /// Neighbour (halo / ghost-zone) exchange rounds this rank took part
    /// in. A depth-s ghost-zone MPK performs **one** round per s-step
    /// block; a naive distributed MPK performs s. Zero for serial runs.
    pub halo_exchanges: u64,
    /// Remote words (f64 values) this rank read across all halo exchanges.
    pub halo_words: u64,
    /// Residual-replacement restarts the resilience layer took (recovery
    /// from breakdown, non-finite iterates, or injected faults). Zero for
    /// undisturbed solves.
    pub restarts: u64,
}

impl Counters {
    /// A fresh zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one SpMV with the given FLOP cost.
    #[inline]
    pub fn record_spmv(&mut self, flops: u64) {
        self.spmv_count += 1;
        self.spmv_flops += flops;
    }

    /// Records one preconditioner application.
    #[inline]
    pub fn record_precond(&mut self, flops: u64) {
        self.precond_count += 1;
        self.precond_flops += flops;
    }

    /// Records one global collective reducing `words` values. The solvers'
    /// one caller is the reduction itself (`Exec::allreduce` in
    /// `spcg-solvers`), so a collective is charged where it is performed.
    #[inline]
    pub fn record_collective(&mut self, words: u64) {
        self.global_collectives += 1;
        self.allreduce_words += words;
    }

    /// Records the local FLOPs of `count` dot products of length `n`.
    #[inline]
    pub fn record_dots(&mut self, count: u64, n: u64) {
        self.dot_count += count;
        self.local_reduction_flops += 2 * count * n;
    }

    /// Records one halo (ghost-zone) exchange round reading `words` remote
    /// values. A round may carry several vectors; it still counts once.
    #[inline]
    pub fn record_halo_exchange(&mut self, words: u64) {
        self.halo_exchanges += 1;
        self.halo_words += words;
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &Counters) {
        self.spmv_count += other.spmv_count;
        self.spmv_flops += other.spmv_flops;
        self.precond_count += other.precond_count;
        self.precond_flops += other.precond_flops;
        self.global_collectives += other.global_collectives;
        self.allreduce_words += other.allreduce_words;
        self.dot_count += other.dot_count;
        self.local_reduction_flops += other.local_reduction_flops;
        self.blas1_flops += other.blas1_flops;
        self.blas2_flops += other.blas2_flops;
        self.blas3_flops += other.blas3_flops;
        self.small_flops += other.small_flops;
        self.iterations += other.iterations;
        self.outer_iterations += other.outer_iterations;
        self.halo_exchanges += other.halo_exchanges;
        self.halo_words += other.halo_words;
        self.restarts += other.restarts;
    }

    /// Every field as `(name, value)`, in declaration order — the one list
    /// behind the JSON export and the wire encoding. The destructuring is
    /// exhaustive on purpose: a new counter does not compile until it is
    /// listed here (and read back in [`Counters::decode`]).
    fn fields(&self) -> [(&'static str, u64); 17] {
        let Counters {
            spmv_count,
            spmv_flops,
            precond_count,
            precond_flops,
            global_collectives,
            allreduce_words,
            dot_count,
            local_reduction_flops,
            blas1_flops,
            blas2_flops,
            blas3_flops,
            small_flops,
            iterations,
            outer_iterations,
            halo_exchanges,
            halo_words,
            restarts,
        } = *self;
        [
            ("spmv_count", spmv_count),
            ("spmv_flops", spmv_flops),
            ("precond_count", precond_count),
            ("precond_flops", precond_flops),
            ("global_collectives", global_collectives),
            ("allreduce_words", allreduce_words),
            ("dot_count", dot_count),
            ("local_reduction_flops", local_reduction_flops),
            ("blas1_flops", blas1_flops),
            ("blas2_flops", blas2_flops),
            ("blas3_flops", blas3_flops),
            ("small_flops", small_flops),
            ("iterations", iterations),
            ("outer_iterations", outer_iterations),
            ("halo_exchanges", halo_exchanges),
            ("halo_words", halo_words),
            ("restarts", restarts),
        ]
    }

    /// Appends every field to a proc-backend frame.
    pub fn encode(&self, w: &mut WireWriter) {
        for (_, value) in self.fields() {
            w.u64(value);
        }
    }

    /// Reads what [`Counters::encode`] wrote (fields in declaration order).
    pub fn decode(r: &mut WireReader<'_>) -> WireResult<Counters> {
        Ok(Counters {
            spmv_count: r.u64()?,
            spmv_flops: r.u64()?,
            precond_count: r.u64()?,
            precond_flops: r.u64()?,
            global_collectives: r.u64()?,
            allreduce_words: r.u64()?,
            dot_count: r.u64()?,
            local_reduction_flops: r.u64()?,
            blas1_flops: r.u64()?,
            blas2_flops: r.u64()?,
            blas3_flops: r.u64()?,
            small_flops: r.u64()?,
            iterations: r.u64()?,
            outer_iterations: r.u64()?,
            halo_exchanges: r.u64()?,
            halo_words: r.u64()?,
            restarts: r.u64()?,
        })
    }

    /// All FLOPs on length-n vectors beyond SpMV and preconditioner — the
    /// paper's "remaining FLOPs" column of Table 1.
    pub fn remaining_vector_flops(&self) -> u64 {
        self.local_reduction_flops + self.blas1_flops + self.blas2_flops + self.blas3_flops
    }

    /// Total FLOPs of every class.
    pub fn total_flops(&self) -> u64 {
        self.spmv_flops + self.precond_flops + self.remaining_vector_flops() + self.small_flops
    }

    /// Every field as a flat JSON object — the `"counters"` block of the
    /// trace exports (`spcg_obs::Tracer::export_json`), merging the
    /// Table-1 FLOP/communication counts into the timeline file.
    pub fn to_json(&self) -> String {
        let fields = self
            .fields()
            .map(|(name, value)| format!("\"{name}\":{value}"));
        format!("{{{}}}", fields.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_merge() {
        let mut a = Counters::new();
        a.record_spmv(100);
        a.record_precond(40);
        a.record_collective(21);
        a.record_dots(3, 10);
        a.record_halo_exchange(12);
        let mut b = Counters::new();
        b.record_spmv(100);
        b.blas1_flops = 7;
        b.merge(&a);
        assert_eq!(b.spmv_count, 2);
        assert_eq!(b.halo_exchanges, 1);
        assert_eq!(b.halo_words, 12);
        assert_eq!(b.spmv_flops, 200);
        assert_eq!(b.precond_count, 1);
        assert_eq!(b.global_collectives, 1);
        assert_eq!(b.allreduce_words, 21);
        assert_eq!(b.local_reduction_flops, 60);
        assert_eq!(b.remaining_vector_flops(), 67);
    }

    #[test]
    fn to_json_round_trips_every_field() {
        let mut c = Counters::new();
        c.record_spmv(100);
        c.record_precond(40);
        c.record_collective(21);
        c.record_dots(3, 10);
        c.record_halo_exchange(12);
        c.blas1_flops = 1;
        c.blas2_flops = 2;
        c.blas3_flops = 3;
        c.small_flops = 4;
        c.iterations = 5;
        c.outer_iterations = 6;
        c.restarts = 7;
        let json = c.to_json();
        let v = spcg_obs::json::parse(&json).expect("counters JSON parses");
        let field = |k: &str| v.get(k).and_then(spcg_obs::json::Value::as_f64).unwrap();
        assert_eq!(field("spmv_count"), 1.0);
        assert_eq!(field("spmv_flops"), 100.0);
        assert_eq!(field("precond_flops"), 40.0);
        assert_eq!(field("allreduce_words"), 21.0);
        assert_eq!(field("dot_count"), 3.0);
        assert_eq!(field("local_reduction_flops"), 60.0);
        assert_eq!(field("blas3_flops"), 3.0);
        assert_eq!(field("halo_words"), 12.0);
        assert_eq!(field("outer_iterations"), 6.0);
        assert_eq!(field("restarts"), 7.0);
    }

    #[test]
    fn wire_codec_round_trips_every_field() {
        // Seventeen distinct values, so a swapped pair of fields shows.
        let mut w = WireWriter::new();
        (1..=17u64).for_each(|v| w.u64(v * 1000 + v));
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let c = Counters::decode(&mut r).unwrap();
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(
            (c.spmv_count, c.halo_words, c.restarts),
            (1001, 16016, 17017)
        );
        let mut again = WireWriter::new();
        c.encode(&mut again);
        assert_eq!(again.into_bytes(), bytes);
        assert!(Counters::decode(&mut WireReader::new(&bytes[..bytes.len() - 1])).is_err());
    }

    #[test]
    fn total_flops_adds_all_classes() {
        let mut c = Counters::new();
        c.spmv_flops = 1;
        c.precond_flops = 2;
        c.blas1_flops = 4;
        c.blas2_flops = 8;
        c.blas3_flops = 16;
        c.local_reduction_flops = 32;
        c.small_flops = 64;
        assert_eq!(c.total_flops(), 127);
    }
}
