//! The metric names, units and directions the benchmark emits.
//!
//! `BENCHMARK.json` at the repo root declares the same lists; the
//! `contract` test checks the two agree in both directions. Every
//! end-to-end metric is emitted by every workload on an untraced run and
//! every per-layer metric by every workload on a traced run; a per-layer
//! metric whose layer the workload does not exercise reads 0.

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound (share of the parent's median); end-to-end only.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Decl {
    Decl {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Decl {
    e2e(name, unit, "lower", 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> Decl {
    e2e(name, unit, "higher", 0.0)
}

/// What a user of the system sees. The timings carry the widest bound a
/// benchmark may declare: the 2-vCPU guest this was sized on shares its
/// host, whose speed moves by 10–30% in spells of seconds and of minutes;
/// the quiet mean takes out the first kind, nothing inside a run takes
/// out the second, and ten runs of one commit spread (first to third
/// quartile) by 5–18% of their median — see README, "Noise".
pub const END_TO_END: &[Decl] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("tts_pcg_s", "s", "lower", 0.25),
    e2e("tts_sstep_s", "s", "lower", 0.25),
    e2e("tts_alt_s", "s", "lower", 0.25),
    e2e("mix_s", "s", "lower", 0.25),
    e2e("rhs_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.10),
];

/// Single layers, `<crate>.<name>`. Sources: span self time per traced
/// pass (`*_s` under sparse/basis/precond/dist/solvers/adapt/service),
/// exact counts from `SolveResult.counters` / `ServiceStats`, and
/// benchmark-owned probes around one public function of the layer.
pub const PER_LAYER: &[Decl] = &[
    // sparse
    lo("sparse.spmv_s", "s"),
    lo("sparse.gram_s", "s"),
    lo("sparse.vec_update_s", "s"),
    lo("sparse.small_solve_s", "s"),
    lo("sparse.spmm_s", "s"),
    lo("sparse.spmv_count", "count"),
    hi("sparse.spmv_gflops.csr", "Gflop/s"),
    hi("sparse.spmv_gflops.sell", "Gflop/s"),
    hi("sparse.spmv_flop_per_byte.csr", "flop/B"),
    hi("sparse.spmv_flop_per_byte.sell", "flop/B"),
    hi("sparse.spmv_speedup_t2", "x"),
    hi("sparse.gram_gflops", "Gflop/s"),
    hi("sparse.blocked_update_gflops", "Gflop/s"),
    lo("sparse.small_solve_us", "us"),
    hi("sparse.spmm_gflops.k8", "Gflop/s"),
    lo("sparse.sell_convert_s", "s"),
    // basis
    lo("basis.mpk_s", "s"),
    hi("basis.mpk_gflops.fused", "Gflop/s"),
    hi("basis.mpk_gflops.levelwise", "Gflop/s"),
    lo("basis.spectrum_est_s", "s"),
    // precond
    lo("precond.apply_s", "s"),
    lo("precond.apply_count", "count"),
    hi("precond.apply_gflops", "Gflop/s"),
    lo("precond.build_s", "s"),
    // dist
    lo("dist.exchange_post_s", "s"),
    lo("dist.exchange_wait_s", "s"),
    lo("dist.frontier_s", "s"),
    lo("dist.rank_skew_frac", "frac"),
    lo("dist.collectives", "count"),
    lo("dist.allreduce_words", "count"),
    lo("dist.halo_exchanges", "count"),
    lo("dist.halo_words", "count"),
    lo("dist.retries", "count"),
    lo("dist.allreduce_us", "us"),
    lo("dist.proc_overhead_s", "s"),
    // solvers
    lo("solvers.iters.pcg", "count"),
    lo("solvers.iters.sstep", "count"),
    lo("solvers.iters_total", "count"),
    lo("solvers.restarts", "count"),
    lo("solvers.scalar_work_s", "s"),
    lo("solvers.restart_s", "s"),
    lo("solvers.unattributed_s", "s"),
    lo("solvers.unattributed_frac", "frac"),
    lo("solvers.true_relres_max", "frac"),
    hi("solvers.sstep_speedup", "x"),
    hi("solvers.par_eff_2.pcg", "frac"),
    hi("solvers.par_eff_2.sstep", "frac"),
    hi("solvers.batch_speedup_k8", "x"),
    // adapt
    lo("adapt.spectral_est_s", "s"),
    lo("adapt.basis_rebuild_s", "s"),
    lo("adapt.rebuilds", "count"),
    hi("adapt.s_mean", "count"),
    // service
    hi("service.hits", "count"),
    lo("service.misses", "count"),
    lo("service.evictions", "count"),
    lo("service.batches", "count"),
    lo("service.batch_admit_s", "s"),
    lo("service.fingerprint_s", "s"),
    lo("service.handle_build_s", "s"),
    lo("service.hit_lookup_s", "s"),
    lo("service.single_s.p90", "s"),
    lo("service.cold_s.p50", "s"),
    // obs
    lo("obs.trace_overhead_frac", "frac"),
    lo("obs.events", "count"),
    lo("obs.dropped", "count"),
];

/// Per-layer metrics that are exact counts: two runs of one commit with
/// one seed must agree on them bit for bit (`--repeat-check` enforces it).
/// `dist.retries` and `obs.events` are counts too, but of timing-dependent
/// events (an expired wait slice), so they are not in this list.
pub const EXACT_COUNTS: &[&str] = &[
    "sparse.spmv_count",
    "precond.apply_count",
    "dist.collectives",
    "dist.allreduce_words",
    "dist.halo_exchanges",
    "dist.halo_words",
    "solvers.iters.pcg",
    "solvers.iters.sstep",
    "solvers.iters_total",
    "solvers.restarts",
    "adapt.rebuilds",
    "service.hits",
    "service.misses",
    "service.evictions",
    "service.batches",
];

/// The values of one run, keyed by declared name.
#[derive(Debug)]
pub struct Values {
    decls: &'static [Decl],
    map: BTreeMap<&'static str, f64>,
}

impl Values {
    /// Every declared metric present, reading 0 until set.
    pub fn new(decls: &'static [Decl]) -> Self {
        Values {
            decls,
            map: decls.iter().map(|d| (d.name, 0.0)).collect(),
        }
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    /// Panics on an undeclared name — a typo here would otherwise emit a
    /// metric `BENCHMARK.json` does not know.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .map
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared"));
        *slot = value;
    }

    /// Adds to a declared metric.
    pub fn add(&mut self, name: &str, value: f64) {
        self.set(name, self.get(name) + value);
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .map
            .get(name)
            .unwrap_or_else(|| panic!("metric {name:?} is not declared"))
    }

    /// `(declaration, value)` in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static Decl, f64)> + '_ {
        self.decls.iter().map(|d| (d, self.map[d.name]))
    }
}
