//! Deterministic fault injection for the distributed substrate.
//!
//! The paper's central question is *when s-step PCG breaks*; this module
//! lets the engine provoke the distributed failure modes on demand — rank
//! stalls at exchange boundaries, duplicated epoch publishes, and NaN
//! payload poisoning — so the self-healing layer in `spcg-solvers` can be
//! exercised (and CI-gated) instead of trusted.
//!
//! Every injection decision is a **pure function** of
//! `(seed, site, rank, sequence number)` where the sequence number is a
//! deterministic per-rank counter (the exchange round of a
//! [`crate::VectorBoard`], or an allreduce call index) — never wall-clock
//! time. Consequences:
//!
//! * the same seed reproduces the same injection sites, run after run;
//! * schedule-equivalent runs (overlap on/off, traced/untraced, any
//!   intra-rank thread count) receive **identical** injections, so the
//!   workspace's bitwise-parity contracts keep holding under fault load;
//! * a plan with rate `0.0` — or no plan at all — changes nothing: the
//!   zero-fault path is bitwise identical to a build without this module.
//!
//! Injections are confined to a deterministic warm-up window of early
//! sequence numbers ([`FaultPlan::window`]): once a solve's exchange
//! rounds pass the window, the run is provably clean, so a bounded restart
//! budget always suffices for recovery. Single-rank runs never inject
//! (there is no "distributed substrate" to fail), preserving every
//! ranks=1-versus-serial parity test.
//!
//! **Where the sites fire.** The four exchange sites (`PostStall`,
//! `PublishDuplicate`, `CompleteStall`, `PoisonHalo`) fire inside
//! [`crate::VectorBoard`] and nowhere else, at `(site, board salt, rank,
//! round)`. Under the thread backend the calling thread is the rank; under
//! the proc backend it is the rank's proxy in the parent's hub, which
//! performs the worker's `POST`/`WANT` frames on the same kind of board —
//! one implementation, one set of decision points, counted directly in the
//! caller's plan. `PoisonReduce` corrupts a rank's own allreduce
//! *contribution*, so it fires where the contribution is made: in the rank
//! executor of `spcg-solvers` (salt 2, sequence = allreduce call index), on
//! a thread rank or inside a worker process, which reports its count home
//! through [`FaultPlan::record_remote`].
//!
//! A plan is a value on `SolveOptions::faults`: construct one with
//! [`FaultPlan::new`], or let a process edge that calls
//! `SolveOptions::from_env()` take it from `SPCG_FAULTS=<seed>:<rate>` (for
//! example `SPCG_FAULTS=101:0.05`, parsed by [`FaultPlan::parse`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where a fault can be injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Delay a rank inside [`crate::VectorBoard::post`] before it raises
    /// its readiness flag — neighbours waiting in a completion see the
    /// stall and exercise the timeout/retry path.
    PostStall = 0,
    /// Publish the posted chunk a second, redundant time (an extra board
    /// write plus condvar broadcast of identical data) — a duplicated
    /// epoch publish that the protocol must absorb without corruption.
    PublishDuplicate = 1,
    /// Delay a rank before it begins waiting in
    /// [`crate::VectorBoard::complete_into`] — the consumer-side stall,
    /// which holds the *next* round's posts back.
    CompleteStall = 2,
    /// Overwrite one boundary entry of the posted chunk **in the board
    /// copy** with NaN — downstream ranks gather the poison while the
    /// owner's local data stays clean, the classic partially-corrupt halo.
    PoisonHalo = 3,
    /// Overwrite the first word of this rank's allreduce contribution with
    /// NaN — every rank then sees a non-finite reduced value (the board's
    /// reductions are deterministic), driving the solver's breakdown
    /// detection.
    PoisonReduce = 4,
}

/// All sites, in counter order.
pub const FAULT_SITES: [FaultSite; 5] = [
    FaultSite::PostStall,
    FaultSite::PublishDuplicate,
    FaultSite::CompleteStall,
    FaultSite::PoisonHalo,
    FaultSite::PoisonReduce,
];

impl FaultSite {
    /// Stable snake_case name (report/JSON key).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultSite::PostStall => "post_stall",
            FaultSite::PublishDuplicate => "publish_duplicate",
            FaultSite::CompleteStall => "complete_stall",
            FaultSite::PoisonHalo => "poison_halo",
            FaultSite::PoisonReduce => "poison_reduce",
        }
    }

    fn index(self) -> usize {
        self as usize
    }

    /// Per-site salt so sites draw independent pseudo-random streams.
    fn salt(self) -> u64 {
        [
            0x9e37_79b9_7f4a_7c15,
            0xbf58_476d_1ce4_e5b9,
            0x94d0_49bb_1331_11eb,
            0xd6e8_feb8_6659_fd93,
            0xa076_1d64_78bd_642f,
        ][self.index()]
    }
}

/// How long a stall fault sleeps — long enough to outlast the armed retry
/// timeout (so stalls genuinely exercise the retry path), short enough to
/// keep a fault-swept suite fast.
pub const STALL: Duration = Duration::from_millis(6);

/// Injection decisions only fire for sequence numbers below this window
/// (see the module docs for why boundedness matters).
const INJECT_WINDOW: u64 = 48;

struct PlanInner {
    seed: u64,
    rate: f64,
    /// Bitmask over [`FAULT_SITES`] — which sites are enabled.
    sites: u8,
    /// Per-site injection counters (diagnostics; never branch on these).
    injected: [AtomicU64; 5],
}

/// A seeded, shareable fault-injection plan.
///
/// Cloning shares the plan (and its counters); attach clones to the boards
/// and rank executors of one solve so [`FaultPlan::counts`] describes that
/// solve. See the module docs for the determinism contract.
#[derive(Clone)]
pub struct FaultPlan {
    inner: Arc<PlanInner>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.inner.seed)
            .field("rate", &self.inner.rate)
            .field("injected", &self.counts().total())
            .finish()
    }
}

impl FaultPlan {
    /// Creates a plan with all sites enabled. `rate` is the injection
    /// probability per opportunity, clamped to `[0, 1]`.
    pub fn new(seed: u64, rate: f64) -> Self {
        FaultPlan {
            inner: Arc::new(PlanInner {
                seed,
                rate: rate.clamp(0.0, 1.0),
                sites: 0b1_1111,
                injected: Default::default(),
            }),
        }
    }

    /// Restricts the plan to the given sites (e.g. stalls only, to test
    /// the retry path without numerical perturbation).
    pub fn with_sites(self, sites: &[FaultSite]) -> Self {
        let mask = sites.iter().fold(0u8, |m, s| m | 1 << s.index());
        self.with_sites_mask(mask)
    }

    /// Restricts the plan by raw bitmask over [`FAULT_SITES`] — the wire
    /// form the proc backend ships to workers, which rebuild an identical
    /// plan from `(seed, rate, mask)`. Counters start fresh.
    pub fn with_sites_mask(self, mask: u8) -> Self {
        FaultPlan {
            inner: Arc::new(PlanInner {
                seed: self.inner.seed,
                rate: self.inner.rate,
                sites: mask,
                injected: Default::default(),
            }),
        }
    }

    /// The enabled-site bitmask over [`FAULT_SITES`] (see
    /// [`FaultPlan::with_sites_mask`]).
    pub fn sites_mask(&self) -> u8 {
        self.inner.sites
    }

    /// Parses `<seed>:<rate>` (the `SPCG_FAULTS` grammar) into a fresh
    /// plan; `None` when malformed.
    pub fn parse(s: &str) -> Option<Self> {
        let (seed, rate) = s.split_once(':')?;
        let seed = seed.trim().parse::<u64>().ok()?;
        let rate = rate.trim().parse::<f64>().ok()?;
        Some(FaultPlan::new(seed, rate))
    }

    /// Seed the plan draws its decisions from.
    pub fn seed(&self) -> u64 {
        self.inner.seed
    }

    /// Injection probability per opportunity.
    pub fn rate(&self) -> f64 {
        self.inner.rate
    }

    /// True if the plan can inject at all.
    pub fn active(&self) -> bool {
        self.inner.rate > 0.0 && self.inner.sites != 0
    }

    /// The deterministic warm-up window: injections only occur at sequence
    /// numbers below this.
    pub fn window(&self) -> u64 {
        INJECT_WINDOW
    }

    /// Pure decision function: would this plan inject at
    /// `(site, rank, seq)`? Does **not** count — use [`FaultPlan::fire`]
    /// at a real injection point. `salt` decorrelates otherwise-identical
    /// streams (e.g. the two boards of a ranked solve).
    pub fn decides(&self, site: FaultSite, salt: u64, rank: usize, seq: u64) -> bool {
        if self.inner.sites & (1 << site.index()) == 0 || seq >= INJECT_WINDOW {
            return false;
        }
        let mut h = splitmix64(self.inner.seed ^ site.salt());
        h = splitmix64(h ^ salt.wrapping_mul(0xff51_afd7_ed55_8ccd));
        h = splitmix64(h ^ (rank as u64).wrapping_mul(0xc4ce_b9fe_1a85_ec53));
        h = splitmix64(h ^ seq);
        // Map to [0, 1): top 53 bits as a double.
        let u = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < self.inner.rate
    }

    /// Decision + counter: returns [`FaultPlan::decides`] and, when true,
    /// records the injection against `site`.
    pub fn fire(&self, site: FaultSite, salt: u64, rank: usize, seq: u64) -> bool {
        let hit = self.decides(site, salt, rank, seq);
        if hit {
            self.inner.injected[site.index()].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Credits `n` injections that fired against `site` in a *remote*
    /// incarnation of this plan — a proc-backend worker rebuilds the plan
    /// from `(seed, rate, mask)`, fires `PoisonReduce` locally, and reports
    /// how often, which the parent records here so [`FaultPlan::counts`]
    /// describes the whole solve regardless of backend.
    pub fn record_remote(&self, site: FaultSite, n: u64) {
        if n > 0 {
            self.inner.injected[site.index()].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Snapshot of the per-site injection counters.
    pub fn counts(&self) -> FaultCounts {
        let mut by_site = [0u64; 5];
        for (slot, ctr) in by_site.iter_mut().zip(&self.inner.injected) {
            *slot = ctr.load(Ordering::Relaxed);
        }
        FaultCounts { by_site }
    }
}

/// Per-site injection counters of a [`FaultPlan`] at one point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    by_site: [u64; 5],
}

impl FaultCounts {
    /// Injections recorded for one site.
    pub fn site(&self, site: FaultSite) -> u64 {
        self.by_site[site.index()]
    }

    /// Total injections across all sites.
    pub fn total(&self) -> u64 {
        self.by_site.iter().sum()
    }

    /// Counter-wise difference (`self - earlier`), for bracketing a solve.
    pub fn since(&self, earlier: &FaultCounts) -> FaultCounts {
        let mut by_site = [0u64; 5];
        for i in 0..5 {
            by_site[i] = self.by_site[i].saturating_sub(earlier.by_site[i]);
        }
        FaultCounts { by_site }
    }

    /// `site: count` pairs for every site with a nonzero count.
    pub fn nonzero(&self) -> Vec<(FaultSite, u64)> {
        FAULT_SITES
            .iter()
            .filter_map(|&s| {
                let c = self.site(s);
                (c > 0).then_some((s, c))
            })
            .collect()
    }
}

/// SplitMix64 — the standard 64-bit finalizer-style mixer.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_deterministic_and_seed_dependent() {
        let a = FaultPlan::new(42, 0.3);
        let b = FaultPlan::new(42, 0.3);
        let c = FaultPlan::new(43, 0.3);
        let mut any_differs = false;
        for site in FAULT_SITES {
            for rank in 0..4 {
                for seq in 0..INJECT_WINDOW {
                    assert_eq!(
                        a.decides(site, 0, rank, seq),
                        b.decides(site, 0, rank, seq),
                        "same seed must agree at {site:?} rank {rank} seq {seq}"
                    );
                    if a.decides(site, 0, rank, seq) != c.decides(site, 0, rank, seq) {
                        any_differs = true;
                    }
                }
            }
        }
        assert!(any_differs, "different seeds should differ somewhere");
    }

    #[test]
    fn rate_bounds_and_window() {
        let never = FaultPlan::new(7, 0.0);
        let always = FaultPlan::new(7, 1.0);
        assert!(!never.active());
        for site in FAULT_SITES {
            for seq in 0..INJECT_WINDOW {
                assert!(!never.decides(site, 0, 0, seq));
                assert!(always.decides(site, 0, 0, seq));
            }
            // Beyond the window nothing ever fires — boundedness.
            assert!(!always.decides(site, 0, 0, INJECT_WINDOW));
            assert!(!always.decides(site, 0, 0, INJECT_WINDOW + 1000));
        }
    }

    #[test]
    fn observed_rate_tracks_requested_rate() {
        let plan = FaultPlan::new(1234, 0.25);
        let mut hits = 0usize;
        let mut total = 0usize;
        for site in FAULT_SITES {
            for rank in 0..8 {
                for seq in 0..INJECT_WINDOW {
                    total += 1;
                    if plan.decides(site, 0, rank, seq) {
                        hits += 1;
                    }
                }
            }
        }
        let observed = hits as f64 / total as f64;
        assert!(
            (observed - 0.25).abs() < 0.05,
            "observed rate {observed} far from 0.25"
        );
    }

    #[test]
    fn fire_counts_per_site() {
        let plan = FaultPlan::new(5, 1.0);
        assert!(plan.fire(FaultSite::PostStall, 0, 0, 0));
        assert!(plan.fire(FaultSite::PostStall, 0, 1, 3));
        assert!(plan.fire(FaultSite::PoisonHalo, 0, 0, 0));
        let counts = plan.counts();
        assert_eq!(counts.site(FaultSite::PostStall), 2);
        assert_eq!(counts.site(FaultSite::PoisonHalo), 1);
        assert_eq!(counts.total(), 3);
        assert_eq!(
            counts.nonzero(),
            vec![(FaultSite::PostStall, 2), (FaultSite::PoisonHalo, 1)]
        );
        let later = plan.counts();
        assert_eq!(later.since(&counts).total(), 0);
    }

    #[test]
    fn site_mask_restricts_injection() {
        let plan = FaultPlan::new(5, 1.0).with_sites(&[FaultSite::PostStall]);
        assert!(plan.decides(FaultSite::PostStall, 0, 0, 0));
        assert!(!plan.decides(FaultSite::PoisonHalo, 0, 0, 0));
        assert!(plan.active());
        let none = FaultPlan::new(5, 1.0).with_sites(&[]);
        assert!(!none.active());
    }

    #[test]
    fn salts_decorrelate_streams() {
        let plan = FaultPlan::new(99, 0.5);
        let differs = (0..INJECT_WINDOW).any(|seq| {
            plan.decides(FaultSite::PoisonHalo, 0, 0, seq)
                != plan.decides(FaultSite::PoisonHalo, 1, 0, seq)
        });
        assert!(differs, "board salts should draw distinct streams");
    }

    #[test]
    fn env_parsing_shapes() {
        let plan = FaultPlan::parse(" 101 : 0.05 ").unwrap();
        assert_eq!(plan.seed(), 101);
        assert!((plan.rate() - 0.05).abs() < 1e-12);
        assert!(plan.active());
        assert!(plan.window() > 0);
        for bad in ["", "101", "x:0.05", "101:often", "-1:0.05"] {
            assert!(FaultPlan::parse(bad).is_none(), "{bad:?}");
        }
    }
}
