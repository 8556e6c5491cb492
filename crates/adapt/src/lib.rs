//! Adaptive-s control: spectral monitor, grow/shrink controller, and
//! dynamic basis updating for s-step PCG.
//!
//! The source paper shows that s-step stability is governed by the
//! conditioning of the computed Krylov basis, which drifts as the solve
//! progresses — yet a conventional s-step solver freezes `s` and the
//! Chebyshev/Newton shifts at setup. Carson's adaptive s-step CG
//! (*The Adaptive s-step CG Method*; *An Adaptive s-step CG Algorithm with
//! Dynamic Basis Updating*) monitors per-block observables and adjusts both
//! on the fly. This crate packages that control layer, independent of any
//! particular solver body:
//!
//! * [`SpectralMonitor`] — ingests the CG scalar coefficients `(α_i, β_i)`
//!   of every inner step and rebuilds the Lanczos tridiagonal
//!   incrementally, yielding running Ritz values for the preconditioned
//!   operator `M⁻¹A` (same construction as `spcg_basis::ritz`, but fed
//!   from the live solve instead of a warm-up run);
//! * [`SController`] — classifies each s-block from its Gram-matrix
//!   conditioning estimate and residual gap, then applies the grow/shrink
//!   rule with hysteresis, and decides when the Ritz-estimated spectral
//!   interval has drifted far enough to warrant rebuilding the basis
//!   (Chebyshev interval or Newton–Leja shifts);
//! * [`consensus`] — a tiny codec for making those decisions rank-identical
//!   through the solver's existing deterministic allreduce.
//!
//! Every decision here is a pure function of already-allreduced scalars, so
//! ranks that feed identical observables take identical decisions; the
//! consensus words exist to *verify* that invariant in distributed runs.

use spcg_basis::leja::newton_shifts;
use spcg_basis::ritz::SpectrumEstimate;
use spcg_basis::BasisType;

pub mod consensus;

/// Policy knobs for the adaptive controller (see
/// `SolveOptions::adaptive` in `spcg-solvers` for the env-var bindings).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptivePolicy {
    /// Smallest `s` the controller will shrink to (≥ 2: the CA-PCG
    /// coordinate space needs two inner steps).
    pub s_min: usize,
    /// Largest `s` the controller will grow to; also sizes the ghost-zone
    /// depth of distributed runs, so every block fits one exchange.
    pub s_max: usize,
    /// Gram conditioning below which a block counts as *healthy* (eligible
    /// for growth once the streak reaches `grow_patience`).
    pub cond_grow: f64,
    /// Gram conditioning above which the block is *ill-conditioned* and
    /// `s` is halved.
    pub cond_shrink: f64,
    /// Gram conditioning above which the block's coordinate arithmetic is
    /// numerically meaningless and is rejected outright (no inner steps).
    pub cond_reject: f64,
    /// Relative gap `|‖b − Ax‖ − ‖r‖| / ‖r‖` between the true and the
    /// recurrence residual above which the block is treated as
    /// ill-conditioned (only observable under the true-residual criterion).
    pub gap_tol: f64,
    /// Relative drift of the running Ritz interval past the current basis
    /// interval that triggers a basis rebuild.
    pub drift_tol: f64,
    /// Consecutive healthy blocks required before `s` is doubled — the
    /// hysteresis that keeps the controller from oscillating.
    pub grow_patience: usize,
    /// Ritz pairs required before the first basis rebuild (a monomial
    /// start is promoted as soon as this many are available).
    pub min_ritz: usize,
    /// Cap on retained `(α, β)` pairs; the leading window is kept (a
    /// leading principal submatrix of the Lanczos tridiagonal is itself a
    /// valid Lanczos matrix).
    pub max_ritz: usize,
    /// Safety widening of the Ritz interval when rebuilding a Chebyshev
    /// basis (Ritz values underestimate the spectrum's extent).
    pub margin: f64,
}

impl Default for AdaptivePolicy {
    fn default() -> Self {
        AdaptivePolicy {
            s_min: 2,
            s_max: 16,
            cond_grow: 1e4,
            // Reject at 1e10: beyond that the coordinate-space arithmetic
            // retains fewer than ~6 significant digits, and running the
            // block pollutes the search directions — skipping it (and
            // retuning) is measurably cheaper than running-then-shrinking.
            cond_shrink: 1e7,
            cond_reject: 1e10,
            gap_tol: 0.5,
            drift_tol: 0.25,
            grow_patience: 3,
            min_ritz: 6,
            max_ritz: 64,
            margin: 0.05,
        }
    }
}

impl AdaptivePolicy {
    /// Builder-style `s` range; clamps `s_min ≥ 2` and `s_max ≥ s_min`.
    pub fn with_s_range(mut self, s_min: usize, s_max: usize) -> Self {
        self.s_min = s_min.max(2);
        self.s_max = s_max.max(self.s_min);
        self
    }

    /// Builder-style growth hysteresis (≥ 1 healthy blocks before growing).
    pub fn with_grow_patience(mut self, patience: usize) -> Self {
        self.grow_patience = patience.max(1);
        self
    }
}

/// Health classification of one s-block (see [`SController::classify`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockHealth {
    /// Conditioning comfortably low: counts toward the growth streak.
    Healthy,
    /// Between the grow and shrink thresholds: keep `s`, reset the streak.
    Marginal,
    /// Past the shrink threshold (or the residual gap opened): halve `s`.
    IllConditioned,
    /// Past the reject threshold or non-finite: the block must not run.
    Reject,
}

/// One basis rebuild, recorded in solve results (`SolveResult::adaptive`).
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftUpdate {
    /// Iteration count (s-steps completed) when the rebuild happened.
    pub iteration: usize,
    /// Name of the basis *after* the rebuild (`monomial` is never a
    /// rebuild target): `"chebyshev"` or `"newton"`.
    pub basis: String,
    /// Lower end of the Ritz interval the rebuild used.
    pub lambda_min: f64,
    /// Upper end of the Ritz interval the rebuild used.
    pub lambda_max: f64,
    /// Ritz values available at rebuild time.
    pub ritz_count: usize,
}

/// Adaptive-control telemetry attached to a solve result.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AdaptiveReport {
    /// Every basis rebuild, in order.
    pub shift_history: Vec<ShiftUpdate>,
    /// Final running Ritz values (ascending), empty if fewer than two
    /// inner steps were observed.
    pub ritz: Vec<f64>,
}

/// Running Ritz-value estimator fed by the live CG coefficients.
///
/// The CG scalars of `k` inner steps define the Lanczos tridiagonal
/// `T[i][i] = 1/α_i + β_{i−1}/α_{i−1}`, `T[i][i+1] = √β_i / α_i`, whose
/// eigenvalues approximate the spectrum of `M⁻¹A`. The monitor keeps the
/// *leading* `max_pairs` coefficients (a valid Lanczos matrix in its own
/// right) and must be [`reset`](SpectralMonitor::reset) whenever the solver
/// restarts its direction vectors — the recurrence linking the coefficients
/// breaks there.
#[derive(Debug, Clone)]
pub struct SpectralMonitor {
    alphas: Vec<f64>,
    betas: Vec<f64>,
    max_pairs: usize,
}

impl SpectralMonitor {
    /// New monitor retaining at most `max_pairs` coefficient pairs.
    pub fn new(max_pairs: usize) -> Self {
        SpectralMonitor {
            alphas: Vec::new(),
            betas: Vec::new(),
            max_pairs: max_pairs.max(2),
        }
    }

    /// Ingests one inner step's `(α, β)`. Non-finite or non-positive
    /// values are ignored (the solver's breakdown path owns those), as are
    /// observations past the retention cap.
    pub fn observe(&mut self, alpha: f64, beta: f64) {
        if !(alpha > 0.0) || !alpha.is_finite() || !(beta > 0.0) || !beta.is_finite() {
            return;
        }
        if self.alphas.len() >= self.max_pairs {
            return;
        }
        self.alphas.push(alpha);
        self.betas.push(beta);
    }

    /// Discards all recorded coefficients (direction restart).
    pub fn reset(&mut self) {
        self.alphas.clear();
        self.betas.clear();
    }

    /// Coefficient pairs recorded so far.
    pub fn pairs(&self) -> usize {
        self.alphas.len()
    }

    /// Ritz values of the current tridiagonal; `None` with fewer than two
    /// pairs (one Ritz value estimates nothing about an interval).
    pub fn ritz(&self) -> Option<SpectrumEstimate> {
        let k = self.alphas.len();
        if k < 2 {
            return None;
        }
        let mut d = Vec::with_capacity(k);
        let mut e = Vec::with_capacity(k - 1);
        for i in 0..k {
            let mut v = 1.0 / self.alphas[i];
            if i > 0 {
                v += self.betas[i - 1] / self.alphas[i - 1];
            }
            d.push(v);
            if i + 1 < k {
                e.push(self.betas[i].sqrt() / self.alphas[i]);
            }
        }
        let ritz = spcg_sparse::tridiag::eigenvalues(&d, &e);
        Some(SpectrumEstimate {
            lambda_min: ritz[0],
            lambda_max: *ritz.last().unwrap(),
            ritz,
            iterations: k,
        })
    }
}

/// The grow/shrink controller with hysteresis and dynamic basis updating.
///
/// State machine per s-block:
///
/// ```text
///            Healthy (streak == patience)            IllConditioned / Reject
/// s ────────────────────────────────▶ min(2s, s_max)       ┌──────────────▶ max(s/2, s_min)
///            Healthy (streak < patience) / Marginal: keep s┘
/// ```
///
/// and, orthogonally, a basis rebuild whenever the running Ritz interval
/// drifts outside the current basis' coverage by more than `drift_tol`
/// (monomial bases are promoted to Chebyshev as soon as `min_ritz` pairs
/// are available).
#[derive(Debug, Clone)]
pub struct SController {
    policy: AdaptivePolicy,
    s: usize,
    healthy_streak: usize,
}

impl SController {
    /// New controller starting at `s0` clamped into `[s_min, s_max]`.
    pub fn new(policy: AdaptivePolicy, s0: usize) -> Self {
        let s = s0.clamp(policy.s_min.max(2), policy.s_max.max(2));
        SController {
            policy,
            s,
            healthy_streak: 0,
        }
    }

    /// Current block size.
    pub fn s(&self) -> usize {
        self.s
    }

    /// The policy this controller runs under.
    pub fn policy(&self) -> &AdaptivePolicy {
        &self.policy
    }

    /// Classifies one block from its Gram conditioning estimate and
    /// (optional) relative residual gap.
    pub fn classify(&self, cond: f64, gap: Option<f64>) -> BlockHealth {
        if !cond.is_finite() || cond > self.policy.cond_reject {
            return BlockHealth::Reject;
        }
        let gap_bad = gap.is_some_and(|g| !g.is_finite() || g > self.policy.gap_tol);
        if cond > self.policy.cond_shrink || gap_bad {
            return BlockHealth::IllConditioned;
        }
        if cond < self.policy.cond_grow {
            BlockHealth::Healthy
        } else {
            BlockHealth::Marginal
        }
    }

    /// Applies the grow/shrink rule after a completed block; returns the
    /// next block size.
    pub fn after_block(&mut self, health: BlockHealth) -> usize {
        match health {
            BlockHealth::Healthy => {
                self.healthy_streak += 1;
                if self.healthy_streak >= self.policy.grow_patience && self.s < self.policy.s_max {
                    self.s = (self.s * 2).min(self.policy.s_max);
                    self.healthy_streak = 0;
                }
            }
            BlockHealth::Marginal => self.healthy_streak = 0,
            BlockHealth::IllConditioned | BlockHealth::Reject => {
                self.s = (self.s / 2).max(self.policy.s_min);
                self.healthy_streak = 0;
            }
        }
        self.s
    }

    /// Shrinks after a mid-block numerical breakdown; returns the next
    /// block size (unchanged when already at `s_min`).
    pub fn after_breakdown(&mut self) -> usize {
        self.healthy_streak = 0;
        self.s = (self.s / 2).max(self.policy.s_min);
        self.s
    }

    /// True when the running Ritz estimate warrants rebuilding `basis`:
    /// a monomial basis is promoted once `min_ritz` pairs exist; interval
    /// bases are rebuilt when the estimate drifts outside their coverage
    /// by more than `drift_tol` (relative).
    pub fn needs_rebuild(&self, basis: &BasisType, est: Option<&SpectrumEstimate>) -> bool {
        let Some(est) = est else { return false };
        if est.iterations < self.policy.min_ritz {
            return false;
        }
        let drift = self.policy.drift_tol;
        let outside = |lo: f64, hi: f64| {
            est.lambda_max > hi * (1.0 + drift) || est.lambda_min < lo * (1.0 - drift)
        };
        match basis {
            BasisType::Monomial => true,
            BasisType::Chebyshev {
                lambda_min,
                lambda_max,
            } => outside(*lambda_min, *lambda_max),
            BasisType::Newton { shifts } => {
                let lo = shifts.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = shifts.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                shifts.is_empty() || outside(lo, hi)
            }
        }
    }

    /// Rebuilds `basis` from the Ritz estimate for block size `s_next`:
    /// monomial and Chebyshev bases become a Chebyshev basis on the
    /// (widened) Ritz interval, Newton bases get fresh Leja-ordered shifts.
    pub fn rebuild(&self, basis: &BasisType, est: &SpectrumEstimate, s_next: usize) -> BasisType {
        match basis {
            BasisType::Newton { .. } => BasisType::Newton {
                shifts: newton_shifts(&est.ritz, s_next),
            },
            _ => {
                let (lo, hi) = est.chebyshev_interval(self.policy.margin);
                BasisType::Chebyshev {
                    lambda_min: lo,
                    lambda_max: hi,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> AdaptivePolicy {
        AdaptivePolicy::default().with_s_range(2, 16)
    }

    #[test]
    fn policy_builders_clamp() {
        let p = AdaptivePolicy::default().with_s_range(1, 0);
        assert_eq!(p.s_min, 2);
        assert_eq!(p.s_max, 2);
        assert_eq!(
            AdaptivePolicy::default()
                .with_grow_patience(0)
                .grow_patience,
            1
        );
    }

    #[test]
    fn controller_clamps_starting_s() {
        assert_eq!(SController::new(policy(), 100).s(), 16);
        assert_eq!(SController::new(policy(), 1).s(), 2);
        assert_eq!(SController::new(policy(), 8).s(), 8);
    }

    #[test]
    fn classify_thresholds() {
        let c = SController::new(policy(), 8);
        assert_eq!(c.classify(10.0, None), BlockHealth::Healthy);
        assert_eq!(c.classify(1e6, None), BlockHealth::Marginal);
        assert_eq!(c.classify(1e10, None), BlockHealth::IllConditioned);
        assert_eq!(c.classify(1e15, None), BlockHealth::Reject);
        assert_eq!(c.classify(f64::NAN, None), BlockHealth::Reject);
        // An open residual gap is ill-conditioning even at low cond.
        assert_eq!(c.classify(10.0, Some(2.0)), BlockHealth::IllConditioned);
        assert_eq!(c.classify(10.0, Some(0.01)), BlockHealth::Healthy);
    }

    #[test]
    fn growth_needs_patience_and_shrink_resets_it() {
        let mut c = SController::new(policy().with_grow_patience(3), 4);
        assert_eq!(c.after_block(BlockHealth::Healthy), 4);
        assert_eq!(c.after_block(BlockHealth::Healthy), 4);
        assert_eq!(c.after_block(BlockHealth::Healthy), 8); // third healthy block doubles
        assert_eq!(c.after_block(BlockHealth::Healthy), 8);
        assert_eq!(c.after_block(BlockHealth::IllConditioned), 4);
        // Streak restarted: two healthy blocks are not enough again.
        assert_eq!(c.after_block(BlockHealth::Healthy), 4);
        assert_eq!(c.after_block(BlockHealth::Healthy), 4);
    }

    #[test]
    fn shrink_saturates_at_s_min() {
        let mut c = SController::new(policy(), 4);
        assert_eq!(c.after_breakdown(), 2);
        assert_eq!(c.after_breakdown(), 2);
    }

    #[test]
    fn growth_saturates_at_s_max() {
        let mut c = SController::new(policy().with_grow_patience(1), 12);
        assert_eq!(c.after_block(BlockHealth::Healthy), 16);
        assert_eq!(c.after_block(BlockHealth::Healthy), 16);
    }

    #[test]
    fn monitor_matches_warmup_construction() {
        // Feed coefficients of a known 2-eigenvalue system: CG on
        // diag(1, 3) with b having both eigencomponents converges in two
        // steps and the tridiagonal reproduces both eigenvalues.
        use spcg_basis::ritz::estimate_spectrum;
        use spcg_precond::Identity;
        use spcg_sparse::CsrMatrix;
        let a = CsrMatrix::from_diagonal(&[1.0, 3.0]);
        let est = estimate_spectrum(&a, &Identity::new(2), &[1.0, 1.0], 2);
        let mut mon = SpectralMonitor::new(64);
        // Re-derive the same (α, β) stream by running two CG steps by hand
        // is overkill; instead check the monitor agrees with the reference
        // construction when fed the same coefficients.
        // r0 = b, p0 = b: α0 = (rᵀr)/(pᵀAp) = 2/4 = 0.5
        // r1 = r0 − α0 A p0 = (0.5, −0.5): β0 = 0.25
        mon.observe(0.5, 0.25);
        // p1 = r1 + β0 p0 = (0.75, −0.25); α1 = 0.5/(0.75) = 2/3 ... the
        // exact α1 is (r1ᵀr1)/(p1ᵀAp1) = 0.5/0.75 = 2/3; β1 arbitrary > 0.
        mon.observe(2.0 / 3.0, 1e-30);
        let got = mon.ritz().unwrap();
        assert_eq!(got.ritz.len(), 2);
        assert!((got.lambda_min - est.lambda_min).abs() < 1e-9);
        assert!((got.lambda_max - est.lambda_max).abs() < 1e-9);
        assert!((got.lambda_min - 1.0).abs() < 1e-9);
        assert!((got.lambda_max - 3.0).abs() < 1e-9);
    }

    #[test]
    fn monitor_ignores_junk_and_caps() {
        let mut mon = SpectralMonitor::new(2);
        mon.observe(f64::NAN, 0.5);
        mon.observe(0.5, -1.0);
        mon.observe(0.0, 0.5);
        assert_eq!(mon.pairs(), 0);
        assert!(mon.ritz().is_none());
        mon.observe(0.5, 0.25);
        mon.observe(0.5, 0.25);
        mon.observe(0.5, 0.25); // past the cap: ignored
        assert_eq!(mon.pairs(), 2);
        mon.reset();
        assert_eq!(mon.pairs(), 0);
    }

    #[test]
    fn rebuild_promotes_monomial_to_chebyshev() {
        let c = SController::new(policy(), 8);
        let est = SpectrumEstimate {
            ritz: vec![0.1, 0.5, 1.9],
            lambda_min: 0.1,
            lambda_max: 1.9,
            iterations: 6,
        };
        assert!(c.needs_rebuild(&BasisType::Monomial, Some(&est)));
        let b = c.rebuild(&BasisType::Monomial, &est, 8);
        match b {
            BasisType::Chebyshev {
                lambda_min,
                lambda_max,
            } => {
                assert!(lambda_min < 0.1 && lambda_max > 1.9);
            }
            other => panic!("unexpected basis {other:?}"),
        }
        // Too few Ritz pairs: no rebuild yet.
        let early = SpectrumEstimate {
            iterations: 2,
            ..est.clone()
        };
        assert!(!c.needs_rebuild(&BasisType::Monomial, Some(&early)));
        assert!(!c.needs_rebuild(&BasisType::Monomial, None));
    }

    #[test]
    fn chebyshev_rebuild_only_on_drift() {
        let c = SController::new(policy(), 8);
        let covered = BasisType::Chebyshev {
            lambda_min: 0.05,
            lambda_max: 2.0,
        };
        let est = SpectrumEstimate {
            ritz: vec![0.1, 1.9],
            lambda_min: 0.1,
            lambda_max: 1.9,
            iterations: 8,
        };
        assert!(!c.needs_rebuild(&covered, Some(&est)));
        let drifted = SpectrumEstimate {
            ritz: vec![0.1, 3.0],
            lambda_min: 0.1,
            lambda_max: 3.0,
            iterations: 8,
        };
        assert!(c.needs_rebuild(&covered, Some(&drifted)));
    }

    #[test]
    fn newton_rebuild_refreshes_leja_shifts() {
        let c = SController::new(policy(), 4);
        let basis = BasisType::Newton {
            shifts: vec![1.0, 0.5, 1.5, 0.8],
        };
        let est = SpectrumEstimate {
            ritz: vec![0.2, 0.9, 2.5],
            lambda_min: 0.2,
            lambda_max: 2.5,
            iterations: 8,
        };
        assert!(c.needs_rebuild(&basis, Some(&est)));
        match c.rebuild(&basis, &est, 4) {
            BasisType::Newton { shifts } => assert_eq!(shifts.len(), 4),
            other => panic!("unexpected basis {other:?}"),
        }
    }
}
