//! Convergence / divergence / stagnation tracking shared by all solvers.

use crate::engine::Exec;
use crate::options::{Outcome, SolveOptions, StoppingCriterion};
use spcg_dist::Counters;

/// Verdict of one convergence check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Keep iterating.
    Continue,
    /// Criterion satisfied.
    Converged,
    /// Value non-finite or grew beyond the divergence factor.
    Diverged,
    /// Too many checks without improvement.
    Stagnated,
}

/// Tracks the criterion value across checks.
#[derive(Debug)]
pub struct StopState {
    tol: f64,
    divergence_factor: f64,
    stall_checks: usize,
    keep_history: bool,
    criterion: StoppingCriterion,
    max_iters: usize,
    /// `A·x` of the true-residual criterion, kept across checks.
    scratch: Vec<f64>,
    initial: Option<f64>,
    best: f64,
    checks_since_best: usize,
    /// `(iteration, value)` history when requested.
    pub history: Vec<(usize, f64)>,
}

impl StopState {
    /// Initializes from options.
    pub fn new(opts: &SolveOptions) -> Self {
        StopState {
            tol: opts.tol,
            divergence_factor: opts.divergence_factor,
            stall_checks: opts.stall_checks,
            keep_history: opts.keep_history,
            criterion: opts.criterion,
            max_iters: opts.max_iters,
            scratch: Vec::new(),
            initial: None,
            best: f64::INFINITY,
            checks_since_best: 0,
            history: Vec::new(),
        }
    }

    /// Feeds the criterion value at `iteration`; the first call establishes
    /// the reference value the tolerance is relative to.
    pub fn check(&mut self, iteration: usize, value: f64) -> Verdict {
        if self.keep_history {
            self.history.push((iteration, value));
        }
        if !value.is_finite() {
            return Verdict::Diverged;
        }
        let initial = *self.initial.get_or_insert(value);
        if initial == 0.0 {
            // Zero initial residual: already solved.
            return Verdict::Converged;
        }
        let rel = value / initial;
        if rel < self.tol {
            return Verdict::Converged;
        }
        if rel > self.divergence_factor {
            return Verdict::Diverged;
        }
        if value < self.best {
            self.best = value;
            self.checks_since_best = 0;
        } else {
            self.checks_since_best += 1;
            if self.checks_since_best > self.stall_checks {
                return Verdict::Stagnated;
            }
        }
        Verdict::Continue
    }

    /// Resolves a breakdown: if the current iterate already satisfies the
    /// criterion, the solve *converged* — breakdowns at machine-precision
    /// residuals (zero curvature, singular scalar work) are the normal way
    /// an s-step block ends when the solution is reached mid-block.
    pub fn resolve_breakdown(&mut self, iteration: usize, value: f64, msg: String) -> Outcome {
        match self.check(iteration, value) {
            Verdict::Converged => Outcome::Converged,
            _ => Outcome::Breakdown(msg),
        }
    }

    /// Maps a final verdict to an [`Outcome`].
    pub fn outcome(verdict: Verdict) -> Outcome {
        match verdict {
            Verdict::Converged => Outcome::Converged,
            Verdict::Diverged => Outcome::Diverged,
            Verdict::Stagnated => Outcome::Stagnated,
            Verdict::Continue => Outcome::MaxIterations,
        }
    }

    /// Evaluates the stopping-criterion value for the current state,
    /// charging the instrumentation for whatever the chosen criterion costs:
    ///
    /// * true residual — one extra SpMV, one dot, one piggybacked word;
    /// * recursive 2-norm — one dot, one piggybacked word;
    /// * M-norm — free (`rtu = rᵀM⁻¹r` is already reduced by every solver).
    ///
    /// `x` and `r` are the local blocks of the execution substrate; the dots
    /// combine local partials through the substrate's allreduce (serially
    /// the identity, so serial values are unchanged bitwise).
    pub(crate) fn criterion_value<E: Exec>(
        &mut self,
        exec: &mut E,
        x: &[f64],
        r: &[f64],
        rtu: f64,
        counters: &mut Counters,
    ) -> f64 {
        let nl = exec.nl();
        let nw = exec.n_global();
        match self.criterion {
            StoppingCriterion::TrueResidual2Norm => {
                self.scratch.resize(nl, 0.0);
                exec.spmv(x, &mut self.scratch, counters);
                counters.record_spmv(exec.spmv_flops());
                let mut acc = 0.0;
                let b = exec.b_local();
                for i in 0..nl {
                    let d = b[i] - self.scratch[i];
                    acc += d * d;
                }
                counters.record_dots(1, nw);
                counters.blas1_flops += nw;
                counters.piggyback_words(1);
                let mut red = [acc];
                exec.allreduce(&mut red);
                red[0].sqrt()
            }
            StoppingCriterion::RecursiveResidual2Norm => {
                counters.record_dots(1, nw);
                counters.piggyback_words(1);
                let mut red = [exec.dot(r, r)];
                exec.allreduce(&mut red);
                red[0].sqrt()
            }
            StoppingCriterion::PrecondMNorm => {
                // rtu can dip (tiny) negative in finite precision near
                // convergence; clamp so the sqrt stays defined.
                rtu.max(0.0).sqrt()
            }
        }
    }

    /// The check every blocked body makes at a block boundary: evaluates the
    /// criterion, feeds it to [`StopState::check`], then applies the
    /// iteration cap. `Ok(value)` means keep iterating; `Err(outcome)` ends
    /// the solve.
    pub(crate) fn block_check<E: Exec>(
        &mut self,
        exec: &mut E,
        iterations: usize,
        x: &[f64],
        r: &[f64],
        rtu: f64,
        counters: &mut Counters,
    ) -> Result<f64, Outcome> {
        let value = self.criterion_value(exec, x, r, rtu, counters);
        match self.check(iterations, value) {
            Verdict::Continue if iterations >= self.max_iters => Err(Outcome::MaxIterations),
            Verdict::Continue => Ok(value),
            verdict => Err(StopState::outcome(verdict)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> SolveOptions {
        SolveOptions {
            tol: 1e-3,
            divergence_factor: 1e4,
            stall_checks: 3,
            ..Default::default()
        }
    }

    #[test]
    fn converges_relative_to_initial() {
        let mut s = StopState::new(&opts());
        assert_eq!(s.check(0, 10.0), Verdict::Continue);
        assert_eq!(s.check(1, 1.0), Verdict::Continue);
        assert_eq!(s.check(2, 0.02), Verdict::Continue);
        assert_eq!(s.check(3, 0.0099), Verdict::Converged); // < 1e-3 * 10
    }

    #[test]
    fn diverges_on_blowup_or_nan() {
        let mut s = StopState::new(&opts());
        assert_eq!(s.check(0, 1.0), Verdict::Continue);
        assert_eq!(s.check(1, 2e4), Verdict::Diverged);
        let mut s2 = StopState::new(&opts());
        assert_eq!(s2.check(0, f64::NAN), Verdict::Diverged);
    }

    #[test]
    fn stagnates_after_stall_checks() {
        let mut s = StopState::new(&opts());
        assert_eq!(s.check(0, 1.0), Verdict::Continue);
        assert_eq!(s.check(1, 1.0), Verdict::Continue);
        assert_eq!(s.check(2, 1.0), Verdict::Continue);
        assert_eq!(s.check(3, 1.0), Verdict::Continue);
        assert_eq!(s.check(4, 1.0), Verdict::Stagnated);
    }

    #[test]
    fn improvement_resets_stall() {
        let mut s = StopState::new(&opts());
        s.check(0, 1.0);
        s.check(1, 1.0);
        s.check(2, 0.5); // improvement
        s.check(3, 0.5);
        s.check(4, 0.5);
        assert_eq!(s.check(5, 0.5), Verdict::Continue); // 3 stalls, not > 3 yet
        assert_eq!(s.check(6, 0.5), Verdict::Stagnated);
    }

    #[test]
    fn zero_initial_residual_converges_immediately() {
        let mut s = StopState::new(&opts());
        assert_eq!(s.check(0, 0.0), Verdict::Converged);
    }

    #[test]
    fn history_recorded_when_requested() {
        let mut o = opts();
        o.keep_history = true;
        let mut s = StopState::new(&o);
        s.check(0, 2.0);
        s.check(5, 1.0);
        assert_eq!(s.history, vec![(0, 2.0), (5, 1.0)]);
    }
}
