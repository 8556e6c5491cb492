//! Convergence / divergence / stagnation tracking shared by all solvers.

use crate::engine::Exec;
use crate::options::{Outcome, SolveOptions, StoppingCriterion};
use spcg_dist::Counters;
use spcg_obs::Phase;
use spcg_sparse::MultiVector;

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

    /// Evaluates the stopping-criterion value of the iterate `x` (residual
    /// `r`, `rtu = rᵀM⁻¹r`) against the right-hand side `b`, charging the
    /// instrumentation for whatever the chosen criterion costs:
    ///
    /// * true residual — one extra SpMV, one dot, one piggybacked word;
    /// * recursive 2-norm — one dot, one piggybacked word;
    /// * M-norm — free (`rtu` is already reduced by every solver).
    ///
    /// `b`, `x` and `r` are the local blocks of the execution substrate; the
    /// dots combine local partials through the substrate's allreduce
    /// (serially the identity, so serial values are unchanged bitwise).
    pub(crate) fn criterion_value<E: Exec>(
        &mut self,
        exec: &mut E,
        b: &[f64],
        x: &[f64],
        r: &[f64],
        rtu: f64,
        counters: &mut Counters,
    ) -> f64 {
        if self.criterion == StoppingCriterion::TrueResidual2Norm {
            self.scratch.resize(exec.nl(), 0.0);
            exec.spmv(x, &mut self.scratch, counters);
        }
        column_value(self.criterion, exec, b, &self.scratch, r, rtu, counters)
    }

    /// The criterion of `k` columns at once: column `j` of `xm`/`rm` with
    /// `rtus[j]` is judged against `bs[j]` and charged to `counters[j]`.
    /// Per column the value and the charges are exactly those of
    /// [`StopState::criterion_value`]; the true residual's `k` products
    /// are one [`Exec::spmm`] into `scr` (any `n × k` scratch), so the batch
    /// still streams the matrix once.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn criterion_values<E: Exec>(
        criterion: StoppingCriterion,
        exec: &mut E,
        bs: &[&[f64]],
        xm: &MultiVector,
        rm: &MultiVector,
        rtus: &[f64],
        scr: &mut MultiVector,
        counters: &mut [Counters],
    ) -> Vec<f64> {
        if criterion == StoppingCriterion::TrueResidual2Norm {
            exec.spmm(xm, scr, counters);
        }
        (0..bs.len())
            .map(|j| {
                let (ax, r, ctr) = (scr.col(j), rm.col(j), &mut counters[j]);
                column_value(criterion, exec, bs[j], ax, r, rtus[j], ctr)
            })
            .collect()
    }

    /// The check every blocked body makes at a block boundary: evaluates the
    /// criterion, feeds it to [`StopState::check`], then applies the
    /// iteration cap. `Ok(value)` means keep iterating; `Err(outcome)` ends
    /// the solve.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn block_check<E: Exec>(
        &mut self,
        exec: &mut E,
        b: &[f64],
        iterations: usize,
        x: &[f64],
        r: &[f64],
        rtu: f64,
        counters: &mut Counters,
    ) -> Result<f64, Outcome> {
        let value = self.criterion_value(exec, b, x, r, rtu, counters);
        match self.check(iterations, value) {
            Verdict::Continue if iterations >= self.max_iters => Err(Outcome::MaxIterations),
            Verdict::Continue => Ok(value),
            verdict => Err(StopState::outcome(verdict)),
        }
    }
}

/// The criterion value of one column — the one place a
/// [`StoppingCriterion`] is evaluated. `ax = A·x` is read by the true
/// residual only (whose caller formed it).
fn column_value<E: Exec>(
    criterion: StoppingCriterion,
    exec: &mut E,
    b: &[f64],
    ax: &[f64],
    r: &[f64],
    rtu: f64,
    counters: &mut Counters,
) -> f64 {
    let true_residual = match criterion {
        // rtu can dip (tiny) negative in finite precision near
        // convergence; clamp so the sqrt stays defined. Not `f64::max`,
        // which would turn a NaN into 0 — "converged".
        StoppingCriterion::PrecondMNorm => return if rtu <= 0.0 { 0.0 } else { rtu.sqrt() },
        StoppingCriterion::TrueResidual2Norm => true,
        StoppingCriterion::RecursiveResidual2Norm => false,
    };
    let nw = exec.n_global();
    let tr = exec.track().cloned();
    let _g = spcg_obs::span(tr.as_ref(), Phase::Gram);
    counters.record_dots(1, nw);
    counters.piggyback_words(1);
    let local = if true_residual {
        counters.record_spmv(exec.spmv_flops());
        counters.blas1_flops += nw;
        let mut acc = 0.0;
        for i in 0..b.len() {
            let d = b[i] - ax[i];
            acc += d * d;
        }
        acc
    } else {
        exec.kernels().dot(r, r)
    };
    let mut red = [local];
    exec.allreduce(&mut red);
    red[0].sqrt()
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

    /// `criterion_values` against `k` single-column `criterion_value` calls
    /// on the same data: value bits and `Counters`, per column and criterion.
    fn k_columns_match_single_columns<E: Exec>(exec: &mut E) {
        let (n, lo) = (exec.nl(), exec.row_offset());
        let cols = |salt: f64| -> Vec<Vec<f64>> {
            let entry = |i: usize, j: usize| ((i * (j + 3)) % 17) as f64 * salt - 0.4 * j as f64;
            (0..3)
                .map(|j| (lo..lo + n).map(|i| entry(i, j)).collect())
                .collect()
        };
        let (bs, xs, rs) = (cols(0.25), cols(0.01), cols(0.5));
        let (xm, rm) = (
            MultiVector::from_columns(&xs),
            MultiVector::from_columns(&rs),
        );
        let b_refs: Vec<&[f64]> = bs.iter().map(Vec::as_slice).collect();
        let rtus = [2.5, 0.0, -1e-20];
        for criterion in [
            StoppingCriterion::TrueResidual2Norm,
            StoppingCriterion::RecursiveResidual2Norm,
            StoppingCriterion::PrecondMNorm,
        ] {
            let mut scr = MultiVector::zeros(n, 3);
            let mut wide = vec![Counters::new(); 3];
            let values = StopState::criterion_values(
                criterion, exec, &b_refs, &xm, &rm, &rtus, &mut scr, &mut wide,
            );
            let mut stop = StopState::new(&SolveOptions::from_env().with_criterion(criterion));
            for j in 0..3 {
                let mut one = Counters::new();
                let (b, x, r) = (&bs[j][..], &xs[j], &rs[j]);
                let v = stop.criterion_value(exec, b, x, r, rtus[j], &mut one);
                assert_eq!(values[j].to_bits(), v.to_bits(), "{criterion:?} column {j}");
                assert_eq!(wide[j], one, "{criterion:?} column {j} counters");
            }
        }
    }

    #[test]
    fn k_column_criterion_is_the_single_column_criterion_per_column() {
        use crate::engine::{RankExec, Ranking, SerialExec};
        use spcg_dist::{executor::run_ranks_in, ThreadComm};

        let a = spcg_sparse::generators::poisson::poisson_2d(9);
        let m = spcg_precond::Jacobi::new(&a);
        // No fault plan: it would poison the two forms' exchanges at
        // different sequence numbers.
        let opts = SolveOptions::from_env().with_faults(None);
        k_columns_match_single_columns(&mut SerialExec::new(&a, &m, &opts));
        let world = Ranking::new(a.nrows(), 2, &opts).world();
        run_ranks_in(&world.group, |comm: ThreadComm| {
            let (method, comm) = (crate::Method::Pcg, Box::new(comm));
            let (b1, b2) = (world.board.handle(), world.board2.handle());
            let (b1, b2) = (Box::new(b1), Box::new(b2));
            let mut exec = RankExec::new(&a, &m, &method, &opts, comm, b1, b2, None, None);
            k_columns_match_single_columns(&mut exec);
        });
    }
}
