//! Convergence / divergence / stagnation tracking shared by all solvers.

use crate::engine::{allreduce_gram, Exec};
use crate::options::{Outcome, SolveOptions, StoppingCriterion};
use spcg_dist::Counters;
use spcg_obs::Phase;

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

    /// The criterion's **local partial** of the iterate `x` (residual `r`)
    /// for the body to append to a reduction it performs anyway, charging
    /// its work: `‖b − A·x‖²` (one SpMV and a dot), `rᵀr` (a dot), or `None`
    /// under the M-norm, which judges the `rᵀu` every body reduces.
    pub(crate) fn partial<E: Exec>(
        &mut self,
        exec: &mut E,
        b: &[f64],
        x: &[f64],
        r: &[f64],
        counters: &mut Counters,
    ) -> Option<f64> {
        if self.criterion == StoppingCriterion::TrueResidual2Norm {
            self.scratch.resize(exec.nl(), 0.0);
            exec.spmv(x, &mut self.scratch, counters);
        }
        column_partial(self.criterion, exec, b, &self.scratch, r, counters)
    }

    /// The criterion value from the reduced `rtu = rᵀM⁻¹r` and the reduced
    /// partial (`None` under the M-norm).
    pub(crate) fn value(rtu: f64, reduced: Option<f64>) -> f64 {
        match reduced {
            Some(sq) => sq.sqrt(),
            // rtu can dip (tiny) negative in finite precision near
            // convergence; clamp so the sqrt stays defined. Not `f64::max`,
            // which would turn a NaN into 0 — "converged".
            None if rtu <= 0.0 => 0.0,
            None => rtu.sqrt(),
        }
    }

    /// Resolves a breakdown of the iterate `x` (residual `r`, `rtu`) at
    /// `iteration`: if it already satisfies the criterion, the solve
    /// *converged* — breakdowns at machine-precision residuals (zero
    /// curvature, singular scalar work) are the normal way an s-step block
    /// ends when the solution is reached mid-block. With no reduction to
    /// ride, the criterion's partial is reduced alone (a charged collective).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn resolve_breakdown<E: Exec>(
        &mut self,
        exec: &mut E,
        b: &[f64],
        iteration: usize,
        x: &[f64],
        r: &[f64],
        rtu: f64,
        msg: String,
        counters: &mut Counters,
    ) -> Outcome {
        let partial = self.partial(exec, b, x, r, counters);
        let reduced =
            partial.and_then(|_| allreduce_gram(exec, &mut [], &mut [], partial, counters));
        match self.check(iteration, StopState::value(rtu, reduced)) {
            Verdict::Converged => Outcome::Converged,
            _ => Outcome::Breakdown(msg),
        }
    }

    /// The check every body makes at a block boundary: [`StopState::value`],
    /// then [`StopState::check`], then the iteration cap. `Ok(value)` means
    /// keep iterating; `Err(outcome)` ends the solve.
    pub(crate) fn block_check(
        &mut self,
        iterations: usize,
        rtu: f64,
        reduced: Option<f64>,
    ) -> Result<f64, Outcome> {
        let value = StopState::value(rtu, reduced);
        match self.check(iterations, value) {
            Verdict::Continue if iterations >= self.max_iters => Err(Outcome::MaxIterations),
            Verdict::Continue => Ok(value),
            Verdict::Converged => Err(Outcome::Converged),
            Verdict::Diverged => Err(Outcome::Diverged),
            Verdict::Stagnated => Err(Outcome::Stagnated),
        }
    }
}

/// The criterion partial of one column. `ax = A·x` is read by the true
/// residual only (whose caller formed it).
pub(crate) fn column_partial<E: Exec>(
    criterion: StoppingCriterion,
    exec: &mut E,
    b: &[f64],
    ax: &[f64],
    r: &[f64],
    counters: &mut Counters,
) -> Option<f64> {
    if criterion == StoppingCriterion::PrecondMNorm {
        return None;
    }
    let nw = exec.n_global();
    let tr = exec.track().cloned();
    let _g = spcg_obs::span(tr.as_ref(), Phase::Gram);
    counters.record_dots(1, nw);
    if criterion == StoppingCriterion::RecursiveResidual2Norm {
        return Some(exec.kernels().dot(r, r));
    }
    counters.record_spmv(exec.spmv_flops());
    counters.blas1_flops += nw;
    let mut acc = 0.0;
    for i in 0..b.len() {
        let d = b[i] - ax[i];
        acc += d * d;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcg_sparse::MultiVector;

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

    /// The `k`-column form PCG's batches take — one `Exec::spmm` for `A·X`,
    /// then `column_partial` per column — against `k` single-column
    /// `partial` calls on the same data: bits and `Counters`, per column and
    /// criterion.
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
        for criterion in [
            StoppingCriterion::TrueResidual2Norm,
            StoppingCriterion::RecursiveResidual2Norm,
            StoppingCriterion::PrecondMNorm,
        ] {
            let mut scr = MultiVector::zeros(n, 3);
            let mut wide = vec![Counters::new(); 3];
            if criterion == StoppingCriterion::TrueResidual2Norm {
                exec.spmm(&xm, &mut scr, &mut wide);
            }
            let mut stop = StopState::new(&SolveOptions::from_env().with_criterion(criterion));
            for j in 0..3 {
                let (ax, r) = (scr.col(j), rm.col(j));
                let got = column_partial(criterion, exec, &bs[j], ax, r, &mut wide[j]);
                let mut one = Counters::new();
                let want = stop.partial(exec, &bs[j], &xs[j], &rs[j], &mut one);
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{criterion:?} {j}"
                );
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
