//! Self-healing solves: breakdown detection with residual-replacement
//! restart, for every method and both execution engines.
//!
//! The driver runs a method in *stages*. A stage is a dispatch on the
//! caller's executor — same operators, the right-hand side `b − A·x_acc` —
//! from a zero guess; restarting is exact because the remaining error
//! `e = x* − x_acc` satisfies `A·e = r`, so correcting `x_acc += d` loses
//! nothing — the same argument behind Carson & Demmel residual replacement,
//! applied at stage granularity.
//! A stage ends in one of three ways:
//!
//! * **accepted** — converged (or out of budget/stalled) with a finite
//!   iterate: the driver returns;
//! * **breakdown** — singular scalar work, lost positive definiteness, or
//!   a non-positive curvature: partial progress is kept, `s` is halved
//!   (down to the method's minimum) per the policy, and the residual is
//!   recomputed for the next stage;
//! * **poisoned/diverged** — a non-finite iterate or criterion (e.g. an
//!   injected NaN payload, see `spcg_dist::fault`): the stage's iterate
//!   is discarded and the stage reruns from the last good `x_acc`.
//!
//! Whether an iterate is finite is decided by **consensus**: every rank
//! contributes a bad-flag through the deterministic allreduce, and the
//! reduced flag is tested NaN-safely (`!(sum == 0.0)`), so even a poisoned
//! reduction sends all ranks down the same restart branch — SPMD control
//! flow never diverges.
//!
//! With the policy `None` the driver is a transparent passthrough, and
//! even with a policy armed, a solve whose first stage converges returns
//! that stage's result object — the zero-fault path is bitwise identical
//! (solution, outcome, iterations, history) to an undriven solve, and its
//! counters are the undriven ones plus exactly one 1-word collective per
//! stage: the consensus flag.

use crate::engine::{dispatch, Exec};
use crate::method::Method;
use crate::options::{Outcome, SolveOptions, SolveResult};
use crate::sstep::true_residual;
use spcg_adapt::AdaptiveReport;
use spcg_dist::wire::{WireReader, WireResult, WireWriter};
use spcg_dist::Counters;
use spcg_obs::Phase;

/// Self-healing policy (see [`SolveOptions::resilience`]
/// (crate::SolveOptions::resilience) and the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resilience {
    /// Restarts allowed before the driver returns whatever it has. Each
    /// injected-fault recovery or breakdown consumes one.
    pub max_restarts: usize,
    /// Halve `s` (down to the method's minimum) when a stage ends in a
    /// basis breakdown or divergence; [`SolveResult::s_schedule`] records
    /// the stages actually run. Faulted-but-numerically-healthy stages
    /// (poisoned payloads) rerun at full `s` either way.
    pub shrink_s: bool,
    /// Before retreating in `s` after a breakdown, retry once with the
    /// method's Gauss-Seidel Gram-solve analogue
    /// ([`Method::gs_analogue`]) at the *same* block size — Cholesky
    /// pivot failures on ill-conditioned Gram systems are exactly the
    /// breakdown class the GS inner solve survives, so this keeps the
    /// solve at full s instead of halving. Methods without an analogue
    /// (and the GS method itself) fall through to the shrink-s policy.
    pub gs_recovery: bool,
}

impl Default for Resilience {
    fn default() -> Self {
        Resilience {
            // A restart costs one SpMV, and the iteration budget (every
            // stage charges at least an escalating minimum) is what really
            // bounds the stage loop — the cap only guards pathological
            // configurations. It errs high because injected faults scale
            // with ranks × sites: a multi-site plan on many ranks can
            // poison most of its injection window's rounds, each needing
            // its own recovery stage.
            max_restarts: 256,
            shrink_s: true,
            gs_recovery: true,
        }
    }
}

impl Resilience {
    /// Appends the policy to a proc-backend frame; exhaustive destructuring,
    /// like [`SolveOptions::encode`].
    pub fn encode(&self, w: &mut WireWriter) {
        let Resilience {
            max_restarts,
            shrink_s,
            gs_recovery,
        } = self;
        w.usize(*max_restarts);
        w.bool(*shrink_s);
        w.bool(*gs_recovery);
    }

    /// Reads what [`Resilience::encode`] wrote.
    pub fn decode(r: &mut WireReader<'_>) -> WireResult<Resilience> {
        Ok(Resilience {
            max_restarts: r.usize()?,
            shrink_s: r.bool()?,
            gs_recovery: r.bool()?,
        })
    }

    /// Builder-style restart cap.
    pub fn with_max_restarts(mut self, max_restarts: usize) -> Self {
        self.max_restarts = max_restarts;
        self
    }

    /// Builder-style s-reduction toggle.
    pub fn with_shrink_s(mut self, shrink_s: bool) -> Self {
        self.shrink_s = shrink_s;
        self
    }

    /// Builder-style Gauss-Seidel recovery toggle.
    pub fn with_gs_recovery(mut self, gs_recovery: bool) -> Self {
        self.gs_recovery = gs_recovery;
        self
    }
}

/// Charges one stage's iterations against the remaining budget.
///
/// Productive stages charge exactly what they ran — a solve that
/// legitimately needs all of `max_iters` across stages keeps every
/// iteration it is owed. Zero-progress stages (immediate breakdown)
/// charge an escalating minimum (1, 2, 4, …) so a stage that can never
/// advance exhausts the budget in logarithmically many attempts instead
/// of looping forever.
pub(crate) fn charge_budget(left: usize, ran: usize, zero_streak: &mut u32) -> usize {
    if ran > 0 {
        *zero_streak = 0;
        left.saturating_sub(ran)
    } else {
        let charge = 1usize << (*zero_streak).min(16);
        *zero_streak += 1;
        left.saturating_sub(charge)
    }
}

/// Runs `method` on `exec` for the right-hand side `b` (local block) under
/// the given resilience policy; with `None` this is exactly [`dispatch`].
/// See the module docs for the stage protocol and the bitwise passthrough
/// guarantee.
pub(crate) fn solve_resilient<E: Exec>(
    method: &Method,
    exec: &mut E,
    b: &[f64],
    opts: &SolveOptions,
    resilience: Option<&Resilience>,
) -> SolveResult {
    let Some(pol) = resilience else {
        return dispatch(method, exec, b, opts);
    };
    // Static per-run property, identical on every rank — safe to branch on.
    let fault_tolerant = opts.faults.as_ref().is_some_and(|p| p.active());
    let nl = exec.nl();
    // `b − A·x_acc` of the stages after the first; the first runs on `b`.
    let mut stage_rhs: Option<Vec<f64>> = None;
    let mut x_acc = vec![0.0; nl];
    let mut total = Counters::new();
    let mut history: Vec<(usize, f64)> = Vec::new();
    let mut s_schedule: Vec<usize> = Vec::new();
    let mut adaptive_acc: Option<AdaptiveReport> = None;
    let mut method_now = method.clone();
    let mut tol_left = opts.tol;
    let mut iters_left = opts.max_iters;
    let mut iterations_total = 0usize;
    let mut restarts = 0usize;
    let mut zero_streak = 0u32;

    loop {
        // History is forced on: the tolerance handoff between stages needs
        // the stage's reduction factor. It never changes arithmetic or
        // counters — only the recorded (iteration, value) pairs.
        let stage_opts = SolveOptions {
            tol: tol_left,
            max_iters: iters_left,
            keep_history: true,
            ..opts.clone()
        };
        let rhs = stage_rhs.as_deref().unwrap_or(b);
        let mut res = dispatch(&method_now, exec, rhs, &stage_opts);
        // Adaptive bodies report the s-values they actually ran; fixed-s
        // bodies leave the schedule empty and contribute their stage s.
        if res.s_schedule.is_empty() {
            s_schedule.push(method_now.s());
        } else {
            s_schedule.extend_from_slice(&res.s_schedule);
        }
        // Consensus finiteness: a per-rank bad-flag, reduced (a collective of
        // the stage) and tested NaN-safely, so poison reads as bad everywhere.
        let mut flag = [f64::from(u8::from(res.x.iter().any(|v| !v.is_finite())))];
        exec.allreduce(&mut flag, &mut res.counters);
        let bad = !(flag[0] == 0.0);
        total.merge(&res.counters);
        let stage_base = iterations_total;
        iterations_total += res.iterations;
        if let Some(rep) = &res.adaptive {
            // Merge the controller's report across stages, re-basing each
            // stage's shift iterations onto the accumulated count.
            let acc = adaptive_acc.get_or_insert_with(AdaptiveReport::default);
            acc.shift_history.extend(rep.shift_history.iter().map(|u| {
                let mut u = u.clone();
                u.iteration += stage_base;
                u
            }));
            acc.ritz = rep.ritz.clone();
        }
        iters_left = if fault_tolerant {
            // Under an armed fault plan zero-progress stages are expected
            // — a poisoned first exchange breaks a stage before any
            // iteration completes — and their number is bounded by the
            // plan's injection window, so charge the flat minimum. The
            // escalating charge is for genuine numerical breakdown loops.
            iters_left.saturating_sub(res.iterations.max(1))
        } else {
            charge_budget(iters_left, res.iterations, &mut zero_streak)
        };

        let accepted = !bad
            && matches!(
                res.outcome,
                Outcome::Converged | Outcome::Stagnated | Outcome::MaxIterations
            );
        if accepted && restarts == 0 {
            // First stage succeeded: return its result object — the bitwise
            // zero-fault passthrough (x_acc accumulation could flip -0.0
            // signs; handing the stage's own iterate back cannot).
            let mut out = res;
            if !opts.keep_history {
                out.history = Vec::new();
            }
            out.s_schedule = s_schedule;
            return out;
        }

        // A diverged or non-finite stage iterate is garbage — discard it;
        // breakdown stages keep their partial progress.
        let discard = bad || matches!(res.outcome, Outcome::Diverged);
        if !discard {
            for (xi, di) in x_acc.iter_mut().zip(&res.x) {
                *xi += di;
            }
            // Stage reduced the criterion by some factor f; later stages
            // only owe tol/f more (guarded against non-finite history
            // under payload poisoning).
            if let (Some(first), Some(last)) = (res.history.first(), res.history.last()) {
                if first.1.is_finite() && last.1.is_finite() && first.1 > 0.0 {
                    let f = (last.1 / first.1).clamp(1e-16, 1.0);
                    tol_left = (tol_left / f).min(1.0);
                }
            }
        }
        history.extend(res.history.iter().map(|&(it, v)| (stage_base + it, v)));

        if accepted || restarts >= pol.max_restarts || iters_left == 0 {
            let outcome = if bad && res.outcome.converged() {
                // "Converged" onto a non-finite iterate is a lie told by a
                // poisoned criterion; out of restarts, call it divergence.
                Outcome::Diverged
            } else {
                res.outcome
            };
            total.restarts = restarts as u64;
            let history = if opts.keep_history {
                history
            } else {
                Vec::new()
            };
            return SolveResult {
                restarts,
                s_schedule,
                adaptive: adaptive_acc,
                ..SolveResult::new(x_acc, outcome, iterations_total, history, total)
            };
        }

        // Restart: on a genuine numerical breakdown, first try the
        // Gauss-Seidel Gram-solve analogue at the same block size (the
        // analogue maps to itself as `None`, so this fires at most once);
        // otherwise retreat in s per the shrink policy. Then re-anchor
        // the next stage to the true residual of x_acc.
        restarts += 1;
        match &res.outcome {
            Outcome::Breakdown(_) => {
                let gs = if pol.gs_recovery {
                    method_now.gs_analogue()
                } else {
                    None
                };
                match gs {
                    Some(gs) => method_now = gs,
                    None if pol.shrink_s => {
                        method_now = method_now.with_s(method_now.s() / 2);
                    }
                    None => {}
                }
            }
            Outcome::Diverged if pol.shrink_s => {
                method_now = method_now.with_s(method_now.s() / 2);
            }
            _ => {}
        }
        let tr = exec.track().cloned();
        let _sp = spcg_obs::span(tr.as_ref(), Phase::Restart);
        let mut rhs = vec![0.0; nl];
        true_residual(exec, b, &x_acc, &mut rhs, &mut total);
        stage_rhs = Some(rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::Problem;
    use crate::{solve, Engine, Engine::Serial, Method};
    use spcg_basis::BasisType;
    use spcg_precond::Jacobi;
    use spcg_sparse::generators::paper_rhs;
    use spcg_sparse::generators::poisson::poisson_2d;
    use spcg_sparse::generators::random_spd::{spd_with_spectrum, SpectrumShape};

    /// sPCG from `s_max` under the shrink-s policy, serially.
    fn shrinking_spcg(
        problem: &Problem<'_>,
        s_max: usize,
        basis: &BasisType,
        opts: SolveOptions,
    ) -> SolveResult {
        let method = Method::SPcg {
            s: s_max,
            basis: basis.clone(),
        };
        let opts = opts.with_resilience(Resilience::default().with_shrink_s(true));
        solve(&method, problem, &opts, Engine::Serial)
    }

    #[test]
    fn single_stage_when_no_breakdown() {
        let a = poisson_2d(12);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = crate::setup::chebyshev_basis(&problem, 20, 0.05);
        let out = shrinking_spcg(&problem, 5, &basis, SolveOptions::from_env());
        assert!(out.converged());
        assert_eq!(out.s_schedule, vec![5]);
        assert_eq!(out.restarts, 0);
    }

    #[test]
    fn recovers_from_monomial_breakdown_by_shrinking_s() {
        // Monomial s=10 on a hard problem breaks down; the shrink-s policy
        // must still converge by dropping to a small s.
        let a = spd_with_spectrum(400, &SpectrumShape::Uniform { kappa: 1e5 }, 1.0, 3, 77);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env()
            .with_max_iters(20_000)
            .with_history();
        assert!(solve(&Method::Pcg, &problem, &opts, Serial).converged());
        let out = shrinking_spcg(&problem, 10, &BasisType::Monomial, opts);
        if out.converged() {
            assert!(!out.s_schedule.is_empty());
            assert!(out.true_relative_residual(&a, &b) < 1e-6);
        } else {
            // At minimum the schedule must have tried smaller s.
            assert!(
                out.s_schedule.len() > 1,
                "no adaptation happened: {:?}",
                out.outcome
            );
        }
    }

    #[test]
    fn accumulated_solution_is_consistent() {
        let a = poisson_2d(10);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = crate::setup::chebyshev_basis(&problem, 20, 0.05);
        let out = shrinking_spcg(&problem, 4, &basis, SolveOptions::from_env());
        assert!(out.converged());
        assert!(out.true_relative_residual(&a, &b) < 1e-7);
    }

    #[test]
    fn schedule_records_one_entry_per_stage() {
        // Fixed-s bodies leave their own schedule empty; the driver records
        // the stage's s for them, and the stage iterations add up.
        let a = poisson_2d(10);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = crate::setup::chebyshev_basis(&problem, 20, 0.05);
        let out = shrinking_spcg(&problem, 4, &basis, SolveOptions::from_env());
        assert_eq!(out.s_schedule.len(), out.restarts + 1);
        assert_eq!(out.s_schedule[0], 4);
        assert_eq!(out.iterations as u64, out.counters.iterations);
        assert!(!matches!(out.outcome, Outcome::Diverged));
    }

    #[test]
    fn budget_charges_actual_iterations_when_productive() {
        let mut streak = 0;
        assert_eq!(charge_budget(100, 37, &mut streak), 63);
        assert_eq!(streak, 0);
        assert_eq!(charge_budget(63, 63, &mut streak), 0);
    }

    #[test]
    fn budget_escalates_on_zero_progress() {
        let mut streak = 0;
        let mut left = 100;
        left = charge_budget(left, 0, &mut streak); // −1
        assert_eq!(left, 99);
        left = charge_budget(left, 0, &mut streak); // −2
        assert_eq!(left, 97);
        left = charge_budget(left, 0, &mut streak); // −4
        assert_eq!(left, 93);
        // Progress resets the escalation.
        left = charge_budget(left, 10, &mut streak);
        assert_eq!(left, 83);
        assert_eq!(charge_budget(left, 0, &mut streak), 82);
    }

    #[test]
    fn budget_saturates_at_zero() {
        let mut streak = 20; // escalation is capped, no overflow
        assert_eq!(charge_budget(3, 0, &mut streak), 0);
    }

    #[test]
    fn policy_builders() {
        let p = Resilience::default()
            .with_max_restarts(3)
            .with_shrink_s(false)
            .with_gs_recovery(false);
        assert_eq!(p.max_restarts, 3);
        assert!(!p.shrink_s);
        assert!(!p.gs_recovery);
        assert!(Resilience::default().shrink_s);
        assert!(Resilience::default().gs_recovery);
        assert!(Resilience::default().max_restarts >= 1);
    }
}
