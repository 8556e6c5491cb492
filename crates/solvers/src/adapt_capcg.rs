//! Adaptive CA-PCG — the CA-PCG body of [`crate::capcg::capcg`] under the
//! `spcg_adapt` control layer (Carson's adaptive s-step CG with dynamic
//! basis updating).
//!
//! CA-PCG is the natural host for adaptivity: its only cross-block state
//! is the five concrete vectors `x, r, u, q, p`, so both the block size
//! `s` and the basis polynomial can change freely at block boundaries
//! without touching the recurrence. Per block the solver feeds the
//! controller three observables, all derived from already-allreduced
//! scalars so every rank decides identically (SPMD control flow):
//!
//! * the **Gram conditioning** estimate — the symmetrized `G = YᵀM⁻¹Y` is
//!   Cholesky-factored (the existing small-solve kernel) and
//!   `cond(L)² ≈ cond(G)` classifies the block;
//! * the **residual gap** `|‖b − Ax‖ − ‖r‖| / max(‖b − Ax‖, ‖r‖)` between
//!   the true and the recurrence residual (observable under the
//!   true-residual criterion, where `‖b − Ax‖` is already paid for);
//! * the **running Ritz values** of `M⁻¹A`, harvested from the inner
//!   loop's CG coefficients — when the estimated spectral interval drifts
//!   past the basis' coverage, the basis (Chebyshev interval or
//!   Newton–Leja shifts) and the MPK coefficients are rebuilt mid-solve
//!   under a [`Phase::BasisRebuild`] span.
//!
//! Consensus words piggyback on each block's Gram allreduce
//! (`spcg_adapt::consensus`), verifying at run time that all ranks entered
//! the block with the same `(s, rebuild)` decision — no extra collective.
//! Mid-block breakdowns recover the iterate, shrink `s`, restart the
//! direction vectors, and charge the same escalating budget
//! (`charge_budget` in `crate::resilience`) the resilience driver uses, so
//! adaptive shrink and stage-level shrink compose without double-charging.

use crate::blockops::{gemv_concat, gemv_concat_acc, gram_concat};
use crate::engine::{allreduce_gram, Exec, SerialExec};
use crate::options::{Outcome, Problem, SolveOptions, SolveResult, StoppingCriterion};
use crate::resilience::charge_budget;
use crate::stopping::{criterion_value, StopState, Verdict};
use spcg_adapt::{
    consensus, AdaptiveReport, BlockHealth, SController, ShiftUpdate, SpectralMonitor,
};
use spcg_basis::cob::b_capcg;
use spcg_basis::BasisType;
use spcg_dist::Counters;
use spcg_obs::Phase;
use spcg_sparse::smallsolve::Cholesky;
use spcg_sparse::{blas, DenseMat, GemvOut, MultiVector};

/// Solves `A x = b` with adaptive CA-PCG, starting at block size `s` and
/// basis `basis` (see the module docs and [`crate::Method::AdaptiveCaPcg`]).
///
/// # Panics
/// Panics if `s < 2` (the coordinate-space layout needs at least two inner
/// steps; use plain PCG for `s = 1`).
pub fn adaptive_capcg(
    problem: &Problem<'_>,
    s: usize,
    basis: &BasisType,
    opts: &SolveOptions,
) -> SolveResult {
    adaptive_capcg_g(&mut SerialExec::new(problem, opts), s, basis, opts)
}

/// Adaptive CA-PCG over any execution substrate (see [`crate::engine`]).
pub(crate) fn adaptive_capcg_g<E: Exec>(
    exec: &mut E,
    s0: usize,
    basis0: &BasisType,
    opts: &SolveOptions,
) -> SolveResult {
    assert!(s0 >= 2, "adaptive_capcg: s must be at least 2");
    let n = exec.nl();
    let nw = exec.n_global();
    let pk = exec.kernels().clone();
    let tr = exec.track().cloned();
    let mut counters = Counters::new();
    let mut stop = StopState::new(opts);
    let mut scratch_vec = Vec::new();

    let mut ctrl = SController::new(opts.adaptive.clone(), s0);
    let mut monitor = SpectralMonitor::new(opts.adaptive.max_ritz);
    let mut basis = basis0.clone();
    let mut s = ctrl.s();
    let mut params = basis.params(s);
    let mut b_mat = b_capcg(&params, s);

    let mut x = vec![0.0; n];
    let mut r = exec.b_local().to_vec();
    let mut u = vec![0.0; n];
    exec.precond(&r, &mut u, &mut counters);
    counters.record_precond(exec.m_flops());
    let mut q = r.clone();
    let mut p = u.clone();

    // Y = [Q | R̂], Z = [P | U], re-allocated whenever s changes.
    let mut q_mat = MultiVector::zeros(n, s + 1);
    let mut p_mat = MultiVector::zeros(n, s + 1);
    let mut r_mat = MultiVector::zeros(n, s);
    let mut u_mat = MultiVector::zeros(n, s);

    let mut iterations = 0usize;
    let mut iters_left = opts.max_iters;
    let mut zero_streak = 0u32;
    let mut restarts = 0usize;
    let mut s_schedule = vec![s];
    let mut shift_history: Vec<ShiftUpdate> = Vec::new();
    // The (s, rebuild) decision that shaped the *current* block, verified
    // rank-identical on the block's own Gram allreduce.
    let mut last_rebuild = false;

    let final_verdict;
    'outer: loop {
        let dim = 2 * s + 1;
        let sw = s as u64;

        // --- the two s-step bases (2s−1 SpMVs, 2s−1 precond total) ---
        exec.mpk(&q, Some(&p), &params, &mut q_mat, &mut p_mat, &mut counters);
        exec.mpk(&r, Some(&u), &params, &mut r_mat, &mut u_mat, &mut counters);

        // --- single global reduction: G = ZᵀY plus the piggybacked
        //     consensus words and the recurrence-residual dot ---
        let gram_span = spcg_obs::span(tr.as_ref(), Phase::Gram);
        let mut g = gram_concat(&pk, &p_mat, &u_mat, &q_mat, &r_mat);
        let cons = consensus::pack(s, last_rebuild);
        let mut extra = [cons[0], cons[1], cons[2], exec.dot(&r, &r)];
        counters.record_dots((dim * dim) as u64 + 1, nw);
        counters.record_collective((dim * dim + extra.len()) as u64);
        allreduce_gram(exec, &mut [&mut g], &mut extra);
        drop(gram_span);
        let g = g;
        match consensus::check(&extra[..consensus::WORDS], s, last_rebuild) {
            consensus::Verdict::Agree | consensus::Verdict::Poisoned => {}
            consensus::Verdict::Disagree => {
                panic!("adaptive_capcg: rank decisions diverged (s = {s})")
            }
        }
        let rr_global = extra[consensus::WORDS];

        // --- spectral monitor: conditioning of the direction-basis Gram
        //     G_qq = QᵀM⁻¹Q, the leading (s+1)×(s+1) block of G. (The full
        //     concatenated Gram is structurally singular — q and r share
        //     Krylov components, exactly so on the first block — while
        //     G_qq is SPD until the polynomial basis itself degenerates,
        //     which is precisely the event the controller watches for.) ---
        let spect_span = spcg_obs::span(tr.as_ref(), Phase::SpectralEst);
        let bdim = s + 1;
        let mut g_qq = DenseMat::zeros(bdim, bdim);
        for i in 0..bdim {
            for j in 0..bdim {
                g_qq[(i, j)] = 0.5 * (g[(i, j)] + g[(j, i)]);
            }
        }
        let cond = match Cholesky::factor(&g_qq) {
            Ok(chol) => chol.cond_estimate(),
            Err(_) => f64::INFINITY,
        };
        counters.small_flops += ((bdim * bdim * bdim) / 3) as u64;
        drop(spect_span);

        // --- convergence check every s steps ---
        let rtu = g[(s + 1, s + 1)]; // uᵀr
        let value = criterion_value(
            exec,
            opts.criterion,
            &x,
            &r,
            rtu,
            &mut scratch_vec,
            &mut counters,
        );
        let verdict = stop.check(iterations, value);
        if verdict != Verdict::Continue {
            final_verdict = StopState::outcome(verdict);
            break;
        }
        if iterations >= opts.max_iters || iters_left == 0 {
            final_verdict = Outcome::MaxIterations;
            break;
        }

        // Residual gap: recurrence ‖r‖ vs true ‖b − Ax‖, both reduced.
        let gap = if opts.criterion == StoppingCriterion::TrueResidual2Norm {
            let rr_norm = rr_global.max(0.0).sqrt();
            Some((value - rr_norm).abs() / value.max(rr_norm).max(f64::MIN_POSITIVE))
        } else {
            None
        };
        let health = ctrl.classify(cond, gap);

        if health == BlockHealth::Reject {
            // The coordinate arithmetic of this block would be numerically
            // meaningless; skip the inner loop, shrink (the escalating
            // charge bounds how often this can repeat), rebuild the basis
            // if the monitor already has an interval, and retry.
            iters_left = charge_budget(iters_left, 0, &mut zero_streak);
            let s_next = ctrl.after_breakdown();
            let est = monitor.ritz();
            let rebuild = ctrl.needs_rebuild(&basis, est.as_ref());
            if s_next == s && !rebuild {
                final_verdict = Outcome::Breakdown(format!(
                    "adaptive basis conditioning rejected at s_min: cond ≈ {cond:.3e}"
                ));
                break;
            }
            if rebuild {
                let rb_span = spcg_obs::span(tr.as_ref(), Phase::BasisRebuild);
                let est = est.expect("needs_rebuild implies an estimate");
                basis = ctrl.rebuild(&basis, &est, s_next);
                shift_history.push(ShiftUpdate {
                    iteration: iterations,
                    basis: basis.name().to_string(),
                    lambda_min: est.lambda_min,
                    lambda_max: est.lambda_max,
                    ritz_count: est.ritz.len(),
                });
                drop(rb_span);
            }
            last_rebuild = rebuild;
            if s_next != s {
                s = s_next;
                s_schedule.push(s);
                q_mat = MultiVector::zeros(n, s + 1);
                p_mat = MultiVector::zeros(n, s + 1);
                r_mat = MultiVector::zeros(n, s);
                u_mat = MultiVector::zeros(n, s);
            }
            params = basis.params(s);
            b_mat = b_capcg(&params, s);
            continue 'outer;
        }

        // --- coordinate-space inner loop (no communication) ---
        let scalar_span = spcg_obs::span(tr.as_ref(), Phase::ScalarWork);
        let mut p_c = vec![0.0; dim];
        p_c[0] = 1.0;
        let mut r_c = vec![0.0; dim];
        r_c[s + 1] = 1.0;
        let mut x_c = vec![0.0; dim];
        let mut rho = quad_form(&g, &r_c, &r_c); // r'ᵀGr' = rᵀu
        let mut broke_at: Option<usize> = None;
        for step in 0..s {
            let bp = b_mat.matvec(&p_c);
            let gbp = g.matvec(&bp);
            let denom = blas::dot(&p_c, &gbp);
            if !(denom > 0.0) || !denom.is_finite() || !(rho > 0.0) || !rho.is_finite() {
                broke_at = Some(step);
                break;
            }
            let alpha = rho / denom;
            for i in 0..dim {
                x_c[i] += alpha * p_c[i];
                r_c[i] -= alpha * bp[i];
            }
            let rho_new = quad_form(&g, &r_c, &r_c);
            let beta = rho_new / rho;
            rho = rho_new;
            for i in 0..dim {
                p_c[i] = r_c[i] + beta * p_c[i];
            }
            monitor.observe(alpha, beta);
        }
        counters.small_flops += 8 * (dim * dim) as u64 * sw;
        drop(scalar_span);

        if let Some(step) = broke_at {
            // Recover the mid-block iterate, then judge: breakdown at a
            // converged residual is convergence; otherwise shrink, restart
            // the direction vectors from the recovered residual, and keep
            // going under the escalating budget.
            gemv_concat_acc(&pk, &p_mat, &u_mat, &x_c, &mut x);
            gemv_concat(&pk, &q_mat, &r_mat, &r_c, &mut r);
            counters.blas2_flops += 2 * 2 * dim as u64 * nw;
            let v = criterion_value(
                exec,
                opts.criterion,
                &x,
                &r,
                rho,
                &mut scratch_vec,
                &mut counters,
            );
            let outcome = stop.resolve_breakdown(
                iterations + step,
                v,
                format!("coordinate-space curvature breakdown at inner step {step}"),
            );
            if outcome.converged() {
                final_verdict = outcome;
                break;
            }
            iterations += step;
            counters.iterations += step as u64;
            iters_left = charge_budget(iters_left, step, &mut zero_streak);
            restarts += 1;
            let restart_span = spcg_obs::span(tr.as_ref(), Phase::Restart);
            exec.precond(&r, &mut u, &mut counters);
            counters.record_precond(exec.m_flops());
            q.copy_from_slice(&r);
            p.copy_from_slice(&u);
            monitor.reset();
            drop(restart_span);
            let s_next = ctrl.after_breakdown();
            if iters_left == 0 {
                final_verdict = Outcome::MaxIterations;
                break;
            }
            last_rebuild = false;
            if s_next != s {
                s = s_next;
                s_schedule.push(s);
                q_mat = MultiVector::zeros(n, s + 1);
                p_mat = MultiVector::zeros(n, s + 1);
                r_mat = MultiVector::zeros(n, s);
                u_mat = MultiVector::zeros(n, s);
                params = basis.params(s);
                b_mat = b_capcg(&params, s);
            }
            continue 'outer;
        }

        // --- recover the full vectors (BLAS2) ---
        let update_span = spcg_obs::span(tr.as_ref(), Phase::VecUpdate);
        // Each basis block is read once for all the vectors it yields.
        pk.gemv_multi(
            &[&q_mat, &r_mat],
            &mut [GemvOut::Set(&p_c, &mut q), GemvOut::Set(&r_c, &mut r)],
        );
        pk.gemv_multi(
            &[&p_mat, &u_mat],
            &mut [
                GemvOut::Set(&p_c, &mut p),
                GemvOut::Set(&r_c, &mut u),
                GemvOut::Acc(&x_c, &mut x),
            ],
        );
        counters.blas2_flops += 5 * 2 * dim as u64 * nw;
        drop(update_span);

        iterations += s;
        counters.iterations += sw;
        counters.outer_iterations += 1;
        iters_left = charge_budget(iters_left, s, &mut zero_streak);

        // --- controller decision for the next block ---
        let s_next = ctrl.after_block(health);
        let est = monitor.ritz();
        let rebuild = ctrl.needs_rebuild(&basis, est.as_ref());
        if rebuild {
            let rb_span = spcg_obs::span(tr.as_ref(), Phase::BasisRebuild);
            let est = est.expect("needs_rebuild implies an estimate");
            basis = ctrl.rebuild(&basis, &est, s_next);
            shift_history.push(ShiftUpdate {
                iteration: iterations,
                basis: basis.name().to_string(),
                lambda_min: est.lambda_min,
                lambda_max: est.lambda_max,
                ritz_count: est.ritz.len(),
            });
            drop(rb_span);
        }
        last_rebuild = rebuild;
        let s_changed = s_next != s;
        if s_changed {
            s = s_next;
            s_schedule.push(s);
            q_mat = MultiVector::zeros(n, s + 1);
            p_mat = MultiVector::zeros(n, s + 1);
            r_mat = MultiVector::zeros(n, s);
            u_mat = MultiVector::zeros(n, s);
        }
        if rebuild || s_changed {
            // Coefficients depend on both the basis and the degree.
            params = basis.params(s);
            b_mat = b_capcg(&params, s);
        }
    }

    counters.restarts = restarts as u64;
    let report = AdaptiveReport {
        shift_history,
        ritz: monitor.ritz().map(|e| e.ritz).unwrap_or_default(),
    };
    SolveResult {
        x,
        outcome: final_verdict,
        iterations,
        history: stop.history,
        counters,
        collectives_per_rank: None,
        restarts,
        s_schedule,
        faults_absorbed: 0,
        adaptive: Some(report),
    }
}

/// `aᵀ G b` for small vectors.
fn quad_form(g: &DenseMat, a: &[f64], b: &[f64]) -> f64 {
    let gb = g.matvec(b);
    blas::dot(a, &gb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capcg::capcg;
    use crate::pcg::pcg;
    use spcg_precond::{Identity, Jacobi};
    use spcg_sparse::generators::paper_rhs;
    use spcg_sparse::generators::poisson::poisson_2d;
    use spcg_sparse::generators::random_spd::{spd_with_spectrum, SpectrumShape};

    #[test]
    fn solves_easy_problem_like_capcg() {
        let a = poisson_2d(12);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = crate::setup::chebyshev_basis(&problem, 20, 0.05);
        let opts = SolveOptions::default();
        let res = adaptive_capcg(&problem, 4, &basis, &opts);
        assert!(res.converged(), "{:?}", res.outcome);
        assert!(res.true_relative_residual(&a, &b) < 1e-7);
        let fixed = capcg(&problem, 4, &basis, &opts);
        assert!(
            res.iterations <= fixed.iterations + 2 * 16,
            "adaptive {} vs fixed {}",
            res.iterations,
            fixed.iterations
        );
        let report = res.adaptive.as_ref().expect("adaptive report");
        assert_eq!(res.s_schedule.first(), Some(&4));
        // A healthy Chebyshev run never needs a shift update.
        assert!(report.shift_history.is_empty());
    }

    #[test]
    fn report_carries_sorted_ritz_values() {
        let a = poisson_2d(12);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = crate::setup::chebyshev_basis(&problem, 20, 0.05);
        let res = adaptive_capcg(&problem, 4, &basis, &SolveOptions::default());
        let ritz = &res.adaptive.as_ref().unwrap().ritz;
        assert!(ritz.len() >= 2, "expected a spectrum estimate");
        assert!(ritz.windows(2).all(|w| w[0] <= w[1]));
        assert!(ritz.iter().all(|v| *v > 0.0));
    }

    #[test]
    fn monomial_start_recovers_where_fixed_monomial_degrades() {
        // The acceptance problem: uniform spectrum at κ = 1e5 with a flat
        // rhs breaks the fixed monomial basis at s = 10 (Table 2's
        // collapse); the adaptive solver must detect the conditioning,
        // shrink, retune onto the Ritz interval, and still converge.
        let kappa = 1e5;
        let a = spd_with_spectrum(500, &SpectrumShape::Uniform { kappa }, 1.0, 3, 21);
        let m = Identity::new(a.nrows());
        let n = a.nrows();
        let b = vec![1.0 / (n as f64).sqrt(); n];
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::default().with_max_iters(8000).with_tol(1e-7);
        assert!(pcg(&problem, &opts).converged());
        let r_mono = capcg(&problem, 10, &BasisType::Monomial, &opts);
        let res = adaptive_capcg(&problem, 10, &BasisType::Monomial, &opts);
        assert!(
            res.converged(),
            "adaptive from monomial must converge: {:?}",
            res.outcome
        );
        assert!(res.true_relative_residual(&a, &b) < 1e-6);
        let report = res.adaptive.as_ref().unwrap();
        assert!(
            !report.shift_history.is_empty(),
            "expected at least one dynamic basis update"
        );
        assert!(
            res.s_schedule.len() > 1,
            "expected the controller to change s: {:?}",
            res.s_schedule
        );
        if r_mono.converged() {
            assert!(
                res.iterations < r_mono.iterations,
                "adaptive {} vs fixed monomial {}",
                res.iterations,
                r_mono.iterations
            );
        }
    }

    #[test]
    fn within_margin_of_fixed_chebyshev_on_hard_problem() {
        let kappa = 1e5;
        let a = spd_with_spectrum(500, &SpectrumShape::Uniform { kappa }, 1.0, 3, 21);
        let m = Identity::new(a.nrows());
        let n = a.nrows();
        let b = vec![1.0 / (n as f64).sqrt(); n];
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::default().with_max_iters(8000).with_tol(1e-7);
        let basis = BasisType::Chebyshev {
            lambda_min: 1.0 / kappa,
            lambda_max: 1.0,
        };
        let r_cheb = capcg(&problem, 10, &basis, &opts);
        assert!(r_cheb.converged());
        let res = adaptive_capcg(&problem, 10, &BasisType::Monomial, &opts);
        assert!(res.converged(), "{:?}", res.outcome);
        // The issue's acceptance margin: adaptive-from-monomial within
        // 1.1× of the oracle fixed-Chebyshev iteration count.
        let cap = (r_cheb.iterations as f64 * 1.1).ceil() as usize;
        assert!(
            res.iterations <= cap,
            "adaptive {} vs 1.1×chebyshev {}",
            res.iterations,
            cap
        );
    }

    #[test]
    fn grows_s_on_a_healthy_run() {
        let a = poisson_2d(20);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = crate::setup::chebyshev_basis(&problem, 20, 0.05);
        let mut opts = SolveOptions::default().with_tol(1e-12);
        opts.adaptive = opts.adaptive.with_s_range(2, 8).with_grow_patience(2);
        let res = adaptive_capcg(&problem, 2, &basis, &opts);
        assert!(res.converged(), "{:?}", res.outcome);
        assert!(
            res.s_schedule.iter().any(|&s| s > 2),
            "well-conditioned blocks should earn growth: {:?}",
            res.s_schedule
        );
    }

    #[test]
    fn respects_max_iters() {
        let a = poisson_2d(20);
        let m = Identity::new(a.nrows());
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::default().with_tol(1e-15).with_max_iters(10);
        let res = adaptive_capcg(&problem, 4, &BasisType::Monomial, &opts);
        assert!(matches!(
            res.outcome,
            Outcome::MaxIterations | Outcome::Stagnated
        ));
        assert!(res.iterations <= 10 + 4);
    }

    #[test]
    #[should_panic(expected = "s must be at least 2")]
    fn panics_on_tiny_s() {
        let a = poisson_2d(4);
        let m = Identity::new(a.nrows());
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let _ = adaptive_capcg(&problem, 1, &BasisType::Monomial, &SolveOptions::default());
    }
}
