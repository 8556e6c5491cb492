//! CA-PCG — communication-avoiding PCG (Toledo \[21\], paper Algorithm 3) —
//! under a fixed block size ([`crate::Method::CaPcg`]) or the `spcg_adapt`
//! controller ([`crate::Method::AdaptiveCaPcg`], Carson's adaptive s-step CG
//! with dynamic basis updating): one block body, two crate-private
//! `BlockPolicy`s.
//!
//! Transforms the PCG vectors into a `(2s+1)`-dimensional coordinate space
//! spanned by `Y^(k) = [Q^(k), R̂^(k)]` and runs s inner PCG steps entirely
//! on coordinate vectors, with matrix products replaced by the
//! change-of-basis matrix `B` (§2.3). One Gram reduction of `(2s+1)²` words
//! per outer iteration.
//!
//! The cost signature the paper highlights: building the *two* Krylov bases
//! (from `q^(sk)` and `r^(sk)`) takes `2s−1` SpMVs and `2s−1` preconditioner
//! applications per s steps — nearly double everyone else — which is why
//! CA-PCG never achieves speedup over PCG in the paper's Table 3 and
//! Figure 1 despite its excellent stability in Table 2.

use crate::blockops::{gemv_concat, gemv_concat_acc, gram_concat, quad_form};
use crate::engine::{allreduce_gram, Exec};
use crate::options::{Outcome, SolveOptions, SolveResult, StoppingCriterion};
use crate::resilience::charge_budget;
use crate::stopping::StopState;
use spcg_adapt::{
    consensus, AdaptiveReport, BlockHealth, SController, ShiftUpdate, SpectralMonitor,
};
use spcg_basis::cob::b_capcg;
use spcg_basis::poly::BasisParams;
use spcg_basis::BasisType;
use spcg_dist::Counters;
use spcg_obs::{Phase, Track};
use spcg_sparse::smallsolve::Cholesky;
use spcg_sparse::{blas, DenseMat, GemvOut, MultiVector};

/// Who decides a block's size and basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockPolicy {
    /// Alg. 3 as published: the caller's `s` and basis throughout, nothing
    /// but `G` on the reduction, and a mid-block breakdown ends the solve.
    Fixed,
    /// The `spcg_adapt` controller, block by block. CA-PCG is the natural
    /// host for adaptivity: its only cross-block state is the five concrete
    /// vectors `x, r, u, q, p`, so both the block size `s` and the basis
    /// polynomial can change freely at block boundaries without touching
    /// the recurrence. Per block the solver feeds the controller three
    /// observables, all derived from already-allreduced scalars so every
    /// rank decides identically (SPMD control flow):
    ///
    /// * the **Gram conditioning** estimate — the symmetrized
    ///   `G = YᵀM⁻¹Y` is Cholesky-factored (the existing small-solve
    ///   kernel) and `cond(L)² ≈ cond(G)` classifies the block;
    /// * the **residual gap** `|‖b − Ax‖ − ‖r‖| / max(‖b − Ax‖, ‖r‖)`
    ///   between the true and the recurrence residual (observable under the
    ///   true-residual criterion, where `‖b − Ax‖` is already paid for);
    /// * the **running Ritz values** of `M⁻¹A`, harvested from the inner
    ///   loop's CG coefficients — when the estimated spectral interval
    ///   drifts past the basis' coverage, the basis (Chebyshev interval or
    ///   Newton–Leja shifts) and the MPK coefficients are rebuilt mid-solve
    ///   under a [`Phase::BasisRebuild`] span.
    ///
    /// Consensus words ride each block's Gram allreduce
    /// (`spcg_adapt::consensus`), verifying at run time that all ranks
    /// entered the block with the same `(s, rebuild)` decision — no extra
    /// collective. Mid-block breakdowns recover the iterate, shrink `s`,
    /// restart the direction vectors, and charge the same escalating budget
    /// (`charge_budget` in `crate::resilience`) the resilience driver uses,
    /// so adaptive shrink and stage-level shrink compose without
    /// double-charging.
    Adaptive,
}

/// A block's basis and everything whose shape follows `(basis, s)`: the MPK
/// coefficients, the change-of-basis matrix, and the basis blocks
/// `Y = [Q | R̂]`, `Z = [P | U]` kept as separate multivectors.
struct Block {
    basis: BasisType,
    s: usize,
    params: BasisParams,
    b_mat: DenseMat,
    q_mat: MultiVector,
    p_mat: MultiVector,
    r_mat: MultiVector,
    u_mat: MultiVector,
}

impl Block {
    fn new(n: usize, basis: &BasisType, s: usize) -> Self {
        let params = basis.params(s);
        Block {
            basis: basis.clone(),
            s,
            b_mat: b_capcg(&params, s),
            params,
            q_mat: MultiVector::zeros(n, s + 1),
            p_mat: MultiVector::zeros(n, s + 1),
            r_mat: MultiVector::zeros(n, s),
            u_mat: MultiVector::zeros(n, s),
        }
    }

    /// Re-derives the block after `basis` or `s` changed; the multivectors
    /// are re-allocated only for a new `s` (one at a time, so the peak is
    /// one block above steady state).
    fn reshape(&mut self, s: usize) {
        if s != self.s {
            let n = self.q_mat.n();
            self.s = s;
            self.q_mat = MultiVector::zeros(n, s + 1);
            self.p_mat = MultiVector::zeros(n, s + 1);
            self.r_mat = MultiVector::zeros(n, s);
            self.u_mat = MultiVector::zeros(n, s);
        }
        // Coefficients depend on both the basis and the degree.
        self.params = self.basis.params(s);
        self.b_mat = b_capcg(&self.params, s);
    }
}

/// State of [`BlockPolicy::Adaptive`].
struct Adaptive {
    ctrl: SController,
    monitor: SpectralMonitor,
    /// Iteration budget under the escalating charge (`charge_budget`), which
    /// bounds how often rejected or broken blocks can repeat.
    iters_left: usize,
    zero_streak: u32,
    s_schedule: Vec<usize>,
    shift_history: Vec<ShiftUpdate>,
    /// The rebuild half of the `(s, rebuild)` decision that shaped the
    /// *current* block, verified rank-identical on the block's own Gram
    /// allreduce.
    last_rebuild: bool,
}

impl Adaptive {
    fn new(opts: &SolveOptions, s0: usize) -> Self {
        let ctrl = SController::new(opts.adaptive.clone(), s0);
        Adaptive {
            s_schedule: vec![ctrl.s()],
            ctrl,
            monitor: SpectralMonitor::new(opts.adaptive.max_ritz),
            iters_left: opts.max_iters,
            zero_streak: 0,
            shift_history: Vec::new(),
            last_rebuild: false,
        }
    }

    fn charge(&mut self, ran: usize) {
        self.iters_left = charge_budget(self.iters_left, ran, &mut self.zero_streak);
    }

    /// Rebuilds `blk.basis` for a next block of size `s_next` if the running
    /// Ritz estimate warrants it; returns whether it did.
    fn retune(&mut self, blk: &mut Block, s_next: usize, at: usize, tr: Option<&Track>) -> bool {
        let est = self.monitor.ritz();
        let rebuild = self.ctrl.needs_rebuild(&blk.basis, est.as_ref());
        if rebuild {
            let _rb = spcg_obs::span(tr, Phase::BasisRebuild);
            let est = est.expect("needs_rebuild implies an estimate");
            blk.basis = self.ctrl.rebuild(&blk.basis, &est, s_next);
            self.shift_history.push(ShiftUpdate {
                iteration: at,
                basis: blk.basis.name().to_string(),
                lambda_min: est.lambda_min,
                lambda_max: est.lambda_max,
                ritz_count: est.ritz.len(),
            });
        }
        rebuild
    }

    /// Commits the `(s_next, rebuild)` decision for the next block.
    fn enter(&mut self, blk: &mut Block, s_next: usize, rebuild: bool) {
        self.last_rebuild = rebuild;
        if s_next != blk.s {
            self.s_schedule.push(s_next);
        }
        if s_next != blk.s || rebuild {
            blk.reshape(s_next);
        }
    }
}

/// The Alg. 3 loop over any execution substrate (see [`crate::engine`]);
/// under [`BlockPolicy::Adaptive`] `s0` and `basis0` are starting values.
pub(crate) fn capcg_g<E: Exec>(
    exec: &mut E,
    b: &[f64],
    s0: usize,
    basis0: &BasisType,
    policy: BlockPolicy,
    opts: &SolveOptions,
) -> SolveResult {
    assert!(s0 >= 2, "CA-PCG: s must be at least 2");
    let n = exec.nl();
    let nw = exec.n_global();
    let pk = exec.kernels().clone();
    let tr = exec.track().cloned();
    let mut counters = Counters::new();
    let mut stop = StopState::new(opts);

    let mut adapt = match policy {
        BlockPolicy::Fixed => None,
        BlockPolicy::Adaptive => Some(Adaptive::new(opts, s0)),
    };

    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    let mut u = vec![0.0; n];
    exec.precond(&r, &mut u, &mut counters);
    counters.record_precond(exec.m_flops());
    let mut q = r.clone();
    let mut p = u.clone();
    // After the five vectors, as ever: how the allocator reuses the blocks an
    // s change frees follows this order (≈1 MiB of peak RSS on `aniso_cheb`).
    let mut blk = Block::new(n, basis0, adapt.as_ref().map_or(s0, |ad| ad.ctrl.s()));

    let mut iterations = 0usize;
    let outcome = loop {
        let s = blk.s;
        let dim = 2 * s + 1;

        // --- the two s-step bases (2s−1 SpMVs, 2s−1 precond total) ---
        let (params, c) = (&blk.params, &mut counters);
        exec.mpk(&q, Some(&p), params, &mut blk.q_mat, &mut blk.p_mat, c);
        exec.mpk(&r, Some(&u), params, &mut blk.r_mat, &mut blk.u_mat, c);
        let partial = stop.partial(exec, b, &x, &r, &mut counters);

        // --- single global reduction: G = ZᵀY, (2s+1)² words; the adaptive
        //     policy's consensus words and recurrence-residual dot ride it ---
        let gram_span = spcg_obs::span(tr.as_ref(), Phase::Gram);
        let mut g = gram_concat(&pk, &blk.p_mat, &blk.u_mat, &blk.q_mat, &blk.r_mat);
        let mut extra = Vec::new();
        if let Some(ad) = &adapt {
            extra.extend(consensus::pack(s, ad.last_rebuild));
            extra.push(pk.dot(&r, &r));
        }
        counters.record_dots((dim * dim) as u64 + adapt.is_some() as u64, nw);
        let crit = allreduce_gram(exec, &mut [&mut g], &mut extra, partial, &mut counters);
        drop(gram_span);

        let mut cond = 0.0;
        if let Some(ad) = &adapt {
            let words = &extra[..consensus::WORDS];
            assert!(
                consensus::check(words, s, ad.last_rebuild) != consensus::Verdict::Disagree,
                "adaptive CA-PCG: rank decisions diverged (s = {s})"
            );

            // --- spectral monitor: conditioning of the direction-basis Gram
            //     G_qq = QᵀM⁻¹Q, the leading (s+1)×(s+1) block of G. (The
            //     full concatenated Gram is structurally singular — q and r
            //     share Krylov components, exactly so on the first block —
            //     while G_qq is SPD until the polynomial basis itself
            //     degenerates, which is precisely the event the controller
            //     watches for.) ---
            let _spect = spcg_obs::span(tr.as_ref(), Phase::SpectralEst);
            let bdim = s + 1;
            let g_qq = DenseMat::from_fn(bdim, bdim, |i, j| 0.5 * (g[(i, j)] + g[(j, i)]));
            cond = match Cholesky::factor(&g_qq) {
                Ok(chol) => chol.cond_estimate(),
                Err(_) => f64::INFINITY,
            };
            counters.small_flops += ((bdim * bdim * bdim) / 3) as u64;
        }

        // --- convergence check every s steps ---
        let rtu = g[(s + 1, s + 1)]; // uᵀr
        let value = match stop.block_check(iterations, rtu, crit) {
            Ok(value) => value,
            Err(outcome) => break outcome,
        };

        let mut health = BlockHealth::Healthy;
        if let Some(ad) = adapt.as_mut() {
            if ad.iters_left == 0 {
                break Outcome::MaxIterations;
            }
            // Residual gap: recurrence ‖r‖ vs true ‖b − Ax‖, both reduced.
            let gap = (opts.criterion == StoppingCriterion::TrueResidual2Norm).then(|| {
                let rr_norm = extra[consensus::WORDS].max(0.0).sqrt();
                (value - rr_norm).abs() / value.max(rr_norm).max(f64::MIN_POSITIVE)
            });
            health = ad.ctrl.classify(cond, gap);
            if health == BlockHealth::Reject {
                // The coordinate arithmetic of this block would be
                // numerically meaningless; skip the inner loop, shrink (the
                // escalating charge bounds how often this can repeat),
                // rebuild the basis if the monitor already has an interval,
                // and retry.
                ad.charge(0);
                let s_next = ad.ctrl.after_breakdown();
                let rebuild = ad.retune(&mut blk, s_next, iterations, tr.as_ref());
                if s_next == s && !rebuild {
                    break Outcome::Breakdown(format!(
                        "adaptive basis conditioning rejected at s_min: cond ≈ {cond:.3e}"
                    ));
                }
                ad.enter(&mut blk, s_next, rebuild);
                continue;
            }
        }

        // --- coordinate-space inner loop (no communication) ---
        let scalar_span = spcg_obs::span(tr.as_ref(), Phase::ScalarWork);
        let mut p_c = vec![0.0; dim];
        p_c[0] = 1.0;
        let mut r_c = vec![0.0; dim];
        r_c[s + 1] = 1.0;
        let mut x_c = vec![0.0; dim];
        let mut rho = quad_form(&g, &r_c, &r_c); // r'ᵀGr' = rᵀu
        let mut broke_at: Option<(usize, f64)> = None;
        for step in 0..s {
            let bp = blk.b_mat.matvec(&p_c);
            let gbp = g.matvec(&bp);
            let denom = blas::dot(&p_c, &gbp);
            if !(denom > 0.0) || !denom.is_finite() || !(rho > 0.0) || !rho.is_finite() {
                broke_at = Some((step, denom));
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
            if let Some(ad) = adapt.as_mut() {
                ad.monitor.observe(alpha, beta);
            }
        }
        // A block cut short is charged in full where the solve goes on past
        // it and not at all where it ends there.
        if broke_at.is_none() || adapt.is_some() {
            counters.small_flops += 8 * (dim * dim * s) as u64;
        }
        drop(scalar_span);

        if let Some((step, denom)) = broke_at {
            // Recover the mid-block iterate, then judge: breakdown at a
            // converged residual is convergence.
            gemv_concat_acc(&pk, &blk.p_mat, &blk.u_mat, &x_c, &mut x);
            gemv_concat(&pk, &blk.q_mat, &blk.r_mat, &r_c, &mut r);
            counters.blas2_flops += 2 * 2 * dim as u64 * nw;
            // The adaptive policy counts the completed inner steps (below);
            // the fixed one reports the block boundary its result carries.
            let at = iterations + if adapt.is_some() { step } else { 0 };
            let msg = format!(
                "coordinate-space curvature breakdown at inner step {step}: \
                 pᵀGBp = {denom}, rᵀGr = {rho}"
            );
            let c = &mut counters;
            let outcome = stop.resolve_breakdown(exec, b, at, &x, &r, rho, msg, c);
            let Some(ad) = adapt.as_mut().filter(|_| !outcome.converged()) else {
                break outcome;
            };
            // Shrink, restart the direction vectors from the recovered
            // residual, and keep going under the escalating budget.
            iterations += step;
            counters.iterations += step as u64;
            ad.charge(step);
            counters.restarts += 1;
            let restart_span = spcg_obs::span(tr.as_ref(), Phase::Restart);
            exec.precond(&r, &mut u, &mut counters);
            counters.record_precond(exec.m_flops());
            q.copy_from_slice(&r);
            p.copy_from_slice(&u);
            ad.monitor.reset();
            drop(restart_span);
            let s_next = ad.ctrl.after_breakdown();
            if ad.iters_left == 0 {
                break Outcome::MaxIterations;
            }
            ad.enter(&mut blk, s_next, false);
            continue;
        }

        // --- recover the full vectors (BLAS2, lines 14–16) ---
        let update_span = spcg_obs::span(tr.as_ref(), Phase::VecUpdate);
        // Each basis block is read once for all the vectors it yields.
        pk.gemv_multi(
            &[&blk.q_mat, &blk.r_mat],
            &mut [GemvOut::Set(&p_c, &mut q), GemvOut::Set(&r_c, &mut r)],
        );
        pk.gemv_multi(
            &[&blk.p_mat, &blk.u_mat],
            &mut [
                GemvOut::Set(&p_c, &mut p),
                GemvOut::Set(&r_c, &mut u),
                GemvOut::Acc(&x_c, &mut x),
            ],
        );
        counters.blas2_flops += 5 * 2 * dim as u64 * nw;
        drop(update_span);

        iterations += s;
        counters.iterations += s as u64;
        counters.outer_iterations += 1;

        // --- controller decision for the next block ---
        if let Some(ad) = adapt.as_mut() {
            ad.charge(s);
            let s_next = ad.ctrl.after_block(health);
            let rebuild = ad.retune(&mut blk, s_next, iterations, tr.as_ref());
            ad.enter(&mut blk, s_next, rebuild);
        }
    };

    let mut out = SolveResult::new(x, outcome, iterations, stop.history, counters);
    if let Some(ad) = adapt {
        out.restarts = out.counters.restarts as usize;
        out.s_schedule = ad.s_schedule;
        out.adaptive = Some(AdaptiveReport {
            shift_history: ad.shift_history,
            ritz: ad.monitor.ritz().map(|e| e.ritz).unwrap_or_default(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{Problem, StoppingCriterion};
    use crate::{solve, Engine::Serial, Method};
    use spcg_precond::{Identity, Jacobi};
    use spcg_sparse::generators::paper_rhs;
    use spcg_sparse::generators::poisson::{poisson_1d, poisson_2d};

    fn chebyshev_basis(problem: &Problem<'_>) -> BasisType {
        crate::setup::chebyshev_basis(problem, 20, 0.1)
    }

    #[test]
    fn monomial_small_s_solves_poisson() {
        let a = poisson_1d(64);
        let m = Identity::new(64);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = BasisType::Monomial;
        let opts = SolveOptions::from_env();
        let res = solve(&Method::CaPcg { s: 3, basis }, &problem, &opts, Serial);
        assert!(res.converged(), "{:?}", res.outcome);
        assert!(res.true_relative_residual(&a, &b) < 1e-8);
    }

    #[test]
    fn chebyshev_matches_pcg_iterations() {
        let a = poisson_2d(16);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = chebyshev_basis(&problem);
        let opts = SolveOptions::from_env();
        let r_pcg = solve(&Method::Pcg, &problem, &opts, Serial);
        let capcg = Method::CaPcg { s: 2, basis };
        for s in [2usize, 5, 10] {
            let res = solve(&capcg.with_s(s), &problem, &opts, Serial);
            assert!(res.converged(), "s={s}: {:?}", res.outcome);
            let cap = ((r_pcg.iterations + s) / s) * s + 2 * s;
            assert!(
                res.iterations <= cap,
                "s={s}: {} vs {}",
                res.iterations,
                r_pcg.iterations
            );
        }
    }

    #[test]
    fn costs_2s_minus_1_mv_and_precond_per_outer() {
        let a = poisson_2d(12);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let s = 4;
        let basis = chebyshev_basis(&problem);
        let opts = SolveOptions::from_env().with_criterion(StoppingCriterion::PrecondMNorm);
        let res = solve(&Method::CaPcg { s, basis }, &problem, &opts, Serial);
        assert!(res.converged());
        let outer = res.counters.outer_iterations;
        // Setup costs 1 precond; each outer (incl. final check) 2s−1 each.
        let per = (2 * s - 1) as u64;
        assert_eq!(res.counters.spmv_count, per * (outer + 1));
        assert_eq!(res.counters.precond_count, per * (outer + 1) + 1);
        assert_eq!(res.counters.global_collectives, outer + 1);
        let dim = (2 * s + 1) as u64;
        assert_eq!(res.counters.allreduce_words, dim * dim * (outer + 1));
    }

    #[test]
    fn monomial_s10_degrades_on_hard_problem() {
        use spcg_sparse::generators::random_spd::{spd_with_spectrum, SpectrumShape};
        let kappa = 1e5;
        let a = spd_with_spectrum(500, &SpectrumShape::Uniform { kappa }, 1.0, 3, 21);
        let m = Identity::new(a.nrows());
        // A rhs with uniform eigencomponent weights (unlike `paper_rhs`,
        // whose `b = A·x*` damps the small-eigenvalue components) so the
        // full κ difficulty is exposed to the basis conditioning.
        let n = a.nrows();
        let b = vec![1.0 / (n as f64).sqrt(); n];
        let problem = Problem::new(&a, &m, &b);
        // tol 1e-7: above the s-step attainable-accuracy floor at this κ
        // (at 1e-9 even the Chebyshev basis stalls — the behaviour the
        // paper's Table 2 hyphens record for its hardest matrices).
        let opts = SolveOptions::from_env().with_max_iters(8000).with_tol(1e-7);
        let r_pcg = solve(&Method::Pcg, &problem, &opts, Serial);
        assert!(r_pcg.converged());
        // The generator pins the spectrum to [1/κ, 1] exactly, so the
        // Chebyshev basis interval needs no Ritz estimation here.
        let basis = BasisType::Chebyshev {
            lambda_min: 1.0 / kappa,
            lambda_max: 1.0,
        };
        let cheb = Method::CaPcg { s: 10, basis };
        let mono = cheb.with_basis(BasisType::Monomial);
        let r_mono = solve(&mono, &problem, &opts, Serial);
        let r_cheb = solve(&cheb, &problem, &opts, Serial);
        assert!(
            r_cheb.converged(),
            "chebyshev should converge: {:?}",
            r_cheb.outcome
        );
        // Monomial either fails or is significantly delayed (Table 2's
        // CA-PCG column shows delays up to 3×).
        if r_mono.converged() {
            assert!(
                r_mono.iterations > r_cheb.iterations + 20,
                "monomial {} vs chebyshev {}",
                r_mono.iterations,
                r_cheb.iterations
            );
        }
    }

    #[test]
    fn respects_max_iters() {
        let a = poisson_2d(20);
        let m = Identity::new(a.nrows());
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env().with_tol(1e-15).with_max_iters(10);
        let basis = BasisType::Monomial;
        let res = solve(&Method::CaPcg { s: 5, basis }, &problem, &opts, Serial);
        assert!(matches!(
            res.outcome,
            Outcome::MaxIterations | Outcome::Stagnated
        ));
    }
}

#[cfg(test)]
mod adaptive_tests {
    use super::*;
    use crate::options::Problem;
    use crate::{solve, Engine::Serial, Method};
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
        let opts = SolveOptions::from_env();
        let fixed = Method::CaPcg { s: 4, basis };
        let basis = fixed.basis().unwrap().clone();
        let adaptive = Method::AdaptiveCaPcg { s: 4, basis };
        let res = solve(&adaptive, &problem, &opts, Serial);
        assert!(res.converged(), "{:?}", res.outcome);
        assert!(res.true_relative_residual(&a, &b) < 1e-7);
        let fixed = solve(&fixed, &problem, &opts, Serial);
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
        let opts = SolveOptions::from_env();
        let adaptive = Method::AdaptiveCaPcg { s: 4, basis };
        let res = solve(&adaptive, &problem, &opts, Serial);
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
        let opts = SolveOptions::from_env().with_max_iters(8000).with_tol(1e-7);
        assert!(solve(&Method::Pcg, &problem, &opts, Serial).converged());
        let basis = BasisType::Monomial;
        let r_mono = solve(&Method::CaPcg { s: 10, basis }, &problem, &opts, Serial);
        let basis = BasisType::Monomial;
        let adaptive = Method::AdaptiveCaPcg { s: 10, basis };
        let res = solve(&adaptive, &problem, &opts, Serial);
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
        let opts = SolveOptions::from_env().with_max_iters(8000).with_tol(1e-7);
        let basis = BasisType::Chebyshev {
            lambda_min: 1.0 / kappa,
            lambda_max: 1.0,
        };
        let r_cheb = solve(&Method::CaPcg { s: 10, basis }, &problem, &opts, Serial);
        assert!(r_cheb.converged());
        let basis = BasisType::Monomial;
        let adaptive = Method::AdaptiveCaPcg { s: 10, basis };
        let res = solve(&adaptive, &problem, &opts, Serial);
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
        let mut opts = SolveOptions::from_env().with_tol(1e-12);
        opts.adaptive = opts.adaptive.with_s_range(2, 8).with_grow_patience(2);
        let adaptive = Method::AdaptiveCaPcg { s: 2, basis };
        let res = solve(&adaptive, &problem, &opts, Serial);
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
        let opts = SolveOptions::from_env().with_tol(1e-15).with_max_iters(10);
        let basis = BasisType::Monomial;
        let adaptive = Method::AdaptiveCaPcg { s: 4, basis };
        let res = solve(&adaptive, &problem, &opts, Serial);
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
        let basis = BasisType::Monomial;
        let opts = SolveOptions::from_env();
        let adaptive = Method::AdaptiveCaPcg { s: 1, basis };
        let _ = solve(&adaptive, &problem, &opts, Serial);
    }
}
