//! The s-step PCG block body — the paper's Algorithms 5 and 6, the
//! Chronopoulos/Gear s-step PCG generalized to arbitrary polynomial bases —
//! and the three methods that are configurations of it.
//!
//! Per outer iteration (= s PCG-equivalent steps):
//!
//! 1. **MPK** builds `S^(k)` (`n × (s+1)`, basis of `K_{s+1}(AM⁻¹, r)`) and
//!    `U^(k) = M⁻¹S^(k)[:, :s]` — s SpMVs + s preconditioner applications,
//!    no global communication.
//! 2. `AU^(k) = S^(k)·B` via the tridiagonal change-of-basis matrix
//!    (eq. 9) — a local column combination, free for the monomial basis,
//!    formed tile by tile inside step 4 and never stored.
//! 3. **Scalar Work** (Alg. 6): **one global reduction** yields `m = Rᵀu`,
//!    `UᵀAU` and `D = P^(k-1)ᵀAU` (how: the crate-private `GramForm`). Then
//!    `W^(k-1)·B^(k) = −D` (A-orthogonality of consecutive blocks) and
//!    `W^(k)·a^(k) = m` are s×s solves replicated on every rank (how: the
//!    `GramSolve`).
//! 4. **Blocked updates** (BLAS3/BLAS2): `P ← U + P·B^(k)`,
//!    `AP ← AU + AP·B^(k)`, `x += P·a`, `r −= AP·a` — one pass over row
//!    tiles (`ParKernels::sstep_block_update`).
//! 5. Optional residual replacement ([`SolveOptions::residual_replacement`]).
//!
//! | Method | Gram form | Gram solve |
//! |---|---|---|
//! | sPCG (Alg. 5/6, [`crate::Method::SPcg`]) | `Direct` | `Cholesky` |
//! | sPCG_mon (Alg. 2, [`crate::Method::SPcgMon`]) | `Moments` | `Cholesky` |
//! | CA-PCG-GS (D'Ambra et al., [`crate::Method::CaPcgGs`]) | `Direct` | `GaussSeidel` |

use crate::blockops::{gram_stacked, sstep_update};
use crate::engine::{allreduce_gram, Exec};
use crate::options::{Outcome, SolveOptions, SolveResult};
use crate::stopping::StopState;
use spcg_adapt::consensus;
use spcg_basis::cob::b_small;
use spcg_basis::poly::BasisParams;
use spcg_basis::BasisType;
use spcg_dist::Counters;
use spcg_obs::{Phase, Track};
use spcg_sparse::smallsolve::{
    gs_solve, gs_solve_mat, solve_spd_mat_with_fallback, solve_spd_with_fallback, SolveError,
    GS_MAX_SWEEPS, GS_TOL,
};
use spcg_sparse::{DenseMat, MultiVector};

/// Consecutive blocks without a new best criterion value before the
/// Gauss-Seidel stall rescue fires (residual replacement + recurrence
/// restart). Healthy convergence sets a new best almost every block — even
/// the oscillating tail of a marginal run recovers within a block or two —
/// so a run of this many flat blocks reliably means the recurrence is
/// grinding noise.
const GS_STALL_BLOCKS: usize = 4;

/// How a block's single reduction yields `m`, `UᵀAU` and `D`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum GramForm<'a> {
    /// The stacked Gram `[UᵀS ; P^(k-1)ᵀS]` in one pass — a reduction of
    /// `2s(s+1)` words — with `UᵀAU = (UᵀS)·B` and `D = (P^(k-1)ᵀS)·B`
    /// formed locally, for any basis. Computing the blocks directly rather
    /// than via the moment vector is the small numerical edge §3.2 notes.
    Direct(&'a BasisType),
    /// The original monomial-only formulation (eq. 13): the 2s scalars
    /// `μ_l = rᵀ(M⁻¹A)^l u` are the only local reductions and
    /// `UᵀAU[i][j] = μ_{i+j+1}` is a Hankel matrix. Hankel moment matrices
    /// are notoriously ill-conditioned — this, on top of the monomial basis
    /// itself, is why sPCG_mon converges for almost none of the paper's
    /// Table-2 matrices. The original algorithm gets the cross term
    /// `−P^(k-1)ᵀAU^(k)` through a scalar recurrence in the moments and
    /// `a^(k-1)`; we compute the numerically equivalent Gram product
    /// directly but *charge its local work with the original algorithm's
    /// cost* (2s local reduction units per s steps — Table 1 row sPCG_mon);
    /// the one collective also carries the cross term (see DESIGN.md).
    Moments,
}

/// How the two replicated s×s systems of a block are solved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum GramSolve {
    /// Cholesky with an LU fallback, under [`Phase::SmallSolve`]. *Fails*
    /// on a Gram matrix that round-off has pushed out of positive
    /// definiteness — the breakdown class the resilience layer survives
    /// only by shrinking s.
    Cholesky,
    /// Seeded Gauss-Seidel under [`Phase::GramSweep`]: no pivot, it simply
    /// iterates. For every SPD matrix it converges; for the near-singular
    /// ones it returns the best fixed-point iterate its sweep cap allows,
    /// which keeps the outer Krylov recurrence moving at full s instead of
    /// aborting. Sweeps are seeded with the previous block's solution (the
    /// coefficient systems change slowly along the iteration), which
    /// typically cuts the sweep count severalfold once the method settles.
    ///
    /// Determinism contract: the Gram data entering the sweeps is replicated
    /// post-allreduce state, the sweep order is fixed, and the early exit is
    /// a pure function of that state — so every rank runs the *same* number
    /// of sweeps. That invariant is verified at run time by riding the two
    /// sweep counts of block `k` on block `k+1`'s Gram allreduce
    /// ([`consensus::pack_sweeps`]), costing zero extra collectives.
    GaussSeidel,
}

impl GramSolve {
    /// Runs this solver's arm on one Gram system: `(solution, sweeps)`,
    /// sweeps 0 for the direct solve. Gauss-Seidel cannot fail on a pivot,
    /// so a non-finite iterate is its breakdown signal.
    fn run<X>(
        self,
        tr: Option<&Track>,
        cholesky: impl FnOnce() -> Result<X, SolveError>,
        gauss_seidel: impl FnOnce() -> Result<(X, usize), SolveError>,
        finite: impl FnOnce(&X) -> bool,
    ) -> Result<(X, usize), String> {
        match self {
            GramSolve::Cholesky => {
                let _ss = spcg_obs::span(tr, Phase::SmallSolve);
                cholesky()
                    .map(|x| (x, 0))
                    .map_err(|e| format!("solve failed: {e}"))
            }
            GramSolve::GaussSeidel => {
                let solved = {
                    let _gs = spcg_obs::span(tr, Phase::GramSweep);
                    gauss_seidel()
                };
                match solved {
                    Ok((x, _)) if !finite(&x) => Err("Gauss-Seidel iterate is non-finite".into()),
                    Ok(v) => Ok(v),
                    Err(e) => Err(format!("Gauss-Seidel undefined: {e}")),
                }
            }
        }
    }
}

/// `r ← b − A·x` with its charges: one SpMV and one BLAS1 pass.
pub(crate) fn true_residual<E: Exec>(
    exec: &mut E,
    b: &[f64],
    x: &[f64],
    r: &mut [f64],
    counters: &mut Counters,
) {
    let mut ax = vec![0.0; exec.nl()];
    exec.spmv(x, &mut ax, counters);
    counters.record_spmv(exec.spmv_flops());
    exec.kernels().sub(b, &ax, r);
    counters.blas1_flops += exec.n_global();
}

/// The Alg. 5 loop over any execution substrate (see [`crate::engine`]).
pub(crate) fn sstep_g<E: Exec>(
    exec: &mut E,
    b: &[f64],
    s: usize,
    form: GramForm<'_>,
    solve: GramSolve,
    opts: &SolveOptions,
) -> SolveResult {
    assert!(s >= 1, "s-step PCG: s must be at least 1");
    let n = exec.nl();
    let nw = exec.n_global();
    let sw = s as u64;
    let pk = exec.kernels().clone();
    let tr = exec.track().cloned();
    let mut counters = Counters::new();
    let mut stop = StopState::new(opts);

    let params = match form {
        GramForm::Direct(basis) => basis.params(s),
        GramForm::Moments => BasisParams::monomial(s),
    };
    let b_cob = b_small(&params, s + 1); // (s+1) × s

    let mut x = vec![0.0; n];
    let mut r = b.to_vec(); // x0 = 0

    let mut s_mat = MultiVector::zeros(n, s + 1);
    let mut u_mat = MultiVector::zeros(n, s);
    let mut p_mat = MultiVector::zeros(n, s);
    let mut ap_mat = MultiVector::zeros(n, s);
    let mut w_prev: Option<DenseMat> = None;
    // Gauss-Seidel warm-start seeds: previous block's coefficient solutions.
    let mut b_seed: Option<DenseMat> = None;
    let mut a_seed: Option<Vec<f64>> = None;
    // Sweep counts of the previous block, awaiting consensus verification
    // on this block's allreduce.
    let mut prev_sweeps: Option<(usize, usize)> = None;
    // Residual-replacement state: ‖r‖² at the last replacement.
    let mut rr_anchor: Option<f64> = None;
    // Stall-rescue state: best criterion value seen and the run of blocks
    // without a new best.
    let mut best_val = f64::INFINITY;
    let mut stall_blocks = 0usize;
    let mut restarts = 0usize;

    let mut iterations = 0usize;
    let outcome = loop {
        // --- s-step basis (neighbour communication only) ---
        exec.mpk(&r, None, &params, &mut s_mat, &mut u_mat, &mut counters);
        // The criterion's partial of the block's starting iterate.
        let partial = stop.partial(exec, b, &x, &r, &mut counters);

        // --- the single global reduction ---
        let gram_span = spcg_obs::span(tr.as_ref(), Phase::Gram);
        let p_prev = w_prev.as_ref().map(|_| &p_mat);
        // `grams` then `extra` is the reduction buffer: Direct carries
        // [UᵀS, PᵀS] and no scalars, Moments [PᵀS] and the 2s moments.
        let (mut grams, mut extra, dots) = match form {
            GramForm::Direct(_) => {
                // Both s × (s+1) blocks from one pass over S.
                let (g1, g2) = gram_stacked(&pk, &u_mat, p_prev, &s_mat);
                let blocks = 1 + g2.is_some() as u64;
                let grams: Vec<DenseMat> = std::iter::once(g1).chain(g2).collect();
                (grams, Vec::new(), blocks * sw * (sw + 1))
            }
            GramForm::Moments => {
                // μ_l = (S col i)ᵀ(U col l−i) for any split; take i = min(l, s):
                // S₀..S_{s−1} against U₀, then U₀..U_{s−1} against S_s — two
                // passes over the columns instead of 2s, each entry reduced
                // in the shape of a dot product.
                let scols: Vec<&[f64]> = (0..s).map(|l| s_mat.col(l)).collect();
                let ucols: Vec<&[f64]> = (0..s).map(|l| u_mat.col(l)).collect();
                let low = pk.gram_cols(n, &scols, &[u_mat.col(0)]);
                let high = pk.gram_cols(n, &ucols, &[s_mat.col(s)]);
                let moments = [low.data(), high.data()].concat();
                // The cross-term Gram (original: moment recurrence — see
                // module docs; its local work charged as the moments only).
                let g2 = p_prev.map(|p| pk.gram(p, &s_mat));
                (g2.into_iter().collect(), moments, 2 * sw)
            }
        };
        counters.record_dots(dots, nw);
        if let Some((sb, sa)) = prev_sweeps {
            extra.extend(consensus::pack_sweeps(sb, sa));
        }
        let mut mats: Vec<_> = grams.iter_mut().collect();
        let crit = allreduce_gram(exec, &mut mats, &mut extra, partial, &mut counters);
        drop(gram_span);
        if let Some((sb, sa)) = prev_sweeps.take() {
            let reduced = &extra[extra.len() - consensus::SWEEP_WORDS..];
            // A poisoned reduction also poisons the Gram matrices; the
            // finiteness checks below own that path.
            assert!(
                consensus::check_sweeps(reduced, sb, sa) != consensus::Verdict::Disagree,
                "s-step PCG: Gauss-Seidel sweep counts diverged across ranks \
                 (local ({sb}, {sa}), reduced {reduced:?}) — \
                 the replicated-Gram determinism contract is broken"
            );
        }

        // --- convergence check every s steps ---
        // rᵀu is the (0,0) Gram entry / the zeroth moment (m-vector head) —
        // free for the M-norm.
        let rtu = match form {
            GramForm::Direct(_) => grams[0][(0, 0)],
            GramForm::Moments => extra[0],
        };
        let value = match stop.block_check(iterations, rtu, crit) {
            Ok(value) => value,
            Err(outcome) => break outcome,
        };

        // --- Gauss-Seidel stall rescue ---
        // At the method's accuracy floor the recursively updated residual
        // drifts from `b − A·x` and the blocks optimize a phantom; the
        // Cholesky path's pivoted-LU noise happens to wander below tight
        // tolerances, the bounded minimal-residual sweeps do not. When a
        // run of blocks produces no new best criterion value, replace the
        // residual with the true one and cold-restart the block recurrence
        // (one extra SpMV). Keyed off the replicated criterion value, so
        // every rank restarts at the same block.
        if solve == GramSolve::GaussSeidel {
            if value < best_val {
                best_val = value;
                stall_blocks = 0;
            } else {
                stall_blocks += 1;
                if stall_blocks >= GS_STALL_BLOCKS {
                    stall_blocks = 0;
                    true_residual(exec, b, &x, &mut r, &mut counters);
                    w_prev = None;
                    b_seed = None;
                    a_seed = None;
                    restarts += 1;
                    // Regenerate the basis from the replaced residual; this
                    // block's Gram work is discarded (its sweeps never ran,
                    // so the consensus chain is unaffected).
                    continue;
                }
            }
        }

        // --- Scalar Work (Alg. 6), replicated O(s³) on each rank ---
        let scalar_span = spcg_obs::span(tr.as_ref(), Phase::ScalarWork);
        // m = Rᵀu, UᵀAU (s × s), and D = P^(k-1)ᵀAU after the first block.
        let (m_vec, uau, d) = match form {
            GramForm::Direct(_) => (
                grams[0].col(0),
                grams[0].matmul(&b_cob),
                grams.get(1).map(|g2| g2.matmul(&b_cob)),
            ),
            GramForm::Moments => (
                extra[..s].to_vec(),
                DenseMat::from_fn(s, s, |i, j| extra[i + j + 1]), // Hankel
                // Monomial B is the down-shift: (G2·B)[i][j] = G2[i][j+1].
                grams
                    .first()
                    .map(|g2| DenseMat::from_fn(s, s, |i, j| g2[(i, j + 1)])),
            ),
        };
        let (b_k, mut w, sweeps_b) = match (&w_prev, d) {
            (Some(wp), Some(d)) => {
                let mut rhs = d.clone();
                rhs.scale(-1.0);
                let solved = solve.run(
                    tr.as_ref(),
                    || solve_spd_mat_with_fallback(wp, &rhs),
                    || gs_solve_mat(wp, &rhs, b_seed.as_ref(), GS_MAX_SWEEPS, GS_TOL),
                    |b_k| !b_k.has_non_finite(),
                );
                let (b_k, sweeps) = match solved {
                    Ok(v) => v,
                    Err(e) => break Outcome::Breakdown(format!("W^(k-1) {e}")),
                };
                // W = UᵀAU + Dᵀ·B^(k)  (Alg. 6 line 6).
                let mut w = uau;
                w.axpy(1.0, &d.transpose().matmul(&b_k));
                (Some(b_k), w, sweeps)
            }
            _ => (None, uau, 0),
        };
        w.symmetrize();
        if solve == GramSolve::Cholesky {
            // Known before the second solve runs, and owed even if it fails.
            counters.small_flops += 4 * sw * sw * sw;
        }
        if w.has_non_finite() {
            break Outcome::Breakdown("non-finite Gram data".into());
        }
        let solved = solve.run(
            tr.as_ref(),
            || solve_spd_with_fallback(&w, &m_vec),
            || gs_solve(&w, &m_vec, a_seed.as_deref(), GS_MAX_SWEEPS, GS_TOL),
            |a| a.iter().all(|v| v.is_finite()),
        );
        let (a_vec, sweeps_a) = match solved {
            Ok(v) => v,
            Err(e) => break Outcome::Breakdown(format!("W^(k) {e}")),
        };
        if solve == GramSolve::GaussSeidel {
            // One GS sweep costs ~2s² FLOPs per right-hand-side column.
            counters.small_flops += 2 * sw * sw * (sweeps_b as u64 * sw + sweeps_a as u64);
            prev_sweeps = Some((sweeps_b, sweeps_a));
        }
        drop(scalar_span);

        // --- AU = S·B and the blocked updates, one pass over row tiles
        // (monomial AU is the last s columns of S: its tile is a copy and
        // costs nothing) ---
        let update_span = spcg_obs::span(tr.as_ref(), Phase::VecUpdate);
        sstep_update(
            &pk,
            &params,
            &s_mat,
            &u_mat,
            b_k.as_ref(),
            &a_vec,
            &mut p_mat,
            &mut ap_mat,
            &mut x,
            &mut r,
            nw,
            &mut counters,
        );
        drop(update_span);

        // Residual replacement (Carson & Demmel): once the recursive
        // residual has shrunk far enough, re-anchor it to b − A·x so the
        // recursion's accumulated drift cannot cap the attainable accuracy.
        if let Some(factor) = opts.residual_replacement {
            let mut red = [pk.dot(&r, &r)];
            exec.allreduce(&mut red, &mut counters);
            let rr = red[0];
            counters.record_dots(1, nw);
            let anchor = *rr_anchor.get_or_insert(rr);
            if rr <= factor * factor * anchor {
                true_residual(exec, b, &x, &mut r, &mut counters);
                let mut red = [pk.dot(&r, &r)];
                exec.allreduce(&mut red, &mut counters);
                rr_anchor = Some(red[0]);
            }
        }

        b_seed = b_k;
        a_seed = Some(a_vec);
        w_prev = Some(w);
        iterations += s;
        counters.iterations += sw;
        counters.outer_iterations += 1;
    };

    SolveResult {
        restarts,
        ..SolveResult::new(x, outcome, iterations, stop.history, counters)
    }
}

#[cfg(test)]
mod spcg_tests {
    use super::*;
    use crate::options::{Problem, StoppingCriterion};
    use crate::{solve, Engine::Serial, Method};
    use spcg_basis::ritz::estimate_spectrum;
    use spcg_precond::{Identity, Jacobi, Preconditioner};
    use spcg_sparse::generators::paper_rhs;
    use spcg_sparse::generators::poisson::{poisson_1d, poisson_2d};

    fn chebyshev_basis(problem: &Problem<'_>) -> BasisType {
        crate::setup::chebyshev_basis(problem, 20, 0.1)
    }

    #[test]
    fn small_s_monomial_solves_easy_poisson() {
        let a = poisson_1d(64);
        let m = Identity::new(64);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = BasisType::Monomial;
        let opts = SolveOptions::from_env();
        let res = solve(&Method::SPcg { s: 2, basis }, &problem, &opts, Serial);
        assert!(res.converged(), "{:?}", res.outcome);
        assert!(res.true_relative_residual(&a, &b) < 1e-8);
    }

    #[test]
    fn chebyshev_basis_matches_pcg_iterations() {
        let a = poisson_2d(16);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = chebyshev_basis(&problem);
        // tol 1e-7 keeps the comparison above the s-step attainable-accuracy
        // floor, which at s = 8 sits near 1e-9 relative on this problem.
        let opts = SolveOptions::from_env().with_tol(1e-7);
        let r_pcg = solve(&Method::Pcg, &problem, &opts, Serial);
        let spcg = Method::SPcg { s: 2, basis };
        for s in [2usize, 4, 8] {
            let r_s = solve(&spcg.with_s(s), &problem, &opts, Serial);
            assert!(r_s.converged(), "s={s}: {:?}", r_s.outcome);
            // s-step methods check every s steps: allow the s-rounding plus
            // a small slack (the paper's "not significant" margin).
            let cap = ((r_pcg.iterations + s) / s) * s + 2 * s;
            assert!(
                r_s.iterations <= cap,
                "s={s}: sPCG took {} vs PCG {}",
                r_s.iterations,
                r_pcg.iterations
            );
        }
    }

    #[test]
    fn newton_basis_converges() {
        let a = poisson_2d(12);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let est = estimate_spectrum(&a, problem.m, &b, 24);
        let shifts = spcg_basis::leja::newton_shifts(&est.ritz, 6);
        let opts = SolveOptions::from_env().with_tol(1e-7);
        let basis = BasisType::Newton { shifts };
        let res = solve(&Method::SPcg { s: 6, basis }, &problem, &opts, Serial);
        assert!(res.converged(), "{:?}", res.outcome);
        assert!(res.true_relative_residual(&a, &b) < 1e-6);
    }

    #[test]
    fn one_collective_per_outer_iteration() {
        let a = poisson_2d(14);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = chebyshev_basis(&problem);
        let opts = SolveOptions::from_env().with_criterion(StoppingCriterion::PrecondMNorm);
        let res = solve(&Method::SPcg { s: 5, basis }, &problem, &opts, Serial);
        assert!(res.converged());
        // One reduction per outer iteration, including the final check-only
        // iteration.
        let outer = res.counters.outer_iterations;
        assert_eq!(res.counters.global_collectives, outer + 1);
        // s SpMVs and s preconds per outer iteration (+ the final check).
        assert_eq!(res.counters.spmv_count, 5 * (outer + 1));
        assert_eq!(res.counters.precond_count, 5 * (outer + 1));
    }

    #[test]
    fn counters_match_table1_row() {
        // Table 1, sPCG row: per s steps, local reductions 2s(s+1) dots,
        // monomial-basis vector ops 4s² + 4s FLOPs/n (BLAS2+BLAS3).
        let a = poisson_2d(14);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let s = 4usize;
        let basis = chebyshev_basis(&problem);
        let opts = SolveOptions::from_env().with_criterion(StoppingCriterion::PrecondMNorm);
        let res = solve(&Method::SPcg { s, basis }, &problem, &opts, Serial);
        assert!(res.converged());
        let outer = res.counters.outer_iterations;
        assert!(outer >= 2);
        let n = problem.n() as u64;
        let sw = s as u64;
        // Dots: first outer has s(s+1), later ones 2s(s+1); plus the final
        // check-only Gram of s(s+1)... conservatively bound both sides.
        let dots = res.counters.dot_count;
        assert!(dots >= 2 * sw * (sw + 1) * (outer - 1));
        assert!(dots <= 2 * sw * (sw + 1) * (outer + 1));
        // BLAS3: 4s²n per outer iteration after the first.
        assert_eq!(res.counters.blas3_flops, 4 * sw * sw * n * (outer - 1));
        // BLAS2: 4sn per outer + the S·B application (bounded by (5s−2)n).
        assert!(res.counters.blas2_flops >= 4 * sw * n * outer);
        assert!(res.counters.blas2_flops <= (4 * sw + 5 * sw) * n * (outer + 1));
    }

    #[test]
    fn monomial_high_s_fails_on_hard_problem() {
        // The headline instability: monomial basis with s = 10 on an
        // ill-conditioned problem must NOT converge like PCG does.
        use spcg_sparse::generators::random_spd::{spd_with_spectrum, SpectrumShape};
        let a = spd_with_spectrum(600, &SpectrumShape::Uniform { kappa: 1e6 }, 1.0, 3, 5);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env().with_max_iters(4000);
        let r_pcg = solve(&Method::Pcg, &problem, &opts, Serial);
        assert!(
            r_pcg.converged(),
            "baseline PCG should converge: {:?}",
            r_pcg.outcome
        );
        let basis = BasisType::Monomial;
        let r_mono = solve(&Method::SPcg { s: 10, basis }, &problem, &opts, Serial);
        assert!(
            !r_mono.converged() || r_mono.iterations > 2 * r_pcg.iterations,
            "monomial s=10 unexpectedly healthy: {:?} in {}",
            r_mono.outcome,
            r_mono.iterations
        );
        // And the Chebyshev basis repairs it.
        let basis = chebyshev_basis(&problem);
        let r_cheb = solve(&Method::SPcg { s: 10, basis }, &problem, &opts, Serial);
        assert!(
            r_cheb.converged(),
            "chebyshev basis should fix it: {:?}",
            r_cheb.outcome
        );
    }

    #[test]
    fn s_equal_one_still_works() {
        let a = poisson_1d(40);
        let m = Identity::new(40);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = BasisType::Monomial;
        let opts = SolveOptions::from_env();
        let res = solve(&Method::SPcg { s: 1, basis }, &problem, &opts, Serial);
        assert!(res.converged(), "{:?}", res.outcome);
    }

    #[test]
    fn respects_max_iters() {
        let a = poisson_2d(20);
        let m = Identity::new(a.nrows());
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env().with_tol(1e-15).with_max_iters(20);
        let basis = BasisType::Monomial;
        let res = solve(&Method::SPcg { s: 5, basis }, &problem, &opts, Serial);
        assert!(matches!(
            res.outcome,
            Outcome::MaxIterations | Outcome::Stagnated
        ));
        assert!(res.iterations <= 20);
    }

    #[test]
    fn identity_preconditioner_and_jacobi_agree_on_unit_diagonal() {
        // For a matrix with unit diagonal, Jacobi == identity; solver paths
        // must give bit-identical iterates.
        let mut a = poisson_1d(30);
        a.scale(0.5); // diagonal becomes 1.0
        let b = paper_rhs(&a);
        let ident = Identity::new(30);
        let jac = Jacobi::new(&a);
        assert_eq!(jac.apply_alloc(&b), ident.apply_alloc(&b));
        let p1 = Problem::new(&a, &ident, &b);
        let p2 = Problem::new(&a, &jac, &b);
        let basis = BasisType::Monomial;
        let opts = SolveOptions::from_env();
        let spcg = Method::SPcg { s: 3, basis };
        let r1 = solve(&spcg, &p1, &opts, Serial);
        let r2 = solve(&spcg, &p2, &opts, Serial);
        assert_eq!(r1.iterations, r2.iterations);
        assert_eq!(r1.x, r2.x);
    }
}

#[cfg(test)]
mod residual_replacement_tests {
    use super::*;
    use crate::options::{Problem, StoppingCriterion};
    use crate::{solve, Engine::Serial, Method};
    use spcg_precond::Jacobi;
    use spcg_sparse::generators::paper_rhs;
    use spcg_sparse::generators::poisson::poisson_3d;

    #[test]
    fn replacement_converges_and_charges_extra_spmvs() {
        let a = poisson_3d(10);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = crate::setup::chebyshev_basis(&problem, 20, 0.05);
        let base = SolveOptions::from_env()
            .with_criterion(StoppingCriterion::PrecondMNorm)
            .with_tol(1e-8);
        let spcg = Method::SPcg { s: 5, basis };
        let plain = solve(&spcg, &problem, &base, Serial);
        let replacing = base.clone().with_residual_replacement(1e-3);
        let rr = solve(&spcg, &problem, &replacing, Serial);
        assert!(plain.converged() && rr.converged());
        // Replacement costs at least one extra SpMV per replacement event.
        assert!(rr.counters.spmv_count > plain.counters.spmv_count);
        // And the final true residual is at least as good.
        assert!(rr.true_relative_residual(&a, &b) < 1e-6);
    }

    #[test]
    fn replacement_improves_or_matches_attainable_accuracy() {
        // Deep-tolerance run where the recursive residual drifts: the
        // replaced variant must reach at least the same true accuracy.
        let a = poisson_3d(12);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = crate::setup::chebyshev_basis(&problem, 20, 0.05);
        let opts = SolveOptions::from_env()
            .with_criterion(StoppingCriterion::PrecondMNorm)
            .with_tol(1e-10)
            .with_max_iters(2000);
        let spcg = Method::SPcg { s: 8, basis };
        let plain = solve(&spcg, &problem, &opts, Serial);
        let replacing = opts.clone().with_residual_replacement(1e-2);
        let rr = solve(&spcg, &problem, &replacing, Serial);
        let tp = plain.true_relative_residual(&a, &b);
        let tr = rr.true_relative_residual(&a, &b);
        assert!(
            tr <= tp * 10.0,
            "replacement degraded accuracy: {tr:.2e} vs {tp:.2e}"
        );
    }
}

#[cfg(test)]
mod spcg_mon_tests {
    use super::*;
    use crate::options::{Problem, StoppingCriterion};
    use crate::{solve, Engine::Serial, Method};
    use spcg_precond::{Identity, Jacobi};
    use spcg_sparse::generators::paper_rhs;
    use spcg_sparse::generators::poisson::{poisson_1d, poisson_2d};

    #[test]
    fn converges_for_small_s_on_easy_problem() {
        let a = poisson_2d(12);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env();
        let r_pcg = solve(&Method::Pcg, &problem, &opts, Serial);
        for s in [2usize, 3] {
            let res = solve(&Method::SPcgMon { s }, &problem, &opts, Serial);
            assert!(res.converged(), "s={s}: {:?}", res.outcome);
            let cap = ((r_pcg.iterations + s) / s) * s + 2 * s;
            assert!(
                res.iterations <= cap,
                "s={s}: {} vs PCG {}",
                res.iterations,
                r_pcg.iterations
            );
        }
    }

    #[test]
    fn agrees_with_spcg_monomial_in_easy_regime() {
        // Mathematically identical methods: on a well-conditioned problem
        // the iterates coincide to high precision.
        let a = poisson_1d(48);
        let m = Identity::new(48);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env();
        let r1 = solve(&Method::SPcgMon { s: 3 }, &problem, &opts, Serial);
        let basis = BasisType::Monomial;
        let r2 = solve(&Method::SPcg { s: 3, basis }, &problem, &opts, Serial);
        assert!(r1.converged() && r2.converged());
        assert_eq!(r1.iterations, r2.iterations);
        for (p, q) in r1.x.iter().zip(&r2.x) {
            assert!((p - q).abs() < 1e-7, "{p} vs {q}");
        }
    }

    #[test]
    fn moment_collective_is_2s_words() {
        let a = poisson_2d(10);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let s = 4;
        let opts = SolveOptions::from_env().with_criterion(StoppingCriterion::PrecondMNorm);
        let res = solve(&Method::SPcgMon { s }, &problem, &opts, Serial);
        assert!(res.converged());
        let (outer, s) = (res.counters.outer_iterations, s as u64);
        assert_eq!(res.counters.global_collectives, outer + 1);
        // 2s moment words a block, and from the second block on the
        // s × (s+1) cross-term Gram riding the same reduction.
        let words = 2 * s * (outer + 1) + s * (s + 1) * outer;
        assert_eq!(res.counters.allreduce_words, words);
        assert_eq!(res.counters.dot_count, 2 * s * (outer + 1));
    }

    #[test]
    fn honours_residual_replacement() {
        // The moment form runs the same replacement step as sPCG: with a
        // factor set the solve pays at least one extra SpMV.
        let a = spcg_sparse::generators::poisson::poisson_3d(10);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let base = SolveOptions::from_env()
            .with_criterion(StoppingCriterion::PrecondMNorm)
            .with_tol(1e-8);
        let plain = solve(&Method::SPcgMon { s: 3 }, &problem, &base, Serial);
        let replacing = base.clone().with_residual_replacement(1e-3);
        let rr = solve(&Method::SPcgMon { s: 3 }, &problem, &replacing, Serial);
        assert!(plain.converged() && rr.converged());
        assert!(rr.counters.spmv_count > plain.counters.spmv_count);
        assert!(rr.true_relative_residual(&a, &b) < 1e-6);
    }

    #[test]
    fn large_s_collapses_where_pcg_succeeds() {
        use spcg_sparse::generators::random_spd::{spd_with_spectrum, SpectrumShape};
        let a = spd_with_spectrum(500, &SpectrumShape::Uniform { kappa: 1e5 }, 1.0, 3, 11);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env().with_max_iters(3000);
        assert!(solve(&Method::Pcg, &problem, &opts, Serial).converged());
        let res = solve(&Method::SPcgMon { s: 10 }, &problem, &opts, Serial);
        assert!(
            !res.converged(),
            "monomial s=10 should fail here, got {:?}",
            res.outcome
        );
    }
}

#[cfg(test)]
mod capcg_gs_tests {
    use super::*;
    use crate::options::{Problem, StoppingCriterion};
    use crate::{solve, Engine::Serial, Method};
    use spcg_precond::{Identity, Jacobi};
    use spcg_sparse::generators::paper_rhs;
    use spcg_sparse::generators::poisson::{poisson_1d, poisson_2d};

    #[test]
    fn small_s_monomial_solves_easy_poisson() {
        let a = poisson_1d(64);
        let m = Identity::new(64);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = BasisType::Monomial;
        let opts = SolveOptions::from_env();
        let res = solve(&Method::CaPcgGs { s: 2, basis }, &problem, &opts, Serial);
        assert!(res.converged(), "{:?}", res.outcome);
        assert!(res.true_relative_residual(&a, &b) < 1e-8);
    }

    #[test]
    fn matches_spcg_iterations_on_well_conditioned_problem() {
        // With a well-conditioned Gram system the GS inner solve hits its
        // 1e-14 early exit in a handful of sweeps, so the outer iteration
        // count should match the Cholesky path closely.
        let a = poisson_2d(16);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = crate::setup::chebyshev_basis(&problem, 20, 0.1);
        let opts = SolveOptions::from_env().with_tol(1e-7);
        let spcg = Method::SPcg { s: 2, basis };
        for s in [2usize, 4, 8] {
            let r_ch = solve(&spcg.with_s(s), &problem, &opts, Serial);
            let gs = spcg.with_s(s).gs_analogue().unwrap();
            let r_gs = solve(&gs, &problem, &opts, Serial);
            assert!(r_gs.converged(), "s={s}: {:?}", r_gs.outcome);
            assert!(
                r_gs.iterations <= r_ch.iterations + 2 * s,
                "s={s}: GS took {} vs Cholesky {}",
                r_gs.iterations,
                r_ch.iterations
            );
        }
    }

    #[test]
    fn one_collective_per_outer_iteration() {
        let a = poisson_2d(14);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = crate::setup::chebyshev_basis(&problem, 20, 0.1);
        let opts = SolveOptions::from_env().with_criterion(StoppingCriterion::PrecondMNorm);
        let res = solve(&Method::CaPcgGs { s: 5, basis }, &problem, &opts, Serial);
        assert!(res.converged());
        let outer = res.counters.outer_iterations;
        // Sweep-consensus words ride on the existing reduction: still one
        // collective per outer iteration (+ the final check-only one).
        assert_eq!(res.counters.global_collectives, outer + 1);
        assert_eq!(res.counters.spmv_count, 5 * (outer + 1));
    }

    #[test]
    fn charges_gram_sweep_flops() {
        let a = poisson_2d(12);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = BasisType::Monomial;
        let opts = SolveOptions::from_env();
        let res = solve(&Method::CaPcgGs { s: 4, basis }, &problem, &opts, Serial);
        assert!(res.converged(), "{:?}", res.outcome);
        assert!(res.counters.small_flops > 0, "GS sweeps must be charged");
    }

    #[test]
    fn s_equal_one_still_works() {
        let a = poisson_1d(40);
        let m = Identity::new(40);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = BasisType::Monomial;
        let opts = SolveOptions::from_env();
        let res = solve(&Method::CaPcgGs { s: 1, basis }, &problem, &opts, Serial);
        assert!(res.converged(), "{:?}", res.outcome);
    }

    #[test]
    fn respects_max_iters() {
        let a = poisson_2d(20);
        let m = Identity::new(a.nrows());
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env().with_tol(1e-15).with_max_iters(20);
        let basis = BasisType::Monomial;
        let res = solve(&Method::CaPcgGs { s: 5, basis }, &problem, &opts, Serial);
        assert!(matches!(
            res.outcome,
            Outcome::MaxIterations | Outcome::Stagnated
        ));
        assert!(res.iterations <= 20);
    }
}
