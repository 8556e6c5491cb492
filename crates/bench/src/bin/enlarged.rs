//! Acceptance sweep for the enlarged-Krylov family. Emits
//! `BENCH_enlarged.json` with two sections:
//!
//! **Survival** — on the uniform-spectrum SPD problem (n = 600, κ = 1e6,
//! the breakdown matrix the spcg unit tests pin) it runs the monomial
//! basis at s ∈ {4, 6, 8, 10, 12, 16} through both Gram-solve paths: the
//! Cholesky-factored s-step solver (`Method::SPcg`) and the Gauss-Seidel
//! path (`Method::CaPcgGs`). The interesting regime is s ≥ 8, where the
//! moment matrices are numerically singular: the Cholesky path stalls or
//! diverges while the GS path — minimal-residual inner solves plus
//! stall-triggered recurrence restarts — still reaches the tolerance at
//! s = 10 and s = 12 (at s = 16 the monomial basis is too far gone for
//! either path; no silent cap, the sweep records the failure).
//!
//! **EkCG** — on the anisotropic acceptance problem (2D diffusion
//! `-(0.1·u_xx + u_yy)` on a 48×48 grid, seeded random rhs, Jacobi,
//! tol 1e-12) it runs `Method::EkCg` at t ∈ {2, 4, 8} against the PCG
//! baseline. Measured ratios on this problem: t = 2 → 0.79×, t = 4 →
//! 0.62×, t = 8 → 0.48× PCG iterations. Iteration counts are bitwise
//! deterministic, so the gate margins are thin by design.
//!
//! Run: `cargo run --release -p spcg-bench --bin enlarged`
//! (`SPCG_QUICK=1` restricts the survival sweep to s ∈ {8, 10}; the EkCG
//! sweep always runs in full — it is the acceptance point benchcheck
//! gates on.)
//!
//! `benchcheck` gates the emitted file (see `check_enlarged_gate`): the
//! GS path must converge at ≥ 1 s where the Cholesky path fails, and the
//! EkCG ratios must hold t = 4 ≤ 0.65× and t = 8 ≤ 0.6× PCG.

use spcg_basis::BasisType;
use spcg_bench::{quick_mode, write_results};
use spcg_precond::Jacobi;
use spcg_solvers::{solve, Engine, Method, Problem, SolveOptions};
use spcg_sparse::generators::anisotropic::anisotropic_2d;
use spcg_sparse::generators::paper_rhs;
use spcg_sparse::generators::random_spd::{spd_with_spectrum, SpectrumShape};
use spcg_sparse::rng::Rng64;

const SURVIVAL_N: usize = 600;
const SURVIVAL_KAPPA: f64 = 1e6;
const SURVIVAL_TOL: f64 = 1e-6;
const SURVIVAL_MAX_ITERS: usize = 4000;

const EKCG_M: usize = 48;
const EKCG_EPS: f64 = 0.1;
const EKCG_TOL: f64 = 1e-12;

fn fmt(values: &[f64]) -> String {
    let cells: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", cells.join(", "))
}

fn main() {
    // --- Survival sweep: Cholesky vs Gauss-Seidel Gram solves. ---
    let s_values: &[usize] = if quick_mode() {
        &[8, 10]
    } else {
        &[4, 6, 8, 10, 12, 16]
    };
    let a = spd_with_spectrum(
        SURVIVAL_N,
        &SpectrumShape::Uniform {
            kappa: SURVIVAL_KAPPA,
        },
        1.0,
        3,
        5,
    );
    let m = Jacobi::new(&a);
    let b = paper_rhs(&a);
    let problem = Problem::new(&a, &m, &b);
    let opts = SolveOptions::default()
        .with_tol(SURVIVAL_TOL)
        .with_max_iters(SURVIVAL_MAX_ITERS);

    let mut chol_iters = Vec::new();
    let mut chol_conv = Vec::new();
    let mut gs_iters = Vec::new();
    let mut gs_conv = Vec::new();
    let mut gs_restarts = Vec::new();
    for &s in s_values {
        let basis = BasisType::Monomial;
        let chol = Method::SPcg { s, basis };
        let rc = solve(&chol, &problem, &opts, Engine::Serial);
        let gs = chol.gs_analogue().expect("sPCG has a GS analogue");
        let rg = solve(&gs, &problem, &opts, Engine::Serial);
        eprintln!(
            "[enlarged] survival s={s}: cholesky {:?} in {} | gauss_seidel {:?} in {} ({} restarts)",
            rc.outcome, rc.iterations, rg.outcome, rg.iterations, rg.restarts
        );
        chol_iters.push(rc.iterations as f64);
        chol_conv.push(if rc.converged() { 1.0 } else { 0.0 });
        gs_iters.push(rg.iterations as f64);
        gs_conv.push(if rg.converged() { 1.0 } else { 0.0 });
        gs_restarts.push(rg.restarts as f64);
    }

    // --- EkCG acceptance sweep (always full: benchcheck gates it). ---
    let t_values: &[usize] = &[2, 4, 8];
    let a = anisotropic_2d(EKCG_M, EKCG_EPS);
    let n = a.nrows();
    let m = Jacobi::new(&a);
    let mut rng = Rng64::seed_from_u64(17);
    let b: Vec<f64> = (0..n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
    let problem = Problem::new(&a, &m, &b);
    let opts = SolveOptions::default()
        .with_tol(EKCG_TOL)
        .with_max_iters(20_000);
    let r_pcg = solve(&Method::Pcg, &problem, &opts, Engine::Serial);
    assert!(
        r_pcg.converged(),
        "[enlarged] PCG baseline failed: {:?}",
        r_pcg.outcome
    );
    eprintln!("[enlarged] ekcg baseline: pcg in {}", r_pcg.iterations);
    let mut ek_iters = Vec::new();
    let mut ek_conv = Vec::new();
    let mut ek_ratios = Vec::new();
    for &t in t_values {
        let r = solve(&Method::EkCg { t }, &problem, &opts, Engine::Serial);
        let ratio = r.iterations as f64 / r_pcg.iterations as f64;
        eprintln!(
            "[enlarged] ekcg t={t}: {:?} in {} ({ratio:.3}x pcg)",
            r.outcome, r.iterations
        );
        ek_iters.push(r.iterations as f64);
        ek_conv.push(if r.converged() { 1.0 } else { 0.0 });
        ek_ratios.push(ratio);
    }

    let s_floats: Vec<f64> = s_values.iter().map(|&s| s as f64).collect();
    let t_floats: Vec<f64> = t_values.iter().map(|&t| t as f64).collect();
    let json = format!(
        "{{\n  \"survival\": {{\n    \"n\": {SURVIVAL_N},\n    \"kappa\": {SURVIVAL_KAPPA:e},\n    \
         \"tol\": {SURVIVAL_TOL:e},\n    \"max_iters\": {SURVIVAL_MAX_ITERS},\n    \
         \"s\": {},\n    \
         \"iters\": {{\n      \"cholesky\": {},\n      \"gauss_seidel\": {}\n    }},\n    \
         \"converged\": {{\n      \"cholesky\": {},\n      \"gauss_seidel\": {}\n    }},\n    \
         \"gs_restarts\": {}\n  }},\n  \
         \"ekcg\": {{\n    \"m\": {EKCG_M},\n    \"eps\": {EKCG_EPS},\n    \"tol\": {EKCG_TOL:e},\n    \
         \"pcg_iters\": {},\n    \
         \"t\": {},\n    \
         \"iters\": {},\n    \
         \"converged\": {},\n    \
         \"ratio_vs_pcg\": {}\n  }}\n}}\n",
        fmt(&s_floats),
        fmt(&chol_iters),
        fmt(&gs_iters),
        fmt(&chol_conv),
        fmt(&gs_conv),
        fmt(&gs_restarts),
        r_pcg.iterations,
        fmt(&t_floats),
        fmt(&ek_iters),
        fmt(&ek_conv),
        fmt(&ek_ratios),
    );
    write_results("BENCH_enlarged.json", &json);
}
