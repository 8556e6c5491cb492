//! Randomized property tests over the core data structures and numerical
//! invariants. Each test sweeps a deterministic family of random cases
//! drawn from the workspace's own seeded PRNG ([`spcg::sparse::rng::Rng64`]),
//! so failures are exactly reproducible from the printed case index.

use spcg::basis::poly::BasisParams;
use spcg::basis::{cob, leja};
use spcg::sparse::generators::random_spd::{spd_with_spectrum, SpectrumShape};
use spcg::sparse::partition::BlockRowPartition;
use spcg::sparse::rng::Rng64;
use spcg::sparse::smallsolve::{Cholesky, Lu};
use spcg::sparse::{blas, CooMatrix, DenseMat};

#[test]
fn coo_to_csr_preserves_entry_sums() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0001);
    for case in 0..64 {
        let nentries = rng.below_inclusive(59);
        let mut coo = CooMatrix::new(12, 12);
        let mut dense = vec![vec![0.0f64; 12]; 12];
        for _ in 0..nentries {
            let i = rng.below_inclusive(11);
            let j = rng.below_inclusive(11);
            let v = rng.range_f64(-10.0, 10.0);
            coo.push(i, j, v);
            dense[i][j] += v;
        }
        let csr = coo.to_csr();
        for i in 0..12 {
            for j in 0..12 {
                assert!(
                    (csr.get(i, j) - dense[i][j]).abs() < 1e-12,
                    "case {case}: mismatch at ({i},{j})"
                );
            }
        }
    }
}

#[test]
fn spmv_is_linear() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0002);
    for case in 0..32 {
        let seed = rng.next_u64() % 1000;
        let alpha = rng.range_f64(-3.0, 3.0);
        let a = spd_with_spectrum(40, &SpectrumShape::Uniform { kappa: 50.0 }, 1.0, 2, seed);
        let x: Vec<f64> = (0..40)
            .map(|i| ((i * 7 + seed as usize) % 11) as f64 - 5.0)
            .collect();
        let y: Vec<f64> = (0..40).map(|i| ((i * 3) % 13) as f64 - 6.0).collect();
        let combo: Vec<f64> = x.iter().zip(&y).map(|(p, q)| p + alpha * q).collect();
        let mut ax = vec![0.0; 40];
        let mut ay = vec![0.0; 40];
        let mut ac = vec![0.0; 40];
        a.spmv(&x, &mut ax);
        a.spmv(&y, &mut ay);
        a.spmv(&combo, &mut ac);
        for i in 0..40 {
            assert!(
                (ac[i] - (ax[i] + alpha * ay[i])).abs() < 1e-9,
                "case {case} row {i}"
            );
        }
    }
}

#[test]
fn generated_spd_quadratic_form_positive() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0003);
    for case in 0..32 {
        let seed = rng.next_u64() % 500;
        let a = spd_with_spectrum(
            30,
            &SpectrumShape::LogUniform {
                kappa: 1e3,
                jitter: 0.2,
            },
            1.0,
            3,
            seed,
        );
        let x: Vec<f64> = (0..30)
            .map(|i| ((i as u64 * 31 + seed) % 17) as f64 - 8.0)
            .collect();
        if x.iter().any(|&v| v != 0.0) {
            let mut ax = vec![0.0; 30];
            a.spmv(&x, &mut ax);
            let q = blas::dot(&x, &ax);
            assert!(q > 0.0, "case {case}: quadratic form {q}");
        }
    }
}

#[test]
fn cholesky_solves_generated_spd_gram() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0004);
    for case in 0..64 {
        // Build SPD as GᵀG + I from a random 4x5 G.
        let vals: Vec<f64> = (0..20).map(|_| rng.range_f64(-2.0, 2.0)).collect();
        let g = DenseMat::from_row_major(4, 5, vals);
        let mut a = g.transpose().matmul(&g);
        for i in 0..5 {
            a[(i, i)] += 1.0;
        }
        let ch = Cholesky::factor(&a).unwrap();
        let b = vec![1.0, -2.0, 0.5, 3.0, -1.0];
        let x = ch.solve(&b);
        let ax = a.matvec(&x);
        for (p, q) in ax.iter().zip(&b) {
            assert!((p - q).abs() < 1e-9, "case {case}");
        }
    }
}

#[test]
fn lu_matches_cholesky_on_spd() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0005);
    for case in 0..64 {
        let vals: Vec<f64> = (0..12).map(|_| rng.range_f64(-2.0, 2.0)).collect();
        let g = DenseMat::from_row_major(4, 3, vals);
        let mut a = g.transpose().matmul(&g);
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        let b = vec![1.0, 2.0, 3.0];
        let x1 = Cholesky::factor(&a).unwrap().solve(&b);
        let x2 = Lu::factor(&a).unwrap().solve(&b);
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-8, "case {case}");
        }
    }
}

#[test]
fn basis_eval_satisfies_cob_recurrence() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0006);
    for case in 0..64 {
        let lo = rng.range_f64(0.05, 0.5);
        let width = rng.range_f64(0.5, 3.0);
        let z = rng.range_f64(-1.0, 4.0);
        let params = BasisParams::chebyshev(lo, lo + width, 6);
        let b = cob::b_small(&params, 6);
        let p = params.eval_all(z);
        for j in 0..5 {
            let mut acc = 0.0;
            for l in 0..6 {
                acc += p[l] * b[(l, j)];
            }
            let want = z * p[j];
            assert!(
                (acc - want).abs() < 1e-9 * (1.0 + want.abs()),
                "case {case}: z={z} col={j}"
            );
        }
    }
}

#[test]
fn leja_order_is_permutation() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0007);
    for case in 0..64 {
        let len = 1 + rng.below_inclusive(28);
        let vals: Vec<f64> = (0..len).map(|_| rng.range_f64(0.01, 100.0)).collect();
        let ordered = leja::leja_order(&vals);
        let mut a = vals.clone();
        let mut b = ordered.clone();
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a, b, "case {case}");
    }
}

#[test]
fn partition_is_disjoint_cover() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0008);
    for case in 0..64 {
        let n = 1 + rng.below_inclusive(498);
        let parts = 1 + rng.below_inclusive(30);
        let p = BlockRowPartition::balanced(n, parts);
        let mut seen = vec![false; n];
        for q in 0..p.nparts() {
            let (lo, hi) = p.range(q);
            for r in lo..hi {
                assert!(!seen[r], "case {case}: row {r} covered twice");
                seen[r] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s), "case {case}");
        for r in 0..n {
            let o = p.owner(r);
            let (lo, hi) = p.range(o);
            assert!(r >= lo && r < hi, "case {case}");
        }
    }
}

#[test]
fn pcg_solves_random_spd_to_tolerance() {
    use spcg::precond::Jacobi;
    use spcg::solvers::{solve, Engine, Method, Problem, SolveOptions};
    use spcg::sparse::generators::paper_rhs;
    let mut rng = Rng64::seed_from_u64(0x5eed_0009);
    for case in 0..16 {
        let seed = rng.next_u64() % 200;
        let a = spd_with_spectrum(
            120,
            &SpectrumShape::Geometric { kappa: 500.0 },
            1.0,
            3,
            seed,
        );
        let b = paper_rhs(&a);
        let m = Jacobi::new(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env().with_tol(1e-8);
        let res = solve(&Method::Pcg, &problem, &opts, Engine::Serial);
        assert!(res.converged(), "case {case} (seed {seed})");
        assert!(
            res.true_relative_residual(&a, &b) < 1e-6,
            "case {case} (seed {seed})"
        );
    }
}

#[test]
fn gs_solve_matches_cholesky_on_random_spd_systems() {
    use spcg::sparse::smallsolve::{gs_solve, Cholesky};
    let mut rng = Rng64::seed_from_u64(0x5eed_000b);
    for case in 0..64 {
        let vals: Vec<f64> = (0..20).map(|_| rng.range_f64(-2.0, 2.0)).collect();
        let g = DenseMat::from_row_major(4, 5, vals);
        let mut a = g.transpose().matmul(&g);
        for i in 0..5 {
            a[(i, i)] += 0.5;
        }
        let b: Vec<f64> = (0..5).map(|_| rng.range_f64(-3.0, 3.0)).collect();
        let x1 = Cholesky::factor(&a).unwrap().solve(&b);
        let (x2, sweeps) = gs_solve(&a, &b, None, 200, 1e-14).unwrap();
        assert!(sweeps > 0, "case {case}: free lunch");
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-8, "case {case}: {p} vs {q}");
        }
    }
}

#[test]
fn capcg_gs_agrees_with_pcg_on_easy_random_problems() {
    use spcg::precond::Jacobi;
    use spcg::solvers::{solve, Engine, Method, Problem, SolveOptions};
    use spcg::sparse::generators::paper_rhs;
    let mut rng = Rng64::seed_from_u64(0x5eed_000c);
    for case in 0..8 {
        let seed = rng.next_u64() % 50;
        let s = 2 + rng.below_inclusive(3);
        let a = spd_with_spectrum(
            100,
            &SpectrumShape::Geometric { kappa: 100.0 },
            1.0,
            2,
            seed,
        );
        let b = paper_rhs(&a);
        let m = Jacobi::new(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env().with_tol(1e-7);
        let basis = spcg::solvers::chebyshev_basis(&problem, 15, 0.1);
        let r1 = solve(&Method::Pcg, &problem, &opts, Engine::Serial);
        let r2 = solve(
            &Method::CaPcgGs { s, basis },
            &problem,
            &opts,
            Engine::Serial,
        );
        assert!(
            r1.converged() && r2.converged(),
            "case {case} (seed {seed}, s {s})"
        );
        // Same slack as the Cholesky-path s-step methods: inexact inner
        // solves may cost an extra block or two, never a regime change.
        assert!(
            r2.iterations <= ((r1.iterations + s) / s) * s + 2 * s,
            "case {case} (seed {seed}, s {s}): {} vs {}",
            r2.iterations,
            r1.iterations
        );
        assert!(
            r2.true_relative_residual(&a, &b) < 1e-5,
            "case {case} (seed {seed}, s {s})"
        );
    }
}

#[test]
fn ekcg_solves_random_spd_for_every_block_count() {
    use spcg::precond::Jacobi;
    use spcg::solvers::{solve, Engine, Method, Problem, SolveOptions};
    let mut rng = Rng64::seed_from_u64(0x5eed_000d);
    for case in 0..8 {
        let seed = rng.next_u64() % 50;
        let a = spd_with_spectrum(
            100,
            &SpectrumShape::Geometric { kappa: 100.0 },
            1.0,
            2,
            seed,
        );
        // A dense rhs: enlarged-space methods need excitation in every
        // coordinate block (an impulse rhs makes T(r) rank-deficient).
        let b: Vec<f64> = (0..100)
            .map(|i| 1.0 + 0.5 * ((i as f64) * 0.7).sin())
            .collect();
        let m = Jacobi::new(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env().with_tol(1e-7);
        for t in [1usize, 2, 4] {
            let res = solve(&Method::EkCg { t }, &problem, &opts, Engine::Serial);
            assert!(res.converged(), "case {case} (seed {seed}, t {t})");
            assert!(
                res.true_relative_residual(&a, &b) < 1e-5,
                "case {case} (seed {seed}, t {t})"
            );
        }
    }
}

#[test]
fn spcg_agrees_with_pcg_on_easy_random_problems() {
    use spcg::precond::Jacobi;
    use spcg::solvers::{solve, Engine, Method, Problem, SolveOptions};
    use spcg::sparse::generators::paper_rhs;
    let mut rng = Rng64::seed_from_u64(0x5eed_000a);
    for case in 0..12 {
        let seed = rng.next_u64() % 50;
        let s = 2 + rng.below_inclusive(3);
        let a = spd_with_spectrum(
            100,
            &SpectrumShape::Geometric { kappa: 100.0 },
            1.0,
            2,
            seed,
        );
        let b = paper_rhs(&a);
        let m = Jacobi::new(&a);
        let problem = Problem::new(&a, &m, &b);
        let opts = SolveOptions::from_env().with_tol(1e-7);
        let basis = spcg::solvers::chebyshev_basis(&problem, 15, 0.1);
        let r1 = solve(&Method::Pcg, &problem, &opts, Engine::Serial);
        let r2 = solve(&Method::SPcg { s, basis }, &problem, &opts, Engine::Serial);
        assert!(
            r1.converged() && r2.converged(),
            "case {case} (seed {seed}, s {s})"
        );
        // s-rounding plus the paper's "not significant" slack.
        assert!(
            r2.iterations <= ((r1.iterations + s) / s) * s + 2 * s,
            "case {case} (seed {seed}, s {s}): {} vs {}",
            r2.iterations,
            r1.iterations
        );
    }
}
