//! Layout parity. The one-column layout of a solve is the library's
//! choice, made once by `SellMatrix::from_csr`: a constant-coefficient
//! stencil runs on its diagonals, any other matrix on SELL-C-σ slots, and a
//! rank's ghost zone always on slots. Every layout sums each row in CSR
//! entry order, so a solve must come out **bitwise identical** whichever
//! layout ran it — same iterates, iteration counts, residual history and
//! operation counters. The serial engine against one rank pins diagonals
//! against zone slots on the stencil (slots against slots on its
//! variable-coefficient twin); the ranked grid pins the interior/frontier
//! split, overlap on against off, at two and three ranks. Any drift is a
//! kernel bug (re-ordered accumulation, an FMA sneaking into the SIMD path,
//! a permutation applied to the wrong side). The kernel-level checks below
//! hold each layout to the CSR reference `CsrMatrix::spmv`.
//!
//! The suite sets threads, overlap and faults explicitly, so it behaves
//! the same under every CI leg's environment.

use spcg::dist::Counters;
use spcg::precond::ChebyshevPrecond;
use spcg::prelude::*;
use spcg::solvers::{solve_batch, BatchRequest};
use spcg::sparse::generators::anisotropic::anisotropic_2d;
use spcg::sparse::generators::anisotropic::anisotropic_3d;
use spcg::sparse::generators::poisson::{poisson_1d, poisson_2d, poisson_3d};
use spcg::sparse::generators::SpectrumShape;
use spcg::sparse::generators::{paper_rhs, perturb_diagonal, spd_with_spectrum, suite_matrices};
use spcg::sparse::sell::MAX_DIAGONALS;
use spcg::sparse::{CooMatrix, CsrMatrix, SellMatrix};
use std::sync::Arc;

fn all_methods(problem: &Problem<'_>) -> Vec<(&'static str, Method)> {
    let basis = spcg::solvers::chebyshev_basis(problem, 20, 0.05);
    vec![
        ("pcg", Method::Pcg),
        ("pcg3", Method::Pcg3),
        (
            "spcg",
            Method::SPcg {
                s: 4,
                basis: basis.clone(),
            },
        ),
        ("spcg_mon", Method::SPcgMon { s: 4 }),
        (
            "capcg",
            Method::CaPcg {
                s: 4,
                basis: basis.clone(),
            },
        ),
        (
            "capcg3",
            Method::CaPcg3 {
                s: 4,
                basis: basis.clone(),
            },
        ),
        ("capcg_gs", Method::CaPcgGs { s: 4, basis }),
        ("ekcg", Method::EkCg { t: 4 }),
    ]
}

fn opts(threads: usize, overlap: bool) -> SolveOptions {
    SolveOptions::from_env()
        .with_tol(1e-8)
        .with_history()
        .with_overlap(overlap)
        .with_threads(threads)
        .with_faults(None)
}

/// The counters without the halo fields, which only a ranked solve
/// charges (a lone rank exchanges nothing, but still counts its rounds).
fn compute_counters(c: &Counters) -> Counters {
    Counters {
        halo_exchanges: 0,
        halo_words: 0,
        ..c.clone()
    }
}

fn assert_parity(tag: &str, c: &SolveResult, s: &SolveResult) {
    assert_eq!(c.outcome, s.outcome, "{tag}: outcome");
    assert_eq!(c.iterations, s.iterations, "{tag}: iterations");
    assert_eq!(c.x, s.x, "{tag}: solution not bitwise identical");
    assert_eq!(c.history, s.history, "{tag}: residual history");
    assert_eq!(
        compute_counters(&c.counters),
        compute_counters(&s.counters),
        "{tag}: counters"
    );
    assert!(c.converged(), "{tag}: did not converge");
}

/// `poisson_2d(12)` on SELL's diagonals and its variable-coefficient twin
/// on slots, each checked to have taken its encoding.
fn stencil_and_twin() -> [(CsrMatrix, bool); 2] {
    let a = poisson_2d(12);
    [(perturb_diagonal(&a, 11), false), (a, true)].map(|(a, diagonal)| {
        assert_eq!(a.sell().is_diagonal(), diagonal);
        (a, diagonal)
    })
}

/// Serial ≡ one rank: the serial engine's products on the matrix's SELL
/// form (diagonals on the stencil, slots on its twin) against the same
/// products on one rank's ghost zone (slots), every method, one and two
/// threads.
#[test]
fn sell_is_bitwise_identical_to_csr_on_the_serial_engine() {
    for (a, diagonal) in stencil_and_twin() {
        let b = paper_rhs(&a);
        let m = spcg::precond::Jacobi::new(&a);
        let problem = Problem::try_new(&a, &m, &b).unwrap();
        for (name, method) in all_methods(&problem) {
            for threads in [1, 2] {
                let o = opts(threads, false);
                let serial = solve(&method, &problem, &o, Engine::Serial);
                let ranked = solve(&method, &problem, &o, Engine::Ranked { ranks: 1 });
                let tag = format!("{name} threads={threads} diagonal={diagonal}");
                assert_parity(&tag, &serial, &ranked);
            }
        }
    }
}

/// Overlap on ≡ off at two and three ranks: the zone's interior rows run
/// before the exchange completes and the frontier rows after it, or all of
/// them after it, with the same bits and the same counters.
#[test]
fn sell_is_bitwise_identical_to_csr_on_the_ranked_engine() {
    for (a, diagonal) in stencil_and_twin() {
        let b = paper_rhs(&a);
        let m = spcg::precond::Jacobi::new(&a);
        let problem = Problem::try_new(&a, &m, &b).unwrap();
        for (name, method) in all_methods(&problem) {
            for ranks in [2, 3] {
                for threads in [1, 2] {
                    let engine = Engine::Ranked { ranks };
                    let off = solve(&method, &problem, &opts(threads, false), engine);
                    let on = solve(&method, &problem, &opts(threads, true), engine);
                    let tag = format!("{name} ranks={ranks} threads={threads} diagonal={diagonal}");
                    assert_parity(&tag, &off, &on);
                    assert_eq!(off.counters, on.counters, "{tag}: halo counters");
                }
            }
        }
    }
}

/// The paper's Table 3 pairing, small: anisotropic diffusion under a
/// degree-3 Chebyshev preconditioner whose interval comes from Gershgorin
/// circles (no warm-up solve, so nothing engine-dependent enters the
/// set-up).
fn chebyshev_system_of(a: CsrMatrix) -> (Arc<CsrMatrix>, ChebyshevPrecond, Vec<f64>) {
    let a = Arc::new(a);
    let b = paper_rhs(&a);
    let cheb = ChebyshevPrecond::from_matrix(Arc::clone(&a), 3, 30.0);
    (a, cheb, b)
}

fn chebyshev_methods(problem: &Problem<'_>) -> Vec<(&'static str, Method)> {
    let basis = spcg::solvers::chebyshev_basis(problem, 20, 0.05);
    vec![
        ("pcg", Method::Pcg),
        (
            "spcg",
            Method::SPcg {
                s: 5,
                basis: basis.clone(),
            },
        ),
        ("capcg3", Method::CaPcg3 { s: 5, basis }),
    ]
}

/// A polynomial preconditioner takes its products on the executor's
/// operator: serially the band-fused recurrence on the matrix's SELL form
/// (diagonals on the stencil, slots on its twin), on one rank the closure
/// form over the rank's zone SpMV. The two must agree bit for bit. The 13³
/// grid spans three bands with a ragged tail.
#[test]
fn chebyshev_preconditioner_follows_the_format_bit_for_bit() {
    for m in [10, 13] {
        let stencil = anisotropic_3d(m, 1e-2, 1e-1);
        let twin = perturb_diagonal(&stencil, m as u64);
        for (a, diagonal) in [(stencil, true), (twin, false)] {
            let (a, cheb, b) = chebyshev_system_of(a);
            assert_eq!(a.sell().is_diagonal(), diagonal);
            let problem = Problem::try_new(&a, &cheb, &b).unwrap();
            for (name, method) in chebyshev_methods(&problem) {
                for threads in [1, 2] {
                    let run = |engine| solve(&method, &problem, &opts(threads, true), engine);
                    let tag = format!("cheb3 m={m} diagonal={diagonal} {name} threads={threads}");
                    let serial = run(Engine::Serial);
                    assert_parity(&tag, &serial, &run(Engine::Ranked { ranks: 1 }));
                }
            }
        }
    }
}

/// The blocked multi-RHS PCG applies the preconditioner column by column
/// through the same dispatch, and takes its products on SELL's SpMM on the
/// stencil's diagonals and on the interleaved CSR SpMM on its twin; each
/// column must equal its own solve.
#[test]
fn blocked_batch_with_chebyshev_is_bitwise_identical_across_formats() {
    let stencil = anisotropic_3d(10, 1e-2, 1e-1);
    let twin = perturb_diagonal(&stencil, 10);
    for (a, diagonal) in [(stencil, true), (twin, false)] {
        let (a, cheb, b) = chebyshev_system_of(a);
        assert_eq!(a.sell().is_diagonal(), diagonal);
        let rhs: Vec<Vec<f64>> = (1..=3)
            .map(|k| b.iter().map(|v| v * k as f64 + (k - 1) as f64).collect())
            .collect();
        let requests: Vec<BatchRequest<'_>> = rhs.iter().map(|r| BatchRequest::new(r)).collect();
        for threads in [1, 2] {
            let o = opts(threads, false);
            let batch = solve_batch(&Method::Pcg, &a, &cheb, &requests, &o, Engine::Serial);
            assert_eq!(batch.len(), 3);
            for (j, column) in batch.iter().enumerate() {
                let problem = Problem::try_new(&a, &cheb, &rhs[j]).unwrap();
                let alone = solve(&Method::Pcg, &problem, &o, Engine::Serial);
                let tag = format!("batch column {j} threads={threads} diagonal={diagonal}");
                assert_parity(&tag, &alone, column);
            }
        }
    }
}

/// Dense reference product for a CSR matrix, one row at a time in CSR
/// order — the accumulation order both encodings promise to reproduce.
fn reference_spmv(a: &CsrMatrix, x: &[f64]) -> Vec<f64> {
    let mut y = vec![0.0; a.nrows()];
    a.spmv(x, &mut y);
    y
}

fn wiggly_x(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| 1.0 + 0.25 * ((i * 2654435761) % 97) as f64 / 97.0)
        .collect()
}

/// Every row of `a` in SELL slots, identity order: the slot kernel on a
/// matrix `from_csr` stores as diagonals.
fn slots_of(a: &CsrMatrix) -> SellMatrix {
    let rows: Vec<usize> = (0..a.nrows()).collect();
    SellMatrix::from_rows(a.row_ptr(), a.col_idx(), a.values(), &rows)
}

#[test]
fn sell_spmv_matches_csr_on_generators() {
    // 2D Poisson exercises σ-window sorting across equal-length rows;
    // the 1D tridiagonal case exercises short rows and narrow slices. Each
    // runs on diagonals, on its own slot packing, and its
    // variable-coefficient twin on σ-sorted slots: CSR ≡ slots ≡
    // diagonals.
    for a in [poisson_2d(23), poisson_1d(513)] {
        let twin = perturb_diagonal(&a, 5);
        let x = wiggly_x(a.ncols());
        for (m, diagonal) in [(&a, true), (&twin, false)] {
            let sell = SellMatrix::from_csr(m);
            assert_eq!(sell.is_diagonal(), diagonal);
            for sell in [sell, slots_of(m)] {
                let mut y = vec![0.0; m.nrows()];
                sell.spmv(&x, &mut y);
                assert_eq!(y, reference_spmv(m, &x), "sell spmv must match csr bitwise");
                assert_eq!(sell.nnz(), m.nnz());
                let pad = sell.pad_ratio();
                assert!(
                    (0.0..1.0).contains(&pad),
                    "pad fraction out of range: {pad}"
                );
            }
        }
    }
}

/// A 27-point stencil (every neighbour in the 3×3×3 cube) on an `m³`
/// grid, built through COO: 26 at the centre, −1 elsewhere.
fn stencil_27(m: usize) -> CsrMatrix {
    let n = m * m * m;
    let mut coo = CooMatrix::with_capacity(n, n, 27 * n);
    for i in 0..m {
        for j in 0..m {
            for k in 0..m {
                let r = (i * m + j) * m + k;
                for (di, dj, dk) in (0..27).map(|t| (t / 9, t / 3 % 3, t % 3)) {
                    let (p, q, s) = (i + di, j + dj, k + dk);
                    if (1..=m).contains(&p) && (1..=m).contains(&q) && (1..=m).contains(&s) {
                        let c = ((p - 1) * m + q - 1) * m + s - 1;
                        coo.push(r, c, if c == r { 26.0 } else { -1.0 });
                    }
                }
            }
        }
    }
    coo.to_csr()
}

/// Which encoding `from_csr` picks: diagonals for every constant-coefficient
/// stencil the repo generates and a 27-point one, slots for a variable
/// coefficient, the random and suite SPD matrices, and a constant band
/// over the offset bound.
#[test]
fn from_csr_picks_diagonals_exactly_for_constant_stencils() {
    let diagonal = [
        ("poisson_1d", poisson_1d(100)),
        ("poisson_2d", poisson_2d(15)),
        ("poisson_3d", poisson_3d(9)),
        ("anisotropic_2d", anisotropic_2d(15, 1e-2)),
        ("anisotropic_3d", anisotropic_3d(9, 1e-2, 1e-1)),
        ("stencil_27", stencil_27(7)),
    ];
    for (name, a) in &diagonal {
        assert!(SellMatrix::from_csr(a).is_diagonal(), "{name}");
        let twin = perturb_diagonal(a, 1);
        assert!(!SellMatrix::from_csr(&twin).is_diagonal(), "{name} twin");
    }
    let random = spd_with_spectrum(500, &SpectrumShape::Uniform { kappa: 1e3 }, 1.0, 3, 9);
    assert!(!SellMatrix::from_csr(&random).is_diagonal(), "random_spd");
    for entry in suite_matrices() {
        let a = entry.build();
        assert!(!SellMatrix::from_csr(&a).is_diagonal(), "{}", entry.name);
    }
    // A constant band of MAX_DIAGONALS + 1 offsets.
    let (n, half) = (300, MAX_DIAGONALS / 2);
    let mut coo = CooMatrix::new(n, n);
    for r in 0..n {
        for c in r.saturating_sub(half)..(r + half + 1).min(n) {
            coo.push(r, c, if c == r { 64.0 } else { -1.0 });
        }
    }
    let band = coo.to_csr();
    assert!(!SellMatrix::from_csr(&band).is_diagonal(), "over the bound");
}

#[test]
fn sell_handles_ragged_and_empty_rows() {
    // Hand-built CSR with wildly ragged rows, an empty row, and a final
    // short row — the worst case for slice padding: row lengths
    // 5, 0, 1, 3, 1 over 5 columns.
    let row_ptr = vec![0, 5, 5, 6, 9, 10];
    let col_idx = vec![0, 1, 2, 3, 4, 2, 0, 2, 4, 1];
    let values = vec![4.0, -1.0, -0.5, -0.25, -0.125, 3.0, -1.0, 5.0, -1.0, 2.0];
    let a = CsrMatrix::from_raw(5, 5, row_ptr, col_idx, values);
    let sell = SellMatrix::from_csr(&a);
    assert_eq!(sell.nnz(), 10);
    assert!(sell.padded_nnz() >= sell.nnz());
    let x = wiggly_x(5);
    let mut y = vec![0.0; 5];
    sell.spmv(&x, &mut y);
    assert_eq!(y, reference_spmv(&a, &x));
    // The empty row contributes exactly zero, untouched by pad entries.
    assert_eq!(y[1], 0.0);
}

#[test]
fn sigma_permutation_is_a_bijection_and_round_trips() {
    // The stencil is on diagonals, which keep identity order and carry no
    // permutation; its variable-coefficient twin is σ-sorted in slots.
    let stencil = poisson_2d(19);
    let diagonals = SellMatrix::from_csr(&stencil);
    assert!(diagonals.is_diagonal());
    assert!(diagonals.perm().is_none());
    let a = perturb_diagonal(&stencil, 19);
    let sell = SellMatrix::from_csr(&a);
    assert!(!sell.is_diagonal());
    let perm = sell.perm().unwrap();
    assert_eq!(perm.len(), a.nrows());
    let mut seen = vec![false; a.nrows()];
    for &p in perm {
        assert!(p < a.nrows(), "perm entry out of range");
        assert!(!seen[p], "perm entry {p} repeated");
        seen[p] = true;
    }
    // Window confinement: σ-sorting may only move a row within its
    // window, so lane p's source row stays within σ of p.
    let sigma = 256usize;
    for (lane, &row) in perm.iter().enumerate() {
        let window = lane / sigma;
        assert_eq!(row / sigma, window, "row {row} escaped window {window}");
    }
}
