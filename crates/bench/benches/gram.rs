//! Local-reduction benchmark: the blocked Gram product `UᵀS` (one fused
//! reduction, BLAS3-shaped) versus 2s separate dot products (BLAS1) — the
//! communication/computation trade at the heart of Table 1's "local
//! reductions" column — and the stacked `[U|P]ᵀS` an sPCG block actually
//! issues, `10 × 6` at s = 5 and `20 × 11` at s = 10.

use spcg_bench::harness::bench;
use spcg_solvers::blockops::gram_stacked;
use spcg_sparse::{blas, MultiVector, ParKernels};
use std::hint::black_box;

fn filled(n: usize, k: usize, step: usize, modulus: usize) -> MultiVector {
    let entry = |i: usize, j: usize| ((i * (j + step)) % modulus) as f64 - (modulus / 2) as f64;
    let cols: Vec<Vec<f64>> = (0..k)
        .map(|j| (0..n).map(|i| entry(i, j)).collect())
        .collect();
    MultiVector::from_columns(&cols)
}

fn main() {
    let n = 200_000;
    let s = 10;
    let u = filled(n, s, 1, 17);
    let sm = filled(n, s + 1, 3, 23);
    bench("local_reductions/gram_UtS_s10", || {
        black_box(u.gram(&sm));
    });
    let pk = ParKernels::serial();
    for s in [5, 10] {
        let (u, p, sm) = (
            filled(n, s, 1, 17),
            filled(n, s, 2, 19),
            filled(n, s + 1, 3, 23),
        );
        bench(&format!("local_reductions/gram_stacked_UPtS_s{s}"), || {
            black_box(gram_stacked(&pk, &u, Some(&p), &sm));
        });
    }
    bench("local_reductions/dots_2s_separate", || {
        let mut acc = 0.0;
        for j in 0..2 * s {
            let (x, y) = (u.col(j % s), sm.col(j % (s + 1)));
            acc += blas::dot(black_box(x), black_box(y));
        }
        black_box(acc);
    });
}
