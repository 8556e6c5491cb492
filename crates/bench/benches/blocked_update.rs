//! Vector-update benchmark: sPCG's blocked BLAS3 update `P ← U + P·B`
//! versus the equivalent FLOPs as BLAS1 axpys (CA-PCG3's access pattern) —
//! the performance argument of §4.1.

use spcg_bench::harness::bench;
use spcg_sparse::{blas, DenseMat, MultiVector, ParKernels};
use std::hint::black_box;

fn main() {
    let n = 100_000;
    let s = 10;
    let cols: Vec<Vec<f64>> = (0..s)
        .map(|j| (0..n).map(|i| ((i + j) % 13) as f64 - 6.0).collect())
        .collect();
    let u = MultiVector::from_columns(&cols);
    let bmat = DenseMat::from_fn(s, s, |i, j| ((i * s + j) % 7) as f64 * 0.1 - 0.3);

    {
        let mut p = u.clone();
        let pk = ParKernels::serial();
        bench("block_update_s10/blas3_blocked", || {
            pk.blocked_update(&mut p, black_box(&u), black_box(&bmat));
        });
    }
    {
        // s² axpys + s copies — identical FLOPs, strided BLAS1 traffic.
        let p: Vec<Vec<f64>> = cols.clone();
        bench("block_update_s10/blas1_axpys_same_flops", || {
            for j in 0..s {
                let mut out = u.col(j).to_vec();
                for (l, pl) in p.iter().enumerate() {
                    blas::axpy(bmat[(l, j)], black_box(pl), &mut out);
                }
                black_box(&out);
            }
        });
    }
}
