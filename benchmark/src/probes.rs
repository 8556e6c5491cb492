//! Per-layer probes: one benchmark-owned span around a direct call to one
//! public function of a layer, on the workload's own operator.
//!
//! Each probe reports the median of `REPS` warm calls. FLOPs and bytes are
//! computed from array sizes (or taken from the kernel's own `Counters`),
//! not measured; every operand here fits the runner's last-level cache, so
//! the numbers are cache-resident rates and no roofline ratio is claimed.

use crate::attribution::TraceSink;
use crate::harness::{median, nproc, solve_options};
use crate::metrics::Values;
use crate::workloads::{Inputs, Member, Sel, RANKS};
use spcg::basis::ritz::estimate_spectrum;
use spcg::basis::Mpk;
use spcg::dist::executor::run_ranks;
use spcg::dist::{Backend, Counters};
use spcg::precond::{Jacobi, PrecondSpec, Preconditioner};
use spcg::service::{fingerprint, ServiceConfig, SolveService, SolveSpec, SolverHandle};
use spcg::solvers::Engine;
use spcg::sparse::smallsolve::Cholesky;
use spcg::sparse::{CsrMatrix, DenseMat, MultiVector, ParKernels, SellMatrix, SparseFormat};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const WARM: usize = 1;
const REPS: usize = 9;

struct Prober<'a> {
    sink: &'a mut TraceSink,
}

impl Prober<'_> {
    /// Median of `REPS` samples after `WARM` discarded ones, under one
    /// benchmark-owned span; `one` returns the seconds of one sample.
    fn sample(&mut self, name: &str, mut one: impl FnMut() -> f64) -> f64 {
        let begin = self.sink.now();
        let whole = Instant::now();
        let mut samples = Vec::with_capacity(REPS);
        for rep in 0..WARM + REPS {
            let secs = one();
            if rep >= WARM {
                samples.push(secs);
            }
        }
        self.sink.span(
            &format!("probe:{name}"),
            begin,
            whole.elapsed().as_secs_f64(),
        );
        median(&samples)
    }

    /// Median seconds per call of `f`, each sample averaging `inner` calls
    /// (more than one for calls of microseconds).
    fn time(&mut self, name: &str, inner: usize, mut f: impl FnMut()) -> f64 {
        self.sample(name, || {
            let t0 = Instant::now();
            for _ in 0..inner {
                f();
            }
            t0.elapsed().as_secs_f64() / inner as f64
        })
    }
}

/// Runs every probe on `inputs` with block size `s` and stores the
/// per-layer metrics they define.
pub fn run_probes(inputs: &Inputs, s: usize, sink: &mut TraceSink, out: &mut Values) {
    let mut p = Prober { sink };
    let a: &CsrMatrix = &inputs.a;
    let m: &dyn Preconditioner = inputs.m.as_ref();
    let (n, nnz) = (a.nrows(), a.nnz());
    let sell = a.sell();
    let pk1 = ParKernels::new(1);
    let x = &inputs.b;
    let mut y = vec![0.0; n];
    let gflops = |flops: f64, secs: f64| flops / secs / 1e9;

    // sparse: SpMV in both formats.
    let spmv_flops = a.spmv_flops() as f64;
    let t_csr = p.time("sparse.spmv.csr", 1, || pk1.spmv(a, black_box(x), &mut y));
    let t_sell = p.time("sparse.spmv.sell", 1, || {
        pk1.spmv_sell(&sell, black_box(x), &mut y)
    });
    out.set("sparse.spmv_gflops.csr", gflops(spmv_flops, t_csr));
    out.set("sparse.spmv_gflops.sell", gflops(spmv_flops, t_sell));
    // Computed bytes: CSR streams 8 B value + 8 B index per entry and a row
    // pointer per row; SELL 8 B + 2 B (the narrow index every slice of
    // these banded operators takes) per padded slot and a permutation
    // entry per row; both read x and write y once.
    let csr_bytes = (nnz * 16 + (n + 1) * 8 + 2 * n * 8) as f64;
    let sell_bytes = (sell.padded_nnz() * 10 + 3 * n * 8) as f64;
    out.set("sparse.spmv_flop_per_byte.csr", spmv_flops / csr_bytes);
    out.set("sparse.spmv_flop_per_byte.sell", spmv_flops / sell_bytes);
    let pkn = ParKernels::new(nproc());
    let t_par = p.time("sparse.spmv.sell.par", 1, || {
        pkn.spmv_sell(&sell, black_box(x), &mut y)
    });
    out.set("sparse.spmv_speedup_t2", t_sell / t_par);
    // Its workers must not linger beside the single-threaded probes below.
    drop(pkn);

    // basis: one depth-s matrix powers sweep, cache-fused and level by
    // level. Its output is the s-step block the next probes work on.
    let params = inputs.basis.params(s);
    let mut v = MultiVector::zeros(n, s + 1);
    let mut mv = MultiVector::zeros(n, s);
    for (fused, name) in [(true, "fused"), (false, "levelwise")] {
        let mpk = Mpk::new_par(a, m, pk1.clone())
            .with_format(SparseFormat::Sell)
            .with_fused(fused);
        let mut counters = Counters::new();
        let t = p.time(&format!("basis.mpk.{name}"), 1, || {
            counters = Counters::new();
            mpk.run(black_box(x), None, &params, &mut v, &mut mv, &mut counters);
        });
        let metric = format!("basis.mpk_gflops.{name}");
        out.set(&metric, gflops(counters.total_flops() as f64, t));
    }
    out.set(
        "basis.spectrum_est_s",
        p.time("basis.spectrum_est", 1, || {
            black_box(estimate_spectrum(a, m, x, 20));
        }),
    );

    // sparse: the s-step block body's dense kernels on 2s+1 columns.
    let k = 2 * s + 1;
    let cols: Vec<&[f64]> = (0..=s)
        .map(|j| v.col(j))
        .chain((0..s).map(|j| mv.col(j)))
        .collect();
    let t = p.time("sparse.gram", 1, || {
        black_box(pk1.gram_cols(n, &cols, &cols));
    });
    out.set("sparse.gram_gflops", gflops((2 * n * k * k) as f64, t));
    let u = mv.clone();
    let (mut pblock, mut scratch) = (mv.clone(), MultiVector::zeros(n, s));
    // A contraction, so repeated `P ← U + P·B` stays bounded.
    let bmat = DenseMat::from_fn(s, s, |_, _| 0.5 / s as f64);
    let t = p.time("sparse.blocked_update", 1, || {
        pblock.blocked_update_par(&pk1, &u, &bmat, &mut scratch)
    });
    out.set(
        "sparse.blocked_update_gflops",
        gflops((2 * n * s * s) as f64, t),
    );
    // Cholesky cost depends on the size only; any SPD matrix will do.
    let g = DenseMat::from_fn(k, k, |i, j| {
        1.0 / (1.0 + i.abs_diff(j) as f64) + if i == j { k as f64 } else { 0.0 }
    });
    let rhs = vec![1.0; k];
    let t = p.time("sparse.small_solve", 200, || {
        let chol = Cholesky::factor(black_box(&g)).expect("diagonally dominant");
        black_box(chol.solve(&rhs));
    });
    out.set("sparse.small_solve_us", t * 1e6);
    let xs = MultiVector::from_columns(
        &(0..8)
            .map(|j| x.iter().map(|e| e * (1.0 + j as f64)).collect())
            .collect::<Vec<Vec<f64>>>(),
    );
    let mut ys = MultiVector::zeros(n, 8);
    let t = p.time("sparse.spmm.k8", 1, || {
        pk1.spmm_sell(&sell, black_box(&xs), &mut ys)
    });
    out.set("sparse.spmm_gflops.k8", gflops(8.0 * spmv_flops, t));
    out.set(
        "sparse.sell_convert_s",
        p.time("sparse.sell_convert", 1, || {
            black_box(SellMatrix::from_csr(a));
        }),
    );

    // precond
    let t = p.time("precond.apply", 1, || {
        m.apply_par(&pk1, black_box(x), &mut y)
    });
    out.set(
        "precond.apply_gflops",
        gflops(m.flops_per_apply() as f64, t),
    );
    let recipe = m.spec().expect("benchmark preconditioners have a recipe");
    out.set(
        "precond.build_s",
        p.time("precond.build", 1, || match &recipe {
            // The recipe of a Jacobi operator carries its finished
            // diagonal; build from the matrix, as set-up does.
            PrecondSpec::Jacobi { .. } => {
                black_box(Jacobi::new(a));
            }
            other => {
                black_box(other.build(&inputs.a));
            }
        }),
    );

    // dist: one (2s+1)²-word allreduce between two thread ranks, timed on
    // rank 0 between a barrier and the last of `CALLS` calls.
    if nproc() >= RANKS {
        const CALLS: usize = 200;
        let t = p.sample("dist.allreduce", || {
            run_ranks(RANKS, |comm| {
                let mut buf = vec![1.0; k * k];
                comm.barrier();
                let t0 = Instant::now();
                for _ in 0..CALLS {
                    comm.allreduce_sum(&mut buf);
                }
                black_box(&buf);
                t0.elapsed().as_secs_f64() / CALLS as f64
            })[0]
        });
        out.set("dist.allreduce_us", t * 1e6);
    }

    // service: fingerprint, a full handle build, a resident-handle lookup.
    let member = Member {
        name: "probe",
        sel: Sel::Pcg,
        engine: Engine::Serial,
        backend: Backend::Thread,
        format: SparseFormat::Sell,
    };
    let spec = SolveSpec {
        method: member.sel.method(&inputs.basis),
        precond: recipe.clone(),
        opts: solve_options(&member, None),
        engine: member.engine,
        tune_basis: false,
    };
    out.set(
        "service.fingerprint_s",
        p.time("service.fingerprint", 1, || {
            black_box(fingerprint(a, &spec));
        }),
    );
    out.set(
        "service.handle_build_s",
        p.sample("service.handle_build", || {
            // A fresh copy has no cached SELL form: the build converts.
            let fresh = Arc::new(CsrMatrix::clone(a));
            let t0 = Instant::now();
            black_box(SolverHandle::build(fresh, spec.clone()));
            t0.elapsed().as_secs_f64()
        }),
    );
    let service = SolveService::new(ServiceConfig {
        max_batch: 16,
        cache_capacity: 2,
    });
    service.handle_for(&inputs.a, &spec);
    out.set(
        "service.hit_lookup_s",
        p.time("service.hit_lookup", 1, || {
            black_box(service.handle_for(&inputs.a, &spec));
        }),
    );
}
