//! Kernel throughput sweep for the intra-rank parallel layer: SpMV, the
//! fused tall-skinny Gram product (CA-PCG's square `(2s+1)²` self-product
//! as `gram_fused`, and the stacked `[U|P]ᵀS` of an sPCG block — `10 × 6`
//! at s = 5, `20 × 11` at s = 10 — as `gram_stacked_s5`/`_s10`), and the
//! blocked s-step update, each at thread counts 1–8 on a 7-point 3D
//! Poisson matrix. Emits
//! `BENCH_kernels.json` (GFLOP/s per kernel per thread count, plus the
//! speedup over one thread, plus the `allreduce` row: median µs of one
//! thread-transport collective at 2 and 4 ranks × 1, 121 and 441 words —
//! a scalar and the (2s+1)² Gram payloads of s = 5 and 10, plus the
//! `ghost_zone` rows: what building a rank-local operator costs cold, what
//! finding it cached costs, and the `max_iters = 1` floor of a 2-rank
//! sPCG(s=5) solve on a matrix that has it cached against one that does
//! not — benchcheck holds the warm floor to 0.7× the cold one — and the
//! same floor at 16³ on `spcg-rankd` workers, the process's first proc
//! solve against later ones on the resident world, held to 0.5×; the proc
//! rows need the worker binary built beside this one, and the bin exits
//! before measuring without it, and the `spmm_gflops` row: single-thread
//! `Y ← A·X` at k = 2, 4, 8 on CSR, SELL slots and SELL diagonals, CSR held
//! to at least the slots' rate at k = 8 and the slots to CSR's at k = 2) and
//! `BENCH_overlap.json` (interior/frontier split-SpMV and halo
//! post/complete timings per rank count).
//!
//! The SELL legs run on both encodings of `SellMatrix`: `spmv_sell` and
//! `mpk_levelwise_sell` on the Poisson matrix itself, which is stored as
//! its diagonals, and `spmv_sell_slots` and `mpk_levelwise_sell_slots` on
//! its variable-coefficient twin (`perturb_diagonal`: same pattern and nnz),
//! which is stored in slots. benchcheck holds the slots to 1.5× CSR and
//! the diagonals to 2× the slots.
//!
//! Run: `cargo run --release -p spcg-bench --bin kernels`
//!
//! `SPCG_QUICK=1` shrinks the grid and repetition count for smoke runs;
//! `SPCG_GRID=G` overrides the grid edge. Reported numbers are best-of-reps
//! wall-clock — on machines with fewer cores than threads the sweep still
//! validates correct (deterministic) execution, it just cannot show
//! speedup.
//!
//! All timing goes through `spcg_obs` spans — the same tracer the solvers
//! use — so the bench and a traced solve report the same quantities. Each
//! rep records one span; `TrackSpans::min_duration_s` yields best-of-reps.
//!
//! The blocked update `P ← U + P·B` (in place over row tiles) is reported
//! twice: `blocked_update_cold` is the very first call at each thread count
//! (it pays one-time costs — thread-pool spin-up, the tile scratch's first
//! touch) and `blocked_update` is best-of-reps *after* a warm-up pass.
//! Earlier revisions timed the cold call only, which inflated the 1-thread
//! number by roughly 2× and made the thread-scaling curve look superlinear.
//! `sstep_block_update` is the whole vector-update phase of an sPCG block
//! (`AU = S·B`, both blocked updates, `x += P·a`, `r −= AP·a`) as the
//! solvers run it: one pass, `4s² + 9s − 2` FLOPs per row with the
//! Chebyshev recurrence. `cheb_apply.sell` times one degree-3 Chebyshev
//! preconditioner application through `apply_on`, the band-fused
//! recurrence, on the matrix's SELL form (`flops_per_apply` per call).

use spcg_basis::{BasisParams, Mpk};
use spcg_bench::{quick_mode, write_results};
use spcg_dist::executor::run_ranks;
use spcg_dist::{Backend, Counters, ThreadComm, VectorBoard};
use spcg_obs::{Phase, Tracer};
use spcg_precond::{ChebyshevPrecond, Jacobi, Preconditioner, SpmvPolyApply};
use spcg_solvers::blockops::gram_stacked;
use spcg_solvers::{chebyshev_basis, solve, Engine, Method, Problem, SolveOptions};
use spcg_sparse::generators::poisson::poisson_3d;
use spcg_sparse::generators::{paper_rhs, perturb_diagonal};
use spcg_sparse::partition::BlockRowPartition;
use spcg_sparse::{
    CsrMatrix, DenseMat, GhostZone, MultiVector, ParKernels, SellMatrix, SstepBlock,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const RANKS: [usize; 3] = [1, 2, 4];
const ALLREDUCE_RANKS: [usize; 2] = [2, 4];
const ALLREDUCE_WORDS: [usize; 3] = [1, 121, 441];
const S: usize = 10;

/// Cold call goes on this pseudo-thread id so it stays separate from the
/// warm best-of-reps track of the same kernel.
const COLD_THREAD: usize = 1;
/// Pseudo-thread ids for the SELL-C-σ legs: the warm and cold SpMV on the
/// sliced format, and the matrix powers sweep on SELL storage.
const SELL_THREAD: usize = 2;
const SELL_COLD_THREAD: usize = 3;
const MPK_LEVEL_THREAD: usize = 5;
/// Pseudo-thread ids of the slot-encoding legs on the matrix's
/// variable-coefficient twin: SELL SpMV and the matrix powers sweep.
const SLOT_SPMV_THREAD: usize = 11;
const SLOT_MPK_LEVEL_THREAD: usize = 13;
/// Best-of samples of each SELL SpMV leg: a sample is tens of µs, and
/// benchcheck gates two ratios of these legs in quick mode too.
const SELL_REPS: usize = 20;
/// Pseudo-thread id of the fused s-step block update.
const SSTEP_THREAD: usize = 6;
/// Pseudo-thread ids and `s` of the stacked `[U|P]ᵀS` Gram legs.
const STACKED: [(usize, usize); 2] = [(7, 5), (8, S)];
/// Pseudo-thread id of the Chebyshev apply leg.
const CHEB_THREAD: usize = 10;
/// Applies per timed sample of a Chebyshev leg (one apply is a millisecond,
/// short enough for a timer tick or a migration to show) and samples per
/// leg, in quick mode too: the whole row costs under a second.
const CHEB_CALLS: usize = 8;
const CHEB_REPS: usize = 7;
/// The `ghost_zone` rows: 2 ranks, the depths of PCG and of an s = 5
/// method, and samples per timing in quick mode too (benchcheck gates a
/// ratio of two of them, and a sample is milliseconds).
const ZONE_RANKS: usize = 2;
const ZONE_DEPTHS: [usize; 2] = [1, 5];
const ZONE_REPS: usize = 7;
const ZONE_LOOKUPS: usize = 10_000;
/// Column counts of the `spmm_gflops` rows, and samples per leg in quick
/// mode too (benchcheck gates a ratio of two of them; a sample is
/// milliseconds).
const SPMM_WIDTHS: [usize; 3] = [2, 4, 8];
const SPMM_REPS: usize = 7;

fn filled_multivector(n: usize, k: usize, seed: usize) -> MultiVector {
    let cols: Vec<Vec<f64>> = (0..k)
        .map(|j| {
            (0..n)
                .map(|i| (((i * 31 + (seed + j) * 17) % 41) as f64) / 41.0 - 0.5)
                .collect()
        })
        .collect();
    MultiVector::from_columns(&cols)
}

fn json_array(values: &[f64]) -> String {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!("[{}]", cells.join(", "))
}

fn json_array_sci(values: &[f64]) -> String {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:.3e}")).collect();
    format!("[{}]", cells.join(", "))
}

/// Median microseconds of one `allreduce_sum` of `words` words between
/// `ranks` rank threads: `samples` samples on rank 0, each the mean of
/// `calls` back-to-back collectives after a barrier. With more ranks than
/// cores (see the file's `nproc`) the waiters park instead of spinning, and
/// the number is a futex round trip, not a cache-line transfer.
fn allreduce_median_us(ranks: usize, words: usize, samples: usize, calls: usize) -> f64 {
    let mut us = run_ranks(ranks, |comm: ThreadComm| {
        let mut buf = vec![1.0; words];
        (0..samples)
            .map(|_| {
                buf.fill(1.0);
                comm.barrier();
                let t0 = std::time::Instant::now();
                for _ in 0..calls {
                    comm.allreduce_sum(&mut buf);
                }
                std::hint::black_box(&buf);
                t0.elapsed().as_secs_f64() * 1e6 / calls as f64
            })
            .collect::<Vec<f64>>()
    })
    .swap_remove(0);
    us.sort_by(f64::total_cmp);
    us[us.len() / 2]
}

/// Runs `reps` split-phase rounds on `ranks` rank threads and returns the
/// critical-path (max-over-ranks) best-of-reps seconds per phase, keyed
/// `(post, interior, complete, frontier)`, plus summed row/word counts and
/// each rank's interior encoding and band length (the interior rows).
/// This is the exact schedule `Engine::Ranked` uses with overlap on:
/// post → interior SpMV → complete → frontier SpMV, one exchange per
/// round. The phase timings come from the same obs spans the traced
/// solver emits (`ExchangePost`/`Spmv`/`ExchangeWait`/`Frontier`).
fn overlap_round(
    a: &CsrMatrix,
    x: &[f64],
    ranks: usize,
    reps: usize,
) -> ([f64; 4], usize, usize, usize, String) {
    let n = a.nrows();
    let part = BlockRowPartition::balanced(n, ranks);
    let offsets: Vec<usize> = (0..ranks).map(|r| part.range(r).0).chain([n]).collect();
    let board = VectorBoard::new(offsets);
    let tracer = Tracer::new();
    let counts = run_ranks(ranks, |comm: ThreadComm| {
        let track = tracer.track(comm.rank());
        let (lo, hi) = part.range(comm.rank());
        let nl = hi - lo;
        let gz = a.ghost_zone(lo, hi, 1);
        let plan = board.plan(gz.ghost_indices());
        let pk = ParKernels::new(1);
        let x_local = &x[lo..hi];
        let mut ext = vec![0.0; gz.ext_len()];
        let mut y = vec![0.0; nl];
        for _ in 0..reps {
            board.post_traced(&comm, x_local, Some(&track));
            ext[..nl].copy_from_slice(x_local);
            {
                let _s = track.span(Phase::Spmv);
                gz.spmv_interior(&pk, &ext, &mut y);
            }
            board.complete_into_traced(&comm, &plan, &mut ext[nl..], Some(&track));
            {
                let _s = track.span(Phase::Frontier);
                gz.spmv_frontier(&pk, nl, &ext, &mut y);
            }
        }
        (
            gz.interior_rows().len(),
            gz.frontier_rows(nl).len(),
            plan.words(),
            gz.interior_is_diagonal(),
        )
    });
    // Critical path: the slowest rank gates each phase; counts sum.
    let phases = [
        Phase::ExchangePost,
        Phase::Spmv,
        Phase::ExchangeWait,
        Phase::Frontier,
    ];
    let mut best = [0.0f64; 4];
    for track in tracer.tracks() {
        for (slot, &phase) in best.iter_mut().zip(&phases) {
            let rank_best = track.min_duration_s(phase).unwrap_or(0.0);
            *slot = slot.max(rank_best);
        }
    }
    let n_interior = counts.iter().map(|c| c.0).sum();
    let n_frontier = counts.iter().map(|c| c.1).sum();
    let halo_words = counts.iter().map(|c| c.2).sum();
    let bands: Vec<String> = counts
        .iter()
        .map(|c| format!("{} {}", if c.3 { "diagonals" } else { "slots" }, c.0))
        .collect();
    (best, n_interior, n_frontier, halo_words, bands.join(", "))
}

/// Best of `reps` wall-clock milliseconds of `f`.
fn best_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// The `ghost_zone` object of `BENCH_kernels.json` (see the module docs):
/// cold `GhostZone::new` of rank 0's block per depth, a cache
/// hit of [`CsrMatrix::ghost_zone`], and the one-iteration floor of a
/// `ZONE_RANKS`-rank sPCG(s=5) solve, warm (the matrix has served the
/// same solve) and cold (a fresh clone per sample), samples alternating.
fn ghost_zone_rows(a: &CsrMatrix) -> String {
    let (lo, hi) = BlockRowPartition::balanced(a.nrows(), ZONE_RANKS).range(0);
    let mut build_cells = Vec::new();
    for depth in ZONE_DEPTHS {
        let ms = best_ms(ZONE_REPS, || {
            black_box(GhostZone::new(a, lo, hi, depth));
        });
        build_cells.push(format!("\"sell_d{depth}\": {ms:.4}"));
    }

    let warm = a.clone();
    let depth = ZONE_DEPTHS[1];
    warm.ghost_zone(lo, hi, depth);
    let lookup_us = 1e3 / ZONE_LOOKUPS as f64
        * best_ms(1, || {
            for _ in 0..ZONE_LOOKUPS {
                black_box(warm.ghost_zone(lo, hi, black_box(1)));
            }
        });

    let b = paper_rhs(a);
    let m = Jacobi::new(a);
    let basis = chebyshev_basis(&Problem::new(a, &m, &b), 20, 0.05);
    let method = Method::SPcg { s: depth, basis };
    let opts = SolveOptions::default().with_max_iters(1);
    let engine = Engine::Ranked { ranks: ZONE_RANKS };
    let floor = |on: &CsrMatrix| {
        best_ms(1, || {
            black_box(solve(&method, &Problem::new(on, &m, &b), &opts, engine));
        })
    };
    floor(&warm);
    let (mut cold_ms, mut warm_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ZONE_REPS {
        cold_ms = cold_ms.min(floor(&a.clone()));
        warm_ms = warm_ms.min(floor(&warm));
    }
    let (proc_cold_ms, proc_warm_ms) = proc_floor_ms();
    eprintln!(
        "[kernels] ghost_zone: build ms {{{}}}, lookup {lookup_us:.3} us, rank_solve_floor cold {cold_ms:.3} ms, warm {warm_ms:.3} ms, proc cold {proc_cold_ms:.3} ms, proc warm {proc_warm_ms:.3} ms",
        build_cells.join(", ")
    );
    format!(
        "{{\n    \"ranks\": {ZONE_RANKS},\n    \"cold_build_ms\": {{{}}},\n    \"cached_lookup_us\": {lookup_us:.4},\n    \"rank_solve_floor_cold_ms\": {cold_ms:.4},\n    \"rank_solve_floor_warm_ms\": {warm_ms:.4},\n    \"rank_solve_floor_proc_cold_ms\": {proc_cold_ms:.4},\n    \"rank_solve_floor_proc_warm_ms\": {proc_warm_ms:.4}\n  }}",
        build_cells.join(", ")
    )
}

/// The `spmm_gflops` object of `BENCH_kernels.json`: single-thread Gflop/s
/// of `Y ← A·X` at each of [`SPMM_WIDTHS`], keyed `k<k>.<form>` — the
/// interleaved CSR kernel (`csr`, on the variable-coefficient twin) and
/// SELL's column-at-a-time `ParKernels::spmm_sell` on the twin's slots
/// (`sell`) and on the matrix's diagonals (`diagonals`). A serial solve's
/// multi-column products run `diagonals` on a constant-coefficient matrix
/// and `csr` everywhere else. The legs
/// alternate sample by sample; benchcheck fails a k = 8 rate ordering that
/// contradicts that routing.
fn spmm_rows(twin: &CsrMatrix, slots: &SellMatrix, diagonals: &SellMatrix) -> String {
    let pk = ParKernels::new(1);
    let mut cells = Vec::new();
    for k in SPMM_WIDTHS {
        let x = filled_multivector(twin.ncols(), k, 23);
        let mut y = MultiVector::zeros(twin.nrows(), k);
        let flops = 2.0 * twin.nnz() as f64 * k as f64;
        // First calls build the panel reach and the slice schedules.
        pk.spmm(twin, &x, &mut y);
        pk.spmm_sell(slots, &x, &mut y);
        pk.spmm_sell(diagonals, &x, &mut y);
        let mut ms = [f64::INFINITY; 3];
        for _ in 0..SPMM_REPS {
            ms[0] = ms[0].min(best_ms(1, || pk.spmm(twin, black_box(&x), &mut y)));
            ms[1] = ms[1].min(best_ms(1, || pk.spmm_sell(slots, black_box(&x), &mut y)));
            ms[2] = ms[2].min(best_ms(1, || {
                pk.spmm_sell(diagonals, black_box(&x), &mut y)
            }));
        }
        let [csr, sell, diag] = ms.map(|t| flops / t / 1e6);
        eprintln!(
            "[kernels] spmm k={k}: csr {csr:.2} GF/s, sell slots {sell:.2}, diagonals {diag:.2}"
        );
        cells.push(format!(
            "\"k{k}.csr\": {csr:.4}, \"k{k}.sell\": {sell:.4}, \"k{k}.diagonals\": {diag:.4}"
        ));
    }
    format!("{{{}}}", cells.join(", "))
}

/// The floor on `spcg-rankd` workers: a `max_iters = 1` 2-rank sPCG(s=5)
/// solve of `poisson_3d(16)` over the proc backend, cold and warm.
/// Cold is the first proc solve of this process, which spawns the world
/// and ships the matrix — what every proc solve paid before workers were
/// resident — so it is one sample by construction; warm is the best of
/// `ZONE_REPS` later solves on the same matrix.
///
/// # Panics
/// Panics if the solve ran on threads (a stale `spcg-rankd`; `main` has
/// already refused a missing one).
fn proc_floor_ms() -> (f64, f64) {
    let a = poisson_3d(16);
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let basis = chebyshev_basis(&problem, 20, 0.05);
    let method = Method::SPcg {
        s: ZONE_DEPTHS[1],
        basis,
    };
    let opts = SolveOptions::default()
        .with_max_iters(1)
        .with_backend(Backend::Proc);
    let floor = || {
        best_ms(1, || {
            let res = solve(
                &method,
                &problem,
                &opts,
                Engine::Ranked { ranks: ZONE_RANKS },
            );
            assert_eq!(
                res.backend,
                Some(Backend::Proc),
                "proc floor ran on threads: `cargo build --release --bin spcg-rankd` first"
            );
        })
    };
    let cold = floor();
    let warm = (0..ZONE_REPS)
        .map(|_| floor())
        .fold(f64::INFINITY, f64::min);
    (cold, warm)
}

fn main() {
    // The proc floor rows come late in the sweep; refuse before measuring
    // anything rather than lose the sweep to a missing worker binary.
    #[cfg(unix)]
    if spcg_solvers::procexec::rankd_path().is_none() {
        eprintln!(
            "kernels: spcg-rankd not found — `cargo build --release --bin spcg-rankd` \
             first or set SPCG_RANKD"
        );
        std::process::exit(1);
    }
    let quick = quick_mode();
    let default_grid = if quick { 24 } else { 48 };
    let grid = spcg_bench::grid_or(default_grid);
    let reps = if quick { 2 } else { 5 };

    eprintln!(
        "[kernels] building 3D Poisson {grid}^3 ({} rows), s = {S}, reps = {reps}",
        grid * grid * grid
    );
    let a = Arc::new(poisson_3d(grid));
    let n = a.nrows();
    let nnz = a.nnz();

    let x: Vec<f64> = (0..n).map(|i| ((i % 37) as f64) / 37.0 - 0.5).collect();
    let mut y = vec![0.0; n];
    // CA-PCG Gram shape at s = 10: a (2s+1)-column block against itself.
    let v_gram = filled_multivector(n, 2 * S + 1, 7);
    let u_mat = filled_multivector(n, S, 3);
    let b_small = DenseMat::from_fn(S, S, |i, j| (((i * 5 + j * 3) % 11) as f64) / 11.0 - 0.5);
    let s_mat = filled_multivector(n, S + 1, 11);
    let a_vec: Vec<f64> = (0..S).map(|j| 0.05 * (j as f64 + 1.0)).collect();

    // FLOPs per call: SpMV 2·nnz; Gram k² entries of 2n each; blocked
    // update P ← U + P·B is 2·s²·n; the full s-step block update is two of
    // those, AU at 5s − 2 per row and the two GEMVs at 4s.
    let k = 2 * S + 1;
    let spmv_flops = 2.0 * nnz as f64;
    let gram_flops = 2.0 * (k * k) as f64 * n as f64;
    let stacked_flops = STACKED.map(|(_, s)| 2.0 * (2 * s * (s + 1)) as f64 * n as f64);
    let update_flops = 2.0 * (S * S) as f64 * n as f64;
    let sstep_flops = (4 * S * S + 9 * S - 2) as f64 * n as f64;

    // SELL-C-σ leg: one conversion (cached on the matrix), shared across
    // thread counts.
    let sell = a.sell();
    let m_jac = Jacobi::new(&a);
    // The slot-encoding legs run on the matrix's variable-coefficient twin
    // (same pattern and nnz, a perturbed diagonal), which `from_csr`
    // stores in slots where it stores the matrix itself as diagonals.
    let twin = perturb_diagonal(&a, 48);
    let sell_slots = twin.sell();
    assert!(sell.is_diagonal() && !sell_slots.is_diagonal());
    let m_twin = Jacobi::new(&twin);
    let mpk_params = BasisParams::chebyshev(0.1, 11.9, S);
    // FLOPs of one depth-S sweep, taken from the counters of a probe run
    // (SpMV + basis corrections + pointwise precond) so both encodings'
    // legs are normalized by the identical total.
    let mpk_flops: f64 = {
        let probe = Mpk::new_par(&a, &m_jac, ParKernels::new(1));
        let mut v = MultiVector::zeros(n, S + 1);
        let mut mv = MultiVector::zeros(n, S + 1);
        let mut c = Counters::new();
        probe.run(&x, None, &mpk_params, &mut v, &mut mv, &mut c);
        (c.spmv_flops + c.blas1_flops + c.precond_flops) as f64
    };

    let mut spmv_gf = Vec::new();
    let mut spmv_sell_gf = Vec::new();
    let mut spmv_sell_cold_gf = Vec::new();
    let mut mpk_level_gf = Vec::new();
    let mut spmv_slots_gf = Vec::new();
    let mut mpk_level_slots_gf = Vec::new();
    let mut gram_gf = Vec::new();
    let mut stacked_gf = [Vec::new(), Vec::new()];
    let mut update_gf = Vec::new();
    let mut update_cold_gf = Vec::new();
    let mut sstep_gf = Vec::new();
    let mut cheb_gf = Vec::new();
    // Degree 3 on the Gershgorin interval, the paper's Table 3 setting.
    let cheb = ChebyshevPrecond::from_matrix(Arc::clone(&a), 3, 30.0);
    let cheb_flops = CHEB_CALLS as f64 * cheb.flops_per_apply() as f64;
    for &t in &THREADS {
        let pk = ParKernels::new(t);
        // One tracer per thread count: rank id = thread count, the warm
        // best-of-reps spans on thread 0, the cold call on COLD_THREAD.
        let tracer = Tracer::new();
        {
            let track = tracer.track_on(t, 0);
            let cold = tracer.track_on(t, COLD_THREAD);
            // Warm the cached row schedule so it is not timed.
            pk.spmv(&a, &x, &mut y);
            for _ in 0..reps {
                let _s = track.span(Phase::Spmv);
                pk.spmv(&a, &x, &mut y);
            }
            for _ in 0..reps {
                let _s = track.span(Phase::Gram);
                let _ = pk.gram(&v_gram, &v_gram);
            }
            // The sPCG block's `[U|P]ᵀS`, operands built per leg.
            for (thread, s) in STACKED {
                let (u, p) = (filled_multivector(n, s, 13), filled_multivector(n, s, 17));
                let s_mat = filled_multivector(n, s + 1, 19);
                let stacked_track = tracer.track_on(t, thread);
                for _ in 0..reps {
                    let _s = stacked_track.span(Phase::Gram);
                    let _ = gram_stacked(&pk, &u, Some(&p), &s_mat);
                }
            }
            let mut p_mat = filled_multivector(n, S, 5);
            // Cold: the first call pays pool spin-up and first-touch faults.
            {
                let _s = cold.span(Phase::VecUpdate);
                pk.blocked_update(&mut p_mat, &u_mat, &b_small);
            }
            // Warm: steady-state best-of-reps, the number iterations see.
            for _ in 0..reps {
                let _s = track.span(Phase::VecUpdate);
                pk.blocked_update(&mut p_mat, &u_mat, &b_small);
            }

            // The fused block update on the MPK legs' Chebyshev
            // recurrence. B is a contraction scaled so P and AP stay
            // bounded over the reps.
            let sstep_track = tracer.track_on(t, SSTEP_THREAD);
            let b_k = DenseMat::from_fn(S, S, |i, j| b_small[(i, j)] / S as f64);
            let blk = SstepBlock {
                s_mat: &s_mat,
                gamma: &mpk_params.gamma,
                theta: &mpk_params.theta,
                mu: &mpk_params.mu,
                u: &u_mat,
                b_k: Some(&b_k),
                a: &a_vec,
            };
            let mut ap_mat = filled_multivector(n, S, 6);
            let (mut xv, mut rv) = (x.clone(), x.clone());
            pk.sstep_block_update(&blk, &mut p_mat, &mut ap_mat, &mut xv, &mut rv);
            for _ in 0..reps {
                let _s = sstep_track.span(Phase::VecUpdate);
                pk.sstep_block_update(&blk, &mut p_mat, &mut ap_mat, &mut xv, &mut rv);
            }

            // The Chebyshev apply on the matrix's SELL form, operands built
            // and dropped with the leg; the first call warms the band
            // schedule.
            {
                let cheb_track = tracer.track_on(t, CHEB_THREAD);
                let (r, mut z) = (x.clone(), vec![0.0; n]);
                cheb.apply_on(&pk, &sell, &r, &mut z);
                for _ in 0..CHEB_REPS {
                    let _s = cheb_track.span(Phase::Precond);
                    for _ in 0..CHEB_CALLS {
                        cheb.apply_on(&pk, &sell, std::hint::black_box(&r), &mut z);
                    }
                }
            }

            // SELL SpMV on both encodings, diagonals on the matrix and
            // slots on its twin: the cold call pays the slice-schedule
            // build for this thread count; warm is best-of-reps on the same
            // cached schedule, the legs alternating sample by sample.
            let sell_warm = tracer.track_on(t, SELL_THREAD);
            let sell_cold = tracer.track_on(t, SELL_COLD_THREAD);
            let slots_warm = tracer.track_on(t, SLOT_SPMV_THREAD);
            {
                let _s = sell_cold.span(Phase::Spmv);
                pk.spmv_sell(&sell, &x, &mut y);
            }
            pk.spmv_sell(&sell_slots, &x, &mut y);
            for _ in 0..SELL_REPS {
                for (track, op) in [(&sell_warm, &sell), (&slots_warm, &sell_slots)] {
                    let _s = track.span(Phase::Spmv);
                    pk.spmv_sell(op, &x, &mut y);
                }
            }

            // Matrix powers sweep on SELL storage, once per encoding.
            let legs = [
                (&*a, &m_jac, MPK_LEVEL_THREAD),
                (&twin, &m_twin, SLOT_MPK_LEVEL_THREAD),
            ];
            for (op, m, level_thread) in legs {
                let level_track = tracer.track_on(t, level_thread);
                let mpk_level = Mpk::new_par(op, m, ParKernels::new(t));
                let mut v = MultiVector::zeros(n, S + 1);
                let mut mv = MultiVector::zeros(n, S + 1);
                let mut c = Counters::new();
                // One warm-up, then best-of-reps.
                mpk_level.run(&x, None, &mpk_params, &mut v, &mut mv, &mut c);
                for _ in 0..reps {
                    let _s = level_track.span(Phase::MpkLevel);
                    mpk_level.run(&x, None, &mpk_params, &mut v, &mut mv, &mut c);
                }
            }
        }
        let tracks = tracer.tracks();
        let min_of = |thread: usize, phase: Phase| -> f64 {
            tracks
                .iter()
                .find(|tr| tr.thread == thread)
                .and_then(|tr| tr.min_duration_s(phase))
                .expect("bench span missing")
        };
        let ts = min_of(0, Phase::Spmv);
        let tg = min_of(0, Phase::Gram);
        let tu = min_of(0, Phase::VecUpdate);
        let tu_cold = min_of(COLD_THREAD, Phase::VecUpdate);
        let t_sstep = min_of(SSTEP_THREAD, Phase::VecUpdate);
        let ts_sell = min_of(SELL_THREAD, Phase::Spmv);
        let ts_sell_cold = min_of(SELL_COLD_THREAD, Phase::Spmv);
        let tm_level = min_of(MPK_LEVEL_THREAD, Phase::MpkLevel);
        spmv_gf.push(spmv_flops / ts / 1e9);
        spmv_sell_gf.push(spmv_flops / ts_sell / 1e9);
        spmv_sell_cold_gf.push(spmv_flops / ts_sell_cold / 1e9);
        mpk_level_gf.push(mpk_flops / tm_level / 1e9);
        spmv_slots_gf.push(spmv_flops / min_of(SLOT_SPMV_THREAD, Phase::Spmv) / 1e9);
        mpk_level_slots_gf.push(mpk_flops / min_of(SLOT_MPK_LEVEL_THREAD, Phase::MpkLevel) / 1e9);
        gram_gf.push(gram_flops / tg / 1e9);
        for ((gf, (thread, _)), flops) in stacked_gf.iter_mut().zip(STACKED).zip(stacked_flops) {
            gf.push(flops / min_of(thread, Phase::Gram) / 1e9);
        }
        update_gf.push(update_flops / tu / 1e9);
        update_cold_gf.push(update_flops / tu_cold / 1e9);
        sstep_gf.push(sstep_flops / t_sstep / 1e9);
        cheb_gf.push(cheb_flops / min_of(CHEB_THREAD, Phase::Precond) / 1e9);
        eprintln!(
            "[kernels] threads={t}: spmv {:.2} GF/s (sell diagonals {:.2}, slots {:.2}), cheb apply {:.2} GF/s, mpk {:.2} GF/s (slots {:.2}), gram {:.2} GF/s (stacked s=5 {:.2}, s=10 {:.2}), update {:.2} GF/s (cold {:.2}), sstep block update {:.2} GF/s",
            spmv_gf.last().unwrap(),
            spmv_sell_gf.last().unwrap(),
            spmv_slots_gf.last().unwrap(),
            cheb_gf.last().unwrap(),
            mpk_level_gf.last().unwrap(),
            mpk_level_slots_gf.last().unwrap(),
            gram_gf.last().unwrap(),
            stacked_gf[0].last().unwrap(),
            stacked_gf[1].last().unwrap(),
            update_gf.last().unwrap(),
            update_cold_gf.last().unwrap(),
            sstep_gf.last().unwrap()
        );
    }

    // One thread-transport collective, per rank count and payload.
    let (samples, calls) = if quick { (5, 50) } else { (15, 200) };
    let allreduce_rows: Vec<String> = ALLREDUCE_RANKS
        .iter()
        .map(|&r| {
            let row: Vec<f64> = ALLREDUCE_WORDS
                .iter()
                .map(|&w| allreduce_median_us(r, w, samples, calls))
                .collect();
            eprintln!("[kernels] allreduce ranks={r}: {row:.2?} us at {ALLREDUCE_WORDS:?} words");
            json_array(&row)
        })
        .collect();

    let spmm = spmm_rows(&twin, &sell_slots, &sell);
    let zone_rows = ghost_zone_rows(&a);

    let speedup = |gf: &[f64]| -> Vec<f64> { gf.iter().map(|g| g / gf[0]).collect() };
    let threads_list: Vec<String> = THREADS.iter().map(|t| t.to_string()).collect();
    // The physical core budget, so a reader (and benchcheck) can tell a
    // kernel that fails to scale from a machine that cannot show scaling.
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let out = format!(
        "{{\n  \"matrix\": \"poisson3d_{grid}\",\n  \"n\": {n},\n  \"nnz\": {nnz},\n  \"s\": {S},\n  \"gram_columns\": {k},\n  \"reps\": {reps},\n  \"nproc\": {nproc},\n  \"threads\": [{}],\n  \"sell_pad_ratio\": {:.4},\n  \"sell_slots_pad_ratio\": {:.4},\n  \"gflops\": {{\n    \"spmv\": {},\n    \"spmv_sell\": {},\n    \"spmv_sell_cold\": {},\n    \"mpk_levelwise_sell\": {},\n    \"spmv_sell_slots\": {},\n    \"mpk_levelwise_sell_slots\": {},\n    \"gram_fused\": {},\n    \"gram_stacked_s5\": {},\n    \"gram_stacked_s10\": {},\n    \"blocked_update\": {},\n    \"blocked_update_cold\": {},\n    \"sstep_block_update\": {},\n    \"cheb_apply.sell\": {}\n  }},\n  \"speedup_vs_1_thread\": {{\n    \"spmv\": {},\n    \"spmv_sell\": {},\n    \"spmv_sell_cold\": {},\n    \"mpk_levelwise_sell\": {},\n    \"spmv_sell_slots\": {},\n    \"mpk_levelwise_sell_slots\": {},\n    \"gram_fused\": {},\n    \"gram_stacked_s5\": {},\n    \"gram_stacked_s10\": {},\n    \"blocked_update\": {},\n    \"blocked_update_cold\": {},\n    \"sstep_block_update\": {},\n    \"cheb_apply.sell\": {}\n  }},\n  \"allreduce\": {{\n    \"ranks\": {:?},\n    \"words\": {:?},\n    \"median_us\": [{}]\n  }},\n  \"spmm_gflops\": {spmm},\n  \"ghost_zone\": {zone_rows}\n}}\n",
        threads_list.join(", "),
        sell.pad_ratio(),
        sell_slots.pad_ratio(),
        json_array(&spmv_gf),
        json_array(&spmv_sell_gf),
        json_array(&spmv_sell_cold_gf),
        json_array(&mpk_level_gf),
        json_array(&spmv_slots_gf),
        json_array(&mpk_level_slots_gf),
        json_array(&gram_gf),
        json_array(&stacked_gf[0]),
        json_array(&stacked_gf[1]),
        json_array(&update_gf),
        json_array(&update_cold_gf),
        json_array(&sstep_gf),
        json_array(&cheb_gf),
        json_array(&speedup(&spmv_gf)),
        json_array(&speedup(&spmv_sell_gf)),
        json_array(&speedup(&spmv_sell_cold_gf)),
        json_array(&speedup(&mpk_level_gf)),
        json_array(&speedup(&spmv_slots_gf)),
        json_array(&speedup(&mpk_level_slots_gf)),
        json_array(&speedup(&gram_gf)),
        json_array(&speedup(&stacked_gf[0])),
        json_array(&speedup(&stacked_gf[1])),
        json_array(&speedup(&update_gf)),
        json_array(&speedup(&update_cold_gf)),
        json_array(&speedup(&sstep_gf)),
        json_array(&speedup(&cheb_gf)),
        ALLREDUCE_RANKS,
        ALLREDUCE_WORDS,
        allreduce_rows.join(", "),
    );
    write_results("BENCH_kernels.json", &out);

    // Split-phase overlap round: per rank count, time each phase of
    // post → interior SpMV → complete → frontier SpMV on real rank threads.
    let mut post_s = Vec::new();
    let mut interior_s = Vec::new();
    let mut complete_s = Vec::new();
    let mut frontier_s = Vec::new();
    let mut interior_frac = Vec::new();
    let mut halo_words = Vec::new();
    for &r in &RANKS {
        let ([post, interior, complete, frontier], n_int, n_front, words, bands) =
            overlap_round(&a, &x, r, reps);
        eprintln!(
            "[kernels] ranks={r}: post {:.1}us, interior {:.1}us ({n_int} rows; band per rank: {bands}), complete {:.1}us, frontier {:.1}us ({n_front} rows), halo {words} words",
            post * 1e6,
            interior * 1e6,
            complete * 1e6,
            frontier * 1e6,
        );
        interior_frac.push(n_int as f64 / n as f64);
        post_s.push(post);
        interior_s.push(interior);
        complete_s.push(complete);
        frontier_s.push(frontier);
        halo_words.push(words as f64);
    }
    let ranks_list: Vec<String> = RANKS.iter().map(|r| r.to_string()).collect();
    let out = format!(
        "{{\n  \"matrix\": \"poisson3d_{grid}\",\n  \"n\": {n},\n  \"nnz\": {nnz},\n  \"reps\": {reps},\n  \"ranks\": [{}],\n  \"seconds_max_over_ranks\": {{\n    \"exchange_post\": {},\n    \"spmv_interior\": {},\n    \"exchange_complete\": {},\n    \"spmv_frontier\": {}\n  }},\n  \"interior_row_fraction\": {},\n  \"halo_words_total\": {}\n}}\n",
        ranks_list.join(", "),
        json_array_sci(&post_s),
        json_array_sci(&interior_s),
        json_array_sci(&complete_s),
        json_array_sci(&frontier_s),
        json_array(&interior_frac),
        json_array(&halo_words),
    );
    write_results("BENCH_overlap.json", &out);
}
