//! Validates freshly emitted benchmark JSON against committed baselines.
//!
//! Usage: `benchcheck <fresh.json> <baseline.json> [<fresh> <baseline> ...]`
//!
//! For each pair the check fails when
//!
//! * the fresh file is missing or unparsable,
//! * a key present in the baseline is missing from the fresh output
//!   (schema drift — a renamed or dropped metric), or
//! * a numeric leaf under a `gflops` object differs from the baseline by
//!   more than [`MAX_RATIO`]× in either direction (a timing anomaly: a
//!   broken kernel, a misconfigured run, or a unit change).
//!
//! Only `gflops` subtrees get the ratio check — iteration counts, sizes,
//! and thread lists are schema-checked but machines legitimately differ in
//! absolute throughput, and quick-mode runs legitimately subsample sweeps,
//! so arrays are compared over their common prefix. Exit status is the
//! number of failing pairs (0 = all good), capped at process-exit range.
//!
//! Fitted calibration constants (the `calibration` blocks of
//! `BENCH_scale.json`) get a *range* check instead of a baseline ratio:
//! machines differ wildly in absolute transport cost, but an α outside
//! nanoseconds-to-centiseconds, a β outside the plausible inverse-bandwidth
//! band, or a γ outside 10 kFLOP/s–10 TFLOP/s means the fit ingested
//! garbage (empty traces, a unit mix-up, hard-coded constants).
//!
//! The SELL layout carries its own gates, one per encoding: a fresh
//! `gflops` object that reports a CSR `spmv` must also report
//! `spmv_sell_slots` (the slot encoding, on the variable-coefficient twin),
//! and the single-thread slots/CSR throughput ratio must reach
//! [`SELL_MIN_RATIO`] — the sliced format exists to beat CSR, and a ratio
//! collapse means the unrolled kernel regressed (or the build lost its
//! SIMD path); and `spmv_sell` (the diagonal encoding, on the
//! constant-coefficient matrix itself) must reach
//! [`DIAGONALS_OVER_SLOTS_MIN`]× the slots.
//!
//! The Gram kernel has the same kind of gate against the same run's
//! `sstep_block_update` leg ([`GRAM_MIN_RATIO`]), and the rank-local
//! operator cache has one
//! through the same function: a kernels sweep's `ghost_zone` rows must show
//! the one-iteration ranked solve on a freshly cloned matrix taking at
//! least [`ZONE_COLD_OVER_WARM_MIN`]× what it takes on a matrix that has
//! the zones cached, and the process's first proc-backend solve (which
//! spawns the workers and ships the matrix) at least
//! [`PROC_COLD_OVER_WARM_MIN`]× a later one on the resident world. Its
//! `spmm_gflops` row holds the two premises of how a serial solve routes
//! a product of k ≥ 2 columns: at k = 8 the
//! interleaved CSR SpMM must reach [`SPMM_CSR_OVER_SELL_MIN`]× SELL's SpMM
//! on slots (so a matrix in slots runs it on CSR), and SELL's SpMM on
//! diagonals [`SPMM_DIAGONALS_OVER_CSR_MIN`]× the CSR kernel (so a
//! constant-coefficient matrix runs it on its diagonals).
//!
//! A kernels sweep also carries the `allreduce` row (median µs of one
//! thread-transport collective per rank count and payload): it must be
//! present and positive in the fresh file, and wherever the baseline has it
//! too *and* both machines put that rank count on the same side of their
//! core count (waiters spin only when every rank has a core; a parked
//! collective is a futex round trip, an order of magnitude dearer), a fresh
//! median more than [`MAX_RATIO`]× the baseline's fails — the collective
//! has gone back to sleeping through every call.
//!
//! Two more fresh-file-only gates (baselines must not grandfather their
//! absence):
//!
//! * a kernels sweep (a `gflops` object reporting `spmv`) must carry an
//!   `nproc` field and a `speedup_vs_1_thread` entry for **every** leg in
//!   `gflops` — without the core count, 1-core container numbers are
//!   uninterpretable, and a leg without its speedup hides scaling
//!   regressions;
//! * a service sweep (a file with `batch_widths`) must show
//!   `gflops.batched_pcg` monotone non-decreasing from k = 1 to k = 8
//!   (pairwise noise slack [`SERVICE_MONOTONE_SLACK`], strict end-to-end),
//!   a width-1 batched solve within [`SERVICE_K1_MAX_RATIO`]× of the plain
//!   `solve()` it shares its body with, and a cache-hit setup within [`SERVICE_MAX_HIT_RATIO`] of
//!   the cold-start solve. Batching exists to amortize the matrix stream;
//!   a falling curve means the blocked path regressed into overhead.

use spcg_obs::json::{parse, Value};
use std::process::ExitCode;

/// Allowed fresh/baseline throughput ratio (either direction). Generous on
/// purpose: CI runners are slow and noisy, but a >10× swing means the
/// benchmark is measuring something else entirely.
const MAX_RATIO: f64 = 10.0;

/// Plausibility ranges for fitted calibration constants, `(key, lo, hi)`
/// exclusive on both ends.
const CALIB_RANGES: [(&str, f64, f64); 3] = [
    ("alpha_seconds", 1e-9, 1e-1),
    ("beta_seconds_per_word", 1e-13, 1e-4),
    ("gamma_flops", 1e4, 1e13),
];

/// Minimum fresh single-thread `spmv_sell_slots[0] / spmv[0]` ratio: the
/// slot encoding against CSR on the same variable-coefficient matrix. The
/// measured ratio on the reference runner is ~1.9×; dipping under 1.5×
/// means the slot kernel lost its bandwidth/ILP advantage.
const SELL_MIN_RATIO: f64 = 1.5;

/// Minimum fresh single-thread `spmv_sell[0] / spmv_sell_slots[0]` ratio:
/// the gather-free diagonal kernel on the constant-coefficient matrix
/// against the slot kernel on its twin (same pattern and nnz). Measured
/// 3–5× on the reference runner at 48³; under 2× the diagonal kernel lost
/// its AVX2 body, or `from_csr` stopped picking the encoding.
const DIAGONALS_OVER_SLOTS_MIN: f64 = 2.0;

/// Minimum fresh single-thread `gram_fused[0] / sstep_block_update[0]`
/// ratio. Both kernels run on the register-tile primitives of
/// `spcg_sparse::tile`; the Gram product does two FLOPs per loaded operand
/// pair and stores nothing, so it must not be the slower one (reference
/// runner: 17–19 against 9–12 Gflop/s; before it was tiled, 6–7). Under
/// 1× means its tile fell out of L1 or lost its AVX2 body.
const GRAM_MIN_RATIO: f64 = 1.0;

/// Minimum fresh `rank_solve_floor_cold_ms / rank_solve_floor_warm_ms`: a
/// 2-rank sPCG(s=5) `max_iters = 1` solve on a matrix whose ghost zones
/// are cached must take at most 0.7× the same solve on a fresh clone,
/// which builds them (measured 0.2–0.4×). Above that, ranked solves have
/// stopped finding the matrix's cached zones.
const ZONE_COLD_OVER_WARM_MIN: f64 = 1.0 / 0.7;

/// Minimum fresh `rank_solve_floor_proc_cold_ms /
/// rank_solve_floor_proc_warm_ms`: a proc-backend `max_iters = 1` solve on
/// the resident world must take at most 0.5× the process's first one,
/// which spawns the workers and ships the matrix. Above that, proc solves
/// have stopped reusing their workers.
const PROC_COLD_OVER_WARM_MIN: f64 = 2.0;

/// Minimum fresh single-thread `spmm_gflops` `k8.csr / k8.sell` ratio
/// (`sell` is the slot encoding, on the variable-coefficient twin). A
/// multi-column product on a matrix SELL keeps in slots runs the
/// interleaved CSR SpMM, on the premise that
/// it beats SELL's column-at-a-time slot SpMM (reference runner: ≈1.6×).
/// Under 1× the premise is gone: the routing, or the CSR kernel, has to be
/// looked at again.
const SPMM_CSR_OVER_SELL_MIN: f64 = 1.0;

/// Minimum fresh single-thread `spmm_gflops` `k8.diagonals / k8.csr`
/// ratio. A multi-column product on a constant-coefficient matrix runs
/// SELL's SpMM on its diagonals, one
/// gather-free SpMV per column, on the premise that streaming no matrix
/// beats the interleaved CSR kernel's one pass over it (reference runner:
/// 1.6–1.9×). Under 1× that routing is the slower choice for every
/// constant-coefficient solve.
const SPMM_DIAGONALS_OVER_CSR_MIN: f64 = 1.0;

/// Pairwise noise slack on the service GF/s curve: each step from one
/// batch width to the next may dip to this fraction of its predecessor
/// before the check fails. The end-to-end k=1 → k=8 comparison gets no
/// slack — the widest batch must not be slower than width 1.
const SERVICE_MONOTONE_SLACK: f64 = 0.9;

/// Maximum cache-hit setup cost as a fraction of the cold-start solve.
/// The committed baseline demonstrates well under 5%; the CI gate is
/// looser because quick-mode grids shrink the cold solve far more than
/// the (fixed-cost) fingerprint hash.
const SERVICE_MAX_HIT_RATIO: f64 = 0.5;

/// Largest width-1 `solve_batch` / plain `solve` time ratio. The two run one
/// PCG body on one executor, so only timing noise separates them; 1.25 is
/// the bound `BENCHMARK.json` puts on every end-to-end metric.
const SERVICE_K1_MAX_RATIO: f64 = 1.25;

/// Maximum adaptive-from-monomial iteration count as a multiple of the
/// oracle fixed-Chebyshev count at the same κ. This is the paper-grade
/// acceptance margin for the adaptive controller: discovering the
/// spectrum mid-solve may cost at most 10% over perfect a-priori
/// spectral knowledge.
const ADAPTIVE_MAX_RATIO: f64 = 1.1;

/// Maximum EkCG iteration count as a fraction of the PCG baseline on the
/// anisotropic acceptance problem, per block count t. Iteration counts in
/// this workspace are bitwise deterministic, so the margins sit just above
/// the measured ratios (t = 4 → 0.62×, t = 8 → 0.48×): any algorithmic
/// regression that costs even a handful of iterations trips the gate.
const EKCG_MAX_RATIO: [(f64, f64); 2] = [(4.0, 0.65), (8.0, 0.6)];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.len() % 2 != 0 {
        eprintln!("usage: benchcheck <fresh.json> <baseline.json> [...more pairs]");
        return ExitCode::from(2);
    }
    let mut failures = 0u8;
    for pair in args.chunks(2) {
        let (fresh_path, base_path) = (&pair[0], &pair[1]);
        let mut errors = Vec::new();
        match (load(fresh_path), load(base_path)) {
            (Ok(fresh), Ok(base)) => {
                compare(&base, &fresh, "$", false, &mut errors);
                for (group, leg, base, min_ratio) in [
                    ("gflops", "spmv_sell_slots", "spmv", SELL_MIN_RATIO),
                    (
                        "gflops",
                        "spmv_sell",
                        "spmv_sell_slots",
                        DIAGONALS_OVER_SLOTS_MIN,
                    ),
                    ("gflops", "gram_fused", "sstep_block_update", GRAM_MIN_RATIO),
                    (
                        "ghost_zone",
                        "rank_solve_floor_cold_ms",
                        "rank_solve_floor_warm_ms",
                        ZONE_COLD_OVER_WARM_MIN,
                    ),
                    (
                        "ghost_zone",
                        "rank_solve_floor_proc_cold_ms",
                        "rank_solve_floor_proc_warm_ms",
                        PROC_COLD_OVER_WARM_MIN,
                    ),
                    ("spmm_gflops", "k8.csr", "k8.sell", SPMM_CSR_OVER_SELL_MIN),
                    (
                        "spmm_gflops",
                        "k8.diagonals",
                        "k8.csr",
                        SPMM_DIAGONALS_OVER_CSR_MIN,
                    ),
                ] {
                    check_ratio_gate(&fresh, group, leg, base, min_ratio, &mut errors);
                }
                check_kernels_gate(&fresh, &mut errors);
                check_allreduce_gate(&base, &fresh, &mut errors);
                check_service_gate(&fresh, &mut errors);
                check_adaptive_gate(&fresh, &mut errors);
                check_enlarged_gate(&fresh, &mut errors);
            }
            (fresh, base) => {
                if let Err(e) = fresh {
                    errors.push(format!("{fresh_path}: {e}"));
                }
                if let Err(e) = base {
                    errors.push(format!("{base_path}: {e}"));
                }
            }
        }
        if errors.is_empty() {
            eprintln!("benchcheck: OK   {fresh_path} vs {base_path}");
        } else {
            eprintln!("benchcheck: FAIL {fresh_path} vs {base_path}");
            for e in &errors {
                eprintln!("  - {e}");
            }
            failures = failures.saturating_add(1);
        }
    }
    ExitCode::from(failures)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    parse(&text).map_err(|e| format!("invalid JSON: {e}"))
}

/// Walks the baseline, requiring each key in the fresh value and ratio-
/// checking numeric leaves once inside a `gflops` subtree.
fn compare(base: &Value, fresh: &Value, path: &str, in_gflops: bool, errors: &mut Vec<String>) {
    match (base, fresh) {
        (Value::Object(fields), _) => {
            for (key, bv) in fields {
                match fresh.get(key) {
                    Some(fv) => {
                        let sub = format!("{path}.{key}");
                        if let Some(&(_, lo, hi)) =
                            CALIB_RANGES.iter().find(|(name, _, _)| name == key)
                        {
                            check_range(fv, &sub, lo, hi, errors);
                        }
                        compare(bv, fv, &sub, in_gflops || key == "gflops", errors);
                    }
                    None => errors.push(format!("{path}.{key}: missing from fresh output")),
                }
            }
        }
        (Value::Array(bitems), Value::Array(fitems)) => {
            // Quick-mode sweeps subsample: compare the common prefix, but an
            // empty fresh array for a non-empty baseline is schema drift.
            if fitems.is_empty() && !bitems.is_empty() {
                errors.push(format!("{path}: fresh array is empty"));
            }
            for (i, (bv, fv)) in bitems.iter().zip(fitems).enumerate() {
                compare(bv, fv, &format!("{path}[{i}]"), in_gflops, errors);
            }
        }
        (Value::Array(_), other) => {
            errors.push(format!("{path}: expected array, found {}", kind(other)));
        }
        (Value::Number(b), Value::Number(f)) if in_gflops => {
            if !f.is_finite() || *f <= 0.0 {
                errors.push(format!("{path}: non-positive throughput {f}"));
            } else if *b > 0.0 && (f / b > MAX_RATIO || b / f > MAX_RATIO) {
                errors.push(format!(
                    "{path}: throughput {f} vs baseline {b} exceeds {MAX_RATIO}x"
                ));
            }
        }
        (Value::Number(_), Value::Number(_)) => {}
        (Value::Number(_), other) => {
            errors.push(format!("{path}: expected number, found {}", kind(other)));
        }
        // Strings/booleans/null: presence is all the baseline demands.
        _ => {}
    }
}

/// A same-run ratio gate on a fresh result file: wherever the top-level
/// object `group` reports the leg `base`, it must also report `leg`, and
/// the ratio `leg / base` — of the two numbers, or of the single-thread
/// (first) entries of two per-thread-count arrays — must reach
/// `min_ratio`. This is a check on the fresh file alone — a baseline
/// predating the leg must not grandfather its absence — and on one run
/// alone, so machines and quick-mode grids cancel out.
fn check_ratio_gate(
    fresh: &Value,
    group: &str,
    leg: &str,
    base: &str,
    min_ratio: f64,
    errors: &mut Vec<String>,
) {
    let Some(legs) = fresh.get(group) else {
        return;
    };
    let first = |key: &str| -> Option<f64> {
        match legs.get(key) {
            Some(Value::Array(items)) => number(items.first()),
            other => number(other),
        }
    };
    let Some(den) = first(base) else {
        return;
    };
    let Some(num) = first(leg) else {
        errors.push(format!(
            "$.{group}.{leg}: leg missing from fresh output beside {base}"
        ));
        return;
    };
    if !(den > 0.0) || !(num / den >= min_ratio) {
        errors.push(format!(
            "$.{group}.{leg}: ratio to {base} {num}/{den} below {min_ratio:.3}x"
        ));
    }
}

/// The kernels-sweep gate on a fresh result file: a `gflops` object that
/// reports the `spmv` leg marks a kernel sweep, which must then carry a
/// top-level `nproc` field, one `speedup_vs_1_thread` array per `gflops`
/// leg, the `ghost_zone` warm floors, thread and proc, and SELL's k = 8
/// SpMM rate (the base legs of their ratio gates, which would otherwise
/// pass a file without the rows). Fresh-file-only,
/// like the ratio gates — older baselines must not grandfather the missing
/// fields.
fn check_kernels_gate(fresh: &Value, errors: &mut Vec<String>) {
    let Some(gflops) = fresh.get("gflops") else {
        return;
    };
    let Value::Object(legs) = gflops else {
        return;
    };
    if gflops.get("spmv").is_none() {
        return;
    }
    if !matches!(fresh.get("nproc"), Some(Value::Number(_))) {
        errors.push("$.nproc: missing core count in fresh kernels output".to_string());
    }
    for (group, base) in [
        ("ghost_zone", "rank_solve_floor_warm_ms"),
        ("ghost_zone", "rank_solve_floor_proc_warm_ms"),
        ("spmm_gflops", "k8.sell"),
    ] {
        if number(fresh.get(group).and_then(|g| g.get(base))).is_none() {
            errors.push(format!(
                "$.{group}.{base}: missing from fresh kernels output"
            ));
        }
    }
    let speedups = fresh.get("speedup_vs_1_thread");
    for (key, _) in legs {
        match speedups.and_then(|s| s.get(key)) {
            Some(Value::Array(_)) => {}
            _ => errors.push(format!(
                "$.speedup_vs_1_thread.{key}: gflops leg without a speedup array"
            )),
        }
    }
}

/// The collective gate of a kernels sweep (marked like
/// [`check_kernels_gate`]): the fresh file must carry
/// `allreduce.{ranks, words, median_us}` with one positive median per rank
/// count and payload. Against a baseline that has the row too, each fresh
/// median is held to [`MAX_RATIO`]× the baseline's — slow side only, and
/// only for rank counts that spin on both machines or park on both (`nproc`
/// against the rank count), since the two regimes differ by more than the
/// ratio on any one machine.
fn check_allreduce_gate(base: &Value, fresh: &Value, errors: &mut Vec<String>) {
    if fresh.get("gflops").and_then(|g| g.get("spmv")).is_none() {
        return;
    }
    let row = |file: &Value| -> Option<(Vec<f64>, usize, Vec<Vec<f64>>)> {
        let all = file.get("allreduce")?;
        let medians = match all.get("median_us")? {
            Value::Array(rows) => rows
                .iter()
                .map(|r| num_array(Some(r)))
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some((
            num_array(all.get("ranks"))?,
            num_array(all.get("words"))?.len(),
            medians,
        ))
    };
    let Some((ranks, nwords, fresh_us)) = row(fresh) else {
        errors.push("$.allreduce: missing collective row in fresh kernels output".to_string());
        return;
    };
    let well_formed = fresh_us.len() == ranks.len()
        && fresh_us
            .iter()
            .all(|r| r.len() == nwords && r.iter().all(|&us| us.is_finite() && us > 0.0));
    if !well_formed || ranks.is_empty() || nwords == 0 {
        errors.push(format!(
            "$.allreduce.median_us: want {} x {nwords} positive medians, found {fresh_us:?}",
            ranks.len()
        ));
        return;
    }
    let (Some((base_ranks, _, base_us)), Some(base_cores), Some(fresh_cores)) = (
        row(base),
        number(base.get("nproc")),
        number(fresh.get("nproc")),
    ) else {
        return;
    };
    for (i, (&r, fresh_row)) in ranks.iter().zip(&fresh_us).enumerate() {
        let Some(base_row) = base_ranks
            .iter()
            .position(|&b| b == r)
            .and_then(|j| base_us.get(j))
        else {
            continue;
        };
        if (fresh_cores >= r) != (base_cores >= r) {
            continue;
        }
        for (j, (&f, &b)) in fresh_row.iter().zip(base_row).enumerate() {
            if f > MAX_RATIO * b {
                errors.push(format!(
                    "$.allreduce.median_us[{i}][{j}]: {f} us at {r} ranks vs baseline {b} us \
                     exceeds {MAX_RATIO}x"
                ));
            }
        }
    }
}

/// The service-sweep gate on a fresh result file (marked by a
/// `batch_widths` array): the batched GF/s curve must be monotone
/// non-decreasing from k = 1 to k = 8 (batching amortizes the matrix
/// stream — a falling curve means the blocked path turned into pure
/// overhead), the width-1 batch must stay within [`SERVICE_K1_MAX_RATIO`]×
/// of the plain `solve()` baseline, and a cache hit must cost at most
/// [`SERVICE_MAX_HIT_RATIO`] of the cold-start solve.
fn check_service_gate(fresh: &Value, errors: &mut Vec<String>) {
    let Some(widths) = num_array(fresh.get("batch_widths")) else {
        return;
    };
    match num_array(fresh.get("gflops").and_then(|g| g.get("batched_pcg"))) {
        Some(curve) if curve.len() == widths.len() && !curve.is_empty() => {
            // Only widths up to 8 are gated: the paper-level claim is
            // k=1 → k=8, and the widest batches can plateau.
            let gated: Vec<(f64, f64)> = widths
                .iter()
                .copied()
                .zip(curve.iter().copied())
                .filter(|&(w, _)| w <= 8.0)
                .collect();
            for pair in gated.windows(2) {
                let ((wa, a), (wb, b)) = (pair[0], pair[1]);
                if !(b >= a * SERVICE_MONOTONE_SLACK) {
                    errors.push(format!(
                        "$.gflops.batched_pcg: {b} GF/s at k={wb} under {a} GF/s at k={wa} \
                         (slack {SERVICE_MONOTONE_SLACK})"
                    ));
                }
            }
            if let (Some(&(_, first)), Some(&(w, last))) = (gated.first(), gated.last()) {
                if !(last >= first) {
                    errors.push(format!(
                        "$.gflops.batched_pcg: k={w} throughput {last} below k=1 {first}"
                    ));
                }
            }
        }
        _ => errors.push(
            "$.gflops.batched_pcg: missing or mismatched batched curve in fresh output".to_string(),
        ),
    }
    match (
        number(fresh.get("batch_k1_seconds")),
        number(fresh.get("plain_solve_seconds")),
    ) {
        (Some(k1), Some(plain)) if plain > 0.0 => {
            if !(k1 / plain <= SERVICE_K1_MAX_RATIO) {
                errors.push(format!(
                    "$.batch_k1_seconds: width-1 batch {k1}s vs plain solve {plain}s exceeds \
                     {SERVICE_K1_MAX_RATIO}x"
                ));
            }
        }
        _ => errors.push(
            "$.batch_k1_seconds/plain_solve_seconds: missing width-1 overhead pair".to_string(),
        ),
    }
    match number(
        fresh
            .get("setup")
            .and_then(|s| s.get("hit_over_cold_solve")),
    ) {
        Some(r) if r.is_finite() && r <= SERVICE_MAX_HIT_RATIO => {}
        Some(r) => errors.push(format!(
            "$.setup.hit_over_cold_solve: cache-hit setup ratio {r} exceeds {SERVICE_MAX_HIT_RATIO}"
        )),
        None => errors.push("$.setup.hit_over_cold_solve: missing setup ratio".to_string()),
    }
}

/// The adaptive-controller gate on a fresh result file (marked by an
/// `adaptive_kappas` array): the adaptive method must converge at every
/// κ, at least one κ must show the fixed monomial basis *failing* while
/// adaptive succeeds (otherwise the sweep is too easy to demonstrate
/// anything), wherever the oracle fixed-Chebyshev run converges the
/// adaptive iteration count must stay within [`ADAPTIVE_MAX_RATIO`]× of
/// it, and every κ must record at least one mid-solve basis rebuild —
/// an adaptive run that never retunes is indistinguishable from the
/// fixed method it claims to improve on. Fresh-file-only, like the
/// other marker-keyed gates.
fn check_adaptive_gate(fresh: &Value, errors: &mut Vec<String>) {
    let Some(kappas) = num_array(fresh.get("adaptive_kappas")) else {
        return;
    };
    let leg = |group: &str, key: &str| -> Option<Vec<f64>> {
        num_array(fresh.get(group).and_then(|g| g.get(key))).filter(|v| v.len() == kappas.len())
    };
    let (Some(it_mono), Some(it_cheb), Some(it_adapt)) = (
        leg("iters", "monomial_fixed"),
        leg("iters", "chebyshev_fixed"),
        leg("iters", "adaptive"),
    ) else {
        errors.push("$.iters: missing or mismatched adaptive sweep legs".to_string());
        return;
    };
    let (Some(cv_mono), Some(cv_cheb), Some(cv_adapt)) = (
        leg("converged", "monomial_fixed"),
        leg("converged", "chebyshev_fixed"),
        leg("converged", "adaptive"),
    ) else {
        errors.push("$.converged: missing or mismatched adaptive sweep legs".to_string());
        return;
    };
    let mut monomial_beaten = false;
    for (i, &kappa) in kappas.iter().enumerate() {
        if cv_adapt[i] != 1.0 {
            errors.push(format!(
                "$.converged.adaptive[{i}]: adaptive failed at kappa {kappa} \
                 ({} iters)",
                it_adapt[i]
            ));
        }
        if cv_mono[i] == 0.0 && cv_adapt[i] == 1.0 {
            monomial_beaten = true;
        }
        if cv_cheb[i] == 1.0 && it_cheb[i] > 0.0 {
            let ratio = it_adapt[i] / it_cheb[i];
            if !(ratio <= ADAPTIVE_MAX_RATIO) {
                errors.push(format!(
                    "$.iters.adaptive[{i}]: {} vs oracle chebyshev {} at kappa {kappa} \
                     exceeds {ADAPTIVE_MAX_RATIO}x",
                    it_adapt[i], it_cheb[i]
                ));
            }
        }
    }
    if !monomial_beaten {
        errors.push(format!(
            "$.converged.monomial_fixed: no kappa where the fixed monomial basis fails while \
             adaptive converges (monomial iters {it_mono:?}) — the sweep demonstrates nothing"
        ));
    }
    match num_array(fresh.get("shift_updates")) {
        Some(shifts) if shifts.len() == kappas.len() => {
            for (i, &count) in shifts.iter().enumerate() {
                if count < 1.0 {
                    errors.push(format!(
                        "$.shift_updates[{i}]: adaptive run recorded no basis rebuild at \
                         kappa {}",
                        kappas[i]
                    ));
                }
            }
        }
        _ => errors.push("$.shift_updates: missing or mismatched rebuild counts".to_string()),
    }
}

/// The enlarged-family gate on a fresh result file (marked by a
/// `survival` object): the Gauss-Seidel Gram path must converge at one or
/// more s values where the Cholesky path fails — otherwise the GS solver
/// demonstrates nothing the factored path doesn't already do — and the
/// EkCG sweep (marked by an `ekcg` object) must hold every
/// [`EKCG_MAX_RATIO`] point against its own PCG baseline, with every
/// swept t converging. Fresh-file-only, like the other marker-keyed
/// gates: an old baseline must not grandfather a regressed method.
fn check_enlarged_gate(fresh: &Value, errors: &mut Vec<String>) {
    if let Some(survival) = fresh.get("survival") {
        let s = num_array(survival.get("s"));
        let leg = |group: &str, key: &str| -> Option<Vec<f64>> {
            num_array(survival.get(group).and_then(|g| g.get(key)))
                .filter(|v| Some(v.len()) == s.as_ref().map(Vec::len))
        };
        match (
            leg("converged", "cholesky"),
            leg("converged", "gauss_seidel"),
        ) {
            (Some(cv_chol), Some(cv_gs)) => {
                let survived = cv_chol
                    .iter()
                    .zip(&cv_gs)
                    .any(|(&c, &g)| c == 0.0 && g == 1.0);
                if !survived {
                    errors.push(format!(
                        "$.survival.converged: no s where gauss_seidel converges while \
                         cholesky fails (cholesky {cv_chol:?}, gauss_seidel {cv_gs:?}) — \
                         the GS path demonstrates nothing"
                    ));
                }
            }
            _ => {
                errors.push("$.survival.converged: missing or mismatched survival legs".to_string())
            }
        }
    }
    if let Some(ekcg) = fresh.get("ekcg") {
        let (Some(ts), Some(ratios), Some(conv)) = (
            num_array(ekcg.get("t")),
            num_array(ekcg.get("ratio_vs_pcg")),
            num_array(ekcg.get("converged")),
        ) else {
            errors.push("$.ekcg: missing t/ratio_vs_pcg/converged arrays".to_string());
            return;
        };
        if ratios.len() != ts.len() || conv.len() != ts.len() {
            errors.push("$.ekcg: mismatched sweep array lengths".to_string());
            return;
        }
        for (i, &t) in ts.iter().enumerate() {
            if conv[i] != 1.0 {
                errors.push(format!("$.ekcg.converged[{i}]: EkCG failed at t={t}"));
            }
        }
        for &(t, max_ratio) in &EKCG_MAX_RATIO {
            match ts.iter().position(|&v| v == t) {
                Some(i) => {
                    if !(ratios[i] <= max_ratio) {
                        errors.push(format!(
                            "$.ekcg.ratio_vs_pcg[{i}]: {} at t={t} exceeds {max_ratio}x PCG",
                            ratios[i]
                        ));
                    }
                }
                None => errors.push(format!(
                    "$.ekcg.t: gated block count t={t} missing from sweep {ts:?}"
                )),
            }
        }
    }
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::Number(n)) => Some(*n),
        _ => None,
    }
}

fn num_array(v: Option<&Value>) -> Option<Vec<f64>> {
    match v {
        Some(Value::Array(items)) => items
            .iter()
            .map(|it| match it {
                Value::Number(n) => Some(*n),
                _ => None,
            })
            .collect(),
        _ => None,
    }
}

/// Requires a fitted constant to be a finite number strictly inside
/// `(lo, hi)` — see [`CALIB_RANGES`].
fn check_range(fresh: &Value, path: &str, lo: f64, hi: f64, errors: &mut Vec<String>) {
    match fresh {
        Value::Number(f) if f.is_finite() && *f > lo && *f < hi => {}
        Value::Number(f) => errors.push(format!(
            "{path}: fitted constant {f} outside plausible range ({lo:e}, {hi:e})"
        )),
        other => errors.push(format!("{path}: expected number, found {}", kind(other))),
    }
}

fn kind(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::Number(_) => "number",
        Value::String(_) => "string",
        Value::Array(_) => "array",
        Value::Object(_) => "object",
    }
}
