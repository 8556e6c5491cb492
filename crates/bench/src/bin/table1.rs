//! Regenerates the paper's **Table 1**: computational cost per s steps for
//! each algorithm — the closed-form formulas, plus a cross-check of the
//! formulas against the instrumented counters of actual solver runs.
//!
//! Run: `cargo run --release -p spcg-bench --bin table1`

use spcg_bench::{paper, write_results, TextTable};
use spcg_perf::table1::{verify_against_counters, Algorithm};
use spcg_solvers::{Engine, Method, Outcome, Problem, SolveOptions, StoppingCriterion};
use spcg_sparse::generators::paper_rhs;
use spcg_sparse::generators::poisson::poisson_3d;

fn main() {
    let mut out = String::new();
    out.push_str("Table 1 — computational cost per s steps (FLOPs per matrix row)\n\n");

    for s in [5u64, 10, 15] {
        let mut t = TextTable::new(&[
            "Algorithm",
            "#MV+#prec",
            "Local red.",
            "Vec (mono)",
            "Extra (arb)",
            "Total mono",
            "Total arb",
        ]);
        for alg in Algorithm::ALL {
            t.row(vec![
                alg.name().into(),
                format!("{}", alg.mv_and_precond(s)),
                format!("{}", alg.local_reductions(s)),
                format!("{}", alg.vector_flops_monomial(s)),
                alg.vector_flops_extra_arbitrary(s)
                    .map_or("-".into(), |v| v.to_string()),
                format!("{}", alg.total_monomial(s)),
                alg.total_arbitrary(s).map_or("-".into(), |v| v.to_string()),
            ]);
        }
        out.push_str(&format!("s = {s}\n{}\n", t.render()));
    }

    // Cross-check the formulas against instrumented runs on a small 3D
    // Poisson problem with the Jacobi preconditioner and the free M-norm
    // criterion (so no criterion overhead is counted).
    out.push_str("Formula vs instrumented counters (3D Poisson 20^3, Jacobi, s = 10)\n");
    let a = poisson_3d(20);
    let n = a.nrows();
    let m = spcg_precond::Jacobi::new(&a);
    let b = paper_rhs(&a);
    let problem = Problem::new(&a, &m, &b);
    let basis = spcg_solvers::chebyshev_basis(&problem, paper::WARMUP_ITERS, paper::MARGIN);
    let opts = SolveOptions::default()
        .with_criterion(StoppingCriterion::PrecondMNorm)
        .with_tol(1e-8);
    let s = paper::S;

    let mut t = TextTable::new(&[
        "Algorithm",
        "MV+prec (meas)",
        "MV+prec (form)",
        "dots (meas)",
        "dots (form)",
        "vecFLOPs/n (meas)",
        "vecFLOPs/n (form)",
        "coll. (meas)",
        "coll. (form)",
        "max rel err",
    ]);
    let cases = [
        (Algorithm::Pcg, Method::Pcg, false),
        (Algorithm::SPcgMon, Method::SPcgMon { s }, false),
        (
            Algorithm::SPcg,
            Method::SPcg {
                s,
                basis: basis.clone(),
            },
            true,
        ),
        (
            Algorithm::CaPcg,
            Method::CaPcg {
                s,
                basis: basis.clone(),
            },
            true,
        ),
        (
            Algorithm::CaPcg3,
            Method::CaPcg3 {
                s,
                basis: basis.clone(),
            },
            true,
        ),
    ];
    for (alg, method, arb) in cases {
        // One full block by difference: the same solve capped at one block
        // and at two, so the set-up, the lighter first block and the closing
        // check round cancel.
        let capped = |blocks: usize| {
            let opts = opts.clone().with_max_iters(blocks * s);
            let res = spcg_solvers::solve(&method, &problem, &opts, Engine::Serial);
            assert_eq!(
                (&res.outcome, res.iterations),
                (&Outcome::MaxIterations, blocks * s),
                "{} must run {blocks} whole block(s)",
                method.name()
            );
            res.counters
        };
        let check = verify_against_counters(alg, s as u64, n, arb, &capped(1), &capped(2));
        t.row(vec![
            alg.name().into(),
            format!("{:.1}", check.measured_mv_precond),
            format!("{:.0}", check.formula_mv_precond),
            format!("{:.1}", check.measured_reductions),
            format!("{:.0}", check.formula_reductions),
            format!("{:.1}", check.measured_vector_flops),
            format!("{:.0}", check.formula_vector_flops),
            format!("{:.1}", check.measured_collectives),
            format!("{:.0}", check.formula_collectives),
            format!("{:.2}", check.max_relative_error()),
        ]);
    }
    out.push_str(&t.render());
    out.push_str(
        "\nNotes: measured values are one full block of s steps, isolated as the\n\
         difference between the same solve capped at one block and at two (set-up,\n\
         the lighter first block and the closing check round cancel).\n\
         sPCG_mon's vector FLOPs exclude the moment recurrence we replace (see\n\
         DESIGN.md).\n",
    );

    write_results("table1.txt", &out);
}
