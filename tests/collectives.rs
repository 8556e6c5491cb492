//! Counted = performed. On two ranks, the collectives a solve reports in its
//! `Counters` — what the bodies charged through the one reduction door,
//! `Exec::allreduce` — must equal the allreduces the transport itself
//! completed (`SolveResult::collectives_per_rank`): for all nine methods,
//! every stopping criterion, residual replacement off and on, the resilience
//! driver off and armed, over the thread and the proc transport, and under
//! injected faults, where restart stages, poisoned reductions and the
//! consensus flag all reduce.
//!
//! Every `SolveOptions` field is set explicitly, so the suite reads the same
//! under any `SPCG_*` environment. The proc cases need the `spcg-rankd`
//! worker binary, which any workspace build produces.

use spcg::basis::BasisType;
use spcg::dist::{Backend, FaultPlan};
use spcg::precond::Jacobi;
use spcg::solvers::{
    chebyshev_basis, solve, AdaptivePolicy, Engine, Method, Problem, Resilience, SolveOptions,
    StoppingCriterion,
};
use spcg::sparse::generators::paper_rhs;
use spcg::sparse::generators::poisson::poisson_2d;
use spcg::sparse::SparseFormat;

const ENGINE: Engine = Engine::Ranked { ranks: 2 };

fn methods(basis: &BasisType) -> [Method; 9] {
    let (s, basis) = (4, basis.clone());
    [
        Method::Pcg,
        Method::Pcg3,
        Method::SPcg {
            s,
            basis: basis.clone(),
        },
        Method::SPcgMon { s },
        Method::CaPcg {
            s,
            basis: basis.clone(),
        },
        Method::CaPcg3 {
            s,
            basis: basis.clone(),
        },
        Method::AdaptiveCaPcg {
            s,
            basis: basis.clone(),
        },
        Method::CaPcgGs { s, basis },
        Method::EkCg { t: 4 },
    ]
}

fn options(backend: Backend) -> SolveOptions {
    SolveOptions {
        tol: 1e-8,
        max_iters: 2000,
        criterion: StoppingCriterion::PrecondMNorm,
        divergence_factor: 1e8,
        stall_checks: 4000,
        keep_history: false,
        residual_replacement: None,
        threads: 1,
        overlap: true,
        format: SparseFormat::Csr,
        backend,
        trace: None,
        faults: None,
        resilience: None,
        adaptive: AdaptivePolicy::default(),
    }
}

/// One case: its tag, its options and its method.
type Case = (String, SolveOptions, Method);

/// Methods × criteria × replacement {off, 1e-2} × resilience {off, armed}.
fn grid(backend: Backend, basis: &BasisType) -> Vec<Case> {
    let mut cases = Vec::new();
    for method in methods(basis) {
        for criterion in [
            StoppingCriterion::PrecondMNorm,
            StoppingCriterion::TrueResidual2Norm,
            StoppingCriterion::RecursiveResidual2Norm,
        ] {
            for residual_replacement in [None, Some(1e-2)] {
                for resilience in [None, Some(Resilience::default())] {
                    let tag = format!(
                        "{} {backend:?} {criterion:?} rr={residual_replacement:?} \
                         resilient={}",
                        method.name(),
                        resilience.is_some()
                    );
                    let opts = SolveOptions {
                        criterion,
                        residual_replacement,
                        resilience,
                        ..options(backend)
                    };
                    cases.push((tag, opts, method.clone()));
                }
            }
        }
    }
    cases
}

/// Solves the cases `cases` builds from the suite's Chebyshev basis on a
/// 2D Poisson problem, and lists every one whose transport count differs
/// from its charged count — all of them, so a failure says how many.
fn assert_counted_is_performed(cases: impl FnOnce(&BasisType) -> Vec<Case>) {
    let a = poisson_2d(12);
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let cases = cases(&chebyshev_basis(&problem, 20, 0.05));
    let bad: Vec<String> = (cases.iter())
        .filter_map(|(tag, opts, method)| {
            let res = solve(method, &problem, opts, ENGINE);
            let (performed, charged) = (res.collectives_per_rank, res.counters.global_collectives);
            (performed != Some(charged))
                .then(|| format!("{tag}: performed {performed:?}, charged {charged}"))
        })
        .collect();
    assert!(
        bad.is_empty(),
        "{} of {} cases charge other than they perform:\n{}",
        bad.len(),
        cases.len(),
        bad.join("\n")
    );
}

#[test]
fn thread_transport_counts_what_the_bodies_charge() {
    assert_counted_is_performed(|basis| grid(Backend::Thread, basis));
}

/// The hub's group counts for the proc transport: each `REDUCE` frame is one
/// allreduce there.
#[cfg(unix)]
#[test]
fn proc_transport_counts_what_the_bodies_charge() {
    assert!(
        spcg::solvers::procexec::rankd_path().is_some(),
        "spcg-rankd not found: run a workspace build first (or set SPCG_RANKD)"
    );
    assert_counted_is_performed(|basis| grid(Backend::Proc, basis));
}

/// A seeded plan on every method: poisoned reductions, discarded and
/// restarted stages and their consensus flags are all counted and charged
/// alike.
#[test]
fn faulted_solves_count_what_they_charge() {
    let plan = FaultPlan::new(101, 0.05);
    assert_counted_is_performed(|basis| {
        (methods(basis).into_iter())
            .map(|method| {
                let opts = SolveOptions {
                    faults: Some(plan.clone()),
                    ..options(Backend::Thread)
                };
                (format!("{} faulted", method.name()), opts, method)
            })
            .collect()
    });
    assert!(plan.counts().total() > 0, "the plan never fired");
}
