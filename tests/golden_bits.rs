//! Golden-bits regression: the kernel layer's contract is that a change of
//! loop structure, tiling or fusion never changes a single bit of a solve.
//! The parity suites compare two configurations of the *same* build; this
//! suite compares the build against constants recorded on the commit before
//! the block-update kernels were fused (`GOLDEN`, below): an FNV-1a hash of
//! the iterate's bits, the iteration count, and every field of [`Counters`]
//! for all nine methods on two problems, serial and on two ranks.
//!
//! Every `SolveOptions` field is set explicitly; the suite still stands down
//! when any `SPCG_*` variable other than `SPCG_RANKD` is set, as the other
//! exact-count tests do under the CI environment sweeps.
//!
//! To re-record after a *deliberate* numerical change, run the test, and
//! paste the table it prints on failure over `GOLDEN`.

use spcg::basis::BasisType;
use spcg::dist::{Backend, Counters};
use spcg::precond::{ChebyshevPrecond, Identity, Jacobi, Preconditioner};
use spcg::solvers::{
    chebyshev_basis, newton_basis, solve, AdaptivePolicy, Engine, Method, Problem, SolveOptions,
    SolveResult, StoppingCriterion,
};
use spcg::sparse::generators::anisotropic::anisotropic_3d;
use spcg::sparse::generators::paper_rhs;
use spcg::sparse::generators::poisson::poisson_3d;
use spcg::sparse::SparseFormat;
use std::sync::Arc;

const NCOUNTERS: usize = 17;

/// `(case, FNV-1a of x's bits, iterations, Counters fields in declaration order)`.
type Row = (&'static str, u64, usize, [u64; NCOUNTERS]);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("poisson13_jacobi/pcg/serial", 0xf7ee50a54b8ce4d4, 34, [34, 976820, 35, 76895, 69, 69, 69, 303186, 448188, 0, 0, 0, 34, 34, 0, 0, 0]),
    ("poisson13_jacobi/pcg/ranks2", 0xc15a6d9f13a65486, 34, [34, 976820, 35, 76895, 69, 69, 69, 303186, 448188, 0, 0, 0, 34, 34, 34, 5746, 0]),
    ("poisson13_jacobi/pcg3/serial", 0x8290a875f113cdb5, 34, [34, 976820, 35, 76895, 35, 103, 103, 452582, 746980, 0, 0, 0, 34, 34, 0, 0, 0]),
    ("poisson13_jacobi/pcg3/ranks2", 0x8918e21d41d3bb82, 34, [34, 976820, 35, 76895, 35, 103, 103, 452582, 746980, 0, 0, 0, 34, 34, 34, 5746, 0]),
    ("poisson13_jacobi/spcg/serial", 0x1e69a10f6ec1eff7, 35, [40, 1149200, 40, 87880, 8, 450, 450, 1977300, 404248, 661297, 1318200, 3500, 35, 7, 0, 0, 0]),
    ("poisson13_jacobi/spcg/ranks2", 0x936bb6eead97203a, 35, [40, 1149200, 40, 87880, 8, 450, 450, 1977300, 404248, 661297, 1318200, 3500, 35, 7, 8, 6760, 0]),
    ("poisson13_jacobi/spcg_mon/serial", 0xa521378f2d85c99f, 36, [39, 1120470, 39, 85683, 13, 78, 78, 342732, 0, 316368, 870012, 1296, 36, 12, 0, 0, 0]),
    ("poisson13_jacobi/spcg_mon/ranks2", 0x9b974b36e649449f, 36, [39, 1120470, 39, 85683, 13, 78, 78, 342732, 0, 316368, 870012, 1296, 36, 12, 13, 6591, 0]),
    ("poisson13_jacobi/capcg/serial", 0xb452068a952218ad, 35, [72, 2068560, 73, 160381, 8, 968, 968, 4253392, 720616, 1691690, 0, 33880, 35, 7, 0, 0, 0]),
    ("poisson13_jacobi/capcg/ranks2", 0x54e3cf40aa3f3e8d, 35, [72, 2068560, 73, 160381, 8, 968, 968, 4253392, 720616, 1691690, 0, 33880, 35, 7, 16, 27040, 0]),
    ("poisson13_jacobi/capcg3/serial", 0x3d5f7bad6000651d, 35, [40, 1149200, 49, 107653, 8, 968, 968, 4253392, 1557673, 3383380, 0, 42350, 35, 7, 0, 0, 0]),
    ("poisson13_jacobi/capcg3/ranks2", 0x6560dbf27332123c, 35, [40, 1149200, 49, 107653, 8, 968, 968, 4253392, 1557673, 3383380, 0, 42350, 35, 7, 8, 6760, 0]),
    ("poisson13_jacobi/adaptive/serial", 0xa23a970f5516526e, 40, [104, 2987920, 105, 230685, 8, 2312, 2288, 10053472, 935922, 1911390, 0, 68386, 40, 7, 0, 0, 0]),
    ("poisson13_jacobi/adaptive/ranks2", 0x6923c90b29d9ac50, 40, [104, 2987920, 105, 230685, 8, 2312, 2288, 10053472, 935922, 1911390, 0, 68386, 40, 7, 16, 35136, 0]),
    ("poisson13_jacobi/capcg_gs/serial", 0xd4cf9418ddb1ec5f, 35, [40, 1149200, 40, 87880, 8, 471, 450, 1977300, 404248, 661297, 1318200, 53850, 35, 7, 0, 0, 0]),
    ("poisson13_jacobi/capcg_gs/ranks2", 0xf0b444a1d9551ceb, 35, [40, 1149200, 40, 87880, 8, 471, 450, 1977300, 404248, 661297, 1318200, 54050, 35, 7, 8, 6760, 0]),
    ("poisson13_jacobi/ekcg/serial", 0x2aeb80a46ac037cd, 49, [200, 5746000, 50, 109850, 99, 20630, 20630, 90648220, 0, 1722448, 165355008, 156800, 49, 49, 0, 0, 0]),
    ("poisson13_jacobi/ekcg/ranks2", 0xb532990544af161e, 49, [200, 5746000, 50, 109850, 99, 20630, 20630, 90648220, 0, 1722448, 165355008, 156800, 49, 49, 200, 33800, 0]),
    ("aniso10_cheb3/pcg/serial", 0x4e35bcf385293476, 16, [16, 204800, 17, 975800, 33, 33, 33, 66000, 96000, 0, 0, 0, 16, 16, 0, 0, 0]),
    ("aniso10_cheb3/pcg/ranks2", 0xcd47c138c42c4556, 16, [16, 204800, 17, 975800, 33, 33, 33, 66000, 96000, 0, 0, 0, 16, 16, 67, 6700, 0]),
    ("aniso10_cheb3/pcg3/serial", 0x95bcf314b05a41be, 16, [16, 204800, 17, 975800, 17, 49, 49, 98000, 160000, 0, 0, 0, 16, 16, 0, 0, 0]),
    ("aniso10_cheb3/pcg3/ranks2", 0x94976f5cd12fd5a8, 16, [16, 204800, 17, 975800, 17, 49, 49, 98000, 160000, 0, 0, 0, 16, 16, 67, 6700, 0]),
    ("aniso10_cheb3/spcg/serial", 0x1eae1b3b2b5c79ed, 16, [20, 256000, 20, 1148000, 5, 180, 180, 360000, 40000, 96000, 192000, 1024, 16, 4, 0, 0, 0]),
    ("aniso10_cheb3/spcg/ranks2", 0xfb4a13f4658d7df7, 16, [20, 256000, 20, 1148000, 5, 180, 180, 360000, 40000, 96000, 192000, 1024, 16, 4, 5, 2500, 0]),
    ("aniso10_cheb3/spcg_mon/serial", 0xa049942f18518149, 18, [21, 268800, 21, 1205400, 7, 42, 42, 84000, 0, 72000, 180000, 648, 18, 6, 0, 0, 0]),
    ("aniso10_cheb3/spcg_mon/ranks2", 0x6a4b1b8d81a38bb7, 18, [21, 268800, 21, 1205400, 7, 42, 42, 84000, 0, 72000, 180000, 648, 18, 6, 7, 3500, 0]),
    ("aniso10_cheb3/capcg/serial", 0xc9153ae09b3f22c1, 16, [35, 448000, 36, 2066400, 5, 405, 405, 810000, 155000, 360000, 0, 10368, 16, 4, 0, 0, 0]),
    ("aniso10_cheb3/capcg/ranks2", 0x3bc1281e37a272fb, 16, [35, 448000, 36, 2066400, 5, 405, 405, 810000, 155000, 360000, 0, 10368, 16, 4, 13, 10300, 0]),
    ("aniso10_cheb3/capcg3/serial", 0x08190527cdebc42e, 16, [20, 256000, 26, 1492400, 5, 405, 405, 810000, 330000, 576000, 0, 12960, 16, 4, 0, 0, 0]),
    ("aniso10_cheb3/capcg3/ranks2", 0x820555244b1e4f41, 16, [20, 256000, 26, 1492400, 5, 405, 405, 810000, 330000, 576000, 0, 12960, 16, 4, 8, 2800, 0]),
    ("aniso10_cheb3/adaptive/serial", 0x4df8302f31d1f90b, 16, [35, 448000, 36, 2066400, 5, 425, 410, 820000, 93000, 360000, 0, 10573, 16, 4, 0, 0, 0]),
    ("aniso10_cheb3/adaptive/ranks2", 0x170b06b86f1fdf8c, 16, [35, 448000, 36, 2066400, 5, 425, 410, 820000, 93000, 360000, 0, 10573, 16, 4, 13, 10300, 0]),
    ("aniso10_cheb3/capcg_gs/serial", 0x1c45db3b81e74116, 16, [20, 256000, 20, 1148000, 5, 192, 180, 360000, 40000, 96000, 192000, 9216, 16, 4, 0, 0, 0]),
    ("aniso10_cheb3/capcg_gs/ranks2", 0x622578cfc222d65b, 16, [20, 256000, 20, 1148000, 5, 192, 180, 360000, 40000, 96000, 192000, 8704, 16, 4, 5, 2500, 0]),
    ("aniso10_cheb3/ekcg/serial", 0x5a8315556dc68993, 16, [68, 870400, 17, 975800, 33, 2513, 2513, 5026000, 0, 256000, 7680000, 17408, 16, 16, 0, 0, 0]),
    ("aniso10_cheb3/ekcg/ranks2", 0x8128ac0c1bfec5a3, 16, [68, 870400, 17, 975800, 33, 2513, 2513, 5026000, 0, 256000, 7680000, 17408, 16, 16, 119, 11900, 0]),
];

fn fnv1a(x: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in x {
        for byte in v.to_bits().to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Destructured, so a new `Counters` field fails to compile here instead of
/// silently escaping the comparison.
fn fields(c: &Counters) -> [u64; NCOUNTERS] {
    let Counters {
        spmv_count,
        spmv_flops,
        precond_count,
        precond_flops,
        global_collectives,
        allreduce_words,
        dot_count,
        local_reduction_flops,
        blas1_flops,
        blas2_flops,
        blas3_flops,
        small_flops,
        iterations,
        outer_iterations,
        halo_exchanges,
        halo_words,
        restarts,
    } = *c;
    [
        spmv_count,
        spmv_flops,
        precond_count,
        precond_flops,
        global_collectives,
        allreduce_words,
        dot_count,
        local_reduction_flops,
        blas1_flops,
        blas2_flops,
        blas3_flops,
        small_flops,
        iterations,
        outer_iterations,
        halo_exchanges,
        halo_words,
        restarts,
    ]
}

fn options() -> SolveOptions {
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
        format: SparseFormat::Sell,
        backend: Backend::Thread,
        trace: None,
        faults: None,
        resilience: None,
        adaptive: AdaptivePolicy::default(),
    }
}

/// The nine methods; `sstep_basis` goes to the sPCG-body members (sPCG,
/// CA-PCG-GS) so both problems together cover the Chebyshev (γ, θ, μ all
/// live), Newton (γ = 1, μ = 0) and monomial change-of-basis shapes.
fn methods(s: usize, sstep_basis: &BasisType, cheb: &BasisType) -> Vec<(&'static str, Method)> {
    vec![
        ("pcg", Method::Pcg),
        ("pcg3", Method::Pcg3),
        (
            "spcg",
            Method::SPcg {
                s,
                basis: sstep_basis.clone(),
            },
        ),
        ("spcg_mon", Method::SPcgMon { s: 3 }),
        (
            "capcg",
            Method::CaPcg {
                s,
                basis: cheb.clone(),
            },
        ),
        (
            "capcg3",
            Method::CaPcg3 {
                s,
                basis: cheb.clone(),
            },
        ),
        (
            "adaptive",
            Method::AdaptiveCaPcg {
                s: 4,
                basis: BasisType::Monomial,
            },
        ),
        (
            "capcg_gs",
            Method::CaPcgGs {
                s,
                basis: sstep_basis.clone(),
            },
        ),
        ("ekcg", Method::EkCg { t: 4 }),
    ]
}

fn run_cases(
    problem_name: &str,
    problem: &Problem<'_>,
    methods: &[(&'static str, Method)],
    out: &mut Vec<(String, SolveResult)>,
) {
    for (name, method) in methods {
        for (engine_name, engine) in [
            ("serial", Engine::Serial),
            ("ranks2", Engine::Ranked { ranks: 2 }),
        ] {
            let res = solve(method, problem, &options(), engine);
            out.push((format!("{problem_name}/{name}/{engine_name}"), res));
        }
    }
}

#[test]
fn solves_reproduce_the_recorded_bits() {
    if std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .any(|k| k.starts_with("SPCG_") && k != "SPCG_RANKD")
    {
        eprintln!("golden_bits: SPCG_* set, standing down");
        return;
    }
    let mut results = Vec::new();

    let a = poisson_3d(13);
    let b = paper_rhs(&a);
    let m = Jacobi::new(&a);
    let problem = Problem::new(&a, &m, &b);
    let cheb = chebyshev_basis(&problem, 20, 0.05);
    run_cases(
        "poisson13_jacobi",
        &problem,
        &methods(5, &cheb, &cheb),
        &mut results,
    );

    let a = Arc::new(anisotropic_3d(10, 1e-2, 1e-1));
    let b = paper_rhs(&a);
    let est = spcg::basis::ritz::estimate_spectrum(&a, &Identity::new(a.nrows()), &b, 20);
    let (lo, hi) = est.chebyshev_interval(0.05);
    let m: Box<dyn Preconditioner> = Box::new(ChebyshevPrecond::new(
        Arc::clone(&a),
        3,
        lo.max(hi / 1e4),
        hi,
    ));
    let problem = Problem::new(&a, m.as_ref(), &b);
    let cheb = chebyshev_basis(&problem, 20, 0.05);
    let newton = newton_basis(&problem, 20, 4);
    run_cases(
        "aniso10_cheb3",
        &problem,
        &methods(4, &newton, &cheb),
        &mut results,
    );

    let actual: Vec<(String, u64, usize, [u64; NCOUNTERS])> = results
        .iter()
        .map(|(case, res)| {
            assert!(res.converged(), "{case}: {:?}", res.outcome);
            (
                case.clone(),
                fnv1a(&res.x),
                res.iterations,
                fields(&res.counters),
            )
        })
        .collect();
    let golden: Vec<_> = GOLDEN
        .iter()
        .map(|&(case, hash, iters, counters)| (case.to_string(), hash, iters, counters))
        .collect();
    if actual != golden {
        let mut table = String::new();
        for (case, hash, iters, counters) in &actual {
            table.push_str(&format!(
                "    (\"{case}\", {hash:#018x}, {iters}, {counters:?}),\n"
            ));
        }
        let first = actual
            .iter()
            .zip(&golden)
            .find(|(a, g)| a != g)
            .map_or("<row count>".to_string(), |(a, _)| a.0.clone());
        panic!("golden bits differ, first at {first}; this build produces:\n{table}");
    }
}
