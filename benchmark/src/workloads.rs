//! The five named workloads: their inputs, members and metric roles.
//!
//! A *member* is one (method, engine, backend, format) configuration; a
//! *pass* runs every member once. All members share rtol 1e-9, the
//! `PrecondMNorm` criterion, 12 000 iterations at most and one kernel
//! thread; see `README.md` for why each workload exists.

use crate::harness::solve_options;
use spcg::basis::ritz::estimate_spectrum;
use spcg::basis::BasisType;
use spcg::dist::Backend;
use spcg::precond::{ChebyshevPrecond, Identity, Jacobi, Preconditioner};
use spcg::service::SolveSpec;
use spcg::solvers::{chebyshev_basis, Engine, Method, Problem};
use spcg::sparse::generators::anisotropic::anisotropic_3d;
use spcg::sparse::generators::poisson::poisson_3d;
use spcg::sparse::rng::Rng64;
use spcg::sparse::{CsrMatrix, SparseFormat};
use std::sync::Arc;
use Backend::{Proc, Thread};
use SparseFormat::{Csr, Sell};

pub const NAMES: [&str; 5] = [
    "poisson_serial",
    "poisson_ranked",
    "strong_limit",
    "aniso_cheb",
    "service_batch",
];

/// Relative tolerance of every solve.
pub const RTOL: f64 = 1e-9;
pub const MAX_ITERS: usize = 12_000;
/// Ranks of the ranked members; the harness refuses to run them on fewer
/// cores.
pub const RANKS: usize = 2;

/// Grid edge of the three full-size workloads (n = 64 000). The issue
/// sized them at 48; at 40 a pass takes half as long, so a run holds twice
/// the passes and its statistics rest on twice the samples, while matrix
/// and s-step blocks still live in L3, far beyond the 2 MiB L2.
pub const GRID: usize = 40;

/// Problem size: the real one, or the `poisson_3d(8)`-sized instance the
/// package's own tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Scale {
    fn grid(self, full: usize) -> usize {
        match self {
            Scale::Full => full,
            Scale::Smoke => 8,
        }
    }
}

/// Method selection, resolved against the workload's Chebyshev basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sel {
    Pcg,
    Pcg3,
    SPcg(usize),
    SPcgMon(usize),
    CaPcg(usize),
    CaPcg3(usize),
    /// Adaptive CA-PCG started from the monomial basis (no a-priori
    /// spectrum), so the controller's estimates and rebuilds do real work.
    AdaptiveMon(usize),
    Gs(usize),
    EkCg(usize),
}

impl Sel {
    pub fn method(self, basis: &BasisType) -> Method {
        let basis = basis.clone();
        match self {
            Sel::Pcg => Method::Pcg,
            Sel::Pcg3 => Method::Pcg3,
            Sel::SPcg(s) => Method::SPcg { s, basis },
            Sel::SPcgMon(s) => Method::SPcgMon { s },
            Sel::CaPcg(s) => Method::CaPcg { s, basis },
            Sel::CaPcg3(s) => Method::CaPcg3 { s, basis },
            Sel::AdaptiveMon(s) => Method::AdaptiveCaPcg {
                s,
                basis: BasisType::Monomial,
            },
            Sel::Gs(s) => Method::CaPcgGs { s, basis },
            Sel::EkCg(t) => Method::EkCg { t },
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Member {
    pub name: &'static str,
    pub sel: Sel,
    pub engine: Engine,
    pub backend: Backend,
    pub format: SparseFormat,
}

const fn serial(name: &'static str, sel: Sel, format: SparseFormat) -> Member {
    Member {
        name,
        sel,
        engine: Engine::Serial,
        // Ignored by the serial engine; still set, never defaulted.
        backend: Backend::Thread,
        format,
    }
}

const fn ranked(name: &'static str, sel: Sel, backend: Backend) -> Member {
    Member {
        name,
        sel,
        engine: Engine::Ranked { ranks: RANKS },
        backend,
        format: SparseFormat::Sell,
    }
}

/// Which members (or request kinds) feed `tts_pcg_s`, `tts_sstep_s` and
/// `tts_alt_s`.
#[derive(Debug, Clone, Copy)]
pub struct Roles {
    pub pcg: &'static str,
    pub sstep: &'static str,
    pub alt: &'static str,
}

/// One operator with everything a solve needs besides the method.
pub struct Inputs {
    pub a: Arc<CsrMatrix>,
    pub m: Box<dyn Preconditioner>,
    pub b: Vec<f64>,
    /// Chebyshev basis on the warm-up Ritz interval of `M⁻¹A`.
    pub basis: BasisType,
}

impl Inputs {
    pub fn problem(&self) -> Problem<'_> {
        Problem::new(&self.a, self.m.as_ref(), &self.b)
    }

    /// Matrix (CSR + SELL), preconditioner state and the solver's vectors,
    /// from array sizes: CSR 16 B/nnz + 8 B/row, SELL 10 B/nnz, and
    /// `vectors` length-n `f64` columns.
    pub fn working_set_mib(&self, vectors: usize) -> f64 {
        let (n, nnz) = (self.a.nrows() as f64, self.a.nnz() as f64);
        (nnz * 26.0 + n * 8.0 * (2.0 + vectors as f64)) / (1024.0 * 1024.0)
    }
}

/// `b = A·x*` with `x* ~ U(−1, 1)`.
pub fn seeded_rhs(a: &CsrMatrix, rng: &mut Rng64) -> Vec<f64> {
    let x_star: Vec<f64> = (0..a.nrows()).map(|_| rng.range_f64(-1.0, 1.0)).collect();
    let mut b = vec![0.0; a.nrows()];
    a.spmv(&x_star, &mut b);
    b
}

/// Generator → CSR → Jacobi → 40-iteration spectrum warm-up → SELL.
fn jacobi_inputs(a: CsrMatrix, rng: &mut Rng64) -> Inputs {
    let a = Arc::new(a);
    let m: Box<dyn Preconditioner> = Box::new(Jacobi::new(&a));
    let b = seeded_rhs(&a, rng);
    let basis = chebyshev_basis(&Problem::new(&a, m.as_ref(), &b), 40, 0.10);
    let _ = a.sell();
    Inputs { a, m, b, basis }
}

/// The paper's Table 3 set-up: a degree-3 Chebyshev preconditioner on the
/// 20-iteration Ritz interval of `A` (clamped to four decades, which is all
/// a cubic resolves), then the basis interval of `M⁻¹A` the same way.
fn chebyshev_inputs(a: CsrMatrix, rng: &mut Rng64) -> Inputs {
    let a = Arc::new(a);
    let b = seeded_rhs(&a, rng);
    let est = estimate_spectrum(&a, &Identity::new(a.nrows()), &b, 20);
    let (lo, hi) = est.chebyshev_interval(0.05);
    let m: Box<dyn Preconditioner> = Box::new(ChebyshevPrecond::new(
        Arc::clone(&a),
        3,
        lo.max(hi / 1e4),
        hi,
    ));
    let basis = chebyshev_basis(&Problem::new(&a, m.as_ref(), &b), 20, 0.05);
    let _ = a.sell();
    Inputs { a, m, b, basis }
}

/// A workload of direct `solve` calls.
pub struct SolverWorkload {
    pub name: &'static str,
    pub members: &'static [Member],
    pub roles: Roles,
    /// Block size of the per-layer probes (the workload's s-step `s`).
    pub s: usize,
    build: fn(&mut Rng64, Scale) -> Inputs,
}

impl SolverWorkload {
    pub fn build(&self, seed: u64, scale: Scale) -> Inputs {
        (self.build)(&mut Rng64::seed_from_u64(seed), scale)
    }
}

const POISSON_SERIAL: SolverWorkload = SolverWorkload {
    name: "poisson_serial",
    members: &[
        serial("pcg.sell", Sel::Pcg, Sell),
        serial("spcg5.sell", Sel::SPcg(5), Sell),
        serial("capcg5.sell", Sel::CaPcg(5), Sell),
        serial("capcg3_5.sell", Sel::CaPcg3(5), Sell),
        serial("spcgmon4.sell", Sel::SPcgMon(4), Sell),
        serial("pcg.csr", Sel::Pcg, Csr),
        serial("spcg5.csr", Sel::SPcg(5), Csr),
    ],
    roles: Roles {
        pcg: "pcg.sell",
        sstep: "spcg5.sell",
        alt: "spcg5.csr",
    },
    s: 5,
    build: |rng, scale| jacobi_inputs(poisson_3d(scale.grid(GRID)), rng),
};

const POISSON_RANKED: SolverWorkload = SolverWorkload {
    name: "poisson_ranked",
    members: &[
        serial("pcg.serial", Sel::Pcg, Sell),
        serial("spcg5.serial", Sel::SPcg(5), Sell),
        ranked("pcg.thread", Sel::Pcg, Thread),
        ranked("spcg5.thread", Sel::SPcg(5), Thread),
        ranked("capcg3_5.thread", Sel::CaPcg3(5), Thread),
        ranked("pcg.proc", Sel::Pcg, Proc),
        ranked("spcg5.proc", Sel::SPcg(5), Proc),
    ],
    roles: Roles {
        pcg: "pcg.thread",
        sstep: "spcg5.thread",
        alt: "spcg5.proc",
    },
    s: 5,
    build: |rng, scale| jacobi_inputs(poisson_3d(scale.grid(GRID)), rng),
};

const STRONG_LIMIT: SolverWorkload = SolverWorkload {
    name: "strong_limit",
    members: &[
        ranked("pcg", Sel::Pcg, Thread),
        ranked("pcg3", Sel::Pcg3, Thread),
        ranked("spcg5", Sel::SPcg(5), Thread),
        ranked("spcgmon4", Sel::SPcgMon(4), Thread),
        ranked("capcg5", Sel::CaPcg(5), Thread),
        ranked("capcg3_5", Sel::CaPcg3(5), Thread),
        ranked("adaptive4", Sel::AdaptiveMon(4), Thread),
        ranked("gs5", Sel::Gs(5), Thread),
        ranked("ekcg2", Sel::EkCg(2), Thread),
        ranked("pcg.proc", Sel::Pcg, Proc),
        ranked("spcg5.proc", Sel::SPcg(5), Proc),
    ],
    roles: Roles {
        pcg: "pcg",
        sstep: "spcg5",
        alt: "spcg5.proc",
    },
    s: 5,
    build: |rng, scale| jacobi_inputs(poisson_3d(scale.grid(16)), rng),
};

const ANISO_CHEB: SolverWorkload = SolverWorkload {
    name: "aniso_cheb",
    members: &[
        serial("pcg", Sel::Pcg, Sell),
        serial("spcg10", Sel::SPcg(10), Sell),
        serial("capcg3_10", Sel::CaPcg3(10), Sell),
        serial("adaptive4", Sel::AdaptiveMon(4), Sell),
        serial("gs10", Sel::Gs(10), Sell),
    ],
    roles: Roles {
        pcg: "pcg",
        sstep: "spcg10",
        alt: "adaptive4",
    },
    s: 10,
    build: |rng, scale| chebyshev_inputs(anisotropic_3d(scale.grid(GRID), 1e-2, 1e-1), rng),
};

pub fn solver_workload(name: &str) -> Option<&'static SolverWorkload> {
    [&POISSON_SERIAL, &POISSON_RANKED, &STRONG_LIMIT, &ANISO_CHEB]
        .into_iter()
        .find(|w| w.name == name)
}

// ---------------------------------------------------------------------------
// service_batch
// ---------------------------------------------------------------------------

/// Request kinds of `service_batch`, the keys its samples carry.
pub mod kind {
    /// Cache-hit `submit`, PCG, on the hot operator.
    pub const SINGLE: &str = "single.hit";
    /// Cache-hit `submit_batch` of eight, PCG, on the hot operator.
    pub const BATCH8: &str = "batch8.hit";
    /// Cache-miss `submit` on the hot operator, handle build included.
    pub const COLD: &str = "single.cold";
    /// Cache-hit `submit` on operator C, sPCG(s=5).
    pub const SSTEP: &str = "spcg5.hit";
}

pub const SERVICE_ROLES: Roles = Roles {
    pcg: kind::SINGLE,
    sstep: kind::SSTEP,
    alt: kind::BATCH8,
};

/// Cycles per pass: one with operator A hot, one with B.
pub const SERVICE_CYCLES: usize = 2;
/// `submit`s on the hot operator per cycle (the first one misses).
pub const SERVICE_SINGLES: usize = 5;
pub const SERVICE_BATCH: usize = 8;

/// One operator of the service workload with its right-hand-side pool.
pub struct ServiceOp {
    pub inputs: Inputs,
    /// Solve recipe with every option explicit and tracing off.
    pub spec: SolveSpec,
    /// `SERVICE_SINGLES + SERVICE_BATCH` right-hand sides.
    pub pool: Vec<Vec<f64>>,
}

pub struct ServiceInputs {
    /// A and B alternate as the hot operator; C gets one sPCG request a cycle.
    pub ops: [ServiceOp; 3],
    /// Per cycle of a pass, the order in which the hot operator's pool is
    /// requested: the first `SERVICE_SINGLES` one at a time, the rest as
    /// the batch.
    pub order: Vec<Vec<usize>>,
}

pub fn build_service(seed: u64, scale: Scale) -> ServiceInputs {
    let mut rng = Rng64::seed_from_u64(seed);
    let g = scale.grid(32);
    let mut op = |a: CsrMatrix, sel: Sel| {
        let inputs = jacobi_inputs(a, &mut rng);
        let pool = (0..SERVICE_SINGLES + SERVICE_BATCH)
            .map(|_| seeded_rhs(&inputs.a, &mut rng))
            .collect();
        let member = serial("service", sel, Sell);
        let spec = SolveSpec {
            method: sel.method(&inputs.basis),
            precond: inputs.m.spec().expect("Jacobi has a recipe"),
            opts: solve_options(&member, None),
            engine: member.engine,
            tune_basis: false,
        };
        ServiceOp { inputs, spec, pool }
    };
    let ops = [
        op(poisson_3d(g), Sel::Pcg),
        op(anisotropic_3d(g, 0.1, 0.1), Sel::Pcg),
        op(anisotropic_3d(g, 0.5, 0.2), Sel::SPcg(5)),
    ];
    // Fisher–Yates per cycle: the request order is part of the seeded input.
    let order = (0..SERVICE_CYCLES)
        .map(|_| {
            let mut idx: Vec<usize> = (0..SERVICE_SINGLES + SERVICE_BATCH).collect();
            for i in (1..idx.len()).rev() {
                idx.swap(i, rng.below_inclusive(i));
            }
            idx
        })
        .collect();
    ServiceInputs { ops, order }
}
