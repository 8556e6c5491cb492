//! Unified method dispatch for the experiment harnesses.

use crate::engine::Engine;
use crate::options::{Problem, SolveOptions, SolveResult};
use spcg_basis::BasisType;
use spcg_dist::wire::{WireReader, WireResult, WireWriter};
use spcg_precond::PrecondSpec;

/// A solver selection, carrying its s-step configuration where applicable.
#[derive(Debug, Clone, PartialEq)]
pub enum Method {
    /// Standard PCG (Alg. 1).
    Pcg,
    /// Three-term PCG (Rutishauser).
    Pcg3,
    /// sPCG with an arbitrary basis (Alg. 5 — the paper's contribution).
    SPcg { s: usize, basis: BasisType },
    /// The original monomial-only s-step PCG (Alg. 2).
    SPcgMon { s: usize },
    /// CA-PCG (Alg. 3).
    CaPcg { s: usize, basis: BasisType },
    /// CA-PCG3 (Alg. 4).
    CaPcg3 { s: usize, basis: BasisType },
    /// Adaptive CA-PCG: the CA-PCG body under the `spcg_adapt` controller —
    /// `s` here is the *starting* block size (the runtime range comes from
    /// [`crate::SolveOptions::adaptive`]), and `basis` the starting basis,
    /// which the controller may rebuild mid-solve from running Ritz values.
    AdaptiveCaPcg { s: usize, basis: BasisType },
    /// CA-PCG-GS: the s-step body with the small Gram systems solved by a
    /// seeded Gauss-Seidel iteration instead of Cholesky — no pivot-failure
    /// breakdown mode, so ill-conditioned large-s blocks survive at full s
    /// (D'Ambra et al., see `crate::sstep`).
    CaPcgGs { s: usize, basis: BasisType },
    /// Enlarged-Krylov CG: the residual split into `t` contiguous-block
    /// directions per iteration (Grigori & Moufawad's MSDO-CG family, see
    /// `crate::ekcg`). `t = 1` is bitwise plain PCG.
    EkCg { t: usize },
}

impl Method {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> String {
        match self {
            Method::Pcg => "PCG".into(),
            Method::Pcg3 => "PCG3".into(),
            Method::SPcg { s, basis } => format!("sPCG(s={s},{})", basis.name()),
            Method::SPcgMon { s } => format!("sPCG_mon(s={s})"),
            Method::CaPcg { s, basis } => format!("CA-PCG(s={s},{})", basis.name()),
            Method::CaPcg3 { s, basis } => format!("CA-PCG3(s={s},{})", basis.name()),
            Method::AdaptiveCaPcg { s, basis } => {
                format!("AdaptiveCA-PCG(s0={s},{})", basis.name())
            }
            Method::CaPcgGs { s, basis } => format!("CA-PCG-GS(s={s},{})", basis.name()),
            Method::EkCg { t } => format!("EkCG(t={t})"),
        }
    }

    /// The s-step block size (1 for the non-blocked baselines).
    pub fn s(&self) -> usize {
        match self {
            Method::Pcg | Method::Pcg3 | Method::EkCg { .. } => 1,
            Method::SPcg { s, .. }
            | Method::SPcgMon { s }
            | Method::CaPcg { s, .. }
            | Method::CaPcg3 { s, .. }
            | Method::AdaptiveCaPcg { s, .. }
            | Method::CaPcgGs { s, .. } => *s,
        }
    }

    /// The same method with its block size replaced, clamped to the
    /// method's minimum (2 for CA-PCG and CA-PCG3, whose coordinate-space
    /// recurrences need it; 1 for the other s-step methods). The
    /// non-blocked baselines have no block size and return themselves —
    /// the resilience driver's s-reduction policy is a no-op for them.
    pub fn with_s(&self, s: usize) -> Method {
        let mut out = self.clone();
        match &mut out {
            Method::SPcg { s: slot, .. }
            | Method::SPcgMon { s: slot }
            | Method::CaPcgGs { s: slot, .. } => *slot = s.max(1),
            Method::CaPcg { s: slot, .. }
            | Method::CaPcg3 { s: slot, .. }
            | Method::AdaptiveCaPcg { s: slot, .. } => *slot = s.max(2),
            Method::Pcg | Method::Pcg3 | Method::EkCg { .. } => {}
        }
        out
    }

    /// The polynomial basis the method builds its s-step blocks with;
    /// `None` for the methods that carry none (the non-blocked baselines
    /// and the monomial-only sPCG_mon).
    pub fn basis(&self) -> Option<&BasisType> {
        match self {
            Method::SPcg { basis, .. }
            | Method::CaPcg { basis, .. }
            | Method::CaPcg3 { basis, .. }
            | Method::AdaptiveCaPcg { basis, .. }
            | Method::CaPcgGs { basis, .. } => Some(basis),
            Method::Pcg | Method::Pcg3 | Method::SPcgMon { .. } | Method::EkCg { .. } => None,
        }
    }

    /// The same method with its basis replaced; methods without one (see
    /// [`Method::basis`]) return themselves.
    pub fn with_basis(&self, basis: BasisType) -> Method {
        let mut out = self.clone();
        match &mut out {
            Method::SPcg { basis: slot, .. }
            | Method::CaPcg { basis: slot, .. }
            | Method::CaPcg3 { basis: slot, .. }
            | Method::AdaptiveCaPcg { basis: slot, .. }
            | Method::CaPcgGs { basis: slot, .. } => *slot = basis,
            Method::Pcg | Method::Pcg3 | Method::SPcgMon { .. } | Method::EkCg { .. } => {}
        }
        out
    }

    /// Every variant with block parameter `size` (`s`, or EkCG's `t`) and a
    /// placeholder basis, in wire order: a method travels as the index of
    /// its variant here, its block parameter and its basis.
    pub(crate) fn prototypes(size: usize) -> [Method; 9] {
        let (s, basis) = (size, || BasisType::Monomial);
        [
            Method::Pcg,
            Method::Pcg3,
            Method::SPcg { s, basis: basis() },
            Method::SPcgMon { s },
            Method::CaPcg { s, basis: basis() },
            Method::CaPcg3 { s, basis: basis() },
            Method::AdaptiveCaPcg { s, basis: basis() },
            Method::CaPcgGs { s, basis: basis() },
            Method::EkCg { t: size },
        ]
    }

    /// Appends the method to a proc-backend frame (the `Setup` a worker
    /// rebuilds its solve from).
    pub fn encode(&self, w: &mut WireWriter) {
        let same_variant = |p: &Method| std::mem::discriminant(p) == std::mem::discriminant(self);
        let kind = Self::prototypes(0).iter().position(same_variant);
        w.usize(kind.expect("every variant has a prototype"));
        w.usize(match self {
            Method::EkCg { t } => *t,
            blocked => blocked.s(),
        });
        w.option(self.basis(), |w, basis| match basis {
            BasisType::Monomial => w.u8(0),
            BasisType::Newton { shifts } => {
                w.u8(1);
                w.f64s(shifts);
            }
            BasisType::Chebyshev {
                lambda_min,
                lambda_max,
            } => {
                w.u8(2);
                w.f64(*lambda_min);
                w.f64(*lambda_max);
            }
        });
    }

    /// Reads what [`Method::encode`] wrote.
    pub fn decode(r: &mut WireReader<'_>) -> WireResult<Method> {
        let (kind, size) = (r.usize()?, r.usize()?);
        let method = Self::prototypes(size).into_iter().nth(kind);
        let method = method.ok_or_else(|| format!("unknown method kind {kind}"))?;
        let basis = r.option(|r| match r.u8()? {
            0 => Ok(BasisType::Monomial),
            1 => Ok(BasisType::Newton { shifts: r.f64s()? }),
            2 => Ok(BasisType::Chebyshev {
                lambda_min: r.f64()?,
                lambda_max: r.f64()?,
            }),
            k => Err(format!("unknown basis kind {k}")),
        })?;
        // A no-op for the variants that carry no basis, which ship none.
        Ok(match basis {
            Some(basis) => method.with_basis(basis),
            None => method,
        })
    }

    /// The Gauss-Seidel analogue of this method at the *same* block size —
    /// the resilience driver's recovery stage between a breakdown and the
    /// shrink-s retreat: the s-step methods whose breakdowns come from the
    /// small Cholesky Gram solve map onto [`Method::CaPcgGs`] (same `s`,
    /// same basis where they carry one, monomial for sPCG_mon); methods
    /// without a Cholesky Gram solve (and CA-PCG-GS itself) have no
    /// analogue.
    pub fn gs_analogue(&self) -> Option<Method> {
        let basis = match self {
            Method::CaPcgGs { .. } => return None,
            Method::SPcgMon { .. } => BasisType::Monomial,
            other => other.basis()?.clone(),
        };
        Some(Method::CaPcgGs { s: self.s(), basis })
    }

    /// Ghost-zone depth ranked execution must build for this method: `None`
    /// for the non-blocked baselines (depth-1 SpMV only), `s` for the
    /// fixed-s block methods, and the adaptive policy's `s_max` for
    /// [`Method::AdaptiveCaPcg`] — the controller may grow past its
    /// starting `s`, and the exchange depth is fixed at construction.
    pub(crate) fn mpk_depth(&self, opts: &SolveOptions) -> Option<usize> {
        match self {
            Method::Pcg | Method::Pcg3 | Method::EkCg { .. } => None,
            Method::AdaptiveCaPcg { s, .. } => Some((*s).max(opts.adaptive.s_max)),
            _ => Some(self.s()),
        }
    }
}

/// Appends a preconditioner recipe to a frame — with [`Method::encode`] and
/// [`SolveOptions::encode`], everything besides the matrix that determines
/// a solve (a proc worker's `Setup`, the service's cache key).
pub fn encode_precond(spec: &PrecondSpec, w: &mut WireWriter) {
    match spec {
        PrecondSpec::Identity { n } => {
            w.u8(0);
            w.usize(*n);
        }
        PrecondSpec::Jacobi { inv_diag } => {
            w.u8(1);
            w.f64s(inv_diag);
        }
        PrecondSpec::BlockJacobi { block } => {
            w.u8(2);
            w.usize(*block);
        }
        PrecondSpec::Chebyshev { degree, lo, hi } => {
            w.u8(3);
            w.usize(*degree);
            w.f64(*lo);
            w.f64(*hi);
        }
        PrecondSpec::Ssor { omega } => {
            w.u8(4);
            w.f64(*omega);
        }
        PrecondSpec::Ic0 => w.u8(5),
    }
}

/// Reads what [`encode_precond`] wrote.
pub fn decode_precond(r: &mut WireReader<'_>) -> WireResult<PrecondSpec> {
    Ok(match r.u8()? {
        0 => PrecondSpec::Identity { n: r.usize()? },
        1 => PrecondSpec::Jacobi {
            inv_diag: r.f64s()?,
        },
        2 => PrecondSpec::BlockJacobi { block: r.usize()? },
        3 => PrecondSpec::Chebyshev {
            degree: r.usize()?,
            lo: r.f64()?,
            hi: r.f64()?,
        },
        4 => PrecondSpec::Ssor { omega: r.f64()? },
        5 => PrecondSpec::Ic0,
        k => return Err(format!("unknown preconditioner spec kind {k}")),
    })
}

/// Runs the selected method on the chosen execution [`Engine`].
///
/// `Engine::Serial` runs the reference single-address-space solver;
/// `Engine::Ranked { ranks }` partitions the rows over `ranks` communicating
/// ranks (`spcg_dist::ThreadComm`) and solves the same system with the same
/// arithmetic, one rank per OS thread. Iterates agree with serial execution
/// up to reduction rounding (bitwise for one rank).
///
/// This is the only entry to a method: the bodies are crate-private, and
/// `crate::engine::dispatch` is the only `Method` → body map.
///
/// # Panics
/// Panics if the method's block parameter is below its minimum (`s < 1` for
/// sPCG, sPCG_mon and CA-PCG-GS; `s < 2` for CA-PCG, adaptive CA-PCG and
/// CA-PCG3; `t < 1` or `t > n` for EkCG) or a Newton basis provides fewer
/// than `s` shifts.
pub fn solve(
    method: &Method,
    problem: &Problem<'_>,
    opts: &SolveOptions,
    engine: Engine,
) -> SolveResult {
    match engine {
        Engine::Serial => {
            // Serial execution has no distributed substrate to fault, so
            // the resilience driver runs only when explicitly configured;
            // with the default `resilience: None` this is the body itself.
            let mut exec = crate::engine::SerialExec::new(problem.a, problem.m, opts);
            let pol = opts.resilience.as_ref();
            crate::resilience::solve_resilient(method, &mut exec, problem.b, opts, pol)
        }
        Engine::Ranked { ranks } => crate::engine::run_ranked(method, problem, opts, ranks),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcg_precond::Jacobi;
    use spcg_sparse::generators::paper_rhs;
    use spcg_sparse::generators::poisson::poisson_2d;

    #[test]
    fn all_methods_solve_an_easy_problem() {
        let a = poisson_2d(12);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let problem = Problem::new(&a, &m, &b);
        let basis = crate::setup::chebyshev_basis(&problem, 20, 0.05);
        let methods = [
            Method::Pcg,
            Method::Pcg3,
            Method::SPcg {
                s: 4,
                basis: basis.clone(),
            },
            Method::SPcgMon { s: 4 },
            Method::CaPcg {
                s: 4,
                basis: basis.clone(),
            },
            Method::CaPcg3 {
                s: 4,
                basis: basis.clone(),
            },
            Method::AdaptiveCaPcg {
                s: 4,
                basis: basis.clone(),
            },
            Method::CaPcgGs { s: 4, basis },
            Method::EkCg { t: 4 },
        ];
        for method in &methods {
            let res = solve(method, &problem, &SolveOptions::from_env(), Engine::Serial);
            assert!(
                res.converged(),
                "{} failed: {:?}",
                method.name(),
                res.outcome
            );
            assert!(
                res.true_relative_residual(&a, &b) < 1e-7,
                "{}: residual too large",
                method.name()
            );
        }
    }

    #[test]
    fn names_and_s() {
        assert_eq!(Method::Pcg.name(), "PCG");
        assert_eq!(Method::Pcg.s(), 1);
        let m = Method::SPcg {
            s: 10,
            basis: BasisType::Monomial,
        };
        assert_eq!(m.name(), "sPCG(s=10,monomial)");
        assert_eq!(m.s(), 10);
        let g = Method::CaPcgGs {
            s: 8,
            basis: BasisType::Monomial,
        };
        assert_eq!(g.name(), "CA-PCG-GS(s=8,monomial)");
        assert_eq!(g.s(), 8);
        let e = Method::EkCg { t: 4 };
        assert_eq!(e.name(), "EkCG(t=4)");
        assert_eq!(e.s(), 1);
        assert_eq!(e.with_s(7), e);
    }

    #[test]
    fn basis_accessors_round_trip() {
        let cheb = BasisType::Chebyshev {
            lambda_min: 0.1,
            lambda_max: 2.0,
        };
        let m = Method::CaPcg3 {
            s: 6,
            basis: BasisType::Monomial,
        };
        assert_eq!(m.basis(), Some(&BasisType::Monomial));
        let tuned = m.with_basis(cheb.clone());
        assert_eq!(tuned, Method::CaPcg3 { s: 6, basis: cheb });
        assert_eq!(Method::SPcgMon { s: 3 }.basis(), None);
        assert_eq!(Method::Pcg.with_basis(BasisType::Monomial), Method::Pcg);
        assert_eq!(m.with_s(1).s(), 2);
        assert_eq!(Method::SPcgMon { s: 3 }.with_s(0).s(), 1);
    }

    #[test]
    fn gs_analogue_mapping() {
        let basis = BasisType::Monomial;
        assert_eq!(
            Method::CaPcg {
                s: 10,
                basis: basis.clone()
            }
            .gs_analogue(),
            Some(Method::CaPcgGs {
                s: 10,
                basis: basis.clone()
            })
        );
        assert_eq!(
            Method::SPcgMon { s: 6 }.gs_analogue(),
            Some(Method::CaPcgGs { s: 6, basis })
        );
        assert_eq!(Method::Pcg.gs_analogue(), None);
        assert_eq!(Method::EkCg { t: 2 }.gs_analogue(), None);
        assert_eq!(
            Method::CaPcgGs {
                s: 4,
                basis: BasisType::Monomial
            }
            .gs_analogue(),
            None
        );
    }
}
