//! Batched multi-RHS solves: one matrix stream serving many right-hand
//! sides.
//!
//! [`solve_batch`] accepts `k` right-hand sides against one operator and
//! preconditioner. Standard PCG under [`Engine::Serial`] (with the resilient
//! driver off) hands all of them to the one PCG body ([`mod@crate::pcg`]) on
//! the executor [`solve`] itself builds: the `k` recurrences share one sparse
//! matrix–multivector product per iteration, and column `j` comes out
//! **bitwise identical** — `x`, history, [`Counters`] — to
//! `solve(Method::Pcg, …)` of that right-hand side alone, at any width,
//! format and thread count (the body's module docs say why; the parity tests
//! below pin it). Every other method/engine combination falls back to
//! per-request [`solve`] calls, so the service layer has one entry point for
//! the whole method zoo.
//!
//! **Deadlines.** A [`BatchRequest`] may carry a wall-clock deadline, checked
//! once per iteration (and before each sequential fallback solve); an expired
//! request freezes with [`Outcome::DeadlineExpired`] and the best iterate so
//! far. Expiry is the one timing-dependent outcome in this crate — every
//! other column of the same batch stays deterministic.

use crate::engine::{Engine, SerialExec};
use crate::method::{solve, Method};
use crate::options::{Outcome, Problem, SolveOptions, SolveResult};
use spcg_dist::Counters;
use spcg_precond::Preconditioner;
use spcg_sparse::CsrMatrix;
use std::time::Instant;

/// One right-hand side of a batched solve.
#[derive(Debug, Clone, Copy)]
pub struct BatchRequest<'a> {
    /// Right-hand side; length must equal the operator dimension.
    pub b: &'a [f64],
    /// Optional wall-clock deadline. `None` never expires.
    pub deadline: Option<Instant>,
}

impl<'a> BatchRequest<'a> {
    /// A request with no deadline.
    pub fn new(b: &'a [f64]) -> Self {
        BatchRequest { b, deadline: None }
    }

    /// A request that gives up (with [`Outcome::DeadlineExpired`]) once
    /// `deadline` passes.
    pub fn with_deadline(b: &'a [f64], deadline: Instant) -> Self {
        BatchRequest {
            b,
            deadline: Some(deadline),
        }
    }
}

/// Solves `A x_j = b_j` for every request, returning one [`SolveResult`]
/// per request in order — each the bitwise identical result of its own
/// standalone [`solve`] call, on the blocked path (`Method::Pcg` +
/// [`Engine::Serial`] + `opts.resilience == None`) and on the sequential one.
pub fn solve_batch(
    method: &Method,
    a: &CsrMatrix,
    m: &dyn Preconditioner,
    requests: &[BatchRequest<'_>],
    opts: &SolveOptions,
    engine: Engine,
) -> Vec<SolveResult> {
    if requests.is_empty() {
        return Vec::new();
    }
    let blocked = engine == Engine::Serial && *method == Method::Pcg && opts.resilience.is_none();
    if !blocked {
        return requests
            .iter()
            .map(|req| {
                if req.deadline.is_some_and(|d| Instant::now() >= d) {
                    // Expired before its solve started.
                    let x = vec![0.0; a.nrows()];
                    SolveResult::new(x, Outcome::DeadlineExpired, 0, Vec::new(), Counters::new())
                } else {
                    solve(method, &Problem::new(a, m, req.b), opts, engine)
                }
            })
            .collect();
    }
    // Same dimension validation (and panic message) as a plain solve, on
    // the executor `solve` builds.
    for req in requests {
        Problem::new(a, m, req.b);
    }
    let mut exec = SerialExec::new(a, m, opts);
    crate::pcg::pcg_g(&mut exec, requests, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::StoppingCriterion;
    use spcg_basis::BasisType;
    use spcg_precond::{Identity, Jacobi};
    use spcg_sparse::generators::paper_rhs;
    use spcg_sparse::generators::poisson::{poisson_1d, poisson_2d};
    use spcg_sparse::SparseFormat;

    fn rhs_family(a: &CsrMatrix, k: usize) -> Vec<Vec<f64>> {
        let base = paper_rhs(a);
        (0..k)
            .map(|j| {
                base.iter()
                    .enumerate()
                    .map(|(i, &v)| v * (1.0 + j as f64) + ((i + j) % 5) as f64 * 0.01)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn k1_blocked_path_is_bitwise_identical_to_solve() {
        let a = poisson_2d(12);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        for criterion in [
            StoppingCriterion::TrueResidual2Norm,
            StoppingCriterion::RecursiveResidual2Norm,
            StoppingCriterion::PrecondMNorm,
        ] {
            for format in [SparseFormat::Csr, SparseFormat::Sell] {
                let opts = SolveOptions::from_env()
                    .with_criterion(criterion)
                    .with_format(format)
                    .with_history();
                let plain = solve(
                    &Method::Pcg,
                    &Problem::new(&a, &m, &b),
                    &opts,
                    Engine::Serial,
                );
                let batch = solve_batch(
                    &Method::Pcg,
                    &a,
                    &m,
                    &[BatchRequest::new(&b)],
                    &opts,
                    Engine::Serial,
                );
                assert_eq!(batch.len(), 1);
                let res = &batch[0];
                assert_eq!(res.x, plain.x, "{criterion:?}/{format:?} x");
                assert_eq!(res.outcome, plain.outcome, "{criterion:?}/{format:?}");
                assert_eq!(res.iterations, plain.iterations, "{criterion:?}/{format:?}");
                assert_eq!(
                    res.history, plain.history,
                    "{criterion:?}/{format:?} history"
                );
                assert_eq!(
                    res.counters, plain.counters,
                    "{criterion:?}/{format:?} counters"
                );
            }
        }
    }

    #[test]
    fn every_column_of_a_batch_matches_its_standalone_solve_bitwise() {
        // Columns converge at different iterations, so this exercises the
        // frozen-column compaction: survivors must be unperturbed.
        let a = poisson_2d(10);
        let m = Jacobi::new(&a);
        let bs = rhs_family(&a, 4);
        for format in [SparseFormat::Csr, SparseFormat::Sell] {
            let opts = SolveOptions::from_env().with_format(format).with_history();
            let reqs: Vec<BatchRequest<'_>> = bs.iter().map(|b| BatchRequest::new(b)).collect();
            let batch = solve_batch(&Method::Pcg, &a, &m, &reqs, &opts, Engine::Serial);
            for (j, b) in bs.iter().enumerate() {
                let plain = solve(
                    &Method::Pcg,
                    &Problem::new(&a, &m, b),
                    &opts,
                    Engine::Serial,
                );
                assert_eq!(batch[j].x, plain.x, "col {j} x ({format:?})");
                assert_eq!(batch[j].outcome, plain.outcome, "col {j} ({format:?})");
                assert_eq!(
                    batch[j].iterations, plain.iterations,
                    "col {j} ({format:?})"
                );
                assert_eq!(batch[j].history, plain.history, "col {j} ({format:?})");
                assert_eq!(batch[j].counters, plain.counters, "col {j} ({format:?})");
            }
        }
    }

    #[test]
    fn fallback_methods_match_solve_bitwise() {
        let a = poisson_1d(40);
        let m = Jacobi::new(&a);
        let b = paper_rhs(&a);
        let opts = SolveOptions::from_env().with_history();
        let resilient = opts.clone().with_resilience(Default::default());
        let spcg = Method::SPcg {
            s: 4,
            basis: BasisType::Monomial,
        };
        for (method, opts, engine) in [
            (Method::Pcg3, &opts, Engine::Serial),
            (spcg, &opts, Engine::Serial),
            (Method::SPcgMon { s: 3 }, &opts, Engine::Serial),
            // PCG itself, on the two arms that keep it off the blocked path.
            (Method::Pcg, &opts, Engine::Ranked { ranks: 2 }),
            (Method::Pcg, &resilient, Engine::Serial),
        ] {
            let plain = solve(&method, &Problem::new(&a, &m, &b), opts, engine);
            let batch = solve_batch(&method, &a, &m, &[BatchRequest::new(&b)], opts, engine);
            assert_eq!(batch[0].x, plain.x, "{method:?} {engine:?}");
            // By bits: a faulted ranked run leaves NaN checks in the history.
            let bits = |r: &SolveResult| -> Vec<_> {
                (r.history.iter().map(|&(it, v)| (it, v.to_bits()))).collect()
            };
            assert_eq!(bits(&batch[0]), bits(&plain), "{method:?} {engine:?}");
            assert_eq!(batch[0].counters, plain.counters, "{method:?} {engine:?}");
        }
    }

    #[test]
    fn expired_deadline_freezes_with_deadline_expired() {
        let a = poisson_2d(16);
        let m = Identity::new(a.nrows());
        let b = paper_rhs(&a);
        let past = Instant::now();
        // Blocked path: deadline noticed at the first iteration boundary.
        let batch = solve_batch(
            &Method::Pcg,
            &a,
            &m,
            &[BatchRequest::with_deadline(&b, past)],
            &SolveOptions::from_env(),
            Engine::Serial,
        );
        assert_eq!(batch[0].outcome, Outcome::DeadlineExpired);
        assert_eq!(batch[0].iterations, 0);
        // Fallback path: checked before the solve starts.
        let batch = solve_batch(
            &Method::SPcgMon { s: 2 },
            &a,
            &m,
            &[BatchRequest::with_deadline(&b, past)],
            &SolveOptions::from_env(),
            Engine::Serial,
        );
        assert_eq!(batch[0].outcome, Outcome::DeadlineExpired);
        // A deadline-free column in the same batch still solves.
        let batch = solve_batch(
            &Method::Pcg,
            &a,
            &m,
            &[BatchRequest::with_deadline(&b, past), BatchRequest::new(&b)],
            &SolveOptions::from_env(),
            Engine::Serial,
        );
        assert_eq!(batch[0].outcome, Outcome::DeadlineExpired);
        assert!(batch[1].converged(), "{:?}", batch[1].outcome);
    }

    #[test]
    fn wide_batches_converge_to_tolerance() {
        let a = poisson_2d(12);
        let m = Jacobi::new(&a);
        let bs = rhs_family(&a, 8);
        let opts = SolveOptions::from_env().with_tol(1e-9);
        let reqs: Vec<BatchRequest<'_>> = bs.iter().map(|b| BatchRequest::new(b)).collect();
        let batch = solve_batch(&Method::Pcg, &a, &m, &reqs, &opts, Engine::Serial);
        for (j, (res, b)) in batch.iter().zip(&bs).enumerate() {
            assert!(res.converged(), "col {j}: {:?}", res.outcome);
            assert!(
                res.true_relative_residual(&a, b) < 1e-7,
                "col {j}: {}",
                res.true_relative_residual(&a, b)
            );
        }
    }

    #[test]
    fn empty_batch_returns_empty() {
        let a = poisson_1d(8);
        let m = Identity::new(8);
        let out = solve_batch(
            &Method::Pcg,
            &a,
            &m,
            &[],
            &SolveOptions::from_env(),
            Engine::Serial,
        );
        assert!(out.is_empty());
    }
}
