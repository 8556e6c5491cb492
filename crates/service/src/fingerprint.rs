//! Operator fingerprints: content hashes keying the setup cache.
//!
//! A [`Fingerprint`] identifies everything that determines a solve: the
//! matrix (structure *and* values) and the [`SolveSpec`]. Two submissions
//! hash equal exactly when a [`crate::SolverHandle`] built for one is
//! valid — and bitwise-reproducing — for the other; since the service
//! solves with the handle's own spec, that means equal in every field that
//! can change a result, a counter or a cached artifact.
//!
//! The spec is hashed as its **wire encoding** — the bytes a proc worker's
//! `SOLVE` frame carries ([`encode_precond`], [`Method::encode`],
//! [`SolveOptions::encode`]). Those codecs destructure their types
//! exhaustively, so a field added to `SolveOptions` or `Resilience` does
//! not compile until it is shipped, and from then on keys the cache too;
//! there is no second, hand-kept field list here to fall behind. The one
//! field cleared first is the tracer ([`SolveOptions::trace`]): spans only
//! observe, and a handle serves traced and untraced submissions alike. The
//! inert `SolveOptions::format` is not in the encoding, so a handle serves
//! every value of it.
//!
//! The hash is a 64-bit FNV-1a folded over native words ([`Fnv`]). The
//! matrix enters as its [`CsrMatrix::content_hash`], which the matrix
//! computes in one streaming pass and keeps until an in-place edit, so a
//! cache hit on a matrix the service has seen before hashes the spec bytes
//! only. Fingerprints are not persisted anywhere; their values are free to
//! change between versions.
//!
//! [`SolveOptions::trace`]: spcg_solvers::SolveOptions
//! [`SolveOptions::encode`]: spcg_solvers::SolveOptions::encode
//! [`Method::encode`]: spcg_solvers::Method::encode

use crate::handle::SolveSpec;
use spcg_dist::wire::WireWriter;
use spcg_solvers::{encode_precond, Engine, SolveOptions};
use spcg_sparse::hash::Fnv;
use spcg_sparse::CsrMatrix;
use std::fmt;

/// A 64-bit content hash naming one operator + solve configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(pub u64);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Hashes the matrix and the full solve spec into one cache key. Not
/// cryptographic: a collision would alias two configurations, a risk a
/// performance cache over a handful of resident operators accepts at 64
/// bits.
pub fn fingerprint(a: &CsrMatrix, spec: &SolveSpec) -> Fingerprint {
    let mut h = Fnv::new();
    h.word(a.content_hash());
    // Exhaustive on purpose, like the codecs: a new spec field does not
    // compile until it is hashed.
    let SolveSpec {
        method,
        precond,
        opts,
        engine,
        tune_basis,
    } = spec;
    let mut w = WireWriter::new();
    encode_precond(precond, &mut w);
    method.encode(&mut w);
    let untraced = SolveOptions {
        trace: None,
        ..opts.clone()
    };
    untraced.encode(&mut w);
    let ranks = match engine {
        Engine::Serial => None,
        Engine::Ranked { ranks } => Some(*ranks),
    };
    w.option(ranks, WireWriter::usize);
    w.bool(*tune_basis);
    h.bytes(&w.into_bytes());
    Fingerprint(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spcg_dist::{FaultPlan, FaultSite};
    use spcg_precond::{Jacobi, PrecondSpec, Preconditioner};
    use spcg_solvers::{Method, Resilience};
    use spcg_sparse::generators::poisson::poisson_2d;
    use spcg_sparse::CooMatrix;

    fn spec_for(a: &CsrMatrix) -> SolveSpec {
        SolveSpec::new(Method::Pcg, Jacobi::new(a).spec().unwrap())
    }

    #[test]
    fn equal_inputs_hash_equal() {
        let a = poisson_2d(9);
        let b = poisson_2d(9);
        assert_eq!(
            fingerprint(&a, &spec_for(&a)),
            fingerprint(&b, &spec_for(&b))
        );
    }

    #[test]
    fn any_value_change_changes_the_hash() {
        let a = poisson_2d(9);
        let spec = spec_for(&a);
        let base = fingerprint(&a, &spec);
        // Perturb one matrix entry by one ulp.
        let n = a.nrows();
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let (cols, vals) = a.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                let v = if i == 0 && c == 0 {
                    f64::from_bits(v.to_bits() + 1)
                } else {
                    v
                };
                coo.push(i, c, v);
            }
        }
        let perturbed = coo.to_csr();
        assert_ne!(base, fingerprint(&perturbed, &spec));
    }

    #[test]
    fn spec_changes_change_the_hash() {
        let a = poisson_2d(9);
        let spec = spec_for(&a);
        let base = fingerprint(&a, &spec);

        let mut s2 = spec.clone();
        s2.opts.tol = 1e-10;
        assert_ne!(base, fingerprint(&a, &s2));

        let mut s3 = spec.clone();
        s3.precond = PrecondSpec::Ic0;
        assert_ne!(base, fingerprint(&a, &s3));

        let mut s4 = spec.clone();
        s4.method = Method::SPcgMon { s: 4 };
        assert_ne!(base, fingerprint(&a, &s4));

        let mut s5 = spec.clone();
        s5.engine = Engine::Ranked { ranks: 2 };
        assert_ne!(base, fingerprint(&a, &s5));

        let mut s7 = spec.clone();
        s7.tune_basis = true;
        assert_ne!(base, fingerprint(&a, &s7));
    }

    /// Every pair of `specs` hashes differently.
    fn assert_all_distinct(a: &CsrMatrix, specs: &[SolveSpec]) {
        let fps: Vec<_> = specs.iter().map(|s| fingerprint(a, s)).collect();
        for i in 0..fps.len() {
            for j in 0..i {
                assert_ne!(fps[i], fps[j], "specs {j} and {i} collide");
            }
        }
    }

    #[test]
    fn resilience_recovery_policy_changes_the_hash() {
        // The service solves with the handle's spec: two tenants differing
        // only in `gs_recovery` must not share a handle.
        let a = poisson_2d(9);
        let with = |gs: bool| {
            let res = Resilience::default().with_gs_recovery(gs);
            spec_for(&a).with_opts(SolveOptions::default().with_resilience(res))
        };
        assert_all_distinct(&a, &[spec_for(&a), with(false), with(true)]);
    }

    #[test]
    fn fault_plan_changes_the_hash() {
        let a = poisson_2d(9);
        let with = |plan: Option<FaultPlan>| {
            let spec = spec_for(&a).with_engine(Engine::Ranked { ranks: 2 });
            spec.with_opts(SolveOptions::default().with_faults(plan))
        };
        let plan = |seed| Some(FaultPlan::new(seed, 0.05));
        let stalls = plan(101).map(|p| p.with_sites(&[FaultSite::PostStall]));
        assert_all_distinct(&a, &[None, plan(101), plan(202), stalls].map(with));
    }

    #[test]
    fn trace_does_not_change_the_hash() {
        let a = poisson_2d(9);
        let spec = spec_for(&a);
        let base = fingerprint(&a, &spec);
        let mut traced = spec.clone();
        traced.opts.trace = Some(spcg_obs::Tracer::new());
        assert_eq!(base, fingerprint(&a, &traced));
    }
}
