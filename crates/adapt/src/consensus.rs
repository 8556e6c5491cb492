//! Rank-consensus verification for adaptive decisions.
//!
//! Every adaptive decision is computed from already-allreduced scalars, so
//! all ranks *should* decide identically — SPMD control flow. These words
//! ride the next Gram allreduce to verify that invariant at run
//! time without an extra collective: each rank contributes its decision
//! plus a count of one; after the reduction, `sum == local · nranks` holds
//! (exactly, in f64 integer arithmetic) iff every rank decided the same.
//!
//! A poisoned reduction (injected NaN payload) makes the words non-finite;
//! that case is reported as [`Verdict::Poisoned`] and left to the solver's
//! breakdown/resilience path, which sees the same poison in the Gram matrix
//! itself.

/// Number of f64 words a consensus check occupies in the allreduce buffer.
pub const WORDS: usize = 3;

/// Outcome of a consensus verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// All ranks decided identically.
    Agree,
    /// Decisions differed across ranks — a control-flow bug.
    Disagree,
    /// The reduction carried non-finite values (fault injection); the
    /// check is inconclusive and the caller's breakdown path owns it.
    Poisoned,
}

/// Packs this rank's decision `(s_next, rebuild)` for the allreduce.
pub fn pack(s_next: usize, rebuild: bool) -> [f64; WORDS] {
    [s_next as f64, if rebuild { 1.0 } else { 0.0 }, 1.0]
}

/// Verifies the allreduced words against this rank's own decision.
pub fn check(reduced: &[f64], s_next: usize, rebuild: bool) -> Verdict {
    assert_eq!(reduced.len(), WORDS, "consensus::check: word count");
    if reduced.iter().any(|v| !v.is_finite()) {
        return Verdict::Poisoned;
    }
    let nranks = reduced[2];
    let want = pack(s_next, rebuild);
    if reduced[0] == want[0] * nranks && reduced[1] == want[1] * nranks {
        Verdict::Agree
    } else {
        Verdict::Disagree
    }
}

/// Number of f64 words a Gauss-Seidel sweep-count consensus check occupies.
pub const SWEEP_WORDS: usize = 3;

/// Packs this rank's Gauss-Seidel sweep counts for the two Gram solves of
/// one s-step block (`sweeps_b` for the matrix-RHS `B` system, `sweeps_a`
/// for the vector `a` system). The sweeps run on replicated post-allreduce
/// data, so every rank must count identically; like [`pack`], the third
/// word counts ranks so [`check_sweeps`] can test `sum == local · nranks`.
pub fn pack_sweeps(sweeps_b: usize, sweeps_a: usize) -> [f64; SWEEP_WORDS] {
    [sweeps_b as f64, sweeps_a as f64, 1.0]
}

/// Verifies allreduced sweep-count words against this rank's own counts.
pub fn check_sweeps(reduced: &[f64], sweeps_b: usize, sweeps_a: usize) -> Verdict {
    assert_eq!(
        reduced.len(),
        SWEEP_WORDS,
        "consensus::check_sweeps: word count"
    );
    if reduced.iter().any(|v| !v.is_finite()) {
        return Verdict::Poisoned;
    }
    let nranks = reduced[2];
    let want = pack_sweeps(sweeps_b, sweeps_a);
    if reduced[0] == want[0] * nranks && reduced[1] == want[1] * nranks {
        Verdict::Agree
    } else {
        Verdict::Disagree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agreement_across_ranks() {
        // Simulate a 4-rank allreduce: element-wise sum of identical packs.
        let mut buf = [0.0; WORDS];
        for _ in 0..4 {
            for (b, w) in buf.iter_mut().zip(pack(8, true)) {
                *b += w;
            }
        }
        assert_eq!(check(&buf, 8, true), Verdict::Agree);
        assert_eq!(check(&buf, 4, true), Verdict::Disagree);
        assert_eq!(check(&buf, 8, false), Verdict::Disagree);
    }

    #[test]
    fn single_rank_is_identity() {
        let buf = pack(5, false);
        assert_eq!(check(&buf, 5, false), Verdict::Agree);
    }

    #[test]
    fn poisoned_reduction_is_inconclusive() {
        let buf = [f64::NAN, 0.0, 2.0];
        assert_eq!(check(&buf, 3, false), Verdict::Poisoned);
    }

    #[test]
    fn sweep_consensus_across_ranks() {
        let mut buf = [0.0; SWEEP_WORDS];
        for _ in 0..3 {
            for (b, w) in buf.iter_mut().zip(pack_sweeps(12, 7)) {
                *b += w;
            }
        }
        assert_eq!(check_sweeps(&buf, 12, 7), Verdict::Agree);
        assert_eq!(check_sweeps(&buf, 11, 7), Verdict::Disagree);
        assert_eq!(check_sweeps(&buf, 12, 8), Verdict::Disagree);
        assert_eq!(
            check_sweeps(&[f64::INFINITY, 0.0, 3.0], 12, 7),
            Verdict::Poisoned
        );
    }
}
