//! Closed-form computational costs per s steps — the paper's Table 1.
//!
//! Units follow the paper: local reductions and vector computations are
//! FLOPs *per matrix row* (one length-n dot product ≡ 1 FLOP/row), MV and
//! preconditioner applications are counts. The
//! [`verify_against_counters`] helper cross-checks these formulas against
//! what the instrumented solvers actually did — the reproduction of
//! Table 1 is that check plus the printed table.

use spcg_dist::Counters;

/// The five algorithms of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Standard PCG (s steps = s iterations).
    Pcg,
    /// Monomial-basis s-step PCG of Chronopoulos/Gear.
    SPcgMon,
    /// The paper's sPCG.
    SPcg,
    /// Toledo's CA-PCG.
    CaPcg,
    /// Hoemmen's CA-PCG3.
    CaPcg3,
}

impl Algorithm {
    /// All rows of Table 1 in paper order.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::Pcg,
        Algorithm::SPcgMon,
        Algorithm::SPcg,
        Algorithm::CaPcg,
        Algorithm::CaPcg3,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Pcg => "PCG",
            Algorithm::SPcgMon => "sPCG_mon",
            Algorithm::SPcg => "sPCG",
            Algorithm::CaPcg => "CA-PCG",
            Algorithm::CaPcg3 => "CA-PCG3",
        }
    }

    /// Column 2: number of MV products (= preconditioner applications) per
    /// s steps.
    pub fn mv_and_precond(&self, s: u64) -> u64 {
        match self {
            Algorithm::CaPcg => 2 * s - 1,
            _ => s,
        }
    }

    /// Local-reduction FLOPs per row per s steps (dot-product count).
    pub fn local_reductions(&self, s: u64) -> u64 {
        match self {
            Algorithm::Pcg | Algorithm::SPcgMon => 2 * s,
            Algorithm::SPcg => 2 * s * (s + 1),
            Algorithm::CaPcg | Algorithm::CaPcg3 => (2 * s + 1) * (2 * s + 1),
        }
    }

    /// Vector/matrix-column computation FLOPs per row per s steps with the
    /// monomial basis.
    pub fn vector_flops_monomial(&self, s: u64) -> u64 {
        match self {
            Algorithm::Pcg => 6 * s,
            Algorithm::SPcgMon | Algorithm::SPcg => 4 * s * s + 4 * s,
            Algorithm::CaPcg => 20 * s + 6,
            Algorithm::CaPcg3 => 8 * s * s + 17 * s,
        }
    }

    /// Additional FLOPs per row per s steps for an arbitrary basis
    /// (`None` for the monomial-only algorithms).
    pub fn vector_flops_extra_arbitrary(&self, s: u64) -> Option<u64> {
        match self {
            Algorithm::Pcg | Algorithm::SPcgMon => None,
            Algorithm::SPcg => Some(10 * s - 4),
            Algorithm::CaPcg => Some(10 * s - 9),
            Algorithm::CaPcg3 => Some(5 * s - 2),
        }
    }

    /// Total remaining FLOPs per row per s steps, monomial basis
    /// (last-but-one column of Table 1).
    pub fn total_monomial(&self, s: u64) -> u64 {
        self.local_reductions(s) + self.vector_flops_monomial(s)
    }

    /// Total remaining FLOPs per row per s steps, arbitrary basis (last
    /// column; `None` where the algorithm supports only the monomial basis).
    pub fn total_arbitrary(&self, s: u64) -> Option<u64> {
        self.vector_flops_extra_arbitrary(s)
            .map(|e| self.total_monomial(s) + e)
    }

    /// Global collectives per s steps.
    pub fn collectives(&self, s: u64) -> u64 {
        match self {
            Algorithm::Pcg => 2 * s,
            _ => 1,
        }
    }
}

/// Discrepancy report from checking the formulas against measured counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Check {
    /// Measured MV + preconditioner applications per s steps.
    pub measured_mv_precond: f64,
    /// Formula value.
    pub formula_mv_precond: f64,
    /// Measured dot products per s steps.
    pub measured_reductions: f64,
    /// Formula value.
    pub formula_reductions: f64,
    /// Measured remaining vector FLOPs per row per s steps (excluding the
    /// dot products counted above).
    pub measured_vector_flops: f64,
    /// Formula value (monomial or arbitrary-basis total minus reductions).
    pub formula_vector_flops: f64,
    /// Measured global collectives per s steps.
    pub measured_collectives: f64,
    /// Formula value.
    pub formula_collectives: f64,
}

impl Table1Check {
    /// Largest relative deviation across the four measures.
    pub fn max_relative_error(&self) -> f64 {
        let rel = |m: f64, f: f64| if f == 0.0 { m.abs() } else { (m - f).abs() / f };
        rel(self.measured_mv_precond, self.formula_mv_precond)
            .max(rel(self.measured_reductions, self.formula_reductions))
            .max(rel(self.measured_vector_flops, self.formula_vector_flops))
            .max(rel(self.measured_collectives, self.formula_collectives))
    }
}

/// Compares what a solver charges for **one full block of s steps** against
/// the Table-1 formulas.
///
/// A solve's totals also hold its edge rounds — the first block carries half
/// the dots and no `4s²` update, the closing check round no update at all —
/// so the block is isolated by difference: `shorter` and `longer` are the
/// counters of the same solve capped at `k·s` and `(k + 1)·s` iterations
/// (`k ≥ 1`, both ending at the cap), whose edge rounds cancel. Both must use
/// the *free* M-norm criterion so no criterion overhead is mixed in; `n` is
/// the matrix dimension and `arbitrary_basis` selects which total to compare
/// with.
pub fn verify_against_counters(
    alg: Algorithm,
    s: u64,
    n: usize,
    arbitrary_basis: bool,
    shorter: &Counters,
    longer: &Counters,
) -> Table1Check {
    assert_eq!(
        longer.iterations - shorter.iterations,
        s,
        "the two runs must differ by one block of s steps"
    );
    let block = |f: fn(&Counters) -> u64| (f(longer) - f(shorter)) as f64;
    let formula_total = if arbitrary_basis {
        alg.total_arbitrary(s)
            .expect("algorithm supports only the monomial basis") as f64
    } else {
        alg.total_monomial(s) as f64
    };
    Table1Check {
        measured_mv_precond: block(|c| c.spmv_count + c.precond_count) / 2.0,
        formula_mv_precond: alg.mv_and_precond(s) as f64,
        measured_reductions: block(|c| c.dot_count),
        formula_reductions: alg.local_reductions(s) as f64,
        measured_vector_flops: block(|c| c.blas1_flops + c.blas2_flops + c.blas3_flops) / n as f64,
        formula_vector_flops: formula_total - alg.local_reductions(s) as f64,
        measured_collectives: block(|c| c.global_collectives),
        formula_collectives: alg.collectives(s) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_paper_table1() {
        // Spot values from the printed table, s = 10.
        let s = 10;
        assert_eq!(Algorithm::Pcg.total_monomial(s), 80);
        assert_eq!(Algorithm::SPcgMon.total_monomial(s), 460);
        assert_eq!(Algorithm::SPcg.total_monomial(s), 660);
        assert_eq!(Algorithm::SPcg.total_arbitrary(s), Some(756));
        assert_eq!(Algorithm::CaPcg.total_monomial(s), 647);
        assert_eq!(Algorithm::CaPcg.total_arbitrary(s), Some(738));
        assert_eq!(Algorithm::CaPcg3.total_monomial(s), 1411);
        assert_eq!(Algorithm::CaPcg3.total_arbitrary(s), Some(1459));
    }

    #[test]
    fn algebraic_identities_for_all_s() {
        for s in 1u64..=20 {
            // Totals decompose as reductions + vector work.
            for alg in Algorithm::ALL {
                assert_eq!(
                    alg.total_monomial(s),
                    alg.local_reductions(s) + alg.vector_flops_monomial(s)
                );
            }
            // CA-PCG: 4s² + 24s + 7 (paper row 4).
            assert_eq!(Algorithm::CaPcg.total_monomial(s), 4 * s * s + 24 * s + 7);
            // CA-PCG3: 12s² + 21s + 1.
            assert_eq!(Algorithm::CaPcg3.total_monomial(s), 12 * s * s + 21 * s + 1);
            // sPCG: 6s² + 6s monomial, 6s² + 16s − 4 arbitrary.
            assert_eq!(Algorithm::SPcg.total_monomial(s), 6 * s * s + 6 * s);
            if s >= 1 {
                assert_eq!(
                    Algorithm::SPcg.total_arbitrary(s),
                    Some(6 * s * s + 16 * s - 4)
                );
            }
        }
    }

    #[test]
    fn spcg_is_cheapest_arbitrary_basis_s_step_for_small_s() {
        // §4.3: sPCG beats CA-PCG3 in local vector ops for all s, and
        // CA-PCG in MV+precond everywhere.
        for s in 2u64..=20 {
            assert!(Algorithm::SPcg.total_arbitrary(s) < Algorithm::CaPcg3.total_arbitrary(s));
            assert!(Algorithm::SPcg.mv_and_precond(s) < Algorithm::CaPcg.mv_and_precond(s));
        }
        // CA-PCG has the fewest local vector ops for s ≥ 10 (§4.3)…
        assert!(
            Algorithm::CaPcg.total_arbitrary(10).unwrap()
                < Algorithm::SPcg.total_arbitrary(10).unwrap()
        );
        // …but not for small s.
        assert!(
            Algorithm::CaPcg.total_arbitrary(3).unwrap()
                > Algorithm::SPcg.total_arbitrary(3).unwrap()
        );
    }

    #[test]
    fn collectives_reduced_by_2s() {
        for s in 1u64..=16 {
            assert_eq!(Algorithm::Pcg.collectives(s), 2 * s);
            assert_eq!(Algorithm::SPcg.collectives(s), 1);
        }
    }
}
