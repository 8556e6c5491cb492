//! Golden-bits regression: the kernel layer's contract is that a change of
//! loop structure, tiling or fusion never changes a single bit of a solve.
//! The parity suites compare two configurations of the *same* build; this
//! suite compares the build against constants recorded on the commit before
//! the block-update kernels were fused (`GOLDEN`, below): an FNV-1a hash of
//! the iterate's bits, the iteration count, and every field of [`Counters`]
//! for all nine methods on two problems, serial and on two ranks.
//!
//! Since the s-step bodies were merged the rows also pin what a merge is most
//! likely to bend — a hash of the criterion history, the `s` schedule, the
//! restart count, the outcome variant and the number of basis rebuilds — and
//! the `hard_*` / `survival_*` / `poisson13_jacobi/spcg_rr*` rows (recorded on
//! the commit before that merge) walk the paths the two easy problems never
//! reach: Cholesky and curvature breakdowns, the Gauss-Seidel stall rescue,
//! adaptive Reject / shrink / rebuild, residual replacement, and a resilient
//! GS-recovery-then-shrink restart chain.
//!
//! Since every reduction charges itself where it is performed, the `Counters`
//! of the `pcg3`, `spcg_mon`, `spcg_rr`, resilient and breakdown-judging rows
//! are what those solves perform (PCG3 also judges its exit one SpMV later);
//! no iterate, iteration count, history, schedule, restart count or outcome
//! moved when they were re-recorded.
//!
//! Every `SolveOptions` field is set explicitly, so the rows are checked
//! whatever `SPCG_*` variables the process was started under.
//!
//! To re-record after a *deliberate* numerical change, run the test, and
//! paste the table it prints on failure over `GOLDEN`.

use spcg::basis::BasisType;
use spcg::dist::{Backend, Counters};
use spcg::precond::{ChebyshevPrecond, Identity, Jacobi, Preconditioner};
use spcg::solvers::{
    chebyshev_basis, newton_basis, solve, AdaptivePolicy, Engine, Method, Outcome, Problem,
    Resilience, SolveOptions, SolveResult, StoppingCriterion,
};
use spcg::sparse::generators::anisotropic::anisotropic_3d;
use spcg::sparse::generators::paper_rhs;
use spcg::sparse::generators::poisson::poisson_3d;
use spcg::sparse::generators::random_spd::{spd_with_spectrum, SpectrumShape};
use spcg::sparse::SparseFormat;
use std::sync::Arc;

const NCOUNTERS: usize = 17;

/// `(case, FNV-1a of x's bits, iterations, Counters fields in declaration
/// order, FNV-1a of the history's (iteration, value bits) pairs, s_schedule,
/// restarts, outcome variant, adaptive basis rebuilds)`.
type Row = (
    &'static str,
    u64,
    usize,
    [u64; NCOUNTERS],
    u64,
    &'static [usize],
    usize,
    u8,
    usize,
);

#[rustfmt::skip]
const GOLDEN: &[Row] = &[
    ("poisson13_jacobi/pcg/serial", 0xf7ee50a54b8ce4d4, 34, [34, 976820, 35, 76895, 69, 69, 69, 303186, 448188, 0, 0, 0, 34, 34, 0, 0, 0], 0x6adac715bcc13e72, &[], 0, 0, 0),
    ("poisson13_jacobi/pcg/ranks2", 0xc15a6d9f13a65486, 34, [34, 976820, 35, 76895, 69, 69, 69, 303186, 448188, 0, 0, 0, 34, 34, 34, 5746, 0], 0xb792ef883b880535, &[], 0, 0, 0),
    ("poisson13_jacobi/pcg3/serial", 0x8290a875f113cdb5, 34, [35, 1005550, 35, 76895, 35, 70, 70, 307580, 746980, 0, 0, 0, 34, 34, 0, 0, 0], 0x96df5edb04e7e318, &[], 0, 0, 0),
    ("poisson13_jacobi/pcg3/ranks2", 0x8918e21d41d3bb82, 34, [35, 1005550, 35, 76895, 35, 70, 70, 307580, 746980, 0, 0, 0, 34, 34, 35, 5915, 0], 0xdf0e5fa173d91e28, &[], 0, 0, 0),
    ("poisson13_jacobi/spcg/serial", 0x1e69a10f6ec1eff7, 35, [40, 1149200, 40, 87880, 8, 450, 450, 1977300, 404248, 661297, 1318200, 3500, 35, 7, 0, 0, 0], 0x857d66d13e49368f, &[], 0, 0, 0),
    ("poisson13_jacobi/spcg/ranks2", 0x936bb6eead97203a, 35, [40, 1149200, 40, 87880, 8, 450, 450, 1977300, 404248, 661297, 1318200, 3500, 35, 7, 8, 6760, 0], 0x1f88454edb52c92b, &[], 0, 0, 0),
    ("poisson13_jacobi/spcg_mon/serial", 0xa521378f2d85c99f, 36, [39, 1120470, 39, 85683, 13, 222, 78, 342732, 0, 316368, 870012, 1296, 36, 12, 0, 0, 0], 0xd78b69a28db4eabc, &[], 0, 0, 0),
    ("poisson13_jacobi/spcg_mon/ranks2", 0x9b974b36e649449f, 36, [39, 1120470, 39, 85683, 13, 222, 78, 342732, 0, 316368, 870012, 1296, 36, 12, 13, 6591, 0], 0x549ccb7e9fff10f9, &[], 0, 0, 0),
    ("poisson13_jacobi/capcg/serial", 0xb452068a952218ad, 35, [72, 2068560, 73, 160381, 8, 968, 968, 4253392, 720616, 1691690, 0, 33880, 35, 7, 0, 0, 0], 0x7859ecadb1290990, &[], 0, 0, 0),
    ("poisson13_jacobi/capcg/ranks2", 0x54e3cf40aa3f3e8d, 35, [72, 2068560, 73, 160381, 8, 968, 968, 4253392, 720616, 1691690, 0, 33880, 35, 7, 16, 27040, 0], 0x5575bf8ed3737b7c, &[], 0, 0, 0),
    ("poisson13_jacobi/capcg3/serial", 0x3d5f7bad6000651d, 35, [40, 1149200, 49, 107653, 8, 968, 968, 4253392, 1557673, 3383380, 0, 42350, 35, 7, 0, 0, 0], 0xa8c65cf16fe452e6, &[], 0, 0, 0),
    ("poisson13_jacobi/capcg3/ranks2", 0x6560dbf27332123c, 35, [40, 1149200, 49, 107653, 8, 968, 968, 4253392, 1557673, 3383380, 0, 42350, 35, 7, 8, 6760, 0], 0x7287265bc3847cf1, &[], 0, 0, 0),
    ("poisson13_jacobi/adaptive/serial", 0xa23a970f5516526e, 40, [104, 2987920, 105, 230685, 8, 2312, 2288, 10053472, 935922, 1911390, 0, 68386, 40, 7, 0, 0, 0], 0xe3cd40ae8a6fd5a1, &[4, 8, 16], 0, 0, 2),
    ("poisson13_jacobi/adaptive/ranks2", 0x6923c90b29d9ac50, 40, [104, 2987920, 105, 230685, 8, 2312, 2288, 10053472, 935922, 1911390, 0, 68386, 40, 7, 16, 35136, 0], 0xf7c7ca763d2b8d1d, &[4, 8, 16], 0, 0, 2),
    ("poisson13_jacobi/capcg_gs/serial", 0xd4cf9418ddb1ec5f, 35, [40, 1149200, 40, 87880, 8, 471, 450, 1977300, 404248, 661297, 1318200, 53850, 35, 7, 0, 0, 0], 0x927ce9e99766748b, &[], 0, 0, 0),
    ("poisson13_jacobi/capcg_gs/ranks2", 0xf0b444a1d9551ceb, 35, [40, 1149200, 40, 87880, 8, 471, 450, 1977300, 404248, 661297, 1318200, 54050, 35, 7, 8, 6760, 0], 0x56b8706734b9becb, &[], 0, 0, 0),
    ("poisson13_jacobi/ekcg/serial", 0x2aeb80a46ac037cd, 49, [200, 5746000, 50, 109850, 99, 20630, 20630, 90648220, 0, 1722448, 165355008, 156800, 49, 49, 0, 0, 0], 0x439747650e110cac, &[], 0, 0, 0),
    ("poisson13_jacobi/ekcg/ranks2", 0xb532990544af161e, 49, [200, 5746000, 50, 109850, 99, 20630, 20630, 90648220, 0, 1722448, 165355008, 156800, 49, 49, 200, 33800, 0], 0x0baf7c275dac9742, &[], 0, 0, 0),
    ("poisson13_jacobi/spcg_rr/serial", 0x500a30a4b00161c0, 35, [51, 1465230, 40, 87880, 18, 468, 465, 2043210, 428415, 661297, 1318200, 3500, 35, 7, 0, 0, 0], 0x2d2ad883c7188c0b, &[], 0, 0, 0),
    ("poisson13_jacobi/spcg_rr/ranks2", 0x077329498dfd0e20, 35, [51, 1465230, 40, 87880, 18, 468, 465, 2043210, 428415, 661297, 1318200, 3500, 35, 7, 19, 8619, 0], 0x23bf8f4c14ad6148, &[], 0, 0, 0),
    ("aniso10_cheb3/pcg/serial", 0x4e35bcf385293476, 16, [16, 204800, 17, 975800, 33, 33, 33, 66000, 96000, 0, 0, 0, 16, 16, 0, 0, 0], 0xadcf71e34f2ec998, &[], 0, 0, 0),
    ("aniso10_cheb3/pcg/ranks2", 0xcd47c138c42c4556, 16, [16, 204800, 17, 975800, 33, 33, 33, 66000, 96000, 0, 0, 0, 16, 16, 67, 6700, 0], 0xd8674bbf12f82f54, &[], 0, 0, 0),
    ("aniso10_cheb3/pcg3/serial", 0x95bcf314b05a41be, 16, [17, 217600, 17, 975800, 17, 34, 34, 68000, 160000, 0, 0, 0, 16, 16, 0, 0, 0], 0xd1f555215fb4c8fc, &[], 0, 0, 0),
    ("aniso10_cheb3/pcg3/ranks2", 0x94976f5cd12fd5a8, 16, [17, 217600, 17, 975800, 17, 34, 34, 68000, 160000, 0, 0, 0, 16, 16, 68, 6800, 0], 0x778b5c9e326c293a, &[], 0, 0, 0),
    ("aniso10_cheb3/spcg/serial", 0x1eae1b3b2b5c79ed, 16, [20, 256000, 20, 1148000, 5, 180, 180, 360000, 40000, 96000, 192000, 1024, 16, 4, 0, 0, 0], 0xe1599cb9a948b85f, &[], 0, 0, 0),
    ("aniso10_cheb3/spcg/ranks2", 0xfb4a13f4658d7df7, 16, [20, 256000, 20, 1148000, 5, 180, 180, 360000, 40000, 96000, 192000, 1024, 16, 4, 5, 2500, 0], 0x33ecc1f6524f28ec, &[], 0, 0, 0),
    ("aniso10_cheb3/spcg_mon/serial", 0xa049942f18518149, 18, [21, 268800, 21, 1205400, 7, 114, 42, 84000, 0, 72000, 180000, 648, 18, 6, 0, 0, 0], 0xbdcebe153016dd39, &[], 0, 0, 0),
    ("aniso10_cheb3/spcg_mon/ranks2", 0x6a4b1b8d81a38bb7, 18, [21, 268800, 21, 1205400, 7, 114, 42, 84000, 0, 72000, 180000, 648, 18, 6, 7, 3500, 0], 0x031ada9e4e44190c, &[], 0, 0, 0),
    ("aniso10_cheb3/capcg/serial", 0xc9153ae09b3f22c1, 16, [35, 448000, 36, 2066400, 5, 405, 405, 810000, 155000, 360000, 0, 10368, 16, 4, 0, 0, 0], 0x611ee99f9266d99a, &[], 0, 0, 0),
    ("aniso10_cheb3/capcg/ranks2", 0x3bc1281e37a272fb, 16, [35, 448000, 36, 2066400, 5, 405, 405, 810000, 155000, 360000, 0, 10368, 16, 4, 13, 10300, 0], 0xd81d4a4875ddebdf, &[], 0, 0, 0),
    ("aniso10_cheb3/capcg3/serial", 0x08190527cdebc42e, 16, [20, 256000, 26, 1492400, 5, 405, 405, 810000, 330000, 576000, 0, 12960, 16, 4, 0, 0, 0], 0xe78d7916b73f94a8, &[], 0, 0, 0),
    ("aniso10_cheb3/capcg3/ranks2", 0x820555244b1e4f41, 16, [20, 256000, 26, 1492400, 5, 405, 405, 810000, 330000, 576000, 0, 12960, 16, 4, 8, 2800, 0], 0x0eb50c4da8815f67, &[], 0, 0, 0),
    ("aniso10_cheb3/adaptive/serial", 0x4df8302f31d1f90b, 16, [35, 448000, 36, 2066400, 5, 425, 410, 820000, 93000, 360000, 0, 10573, 16, 4, 0, 0, 0], 0x6745db39774625b2, &[4], 0, 0, 1),
    ("aniso10_cheb3/adaptive/ranks2", 0x170b06b86f1fdf8c, 16, [35, 448000, 36, 2066400, 5, 425, 410, 820000, 93000, 360000, 0, 10573, 16, 4, 13, 10300, 0], 0x89fde0f9b84a2677, &[4], 0, 0, 1),
    ("aniso10_cheb3/capcg_gs/serial", 0x1c45db3b81e74116, 16, [20, 256000, 20, 1148000, 5, 192, 180, 360000, 40000, 96000, 192000, 9216, 16, 4, 0, 0, 0], 0x638da8c9eb93fa30, &[], 0, 0, 0),
    ("aniso10_cheb3/capcg_gs/ranks2", 0x622578cfc222d65b, 16, [20, 256000, 20, 1148000, 5, 192, 180, 360000, 40000, 96000, 192000, 8704, 16, 4, 5, 2500, 0], 0xb11580820e9cc947, &[], 0, 0, 0),
    ("aniso10_cheb3/ekcg/serial", 0x5a8315556dc68993, 16, [68, 870400, 17, 975800, 33, 2513, 2513, 5026000, 0, 256000, 7680000, 17408, 16, 16, 0, 0, 0], 0x596f2d9dedb11faf, &[], 0, 0, 0),
    ("aniso10_cheb3/ekcg/ranks2", 0x8128ac0c1bfec5a3, 16, [68, 870400, 17, 975800, 33, 2513, 2513, 5026000, 0, 256000, 7680000, 17408, 16, 16, 119, 11900, 0], 0x0bbee01d6b3cd290, &[], 0, 0, 0),
    ("hard_k1e5/spcg/serial", 0x62e85d4afe38d721, 8000, [8811, 87687072, 8010, 0, 801, 176911, 176911, 176911000, 400500, 16000000, 159800000, 3200000, 8000, 800, 0, 0, 0], 0x70e8b2ba2a3decd3, &[], 0, 1, 0),
    ("hard_k1e5/spcg/ranks2", 0x3873f285d8521a2b, 8000, [8811, 87687072, 8010, 0, 801, 176911, 176911, 176911000, 400500, 16000000, 159800000, 3200000, 8000, 800, 1602, 35244, 0], 0x97b0b72367905ffb, &[], 0, 1, 0),
    ("hard_k1e5/spcg_mon/serial", 0xd6ab409de14226ea, 8000, [8811, 87687072, 8010, 0, 801, 104821, 16821, 16821000, 400500, 16000000, 159800000, 3200000, 8000, 800, 0, 0, 0], 0xdfde6d1bbd37eb02, &[], 0, 1, 0),
    ("hard_k1e5/spcg_mon/ranks2", 0xc9dc141fa5c58e8a, 8000, [8811, 87687072, 8010, 0, 801, 104821, 16821, 16821000, 400500, 16000000, 159800000, 3200000, 8000, 800, 1602, 35244, 0], 0xada6220fa11999ca, &[], 0, 1, 0),
    ("hard_k1e5/capcg/serial", 0xaf859d19edba36ef, 360, [740, 7364480, 704, 0, 37, 16354, 16354, 16354000, 18500, 3780000, 0, 1270080, 360, 36, 0, 0, 0], 0xe6fd3591f76c00dc, &[], 0, 0, 0),
    ("hard_k1e5/capcg/ranks2", 0x0b846189ca6b4d0b, 310, [640, 6369280, 609, 0, 32, 14144, 14144, 14144000, 16000, 3255000, 0, 1093680, 310, 31, 96, 5248, 0], 0x590accdec3dd09d3, &[], 0, 0, 0),
    ("hard_k1e5/capcg_gs/serial", 0x0075cdaa1c2891c9, 180, [245, 2438240, 220, 0, 22, 4476, 4422, 4422000, 12500, 360000, 2800000, 3211200, 180, 18, 0, 0, 0], 0xa9f98e0366894c6c, &[], 3, 2, 0),
    ("hard_k1e5/capcg_gs/ranks2", 0xc978e88442f2f117, 3290, [4842, 48187584, 4310, 0, 431, 85018, 84031, 84031000, 266000, 6580000, 45400000, 60436400, 3290, 329, 963, 19368, 0], 0x0103828f7f930b8f, &[], 101, 2, 0),
    ("hard_k1e5/adaptive/serial", 0x80495f2e2471e964, 151, [354, 3523008, 339, 0, 16, 10072, 10024, 10024000, 734500, 1580000, 0, 979983, 151, 14, 0, 0, 0], 0x27eb8f1c5fdddb46, &[10, 5, 10, 16], 0, 0, 8),
    ("hard_k1e5/adaptive/ranks2", 0xa8af8d7c9d4cd86f, 151, [354, 3523008, 339, 0, 16, 10072, 10024, 10024000, 734500, 1580000, 0, 979983, 151, 14, 48, 4160, 0], 0x8dc0bd2a19c297ca, &[10, 5, 10, 16], 0, 0, 8),
    ("hard_k1e5/capcg_s16/serial", 0xde38756f41e22a41, 0, [33, 328416, 32, 0, 2, 1091, 1091, 1091000, 1000, 66000, 0, 0, 0, 0, 0, 0, 0], 0x00151f3bf3efe957, &[], 0, 4, 0),
    ("hard_k1e5/capcg_s16/ranks2", 0xb7e11d32ecddef61, 0, [33, 328416, 32, 0, 2, 1091, 1091, 1091000, 1000, 66000, 0, 0, 0, 0, 4, 264, 0], 0x3226e44d1caf1376, &[], 0, 4, 0),
    ("hard_k1e5/spcg_resilient/serial", 0x62e85d4afe38d721, 8000, [8811, 87687072, 8010, 0, 802, 176912, 176911, 176911000, 400500, 16000000, 159800000, 3200000, 8000, 800, 0, 0, 0], 0x70e8b2ba2a3decd3, &[10], 0, 1, 0),
    ("hard_k1e5/spcg_resilient/ranks2", 0x3873f285d8521a2b, 8000, [8811, 87687072, 8010, 0, 802, 176912, 176911, 176911000, 400500, 16000000, 159800000, 3200000, 8000, 800, 1602, 35244, 0], 0x97b0b72367905ffb, &[10], 0, 1, 0),
    ("hard_k1e5/capcg_s16_resilient/serial", 0x1011e575fa60d20a, 8000, [12138, 120797376, 10520, 0, 1312, 172680, 169686, 169686000, 809500, 16066000, 88704000, 78678016, 8000, 997, 0, 0, 2], 0x331bfe024351ae18, &[16, 16, 8], 2, 1, 0),
    ("hard_k1e5/capcg_s16_resilient/ranks2", 0xf2e83a9a7c2041c5, 5096, [7551, 75147552, 6560, 0, 817, 109320, 107415, 107415000, 496000, 10258000, 59136000, 55793792, 5096, 634, 1806, 56192, 2], 0x03360baaf1ee1f69, &[16, 16, 8], 2, 0, 0),
    ("survival_k1e6/spcg/serial", 0x42a19cdfa7bb8e53, 4000, [4411, 52720272, 4010, 2406000, 401, 88511, 88511, 106213200, 240600, 9600000, 95760000, 1600000, 4000, 400, 0, 0, 0], 0x43f531691b8f2552, &[], 0, 1, 0),
    ("survival_k1e6/spcg/ranks2", 0xd61df346b34428b3, 4000, [4411, 52720272, 4010, 2406000, 401, 88511, 88511, 106213200, 240600, 9600000, 95760000, 1600000, 4000, 400, 802, 17644, 0], 0x6bc680b197937043, &[], 0, 1, 0),
    ("survival_k1e6/capcg_gs/serial", 0xa8c3820448af988b, 660, [917, 10959984, 820, 492000, 82, 16560, 16362, 19634400, 58200, 1584000, 12000000, 12636200, 660, 66, 0, 0, 0], 0x780287cb98ee07a3, &[], 15, 0, 0),
    ("survival_k1e6/capcg_gs/ranks2", 0x814375df76b0a828, 40, [55, 657360, 50, 30000, 5, 1007, 995, 1194000, 3000, 96000, 720000, 592400, 40, 4, 10, 220, 0], 0x2cf8d5edc42024cd, &[], 0, 2, 0),
    ("survival_k1e6/adaptive_noreject/serial", 0xde5a88371a14db44, 126, [372, 4446144, 361, 216600, 12, 15072, 15036, 18043200, 822600, 1566000, 0, 1616622, 126, 9, 0, 0, 0], 0xc31be591ebd46454, &[24, 12, 6, 12, 24], 0, 0, 7),
    ("survival_k1e6/adaptive_noreject/ranks2", 0x43696718ff7df2e0, 113, [325, 3884400, 315, 189000, 12, 12667, 12634, 15160800, 684000, 1332000, 0, 1210422, 113, 8, 34, 4272, 1], 0xf1b39e14481f6e38, &[24, 12, 6, 12, 24], 1, 0, 5),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a_extend(mut h: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn fnv1a(x: &[f64]) -> u64 {
    x.iter()
        .fold(FNV_OFFSET, |h, v| fnv1a_extend(h, v.to_bits()))
}

fn fnv1a_history(history: &[(usize, f64)]) -> u64 {
    history.iter().fold(FNV_OFFSET, |h, &(it, v)| {
        fnv1a_extend(fnv1a_extend(h, it as u64), v.to_bits())
    })
}

fn outcome_variant(outcome: &Outcome) -> u8 {
    match outcome {
        Outcome::Converged => 0,
        Outcome::MaxIterations => 1,
        Outcome::Diverged => 2,
        Outcome::Stagnated => 3,
        Outcome::Breakdown(_) => 4,
        Outcome::DeadlineExpired => 5,
    }
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
        keep_history: true,
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

/// Options of the hard-problem rows: the true-residual criterion (the one
/// under which the adaptive controller sees a residual gap) at the tolerance
/// and budget of the unit tests those problems come from.
fn hard_options(tol: f64, max_iters: usize) -> SolveOptions {
    SolveOptions {
        tol,
        max_iters,
        criterion: StoppingCriterion::TrueResidual2Norm,
        ..options()
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

fn run_case(
    case: &str,
    method: &Method,
    problem: &Problem<'_>,
    opts: &SolveOptions,
    out: &mut Vec<(String, SolveResult)>,
) {
    for (engine_name, engine) in [
        ("serial", Engine::Serial),
        ("ranks2", Engine::Ranked { ranks: 2 }),
    ] {
        let res = solve(method, problem, opts, engine);
        out.push((format!("{case}/{engine_name}"), res));
    }
}

fn run_cases(
    problem_name: &str,
    problem: &Problem<'_>,
    methods: &[(&'static str, Method)],
    out: &mut Vec<(String, SolveResult)>,
) {
    for (name, method) in methods {
        let before = out.len();
        run_case(
            &format!("{problem_name}/{name}"),
            method,
            problem,
            &options(),
            out,
        );
        for (case, res) in &out[before..] {
            assert!(res.converged(), "{case}: {:?}", res.outcome);
        }
    }
}

#[test]
fn solves_reproduce_the_recorded_bits() {
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
    // Residual replacement: the recursive residual is re-anchored to
    // `b − A·x` several times on the way to 1e-8.
    run_case(
        "poisson13_jacobi/spcg_rr",
        &Method::SPcg {
            s: 5,
            basis: cheb.clone(),
        },
        &problem,
        &SolveOptions {
            residual_replacement: Some(1e-2),
            ..hard_options(1e-8, 2000)
        },
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

    // κ = 1e5, flat right-hand side (uniform eigencomponent weights): the
    // monomial basis at s = 10 breaks every s-step body its own way — a
    // failed Cholesky, a curvature breakdown mid-block, GS stall rescues,
    // and under the controller Reject / shrink / rebuild.
    let a = spd_with_spectrum(500, &SpectrumShape::Uniform { kappa: 1e5 }, 1.0, 3, 21);
    let m = Identity::new(a.nrows());
    let b = vec![1.0 / (a.nrows() as f64).sqrt(); a.nrows()];
    let problem = Problem::new(&a, &m, &b);
    let hard = hard_options(1e-7, 8000);
    let (s, basis) = (10, BasisType::Monomial);
    let spcg_mono = Method::SPcg {
        s,
        basis: basis.clone(),
    };
    let gs_mono = Method::CaPcgGs {
        s,
        basis: basis.clone(),
    };
    let capcg_s16 = Method::CaPcg {
        s: 16,
        basis: basis.clone(),
    };
    for (name, method) in [
        ("spcg", spcg_mono.clone()),
        ("spcg_mon", Method::SPcgMon { s }),
        (
            "capcg",
            Method::CaPcg {
                s,
                basis: basis.clone(),
            },
        ),
        ("capcg_gs", gs_mono.clone()),
        (
            "adaptive",
            Method::AdaptiveCaPcg {
                s,
                basis: basis.clone(),
            },
        ),
        // At s = 16 the very first coordinate-space step has negative
        // curvature: fixed CA-PCG's terminal mid-block breakdown. (Since
        // the bodies merged its two recovery GEMVs are charged: this row
        // and its resilient twin below carry 4·33·500 more `blas2_flops`
        // than recorded on the parent — the one declared difference.)
        ("capcg_s16", capcg_s16.clone()),
    ] {
        run_case(
            &format!("hard_k1e5/{name}"),
            &method,
            &problem,
            &hard,
            &mut results,
        );
    }
    // The resilience driver armed: sPCG's Cholesky-with-LU-fallback never
    // reports the breakdown, so its solve is the driver's passthrough; the
    // CA-PCG breakdown above goes through Gauss-Seidel recovery at full s
    // and then the shrink-s retreat (`s_schedule` [16, 16, 8]).
    let resilient = SolveOptions {
        resilience: Some(Resilience {
            max_restarts: 256,
            shrink_s: true,
            gs_recovery: true,
        }),
        ..hard.clone()
    };
    for (name, method) in [
        ("spcg_resilient", &spcg_mono),
        ("capcg_s16_resilient", &capcg_s16),
    ] {
        run_case(
            &format!("hard_k1e5/{name}"),
            method,
            &problem,
            &resilient,
            &mut results,
        );
    }

    // The `tests/enlarged.rs` survival point: Cholesky stalls at relres
    // ~1e-2, the Gauss-Seidel path's stall rescue carries it through.
    let a = spd_with_spectrum(600, &SpectrumShape::Uniform { kappa: 1e6 }, 1.0, 3, 5);
    let m = Jacobi::new(&a);
    let b = paper_rhs(&a);
    let problem = Problem::new(&a, &m, &b);
    let survival = hard_options(1e-6, 4000);
    for (name, method) in [("spcg", spcg_mono), ("capcg_gs", gs_mono)] {
        run_case(
            &format!("survival_k1e6/{name}"),
            &method,
            &problem,
            &survival,
            &mut results,
        );
    }

    // The controller with its conditioning thresholds off lets a degenerate
    // s = 24 block into the inner loop: on two ranks a mid-block curvature
    // breakdown, recovered by the adaptive restart.
    run_case(
        "survival_k1e6/adaptive_noreject",
        &Method::AdaptiveCaPcg { s: 24, basis },
        &problem,
        &SolveOptions {
            adaptive: AdaptivePolicy {
                s_max: 24,
                cond_grow: f64::INFINITY,
                cond_shrink: f64::INFINITY,
                cond_reject: f64::INFINITY,
                ..AdaptivePolicy::default()
            },
            ..hard_options(1e-7, 8000)
        },
        &mut results,
    );

    let actual: Vec<_> = results
        .iter()
        .map(|(case, res)| {
            (
                case.clone(),
                fnv1a(&res.x),
                res.iterations,
                fields(&res.counters),
                fnv1a_history(&res.history),
                res.s_schedule.clone(),
                res.restarts,
                outcome_variant(&res.outcome),
                res.adaptive.as_ref().map_or(0, |r| r.shift_history.len()),
            )
        })
        .collect();
    let golden: Vec<_> = GOLDEN
        .iter()
        .map(
            |&(case, x, iters, counters, history, s_schedule, restarts, outcome, rebuilds)| {
                (
                    case.to_string(),
                    x,
                    iters,
                    counters,
                    history,
                    s_schedule.to_vec(),
                    restarts,
                    outcome,
                    rebuilds,
                )
            },
        )
        .collect();
    if actual != golden {
        let mut table = String::new();
        for (case, x, iters, counters, history, s_schedule, restarts, outcome, rebuilds) in &actual
        {
            table.push_str(&format!(
                "    (\"{case}\", {x:#018x}, {iters}, {counters:?}, {history:#018x}, &{s_schedule:?}, {restarts}, {outcome}, {rebuilds}),\n"
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
