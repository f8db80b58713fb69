// The ghost-free direct-periodic MG (the paper's future-work item): the
// periodic stencil must equal border-setup + fixed-boundary relaxation, and
// the whole direct V-cycle must reproduce the ghost-layer implementations'
// norms on the benchmark input.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <string>

#include "sacpp/mg/mg_ref.hpp"
#include "sacpp/mg/mg_sac.hpp"
#include "sacpp/mg/mg_sac_direct.hpp"
#include "sacpp/mg/problem.hpp"
#include "sacpp/sac/periodic_stencil.hpp"

namespace sacpp::mg {
namespace {

using sac::Array;

Array<double> random_pure(const Shape& shp, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  return sac::with_genarray<double>(shp,
                                    [&](const IndexVec&) { return dist(rng); });
}

// Extend a pure 2^k cube with ghost layers (inverse of strip_ghosts).
Array<double> add_ghosts(const Array<double>& pure) {
  IndexVec ext(pure.rank());
  for (std::size_t d = 0; d < pure.rank(); ++d) {
    ext[d] = pure.shape().extent(d) + 2;
  }
  auto e = sac::embed(ext, uniform_vec(pure.rank(), 1), pure);
  return MgSac::setup_periodic_border(std::move(e));
}

constexpr sac::StencilCoeffs kC{{-0.5, 0.125, 0.0625, 0.03125}};

class PeriodicRank : public ::testing::TestWithParam<int> {};

TEST_P(PeriodicRank, PeriodicRelaxEqualsBorderSetupPlusFixedRelax) {
  const int rank = GetParam();
  const Shape shp = cube_shape(static_cast<std::size_t>(rank), 8);
  auto pure = random_pure(shp, 1);
  // ghost-free path
  auto direct = sac::relax_kernel_periodic(pure, kC);
  // ghost-layer path: extend, border-setup, fixed relax, strip
  auto viaGhosts =
      MgSacDirect::strip_ghosts(sac::relax_kernel(add_ghosts(pure), kC));
  ASSERT_EQ(direct.shape(), viaGhosts.shape());
  for (extent_t i = 0; i < direct.elem_count(); ++i) {
    ASSERT_NEAR(direct.at_linear(i), viaGhosts.at_linear(i), 1e-14) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, PeriodicRank, ::testing::Values(1, 2, 3));

TEST(PeriodicStencil, InteriorIsBitwiseEqualToFixedStencil) {
  const Shape shp{8, 8, 8};
  auto pure = random_pure(shp, 2);
  sac::PeriodicStencilExpr per(pure, kC);
  sac::StencilExpr fixed(pure, kC);
  for (extent_t i = 1; i < 7; ++i) {
    for (extent_t j = 1; j < 7; ++j) {
      for (extent_t k = 1; k < 7; ++k) {
        ASSERT_EQ(per(i, j, k), fixed(i, j, k));
      }
    }
  }
}

TEST(PeriodicStencil, WrapsAtAllBoundaries) {
  // A point source at the origin must leak to the opposite corners.
  const Shape shp{4, 4, 4};
  auto src = sac::with_genarray<double>(shp, [](const IndexVec& iv) {
    return (iv[0] == 0 && iv[1] == 0 && iv[2] == 0) ? 1.0 : 0.0;
  });
  auto r = sac::relax_kernel_periodic(src, kC);
  EXPECT_DOUBLE_EQ(r(0, 0, 0), kC[0]);
  EXPECT_DOUBLE_EQ(r(3, 0, 0), kC[1]);  // face via wrap
  EXPECT_DOUBLE_EQ(r(3, 3, 0), kC[2]);  // edge via wrap
  EXPECT_DOUBLE_EQ(r(3, 3, 3), kC[3]);  // corner via wrap
  EXPECT_DOUBLE_EQ(r(2, 0, 0), 0.0);
}

TEST(PeriodicStencil, ConstantFieldStaysUniform) {
  const Shape shp{4, 4, 4};
  auto c = sac::genarray_const(shp, 2.0);
  auto r = sac::relax_kernel_periodic(c, kC);
  const double factor =
      kC[0] + 6.0 * kC[1] + 12.0 * kC[2] + 8.0 * kC[3];
  for (extent_t i = 0; i < r.elem_count(); ++i) {
    ASSERT_NEAR(r.at_linear(i), factor * 2.0, 1e-14);
  }
}

TEST(PeriodicStencil, MinimumExtentEnforced) {
  auto tiny = sac::genarray_const(Shape{1, 4, 4}, 1.0);
  EXPECT_THROW(sac::relax_kernel_periodic(tiny, kC), ContractError);
}

// -- the folded prolongation --------------------------------------------------
//
// sac::lazy_prolong_periodic relaxes the phase-1 scatter of the coarse grid
// without materialising it (docs/stencil.md); it must equal the literal
// scatter + relax_kernel_periodic byte for byte, signed zeros included,
// under every stencil mode and row engine, on the row path and per point.

struct ProlongCase {
  sac::StencilMode mode;
  sac::BackendKind backend;
};

class ProlongFold : public ::testing::TestWithParam<ProlongCase> {
 protected:
  sac::SacConfig config_for(std::int64_t cutover, bool mt) const {
    sac::SacConfig cfg = sac::config();
    cfg.stencil_mode = GetParam().mode;
    cfg.backend = GetParam().backend;
    cfg.stencil_planes_cutover = cutover;
    cfg.mt_enabled = mt;
    cfg.mt_threads = 3;
    cfg.mt_threshold = 1;
    return cfg;
  }
};

// Byte equality: unlike ==, tells -0.0 from +0.0.
void expect_same_bytes(const Array<double>& got, const Array<double>& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (extent_t i = 0; i < got.elem_count(); ++i) {
    const double g = got.at_linear(i);
    const double w = want.at_linear(i);
    ASSERT_EQ(std::memcmp(&g, &w, sizeof g), 0)
        << "element " << i << ": " << g << " vs " << w;
  }
}

// Random values with every third one a signed zero; or -0.0 everywhere.
Array<double> signed_zero_pure(const Shape& shp, unsigned seed,
                               bool all_negative_zero) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  extent_t n = 0;
  return sac::with_genarray<double>(shp, [&](const IndexVec&) {
    const double v = dist(rng);
    if (all_negative_zero) return -0.0;
    switch (n++ % 6) {
      case 0: return -0.0;
      case 3: return 0.0;
      default: return v;
    }
  });
}

TEST_P(ProlongFold, MatchesTheMaterialisedScatter) {
  const sac::StencilCoeffs coeffs[] = {
      MgSpec::custom(16, 1).q,                // NPB's Q
      {{-1.0, -0.5, -0.25, -0.125}},          // every dropped product is -0.0
      {{0.75, -1.0 / 3.0, 0.2, -1.0 / 7.0}},  // mixed signs
  };
  // Coarse extents 1..33: fine extents 2..66, per point and on the row path
  // at the default cutover (fine extent 18 and up).
  const Shape shapes[] = {{1, 1, 1}, {2, 2, 2},    {3, 2, 5}, {8, 8, 8},
                          {9, 10, 11}, {33, 33, 33}, {1},     {9},
                          {33},      {3, 4},       {17, 5}};
  for (const Shape& shp : shapes) {
    for (const bool all_negative_zero : {false, true}) {
      const auto z = signed_zero_pure(shp, 27, all_negative_zero);
      for (const auto& q : coeffs) {
        for (const std::int64_t cutover : {std::int64_t{0}, std::int64_t{18}}) {
          for (const bool mt : {false, true}) {
            sac::ScopedConfig guard(config_for(cutover, mt));
            SCOPED_TRACE(::testing::Message()
                         << "cutover " << cutover << " mt " << mt << " rank "
                         << shp.rank() << " extent0 " << shp.extent(0)
                         << " q0 " << q[0] << " all -0.0 "
                         << all_negative_zero);
            const Array<double> literal = sac::relax_kernel_periodic(
                force(sac::lazy_scatter(2, z, 1)), q);
            expect_same_bytes(force(sac::lazy_prolong_periodic(z, q)),
                              literal);
          }
        }
      }
    }
  }
}

TEST_P(ProlongFold, Coarse2FineFoldedEqualsUnfolded) {
  const MgSacDirect direct(MgSpec::custom(16, 1));
  for (const extent_t n : {1, 2, 4, 8, 16, 32}) {
    const auto z = signed_zero_pure(cube_shape(3, n), 28, false);
    for (const std::int64_t cutover : {std::int64_t{0}, std::int64_t{18}}) {
      sac::SacConfig cfg = config_for(cutover, true);
      SCOPED_TRACE(::testing::Message() << "cutover " << cutover << " n " << n);
      cfg.folding = false;
      Array<double> unfolded;
      {
        sac::ScopedConfig guard(cfg);
        unfolded = direct.coarse2fine(z);
      }
      cfg.folding = true;
      sac::ScopedConfig guard(cfg);
      expect_same_bytes(direct.coarse2fine(z), unfolded);
    }
  }
}

std::string prolong_case_name(
    const ::testing::TestParamInfo<ProlongCase>& info) {
  std::string name = sac::stencil_mode_name(info.param.mode);
  name += '_';
  for (const char ch : std::string(sac::backend_name(info.param.backend))) {
    name += ch == '-' ? '_' : ch;
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndEngines, ProlongFold,
    ::testing::Values(
        ProlongCase{sac::StencilMode::kGrouped, sac::BackendKind::kScalar},
        ProlongCase{sac::StencilMode::kGrouped, sac::BackendKind::kSimd},
        ProlongCase{sac::StencilMode::kGrouped,
                    sac::BackendKind::kSimdPortable},
        ProlongCase{sac::StencilMode::kNaive, sac::BackendKind::kScalar},
        ProlongCase{sac::StencilMode::kNaive, sac::BackendKind::kSimd},
        ProlongCase{sac::StencilMode::kNaive, sac::BackendKind::kSimdPortable},
        ProlongCase{sac::StencilMode::kPlanes, sac::BackendKind::kScalar},
        ProlongCase{sac::StencilMode::kPlanes, sac::BackendKind::kSimd},
        ProlongCase{sac::StencilMode::kPlanes,
                    sac::BackendKind::kSimdPortable}),
    prolong_case_name);

// -- the direct V-cycle against the ghost-layer implementations --------------

class DirectVsGhost : public ::testing::TestWithParam<std::pair<extent_t, int>> {
};

TEST_P(DirectVsGhost, IterationNormsAgreeWithReference) {
  const auto [nx, nit] = GetParam();
  const MgSpec spec = MgSpec::custom(nx, nit);

  // reference: the Fortran-77 port on the standard extended input
  MgRef ref(spec);
  ref.setup_default_rhs();
  ref.zero_u();
  ref.initial_resid();

  // direct: the same physical input without ghosts
  const extent_t n = nx + 2;
  std::vector<double> v_ext(static_cast<std::size_t>(n * n * n));
  fill_rhs(v_ext, nx);
  const Shape ext_shape{n, n, n};
  auto v_extended = sac::with_genarray<double>(
      ext_shape, [&](const IndexVec& iv) {
        return v_ext[static_cast<std::size_t>(ext_shape.linearize(iv))];
      });
  auto v = MgSacDirect::strip_ghosts(v_extended);

  MgSacDirect direct(spec);
  auto u = sac::genarray_const(v.shape(), 0.0);
  for (int it = 0; it < nit; ++it) {
    ref.iterate(1);
    auto r = direct.residual(v, u);
    u = std::move(u) + direct.vcycle(r);
    const double dn = direct.residual_norm(v, u);
    const double rn = ref.residual_norm();
    ASSERT_NEAR(dn, rn, rn * 1e-11 + 1e-18) << "iteration " << it;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DirectVsGhost,
                         ::testing::Values(std::pair<extent_t, int>{8, 2},
                                           std::pair<extent_t, int>{16, 3},
                                           std::pair<extent_t, int>{32, 4}));

TEST(Direct, ClassSVerificationValue) {
  const MgSpec spec = MgSpec::for_class(MgClass::S);
  const extent_t n = spec.nx + 2;
  std::vector<double> v_ext(static_cast<std::size_t>(n * n * n));
  fill_rhs(v_ext, spec.nx);
  const Shape ext_shape{n, n, n};
  auto v = MgSacDirect::strip_ghosts(sac::with_genarray<double>(
      ext_shape, [&](const IndexVec& iv) {
        return v_ext[static_cast<std::size_t>(ext_shape.linearize(iv))];
      }));
  MgSacDirect direct(spec);
  auto u = direct.mgrid(v, spec.nit);
  EXPECT_NEAR(direct.residual_norm(v, u), 0.530770700573e-04, 1e-14);
}

TEST(Direct, FoldingOnOffAgree) {
  const MgSpec spec = MgSpec::custom(16, 2);
  const Shape shp = cube_shape(3, 16);
  auto v = random_pure(shp, 7);
  MgSacDirect direct(spec);
  double norms[2];
  int i = 0;
  for (bool folding : {false, true}) {
    sac::SacConfig cfg = sac::config();
    cfg.folding = folding;
    sac::ScopedConfig guard(cfg);
    auto u = direct.mgrid(v, 2);
    norms[i++] = direct.residual_norm(v, u);
  }
  EXPECT_NEAR(norms[0], norms[1], std::abs(norms[0]) * 1e-12);
}

TEST(Direct, RankGenericResidualReduction) {
  for (int rank : {1, 2}) {
    const MgSpec spec = MgSpec::custom(16, 2);
    MgSacDirect direct(spec);
    const Shape shp = cube_shape(static_cast<std::size_t>(rank), 16);
    auto v = sac::with_genarray<double>(shp, [](const IndexVec& iv) -> double {
      if (iv[0] == 2) return 1.0;
      if (iv[0] == 9) return -1.0;
      return 0.0;
    });
    auto u0 = sac::genarray_const(shp, 0.0);
    const double n0 = direct.residual_norm(v, u0);
    auto u = direct.mgrid(v, 2);
    EXPECT_LT(direct.residual_norm(v, u), n0 * 0.25) << "rank " << rank;
  }
}

TEST(Direct, NonPowerOfTwoRejected) {
  MgSacDirect direct(MgSpec::custom(8, 1));
  auto v = sac::genarray_const(Shape{9, 9, 9}, 0.0);
  EXPECT_THROW(direct.mgrid(v, 1), ContractError);
}

// -- the red-black (multi-colour) Gauss-Seidel extension ---------------------

TEST(RbGs, SweepReducesResidualOfPoissonEquation) {
  const MgSpec spec = MgSpec::custom(16, 1);
  MgSacDirect direct(spec);
  const Shape shp = cube_shape(3, 16);
  auto v = random_pure(shp, 21);
  // remove the mean so the periodic problem is consistent
  const double mean = sac::sum(v) / static_cast<double>(v.elem_count());
  v = v - mean;
  auto u = sac::genarray_const(shp, 0.0);
  double prev = direct.residual_norm(v, u);
  for (int sweep = 0; sweep < 5; ++sweep) {
    u = direct.smooth_rbgs(std::move(u), v);
    const double now = direct.residual_norm(v, u);
    ASSERT_LT(now, prev) << "sweep " << sweep;
    prev = now;
  }
}

TEST(RbGs, DeterministicUnderMultithreading) {
  const MgSpec spec = MgSpec::custom(16, 1);
  MgSacDirect direct(spec);
  const Shape shp = cube_shape(3, 16);
  auto v = random_pure(shp, 22);
  auto seq = direct.smooth_rbgs(sac::genarray_const(shp, 0.0), v);
  sac::SacConfig cfg = sac::config();
  cfg.mt_enabled = true;
  cfg.mt_threads = 4;
  cfg.mt_threshold = 1;
  sac::ScopedConfig guard(cfg);
  auto par = direct.smooth_rbgs(sac::genarray_const(shp, 0.0), v);
  sac::shutdown_runtime();
  for (extent_t i = 0; i < seq.elem_count(); ++i) {
    // per-axis-parity colours are mutually non-adjacent, so parallel
    // execution within a colour is exact
    ASSERT_DOUBLE_EQ(par.at_linear(i), seq.at_linear(i)) << i;
  }
}

TEST(RbGs, InPlaceWhenUnique) {
  MgSacDirect direct(MgSpec::custom(8, 1));
  auto v = random_pure(cube_shape(3, 8), 23);
  auto u = sac::genarray_const(cube_shape(3, 8), 0.0);
  const double* p = u.data();
  u = direct.smooth_rbgs(std::move(u), v);
  EXPECT_EQ(u.data(), p);
}

TEST(RbGs, VCycleContractsAtLeastAsFastAsBenchmarkSmoother) {
  const MgSpec spec = MgSpec::custom(32, 1);
  MgSacDirect direct(spec);
  const extent_t n = spec.nx + 2;
  std::vector<double> v_ext(static_cast<std::size_t>(n * n * n));
  fill_rhs(v_ext, spec.nx);
  const Shape ext_shape{n, n, n};
  auto v = MgSacDirect::strip_ghosts(sac::with_genarray<double>(
      ext_shape, [&](const IndexVec& iv) {
        return v_ext[static_cast<std::size_t>(ext_shape.linearize(iv))];
      }));
  auto u0 = sac::genarray_const(v.shape(), 0.0);
  const double norm0 = direct.residual_norm(v, u0);

  auto u_npb = direct.mgrid(v, 2);
  auto u_rb = direct.mgrid_rbgs(v, 2);
  const double c_npb = norm0 / direct.residual_norm(v, u_npb);
  const double c_rb = norm0 / direct.residual_norm(v, u_rb);
  EXPECT_GT(c_rb, c_npb * 0.8)
      << "RB-GS V-cycle should contract comparably: " << c_rb << " vs "
      << c_npb;
  EXPECT_GT(c_rb, 10.0);
}

TEST(RbGs, WorksInRank2) {
  const MgSpec spec = MgSpec::custom(16, 1);
  MgSacDirect direct(spec);
  const Shape shp = cube_shape(2, 16);
  auto v = random_pure(shp, 24);
  v = v - sac::sum(v) / static_cast<double>(v.elem_count());
  auto u = direct.smooth_rbgs(sac::genarray_const(shp, 0.0), v);
  EXPECT_LT(direct.residual_norm(v, u),
            direct.residual_norm(v, sac::genarray_const(shp, 0.0)));
}

TEST(Direct, StripGhostsInverseOfAddGhosts) {
  auto pure = random_pure(Shape{6, 6, 6}, 9);
  auto round = MgSacDirect::strip_ghosts(add_ghosts(pure));
  for (extent_t i = 0; i < pure.elem_count(); ++i) {
    ASSERT_DOUBLE_EQ(round.at_linear(i), pure.at_linear(i));
  }
}

}  // namespace
}  // namespace sacpp::mg
