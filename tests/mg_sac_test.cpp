// The high-level SAC MG implementation: border setup, grid-transfer shapes
// and values, rank genericity (the paper's double[+] claim), and V-cycle
// structure.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "sacpp/mg/mg_sac.hpp"
#include "sacpp/mg/problem.hpp"

namespace sacpp::mg {
namespace {

using sac::Array;

Array<double> random_extended(const Shape& shp, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  return sac::with_genarray<double>(shp,
                                    [&](const IndexVec&) { return dist(rng); });
}

TEST(Border, GhostsEqualOppositeInterior) {
  const Shape shp{6, 6, 6};
  auto a = MgSac::setup_periodic_border(random_extended(shp, 1));
  for_each_index(shp, [&](const IndexVec& iv) {
    // map each ghost coordinate to its interior source
    IndexVec src(iv.begin(), iv.end());
    for (std::size_t d = 0; d < 3; ++d) {
      if (src[d] == 0) src[d] = 4;
      if (src[d] == 5) src[d] = 1;
    }
    ASSERT_DOUBLE_EQ(a[iv], a[src]);
  });
}

TEST(Border, MatchesLowLevelComm3) {
  const extent_t n = 6;
  const Shape shp{n, n, n};
  auto a = random_extended(shp, 2);
  // low-level reference
  std::vector<double> flat(a.data(), a.data() + a.elem_count());
  periodic_border_3d(flat, n);
  auto b = MgSac::setup_periodic_border(a);
  for (extent_t i = 0; i < b.elem_count(); ++i) {
    ASSERT_DOUBLE_EQ(b.at_linear(i), flat[static_cast<std::size_t>(i)]) << i;
  }
}

TEST(Border, InPlaceWhenUnique) {
  auto a = random_extended(Shape{6, 6, 6}, 3);
  const double* p = a.data();
  auto b = MgSac::setup_periodic_border(std::move(a));
  EXPECT_EQ(b.data(), p);
}

TEST(Border, CopiesWhenShared) {
  auto a = random_extended(Shape{6, 6, 6}, 4);
  const double* p = a.data();
  auto b = MgSac::setup_periodic_border(a);
  EXPECT_NE(b.data(), p);
  EXPECT_EQ(a.data(), p);  // original untouched
}

TEST(Border, WorksForRank1And2) {
  auto v = MgSac::setup_periodic_border(sac::with_genarray<double>(
      Shape{6}, [](const IndexVec& iv) { return static_cast<double>(iv[0]); }));
  EXPECT_DOUBLE_EQ((v[IndexVec{0}]), 4.0);
  EXPECT_DOUBLE_EQ((v[IndexVec{5}]), 1.0);

  auto m = MgSac::setup_periodic_border(random_extended(Shape{4, 4}, 5));
  EXPECT_DOUBLE_EQ((m[IndexVec{0, 0}]), (m[IndexVec{2, 2}]));  // corner
}

// -- the border fold: consumers of lazy_periodic_border read exactly the
// values the eager border would have copied, so every stencil and scatter
// over it is bit-identical to the same consumer over the bordered array —
// under every stencil mode and row engine, on the row path and per point.

// Byte equality: unlike ==, tells -0.0 from +0.0.
void expect_same_bits(const Array<double>& got, const Array<double>& want) {
  ASSERT_EQ(got.shape(), want.shape());
  for (extent_t i = 0; i < got.elem_count(); ++i) {
    const double g = got.at_linear(i);
    const double w = want.at_linear(i);
    ASSERT_EQ(std::memcmp(&g, &w, sizeof g), 0)
        << "element " << i << ": " << g << " vs " << w;
  }
}

struct FoldCase {
  sac::StencilMode mode;
  sac::BackendKind backend;
};

class BorderFold : public ::testing::TestWithParam<FoldCase> {
 protected:
  // The engine configuration under test; cutover 0 puts every rank-3 grid
  // on the kPlanes row path, the default keeps small grids per point.
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

TEST_P(BorderFold, StencilsMatchTheBorderedArgument) {
  const sac::StencilCoeffs c{{-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0}};
  const Shape shapes[] = {{3, 3, 3}, {4, 4, 4},   {6, 5, 7}, {10, 9, 11},
                          {20, 20, 20}, {9},     {6, 7},    {4, 10}};
  for (const Shape& shp : shapes) {
    const auto a = random_extended(shp, 21);  // stale ghosts
    const auto v = random_extended(shp, 22);
    const auto bordered = MgSac::setup_periodic_border(a);
    for (const std::int64_t cutover : {std::int64_t{0}, std::int64_t{18}}) {
      for (const bool mt : {false, true}) {
        sac::ScopedConfig guard(config_for(cutover, mt));
        SCOPED_TRACE(::testing::Message() << "cutover " << cutover << " mt "
                                          << mt << " rank " << shp.rank()
                                          << " extent0 " << shp.extent(0));
        expect_same_bits(sac::relax_kernel(sac::lazy_periodic_border(a), c),
                         sac::relax_kernel(bordered, c));
        expect_same_bits(
            force(sac::ewise(
                v, sac::StencilExpr(sac::lazy_periodic_border(a), c),
                std::minus<>{})),
            force(sac::ewise(v, sac::StencilExpr(bordered, c),
                             std::minus<>{})));
      }
    }
  }
}

TEST_P(BorderFold, GridTransfersMatchTheBorderedArgument) {
  const sac::StencilCoeffs p{{1.0 / 2.0, 1.0 / 4.0, 1.0 / 8.0, 1.0 / 16.0}};
  for (const extent_t n : {4, 6, 10, 18, 34}) {
    const auto a = random_extended(cube_shape(3, n), 23);
    const auto bordered = MgSac::setup_periodic_border(a);
    for (const std::int64_t cutover : {std::int64_t{0}, std::int64_t{18}}) {
      sac::ScopedConfig guard(config_for(cutover, false));
      SCOPED_TRACE(::testing::Message() << "cutover " << cutover << " n " << n);
      // rprj3: the P stencil at the condensed points, embedded.
      auto restrict = [&](auto arg) {
        auto rc = sac::lazy_condense(2, sac::StencilExpr(std::move(arg), p));
        const IndexVec coarse = rc.shape().extents() + 1;
        return force(sac::lazy_embed(coarse, 0 * coarse, std::move(rc)));
      };
      expect_same_bits(restrict(sac::lazy_periodic_border(a)),
                       restrict(bordered));
      // The scatter (+ take) of the coarse grid, per point through the
      // wrap (the folded interp itself is checked below).
      auto prolong = [&](auto arg) {
        return force(sac::lazy_take(2 * a.shape().extents() - 2,
                                    sac::lazy_scatter(2, std::move(arg))));
      };
      expect_same_bits(prolong(sac::lazy_periodic_border(a)),
                       prolong(bordered));
    }
  }
}

// The folded prolongation (docs/stencil.md): sac::lazy_prolong relaxes the
// scatter of the bordered coarse grid without materialising it, dropping
// only the gaps' zero terms, and must equal the literal
// SetupPeriodicBorder + scatter + take + relax_kernel byte for byte —
// signed zeros included, also for coefficients whose dropped products are
// -0.0.
const sac::StencilCoeffs kProlongCoeffs[] = {
    MgSpec::custom(16, 1).q,                // NPB's Q
    {{-1.0, -0.5, -0.25, -0.125}},          // every dropped product is -0.0
    {{0.75, -1.0 / 3.0, 0.2, -1.0 / 7.0}},  // mixed signs
};

// Random values (stale ghosts included) with every third one a signed
// zero; or, with all_negative_zero, -0.0 everywhere.
Array<double> signed_zero_grid(const Shape& shp, unsigned seed,
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

TEST_P(BorderFold, ProlongationMatchesTheMaterialisedScatter) {
  // Coarse extents 3..34: fine extents 4..66, per point and on the row
  // path at the default cutover (fine interior 18 and up).
  const Shape shapes[] = {{3, 3, 3},    {4, 5, 3},  {6, 6, 6}, {10, 9, 11},
                          {11, 11, 11}, {34, 34, 34}, {3},     {9},
                          {34},         {6, 7},     {4, 10}};
  for (const Shape& shp : shapes) {
    for (const bool all_negative_zero : {false, true}) {
      const auto z = signed_zero_grid(shp, 25, all_negative_zero);
      const auto bordered = MgSac::setup_periodic_border(z);
      for (const auto& q : kProlongCoeffs) {
        for (const std::int64_t cutover : {std::int64_t{0}, std::int64_t{18}}) {
          for (const bool mt : {false, true}) {
            sac::ScopedConfig guard(config_for(cutover, mt));
            SCOPED_TRACE(::testing::Message()
                         << "cutover " << cutover << " mt " << mt << " rank "
                         << shp.rank() << " extent0 " << shp.extent(0)
                         << " q0 " << q[0] << " all -0.0 "
                         << all_negative_zero);
            const Array<double> literal = sac::relax_kernel(
                sac::take(2 * shp.extents() - 2, sac::scatter(2, bordered)),
                q);
            expect_same_bits(
                force(sac::lazy_prolong(sac::lazy_periodic_border(z), q)),
                literal);
          }
        }
      }
    }
  }
}

TEST_P(BorderFold, Coarse2FineFoldedEqualsUnfolded) {
  const MgSac mg(MgSpec::custom(16, 1));
  for (const extent_t n : {3, 4, 6, 10, 18, 34}) {
    const auto z = signed_zero_grid(cube_shape(3, n), 26, false);
    for (const std::int64_t cutover : {std::int64_t{0}, std::int64_t{18}}) {
      sac::SacConfig cfg = config_for(cutover, true);
      SCOPED_TRACE(::testing::Message() << "cutover " << cutover << " n " << n);
      cfg.folding = false;
      Array<double> unfolded;
      {
        sac::ScopedConfig guard(cfg);
        unfolded = mg.coarse2fine(z);
      }
      cfg.folding = true;
      sac::ScopedConfig guard(cfg);
      expect_same_bits(mg.coarse2fine(z), unfolded);
    }
  }
}

std::string fold_case_name(const ::testing::TestParamInfo<FoldCase>& info) {
  std::string name = sac::stencil_mode_name(info.param.mode);
  name += '_';
  for (const char ch : std::string(sac::backend_name(info.param.backend))) {
    name += ch == '-' ? '_' : ch;
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndEngines, BorderFold,
    ::testing::Values(
        FoldCase{sac::StencilMode::kGrouped, sac::BackendKind::kScalar},
        FoldCase{sac::StencilMode::kGrouped, sac::BackendKind::kSimd},
        FoldCase{sac::StencilMode::kGrouped, sac::BackendKind::kSimdPortable},
        FoldCase{sac::StencilMode::kNaive, sac::BackendKind::kScalar},
        FoldCase{sac::StencilMode::kNaive, sac::BackendKind::kSimd},
        FoldCase{sac::StencilMode::kNaive, sac::BackendKind::kSimdPortable},
        FoldCase{sac::StencilMode::kPlanes, sac::BackendKind::kScalar},
        FoldCase{sac::StencilMode::kPlanes, sac::BackendKind::kSimd},
        FoldCase{sac::StencilMode::kPlanes, sac::BackendKind::kSimdPortable}),
    fold_case_name);

TEST(BorderFoldSolver, CopiesNoGrid) {
  // Two iterations on a 16^3 grid: the folded path reads every ghost layer
  // through the wrap, so no shared grid is copied on write.
  const MgSpec spec = MgSpec::custom(16, 1);
  const MgSac mg(spec);
  const auto v = MgSac::setup_periodic_border(
      random_extended(cube_shape(3, 18), 24));
  sac::SacConfig cfg = sac::config();
  cfg.folding = true;
  sac::ScopedConfig guard(cfg);
  const std::uint64_t before = sac::stats().copies_on_write;
  (void)mg.mgrid(v, 2);
  EXPECT_EQ(static_cast<std::uint64_t>(sac::stats().copies_on_write), before);
}

class MgSacOps : public ::testing::Test {
 protected:
  MgSpec spec_ = MgSpec::custom(8, 1);
  MgSac mg_{spec_};
};

TEST_F(MgSacOps, ResidOfZeroIsZero) {
  auto u = sac::genarray_const(cube_shape(3, 10), 0.0);
  auto r = mg_.resid(u);
  EXPECT_DOUBLE_EQ(sac::max_abs(r), 0.0);
}

TEST_F(MgSacOps, Fine2CoarseHalvesTheGrid) {
  auto r = random_extended(cube_shape(3, 10), 6);  // 8^3 interior
  auto rn = mg_.fine2coarse(r);
  EXPECT_EQ(rn.shape(), cube_shape(3, 6));  // 4^3 interior + ghosts
}

TEST_F(MgSacOps, Coarse2FineDoublesTheGrid) {
  auto rn = random_extended(cube_shape(3, 6), 7);
  auto z = mg_.coarse2fine(rn);
  EXPECT_EQ(z.shape(), cube_shape(3, 10));
}

TEST_F(MgSacOps, TransferRoundTripPreservesConstantFields) {
  // Restriction of a constant periodic field is constant (sum of P weights
  // is 1: 1/2 + 6/4/6... the 27 weighted coefficients sum to
  // p0 + 6 p1 + 12 p2 + 8 p3 = 0.5 + 1.5 + 1.5 + 0.5 = 4... here we verify
  // the coarse interior is uniform, which only holds if the stencil and the
  // grid transfer respect periodicity.
  auto c = sac::genarray_const(cube_shape(3, 10), 3.0);
  auto rn = mg_.fine2coarse(c);
  const double v0 = rn(1, 1, 1);
  for (extent_t i = 1; i < 5; ++i) {
    for (extent_t j = 1; j < 5; ++j) {
      for (extent_t k = 1; k < 5; ++k) {
        ASSERT_NEAR(rn(i, j, k), v0, 1e-13);
      }
    }
  }
}

TEST_F(MgSacOps, FusedAndUnfusedOperationsAgree) {
  auto r = random_extended(cube_shape(3, 10), 8);
  sac::SacConfig cfg = sac::config();

  cfg.folding = false;
  Array<double> vc_unfused;
  {
    sac::ScopedConfig guard(cfg);
    vc_unfused = mg_.vcycle(r);
  }
  cfg.folding = true;
  Array<double> vc_fused;
  {
    sac::ScopedConfig guard(cfg);
    vc_fused = mg_.vcycle(r);
  }
  ASSERT_EQ(vc_fused.shape(), vc_unfused.shape());
  for (extent_t i = 0; i < vc_fused.elem_count(); ++i) {
    ASSERT_NEAR(vc_fused.at_linear(i), vc_unfused.at_linear(i), 1e-13) << i;
  }
}

TEST_F(MgSacOps, VCycleTerminationAtCoarsestGrid) {
  // On the 2+2 grid VCycle must be a single smoothing step.
  auto r = random_extended(cube_shape(3, 4), 9);
  auto direct = mg_.smooth(r);
  auto vc = mg_.vcycle(r);
  for (extent_t i = 0; i < vc.elem_count(); ++i) {
    ASSERT_DOUBLE_EQ(vc.at_linear(i), direct.at_linear(i)) << i;
  }
}

TEST_F(MgSacOps, ResidualEqualsVMinusResid) {
  auto u = random_extended(cube_shape(3, 10), 10);
  auto v = random_extended(cube_shape(3, 10), 11);
  auto direct = v - mg_.resid(u);
  auto fused = mg_.residual(v, u);
  for (extent_t i = 0; i < fused.elem_count(); ++i) {
    ASSERT_NEAR(fused.at_linear(i), direct.at_linear(i), 1e-14) << i;
  }
}

// The paper's genericity claim: the identical MGrid code runs on 1-D and
// 2-D problems without alteration.
class RankGeneric : public ::testing::TestWithParam<int> {};

TEST_P(RankGeneric, MGridReducesResidualInAnyRank) {
  const int rank = GetParam();
  const MgSpec spec = MgSpec::custom(16, 1);
  MgSac mg(spec);
  const Shape shp = cube_shape(static_cast<std::size_t>(rank), 18);
  // a +-1 charge pair as RHS
  auto v = sac::with_genarray<double>(shp, [&](const IndexVec& iv) -> double {
    if (iv[0] == 3) return 1.0;
    if (iv[0] == 9) return -1.0;
    return 0.0;
  });
  v = MgSac::setup_periodic_border(std::move(v));

  auto u0 = sac::genarray_const(shp, 0.0);
  const double norm0 = mg.residual_norm(v, u0);
  auto u2 = mg.mgrid(v, 2);
  const double norm2 = mg.residual_norm(v, u2);
  EXPECT_LT(norm2, norm0 * 0.25)
      << "V-cycle failed to reduce the residual in rank " << rank;
}

INSTANTIATE_TEST_SUITE_P(Ranks, RankGeneric, ::testing::Values(1, 2, 3));

TEST(MgSacValidation, NonPowerOfTwoGridRejected) {
  MgSac mg(MgSpec::custom(8, 1));
  auto v = sac::genarray_const(Shape{9, 9, 9}, 0.0);
  EXPECT_THROW(mg.mgrid(v, 1), ContractError);
}

TEST(MgSacValidation, CustomSpecRejectsBadSizes) {
  EXPECT_THROW(MgSpec::custom(10, 1), ContractError);
  EXPECT_THROW(MgSpec::custom(0, 1), ContractError);
  EXPECT_THROW(MgSpec::custom(8, -1), ContractError);
}

}  // namespace
}  // namespace sacpp::mg
