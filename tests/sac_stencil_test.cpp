// Coefficient-class stencils: grouped, naive and shared-plane-sum (kPlanes)
// evaluation against a brute-force reference, across ranks, plus linearity
// and symmetry properties.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "sacpp/sac/periodic_stencil.hpp"
#include "sacpp/sac/sac.hpp"

namespace sacpp::sac {
namespace {

Array<double> random_array(const Shape& shp, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  return with_genarray<double>(shp,
                               [&](const IndexVec&) { return dist(rng); });
}

// Brute-force reference: sum over all offsets in {-1,0,1}^rank with the
// class coefficient; zero on the boundary ring.
Array<double> brute_force_relax(const Array<double>& a,
                                const StencilCoeffs& c) {
  const Shape& shp = a.shape();
  return with_genarray<double>(
      shp,
      [&](const IndexVec& iv) -> double {
        for (std::size_t d = 0; d < iv.size(); ++d) {
          if (iv[d] < 1 || iv[d] >= shp.extent(d) - 1) return 0.0;
        }
        double acc = 0.0;
        for (const auto& e : StencilTable::for_rank(shp.rank()).entries()) {
          acc += c[static_cast<std::size_t>(e.cls)] * a[iv + e.offset];
        }
        return acc;
      });
}

constexpr StencilCoeffs kTestCoeffs{{-0.5, 0.125, 0.0625, 0.03125}};

// Byte equality of two arrays: == would let -0.0 and +0.0 pass.
bool same_bits(const Array<double>& a, const Array<double>& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.elem_count()) *
                         sizeof(double)) == 0;
}

TEST(StencilTable, Rank3Has27EntriesWithCorrectClassCounts) {
  const auto& t = StencilTable::for_rank(3);
  ASSERT_EQ(t.entries().size(), 27u);
  int counts[4] = {0, 0, 0, 0};
  for (const auto& e : t.entries()) ++counts[e.cls];
  EXPECT_EQ(counts[0], 1);
  EXPECT_EQ(counts[1], 6);
  EXPECT_EQ(counts[2], 12);
  EXPECT_EQ(counts[3], 8);
}

TEST(StencilTable, Rank1And2Sizes) {
  EXPECT_EQ(StencilTable::for_rank(1).entries().size(), 3u);
  EXPECT_EQ(StencilTable::for_rank(2).entries().size(), 9u);
}

class RelaxRank : public ::testing::TestWithParam<int> {};

TEST_P(RelaxRank, GroupedMatchesBruteForce) {
  const int rank = GetParam();
  const Shape shp = cube_shape(static_cast<std::size_t>(rank), 6);
  auto a = random_array(shp, 42);
  auto expect = brute_force_relax(a, kTestCoeffs);
  auto got = relax_kernel(a, kTestCoeffs, StencilMode::kGrouped);
  ASSERT_EQ(got.shape(), expect.shape());
  for (extent_t i = 0; i < got.elem_count(); ++i) {
    ASSERT_NEAR(got.at_linear(i), expect.at_linear(i), 1e-14) << i;
  }
}

TEST_P(RelaxRank, NaiveMatchesGrouped) {
  const int rank = GetParam();
  const Shape shp = cube_shape(static_cast<std::size_t>(rank), 5);
  auto a = random_array(shp, 7);
  auto grouped = relax_kernel(a, kTestCoeffs, StencilMode::kGrouped);
  auto naive = relax_kernel(a, kTestCoeffs, StencilMode::kNaive);
  for (extent_t i = 0; i < grouped.elem_count(); ++i) {
    ASSERT_NEAR(grouped.at_linear(i), naive.at_linear(i), 1e-14) << i;
  }
}

// kPlanes reassociates the class-2/3 sums (docs/stencil.md), so it matches
// kGrouped only up to rounding — hence NEAR at 1e-12, not bitwise equality.
TEST_P(RelaxRank, PlanesMatchesGroupedOnRandomInput) {
  const int rank = GetParam();
  const Shape shp = cube_shape(static_cast<std::size_t>(rank), 8);
  auto a = random_array(shp, 23);
  SacConfig cfg = config();
  cfg.stencil_planes_cutover = 0;  // row path active even on this small grid
  ScopedConfig guard(cfg);
  auto grouped = relax_kernel(a, kTestCoeffs, StencilMode::kGrouped);
  auto planes = relax_kernel(a, kTestCoeffs, StencilMode::kPlanes);
  for (extent_t i = 0; i < grouped.elem_count(); ++i) {
    ASSERT_NEAR(grouped.at_linear(i), planes.at_linear(i), 1e-12) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, RelaxRank, ::testing::Values(1, 2, 3));

TEST(Planes, BelowCutoverFallsBackToGroupedBitwise) {
  // Grids under the cutover evaluate kPlanes on grouped rows: the grouped
  // association tree of every point, so the fallback is bit-identical to
  // kGrouped's per-point evaluation, not just close.
  auto a = random_array(Shape{6, 6, 6}, 29);
  auto grouped = relax_kernel(a, kTestCoeffs, StencilMode::kGrouped);
  const std::uint64_t before = stats().stencil_rows_grouped;
  auto planes = relax_kernel(a, kTestCoeffs, StencilMode::kPlanes);
  EXPECT_EQ(stats().stencil_rows_grouped - before, 4u * 4u);  // took rows
  EXPECT_TRUE(same_bits(grouped, planes));
}

TEST(Planes, RowPathCountsReusedRows) {
  const Shape shp{20, 20, 20};
  auto a = random_array(shp, 31);
  const std::uint64_t before = stats().stencil_rows_reused;
  auto r = relax_kernel(a, kTestCoeffs, StencilMode::kPlanes);  // cutover 18
  (void)r;
  // One row per interior (i, j) pair.
  EXPECT_EQ(stats().stencil_rows_reused - before, 18u * 18u);
}

TEST(Planes, MatchesBruteForceOnRandomInput) {
  const Shape shp{10, 9, 11};  // non-cube: catches stride mix-ups
  auto a = random_array(shp, 37);
  SacConfig cfg = config();
  cfg.stencil_planes_cutover = 0;
  ScopedConfig guard(cfg);
  auto expect = brute_force_relax(a, kTestCoeffs);
  auto got = relax_kernel(a, kTestCoeffs, StencilMode::kPlanes);
  for (extent_t i = 0; i < got.elem_count(); ++i) {
    ASSERT_NEAR(got.at_linear(i), expect.at_linear(i), 1e-12) << i;
  }
}

TEST(Planes, FusedEwiseLandsOnRowPathAndMatchesGrouped) {
  const Shape shp{12, 12, 12};
  auto a = random_array(shp, 41);
  auto v = random_array(shp, 43);
  SacConfig cfg = config();
  cfg.stencil_planes_cutover = 0;
  ScopedConfig guard(cfg);
  auto grouped = force(
      ewise(v, StencilExpr(a, kTestCoeffs, StencilMode::kGrouped),
            std::minus<>{}));
  const std::uint64_t before = stats().stencil_rows_reused;
  auto planes = force(
      ewise(v, StencilExpr(a, kTestCoeffs, StencilMode::kPlanes),
            std::minus<>{}));
  EXPECT_GT(stats().stencil_rows_reused, before);  // took the row path
  for (extent_t i = 0; i < grouped.elem_count(); ++i) {
    ASSERT_NEAR(grouped.at_linear(i), planes.at_linear(i), 1e-12) << i;
  }
}

TEST(Planes, MultithreadedSweepBitIdenticalToSerial) {
  // Rows are computed independently, so the planes sweep must not depend on
  // the chunking: MT and serial results are bitwise equal.
  const Shape shp{24, 24, 24};
  auto a = random_array(shp, 47);
  SacConfig cfg = config();
  cfg.stencil_planes_cutover = 0;
  Array<double> serial;
  {
    ScopedConfig guard(cfg);
    serial = relax_kernel(a, kTestCoeffs, StencilMode::kPlanes);
  }
  cfg.mt_enabled = true;
  cfg.mt_threads = 4;
  cfg.mt_threshold = 1;
  ScopedConfig guard(cfg);
  auto mt = relax_kernel(a, kTestCoeffs, StencilMode::kPlanes);
  for (extent_t i = 0; i < serial.elem_count(); ++i) {
    ASSERT_DOUBLE_EQ(serial.at_linear(i), mt.at_linear(i)) << i;
  }
}

TEST(PlanesPeriodic, MatchesGroupedEverywhereIncludingBoundary) {
  const Shape shp{8, 6, 10};
  auto a = random_array(shp, 53);
  SacConfig cfg = config();
  cfg.stencil_planes_cutover = 0;
  ScopedConfig guard(cfg);
  auto grouped = relax_kernel_periodic(a, kTestCoeffs, StencilMode::kGrouped);
  auto planes = relax_kernel_periodic(a, kTestCoeffs, StencilMode::kPlanes);
  for (extent_t i = 0; i < grouped.elem_count(); ++i) {
    ASSERT_NEAR(grouped.at_linear(i), planes.at_linear(i), 1e-12) << i;
  }
}

TEST(PlanesPeriodic, WrappedRowsMatchGenericReference) {
  // Cross-check the wrapped row pointers and the k-wrap peel against the
  // rank-generic modular evaluator on every point, boundary ring included.
  const Shape shp{6, 7, 9};
  auto a = random_array(shp, 59);
  SacConfig cfg = config();
  cfg.stencil_planes_cutover = 0;
  ScopedConfig guard(cfg);
  const PeriodicStencilExpr ref(a, kTestCoeffs, StencilMode::kGrouped);
  auto planes = relax_kernel_periodic(a, kTestCoeffs, StencilMode::kPlanes);
  for_each_index(shp, [&](const IndexVec& iv) {
    ASSERT_NEAR(planes[iv], ref(iv), 1e-12);
  });
}

TEST(Planes, ScratchComesFromThePoolWhenEnabled) {
  const Shape shp{20, 20, 20};
  auto a = random_array(shp, 61);
  SacConfig cfg = config();
  cfg.pool = true;
  ScopedConfig guard(cfg);
  relax_kernel(a, kTestCoeffs, StencilMode::kPlanes);  // warm the size class
  const std::uint64_t hits_before = stats().pool_hits;
  relax_kernel(a, kTestCoeffs, StencilMode::kPlanes);
  // The second run's scratch block recycles the first run's release.
  EXPECT_GT(stats().pool_hits, hits_before);
}

// -- grouped rows: kPlanes below the cutover, bit for bit --------------------
//
// Every way a V-cycle uses a rank-3 stencil, on grids under the cutover,
// against the same expression in kGrouped mode (which evaluates per point):
// plain and periodically wrapped StencilExpr, ghost-free PeriodicStencilExpr,
// each as a fill, an in-place accumulate (psinv's z += S r), fused into an
// ewise (resid's v - A u) and under lazy_condense (rprj3).  Interior extents
// 1-17, cubes and non-cubes, every backend kind, MT off and on at 1-8
// threads, and inputs where a quarter of the values are +-0.0 (one grid all
// -0.0), so that a reordered sum shows in the sign of a zero too.

// Random values with a quarter of them +0.0 or -0.0; all -0.0 for seed 0.
Array<double> signed_zero_array(const Shape& shp, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  return with_genarray<double>(shp, [&](const IndexVec&) {
    if (seed == 0) return -0.0;
    const std::uint64_t r = rng();
    if (r % 4 == 0) return (r / 4) % 2 == 0 ? 0.0 : -0.0;
    return dist(rng);
  });
}

// z + (S r) in place through StencilExpr::accumulate_row on the row path and
// z + st(i, j, k) per point: MgSac's add_smooth body.
struct AccumulateBody {
  const StencilExpr& st;
  const double* self;
  extent_t e1, e2;

  double operator()(extent_t i, extent_t j, extent_t k) const {
    return self[(i * e1 + j) * e2 + k] + st(i, j, k);
  }
  double operator()(const IndexVec& iv) const {
    return (*this)(iv[0], iv[1], iv[2]);
  }
  bool row_fill_enabled() const { return st.row_fill_enabled(); }
  PlaneScratch make_row_state() const { return st.make_row_state(); }
  void fill_row(PlaneScratch& s, extent_t i, extent_t j, double* out,
                extent_t k_lo, extent_t k_hi) const {
    st.accumulate_row(s, i, j, out, k_lo, k_hi);
  }
};

Array<double> accumulate(Array<double> z, const StencilExpr& st) {
  const Shape shp = z.shape();
  double* self = z.mutable_data();
  detail::execute_assign(self, shp, detail::resolve(gen_all(), shp),
                         AccumulateBody{st, self, shp[1], shp[2]});
  return z;
}

// The stencil uses of one ghosted grid `a` (with `v` of the same shape) and
// one ghost-free grid `p` (with `pv`; skipped when `p` is not rank 3), in
// `mode`.  accumulate() updates a private copy of `v` (copy-on-write).
std::vector<Array<double>> stencil_uses(const Array<double>& a,
                                        const Array<double>& v,
                                        const Array<double>& p,
                                        const Array<double>& pv,
                                        const StencilCoeffs& c,
                                        StencilMode mode) {
  std::vector<Array<double>> out;
  const StencilExpr plain(a, c, mode);
  const StencilExpr wrapped(lazy_periodic_border(a), c, mode);
  out.push_back(relax_kernel(a, c, mode));
  out.push_back(relax_kernel(lazy_periodic_border(a), c, mode));
  out.push_back(accumulate(v, plain));
  out.push_back(accumulate(v, wrapped));
  out.push_back(force(ewise(v, wrapped, std::minus<>{})));
  out.push_back(force(ewise(v, plain, std::plus<>{})));
  auto condensed = lazy_condense(2, wrapped);
  const IndexVec coarse = condensed.shape().extents() + 1;
  out.push_back(force(lazy_embed(coarse, 0 * coarse, condensed)));
  out.push_back(force(lazy_condense(2, plain, 1)));
  if (p.rank() == 3) {  // ghost-free grids need extent >= 2
    const PeriodicStencilExpr periodic(p, c, mode);
    out.push_back(relax_kernel_periodic(p, c, mode));
    out.push_back(force(ewise(pv, periodic, std::plus<>{})));
    out.push_back(force(ewise(pv, periodic, std::minus<>{})));
    out.push_back(force(lazy_condense(2, periodic, 1)));
  }
  return out;
}

struct GroupedRowsCase {
  Shape interior;
  unsigned seed;
};

std::vector<GroupedRowsCase> grouped_rows_cases() {
  std::vector<GroupedRowsCase> cases;
  for (extent_t n = 1; n <= 17; ++n) {
    const auto u = static_cast<unsigned>(n);
    cases.push_back({Shape{n, n, n}, 100 + u});
    cases.push_back({Shape{n, 1 + (7 * n) % 17, 1 + (5 * n) % 17}, 200 + u});
  }
  cases.push_back({Shape{5, 3, 9}, 0});  // all -0.0
  return cases;
}

void expect_grouped_rows_match(const GroupedRowsCase& gc,
                               const SacConfig& cfg, const std::string& what) {
  const Shape& n = gc.interior;
  const Shape ghosted{n[0] + 2, n[1] + 2, n[2] + 2};
  const Array<double> a = signed_zero_array(ghosted, gc.seed);
  const Array<double> v = signed_zero_array(ghosted, gc.seed + 1000);
  const bool periodic = n[0] >= 2 && n[1] >= 2 && n[2] >= 2;
  const Array<double> p =
      periodic ? signed_zero_array(n, gc.seed + 2000) : Array<double>();
  const Array<double> pv =
      periodic ? signed_zero_array(n, gc.seed + 3000) : Array<double>();
  const StencilCoeffs coeffs[] = {
      kTestCoeffs,
      {{-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0}},     // NPB's A
      {{-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0}}};  // NPB's S (a, b)
  for (const StencilCoeffs& c : coeffs) {
    const auto want = stencil_uses(a, v, p, pv, c, StencilMode::kGrouped);
    ScopedConfig guard(cfg);
    const std::uint64_t before = stats().stencil_rows_grouped;
    const auto got = stencil_uses(a, v, p, pv, c, StencilMode::kPlanes);
    EXPECT_GT(stats().stencil_rows_grouped, before) << what;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t u = 0; u < got.size(); ++u) {
      ASSERT_TRUE(same_bits(got[u], want[u]))
          << what << " use " << u << " interior " << n[0] << "x" << n[1]
          << "x" << n[2] << " c0=" << c[0];
    }
  }
}

TEST(GroupedRows, EveryStencilUseMatchesPerPointGroupedOnEveryBackend) {
  for (const GroupedRowsCase& gc : grouped_rows_cases()) {
    for (const BackendKind kind :
         {BackendKind::kScalar, BackendKind::kSimd,
          BackendKind::kSimdPortable}) {
      SacConfig cfg = config();
      cfg.backend = kind;
      cfg.stencil_planes_cutover = 18;
      expect_grouped_rows_match(gc, cfg, backend_name(kind));
    }
  }
}

TEST(GroupedRows, MultithreadedSweepsMatchPerPointGrouped) {
  const GroupedRowsCase cases[] = {{Shape{16, 16, 16}, 301},
                                   {Shape{17, 9, 13}, 302},
                                   {Shape{8, 8, 8}, 303},
                                   {Shape{3, 5, 2}, 304}};
  for (const GroupedRowsCase& gc : cases) {
    for (unsigned threads = 1; threads <= 8; ++threads) {
      for (const BackendKind kind :
           {BackendKind::kScalar, BackendKind::kSimd}) {
        SacConfig cfg = config();
        cfg.backend = kind;
        cfg.stencil_planes_cutover = 18;
        cfg.mt_enabled = true;
        cfg.mt_threads = threads;
        cfg.mt_threshold = 1;
        expect_grouped_rows_match(
            gc, cfg,
            std::string(backend_name(kind)) + " threads " +
                std::to_string(threads));
      }
    }
  }
}

TEST(Relax, BoundaryRingIsZero) {
  auto a = random_array(Shape{5, 5, 5}, 3);
  auto r = relax_kernel(a, kTestCoeffs);
  for_each_index(r.shape(), [&](const IndexVec& iv) {
    bool interior = true;
    for (std::size_t d = 0; d < 3; ++d) {
      if (iv[d] < 1 || iv[d] > 3) interior = false;
    }
    if (!interior) {
      ASSERT_DOUBLE_EQ(r[iv], 0.0);
    }
  });
}

TEST(Relax, LinearInInput) {
  // relax(alpha * a + b) == alpha * relax(a) + relax(b)
  const Shape shp{6, 6, 6};
  auto a = random_array(shp, 1);
  auto b = random_array(shp, 2);
  const double alpha = 2.5;
  auto lhs = relax_kernel(a * alpha + b, kTestCoeffs);
  auto rhs = relax_kernel(a, kTestCoeffs) * alpha + relax_kernel(b, kTestCoeffs);
  for (extent_t i = 0; i < lhs.elem_count(); ++i) {
    ASSERT_NEAR(lhs.at_linear(i), rhs.at_linear(i), 1e-12) << i;
  }
}

TEST(Relax, ConstantFieldScalesBySumOfCoefficients) {
  // On a constant field every interior point sees the same value:
  // (c0 + 6 c1 + 12 c2 + 8 c3) * value for rank 3.
  const Shape shp{5, 5, 5};
  auto a = genarray_const(shp, 2.0);
  auto r = relax_kernel(a, kTestCoeffs);
  const double factor = kTestCoeffs[0] + 6.0 * kTestCoeffs[1] +
                        12.0 * kTestCoeffs[2] + 8.0 * kTestCoeffs[3];
  for_each_index(r.shape(), [&](const IndexVec& iv) {
    bool interior = true;
    for (std::size_t d = 0; d < 3; ++d) {
      if (iv[d] < 1 || iv[d] > 3) interior = false;
    }
    if (interior) {
      ASSERT_NEAR(r[iv], factor * 2.0, 1e-14);
    }
  });
}

TEST(Relax, TranslationEquivariantInInterior) {
  // Shifting the input shifts the output (away from boundaries).
  const Shape shp{8, 8, 8};
  auto a = random_array(shp, 11);
  auto ra = relax_kernel(a, kTestCoeffs);
  auto sa = shift({1, 0, 0}, a);
  auto rsa = relax_kernel(sa, kTestCoeffs);
  // compare rsa(i, j, k) with ra(i-1, j, k) on the deep interior
  for (extent_t i = 2; i < 7; ++i) {
    for (extent_t j = 1; j < 7; ++j) {
      for (extent_t k = 1; k < 7; ++k) {
        ASSERT_NEAR(rsa(i, j, k), ra(i - 1, j, k), 1e-14);
      }
    }
  }
}

TEST(Relax, PointSourceSpreadsByClassCoefficients) {
  const Shape shp{7, 7, 7};
  auto a = with_genarray<double>(shp, [](const IndexVec& iv) {
    return (iv[0] == 3 && iv[1] == 3 && iv[2] == 3) ? 1.0 : 0.0;
  });
  auto r = relax_kernel(a, kTestCoeffs);
  EXPECT_DOUBLE_EQ(r(3, 3, 3), kTestCoeffs[0]);
  EXPECT_DOUBLE_EQ(r(2, 3, 3), kTestCoeffs[1]);
  EXPECT_DOUBLE_EQ(r(3, 4, 3), kTestCoeffs[1]);
  EXPECT_DOUBLE_EQ(r(2, 4, 3), kTestCoeffs[2]);
  EXPECT_DOUBLE_EQ(r(2, 4, 4), kTestCoeffs[3]);
  EXPECT_DOUBLE_EQ(r(5, 3, 3), 0.0);
}

TEST(Relax, SpecializationOnOffAgree) {
  const Shape shp{6, 6, 6};
  auto a = random_array(shp, 5);
  SacConfig cfg = config();
  cfg.specialize = true;
  Array<double> fast;
  {
    ScopedConfig guard(cfg);
    fast = relax_kernel(a, kTestCoeffs);
  }
  cfg.specialize = false;
  Array<double> slow;
  {
    ScopedConfig guard(cfg);
    slow = relax_kernel(a, kTestCoeffs);
  }
  for (extent_t i = 0; i < fast.elem_count(); ++i) {
    ASSERT_DOUBLE_EQ(fast.at_linear(i), slow.at_linear(i)) << i;
  }
}

TEST(Relax, ExtentTooSmallThrows) {
  auto a = genarray_const(Shape{2, 5, 5}, 1.0);
  EXPECT_THROW(relax_kernel(a, kTestCoeffs), ContractError);
}

TEST(StencilExpr, InteriorPredicateAndZeroBoundary) {
  auto a = random_array(Shape{5, 5, 5}, 9);
  StencilExpr st(a, kTestCoeffs);
  EXPECT_TRUE(st.is_interior({1, 1, 1}));
  EXPECT_FALSE(st.is_interior({0, 1, 1}));
  EXPECT_FALSE(st.is_interior({1, 4, 1}));
  EXPECT_DOUBLE_EQ(st(0, 2, 2), 0.0);
  EXPECT_DOUBLE_EQ((st(IndexVec{0, 2, 2})), 0.0);
}

TEST(StencilExpr, IndexVectorAndUnpackedAccessAgree) {
  auto a = random_array(Shape{6, 6, 6}, 13);
  StencilExpr st(a, kTestCoeffs);
  for_each_index(a.shape(), [&](const IndexVec& iv) {
    ASSERT_DOUBLE_EQ(st(iv), st(iv[0], iv[1], iv[2]));
  });
}

}  // namespace
}  // namespace sacpp::sac
