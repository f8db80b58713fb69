// The SAC array library (paper Fig. 10 and friends): structural and
// element-wise operations with their algebraic identities, property-swept
// across ranks, shapes and strides.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "sacpp/sac/sac.hpp"

namespace sacpp::sac {
namespace {

Array<double> sequential(const Shape& shp) {
  return with_genarray<double>(shp, [&shp](const IndexVec& iv) {
    return static_cast<double>(shp.linearize(iv)) + 1.0;
  });
}

void expect_equal(const Array<double>& a, const Array<double>& b) {
  ASSERT_EQ(a.shape(), b.shape());
  for (extent_t i = 0; i < a.elem_count(); ++i) {
    ASSERT_DOUBLE_EQ(a.at_linear(i), b.at_linear(i)) << "at " << i;
  }
}

TEST(GenarrayConst, FillsEveryElement) {
  auto a = genarray_const(Shape{3, 3}, 2.5);
  for (extent_t i = 0; i < 9; ++i) EXPECT_DOUBLE_EQ(a.at_linear(i), 2.5);
}

TEST(GenarrayConst, EveryRankHoldsTheConstantAndRank3FillsRows) {
  const Shape shapes[] = {Shape{}, Shape{7}, Shape{3, 5}, Shape{4, 5, 6},
                          Shape{2, 3, 4, 5}};
  for (const Shape& shp : shapes) {
    const auto a = genarray_const(shp, -0.0);
    const auto b = genarray_const(shp, 2.5);
    ASSERT_EQ(a.shape(), shp);
    ASSERT_EQ(b.shape(), shp);
    for (extent_t i = 0; i < shp.elem_count(); ++i) {
      ASSERT_TRUE(std::signbit(a.at_linear(i))) << "rank " << shp.rank();
      ASSERT_EQ(a.at_linear(i), 0.0) << "rank " << shp.rank();
      ASSERT_EQ(b.at_linear(i), 2.5) << "rank " << shp.rank();
    }
  }
  // The rank-3 fill runs on the row path: under a vectorized backend the
  // with-loop tallies one row per (i, j).
  SacConfig cfg = config();
  cfg.backend = BackendKind::kSimd;
  ScopedConfig guard(cfg);
  reset_stats();
  (void)genarray_const(Shape{4, 5, 6}, 1.0);
  EXPECT_EQ(stats().backend_simd_rows, 4u * 5u);
}

TEST(Iota, ZeroBasedVector) {
  auto v = iota(5);
  for (extent_t i = 0; i < 5; ++i) EXPECT_EQ((v[IndexVec{i}]), i);
}

TEST(ElementWise, AddSubMulDiv) {
  auto a = sequential(Shape{2, 3});
  auto b = genarray_const(Shape{2, 3}, 2.0);
  expect_equal((a + b) - b, a);
  expect_equal((a * b) / b, a);
}

TEST(ElementWise, ScalarForms) {
  auto a = sequential(Shape{4});
  expect_equal(a + 0.0, a);
  expect_equal(a * 1.0, a);
  expect_equal((2.0 * a) / 2.0, a);
  expect_equal(-(-a), a);
  expect_equal((a + 3.0) - 3.0, a);
}

TEST(ElementWise, MoveFormReusesLeftBufferInPlace) {
  auto a = sequential(Shape{4, 4, 4});
  auto b = genarray_const(Shape{4, 4, 4}, 2.0);
  auto expect = a + b;
  const double* p = a.data();
  auto r = std::move(a) + b;
  EXPECT_EQ(r.data(), p);  // buffer stolen, no allocation
  expect_equal(r, expect);
}

TEST(ElementWise, MoveFormOnSharedBufferCopiesFirst) {
  auto a = sequential(Shape{8});
  Array<double> keep = a;  // second owner
  const double* p = a.data();
  auto r = std::move(a) - genarray_const(Shape{8}, 1.0);
  EXPECT_NE(r.data(), p);                 // copy-on-write protected `keep`
  expect_equal(keep, sequential(Shape{8}));  // original value intact
  expect_equal(r, sequential(Shape{8}) - genarray_const(Shape{8}, 1.0));
}

TEST(ElementWise, MoveFormMatchesCopyFormForAllOps) {
  auto a = sequential(Shape{3, 5});
  auto b = sequential(Shape{3, 5}) + 1.0;
  {
    auto copy = a;
    expect_equal(std::move(copy) + b, a + b);
  }
  {
    auto copy = a;
    expect_equal(std::move(copy) - b, a - b);
  }
  {
    auto copy = a;
    expect_equal(std::move(copy) * b, a * b);
  }
}

TEST(ElementWise, MoveFormCountsReuse) {
  reset_stats();
  auto a = genarray_const(Shape{16}, 1.0);
  auto b = genarray_const(Shape{16}, 2.0);
  const auto allocs_before = stats().allocations;
  auto r = std::move(a) + b;
  EXPECT_EQ(stats().allocations, allocs_before);  // no new buffer
  EXPECT_GE(stats().reuses, 1u);
  (void)r;
}

TEST(ElementWise, ShapeMismatchThrows) {
  auto a = genarray_const(Shape{2}, 1.0);
  auto b = genarray_const(Shape{3}, 1.0);
  EXPECT_THROW(a + b, ContractError);
}

TEST(ElementWise, AbsOfNegatedIsIdentityForPositives) {
  auto a = sequential(Shape{5});
  expect_equal(abs(-a), a);
}

TEST(Reductions, SumProdMinMax) {
  auto a = sequential(Shape{4});  // 1 2 3 4
  EXPECT_DOUBLE_EQ(sum(a), 10.0);
  EXPECT_DOUBLE_EQ(prod(a), 24.0);
  EXPECT_DOUBLE_EQ(min_elem(a), 1.0);
  EXPECT_DOUBLE_EQ(max_elem(a), 4.0);
  EXPECT_DOUBLE_EQ(max_abs(-a), 4.0);
  EXPECT_DOUBLE_EQ(dot(a, a), 30.0);
}

TEST(Reductions, SumOfScalarArray) {
  Array<double> s(7.0);
  EXPECT_DOUBLE_EQ(sum(s), 7.0);
}

// -- structural ops: the paper's condense / scatter / embed / take -----------

class StructuralProperty
    : public ::testing::TestWithParam<std::tuple<int, extent_t, extent_t>> {
 protected:
  Shape make_shape() const {
    const auto [rank, base, str] = GetParam();
    IndexVec e;
    for (int d = 0; d < rank; ++d) e.push_back(base * str);
    return Shape(e);
  }
};

TEST_P(StructuralProperty, CondenseAfterScatterIsIdentity) {
  const auto [rank, base, str] = GetParam();
  (void)base;
  const Shape shp = make_shape();
  auto a = sequential(shp);
  expect_equal(condense(str, scatter(str, a)), a);
}

TEST_P(StructuralProperty, ScatterPlacesAndZeroes) {
  const auto [rank, base, str] = GetParam();
  (void)base;
  const Shape shp = make_shape();
  auto a = sequential(shp);
  auto s = scatter(str, a);
  ASSERT_EQ(s.shape().extents(), str * shp.extents());
  double placed = 0.0, total = 0.0;
  for_each_index(s.shape(), [&](const IndexVec& iv) {
    bool on_grid = true;
    for (std::size_t d = 0; d < iv.size(); ++d) {
      if (iv[d] % str != 0) on_grid = false;
    }
    const double v = s[iv];
    total += v;
    if (on_grid) {
      placed += v;
      ASSERT_DOUBLE_EQ(v, a[iv / str]);
    } else {
      ASSERT_DOUBLE_EQ(v, 0.0);
    }
  });
  EXPECT_DOUBLE_EQ(total, placed);
  (void)rank;
}

TEST_P(StructuralProperty, TakeAfterEmbedIsIdentity) {
  const auto [rank, base, str] = GetParam();
  (void)str;
  (void)base;
  const Shape shp = make_shape();
  auto a = sequential(shp);
  auto e = embed(shp.extents() + 2, uniform_vec(shp.rank(), 0), a);
  expect_equal(take(shp.extents(), e), a);
}

TEST_P(StructuralProperty, DropAfterEmbedAtOffsetIsIdentity) {
  const auto [rank, base, str] = GetParam();
  (void)str;
  (void)base;
  const Shape shp = make_shape();
  auto a = sequential(shp);
  const IndexVec pos = uniform_vec(shp.rank(), 2);
  auto e = embed(shp.extents() + 2, pos, a);
  expect_equal(drop(pos, e), a);
}

INSTANTIATE_TEST_SUITE_P(RankShapeStride, StructuralProperty,
                         ::testing::Combine(::testing::Values(1, 2, 3),
                                            ::testing::Values<extent_t>(2, 3),
                                            ::testing::Values<extent_t>(2,
                                                                        3)));

TEST(Condense, SamplesStridedElements) {
  auto a = iota<double>(8);  // 0..7
  auto c = condense(2, a);
  ASSERT_EQ(c.shape(), (Shape{4}));
  for (extent_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ((c[IndexVec{i}]), 2.0 * i);
}

TEST(Embed, ZeroesOutsideAndValidatesFit) {
  auto a = genarray_const(Shape{2}, 5.0);
  auto e = embed({5}, {1}, a);
  EXPECT_DOUBLE_EQ((e[IndexVec{0}]), 0.0);
  EXPECT_DOUBLE_EQ((e[IndexVec{1}]), 5.0);
  EXPECT_DOUBLE_EQ((e[IndexVec{2}]), 5.0);
  EXPECT_DOUBLE_EQ((e[IndexVec{3}]), 0.0);
  EXPECT_THROW(embed({2}, {1}, a), ContractError);
}

TEST(Take, ValidatesExtent) {
  auto a = genarray_const(Shape{3}, 1.0);
  EXPECT_THROW(take({4}, a), ContractError);
}

TEST(ShiftRotate, ShiftFillsWithZero) {
  auto a = iota<double>(4);  // 0 1 2 3
  auto s = shift({1}, a);
  EXPECT_DOUBLE_EQ((s[IndexVec{0}]), 0.0);
  EXPECT_DOUBLE_EQ((s[IndexVec{1}]), 0.0);
  EXPECT_DOUBLE_EQ((s[IndexVec{3}]), 2.0);
}

TEST(ShiftRotate, RotateIsCyclic) {
  auto a = iota<double>(5);
  auto r = rotate({2}, a);
  EXPECT_DOUBLE_EQ((r[IndexVec{0}]), 3.0);
  EXPECT_DOUBLE_EQ((r[IndexVec{1}]), 4.0);
  EXPECT_DOUBLE_EQ((r[IndexVec{2}]), 0.0);
  // rotating by the extent is the identity
  expect_equal(rotate({5}, a), a);
  // rotate composes additively
  expect_equal(rotate({2}, rotate({3}, a)), a);
}

TEST(ShiftRotate, NegativeRotation) {
  auto a = iota<double>(4);
  expect_equal(rotate({-1}, rotate({1}, a)), a);
}

TEST(ReverseTranspose, ReverseIsInvolution) {
  auto a = sequential(Shape{3, 4});
  expect_equal(reverse(0, reverse(0, a)), a);
  expect_equal(reverse(1, reverse(1, a)), a);
}

TEST(ReverseTranspose, TransposeSwapsAxes) {
  auto a = sequential(Shape{2, 3});
  auto t = transpose(a);
  ASSERT_EQ(t.shape(), (Shape{3, 2}));
  for_each_index(a.shape(), [&](const IndexVec& iv) {
    ASSERT_DOUBLE_EQ((t[IndexVec{iv[1], iv[0]}]), a[iv]);
  });
  expect_equal(transpose(t), a);
}

TEST(Reshape, PreservesRowMajorSequence) {
  auto a = sequential(Shape{2, 6});
  auto b = reshape(Shape{3, 4}, a);
  for (extent_t i = 0; i < 12; ++i) {
    ASSERT_DOUBLE_EQ(b.at_linear(i), a.at_linear(i));
  }
  EXPECT_THROW(reshape(Shape{5}, a), ContractError);
}

TEST(Tile, PeriodicReplication) {
  auto a = iota<double>(3);
  auto t = tile(a, 2);
  ASSERT_EQ(t.shape(), (Shape{6}));
  for (extent_t i = 0; i < 6; ++i) {
    ASSERT_DOUBLE_EQ((t[IndexVec{i}]), static_cast<double>(i % 3));
  }
}

TEST(MapZip, CustomFunctions) {
  auto a = sequential(Shape{4});
  auto sq = map(a, [](double v) { return v * v; });
  EXPECT_DOUBLE_EQ(sum(sq), 1.0 + 4.0 + 9.0 + 16.0);
  auto m = zip(a, a, [](double x, double y) { return x > y ? x : y; });
  expect_equal(m, a);
}

}  // namespace
}  // namespace sacpp::sac
