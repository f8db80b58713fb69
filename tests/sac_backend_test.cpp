// Cross-backend differential battery for the pluggable row-primitive
// engines (docs/backends.md).
//
// The contract under test: every element-parallel primitive (fill, copy,
// plane sums, stencil combines, ewise merges, gather, scatter) is bitwise
// identical across kScalar, kSimd and kSimdPortable; the two folds
// (sum-of-squares, max-abs) may reassociate but agree to 1e-12 relative —
// and the AVX-512, AVX2 and portable engines agree with EACH OTHER bit for
// bit, so kSimd results are host-independent and pinnable.
//
// Row lengths are drawn adversarially around the vector widths
// (1, 3, 4, 5, w-1, w, w+1, primes) with random sub-ranges including empty
// ones, and rows start at every offset from a 64-byte boundary, hunting
// tail, alignment-peeling and degenerate-extent bugs.  The coefficients
// are NPB's non-dyadic `a`, so a product that the compiler contracts into
// an FMA rounds differently and shows up as a bit mismatch.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/periodic_stencil.hpp"
#include "sacpp/sac/sac.hpp"
#include "sacpp/sac/stats.hpp"

namespace sacpp::sac {
namespace {

Array<double> random_array(const Shape& shp, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  return with_genarray<double>(shp,
                               [&](const IndexVec&) { return dist(rng); });
}

// NPB's residual operator `a` (MgSpec::a, mg/spec.cpp).
constexpr StencilCoeffs kTestCoeffs{{-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0}};

// Engines under test: scalar (the reference) first, then every vector
// engine this host can run.
std::vector<const Backend*> all_engines() {
  std::vector<const Backend*> v{&detail::scalar_backend()};
  const auto vec = detail::vector_backends();
  v.insert(v.end(), vec.begin(), vec.end());
  return v;
}

// Bit-for-bit row equality: operator== would let -0.0 and +0.0 pass.
bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<double> random_row(std::mt19937_64& rng, std::size_t n) {
  std::uniform_real_distribution<double> dist(-8.0, 8.0);
  std::vector<double> r(n);
  for (double& x : r) x = dist(rng);
  return r;
}

// Adversarial row lengths around the vector width.
extent_t random_length(std::mt19937_64& rng) {
  static constexpr extent_t kPool[] = {1,  2,  3,  4,  5,  7,  8,  9,
                                       11, 13, 16, 17, 23, 31, 32, 33,
                                       37, 61, 64, 67, 97, 128};
  std::uniform_int_distribution<std::size_t> pick(
      0, std::size(kPool) - 1);
  return kPool[pick(rng)];
}

struct RowCase {
  extent_t n;       // row length
  extent_t lo, hi;  // sub-range, possibly empty
};

RowCase random_case(std::mt19937_64& rng) {
  RowCase c;
  c.n = random_length(rng);
  std::uniform_int_distribution<extent_t> bound(0, c.n);
  c.lo = bound(rng);
  c.hi = bound(rng);
  if (c.hi < c.lo) std::swap(c.lo, c.hi);
  return c;
}

constexpr int kRounds = 200;

TEST(BackendRegistry, KindsResolveAndReportLanes) {
  EXPECT_STREQ(backend_for(BackendKind::kScalar).name(), "scalar");
  EXPECT_EQ(backend_for(BackendKind::kScalar).lanes(), 1u);
  EXPECT_FALSE(backend_for(BackendKind::kScalar).vectorized());
  EXPECT_STREQ(backend_for(BackendKind::kSimdPortable).name(), "portable");
  EXPECT_EQ(backend_for(BackendKind::kSimdPortable).lanes(), 4u);
  EXPECT_TRUE(backend_for(BackendKind::kSimdPortable).vectorized());
  // kSimd resolves widest-first: AVX-512, then AVX2, then portable.
  const Backend& simd = backend_for(BackendKind::kSimd);
  EXPECT_TRUE(simd.vectorized());
  if (cpu_has_avx512()) {
    EXPECT_STREQ(simd.name(), "avx512");
    EXPECT_EQ(simd.lanes(), 8u);
  } else if (cpu_has_avx2()) {
    EXPECT_STREQ(simd.name(), "avx2");
    EXPECT_EQ(simd.lanes(), 4u);
  } else {
    EXPECT_STREQ(simd.name(), "portable");
    EXPECT_EQ(simd.lanes(), 4u);
  }
}

// The retired kJit resolves to the kSimd engine itself, and says so on
// stderr exactly once per process.  The threadsafe style re-executes the
// binary for the child, so no earlier call in this process can have spent
// the one-shot diagnostic.
TEST(BackendRegistryDeathTest, RetiredJitRunsSimdWithOneDiagnostic) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        const Backend* first = &backend_for(BackendKind::kJit);
        const Backend* second = &backend_for(BackendKind::kJit);
        const bool simd = first == second &&
                          first == &backend_for(BackendKind::kSimd);
        std::exit(simd ? 0 : 1);
      },
      ::testing::ExitedWithCode(0),
      "^sacpp: backend 'jit' is retired; running 'simd'\n$");
}

TEST(BackendRegistry, KindNamesRoundTripThroughParser) {
  for (const BackendKind k : kAllBackendKinds) {
    BackendKind parsed{};
    ASSERT_TRUE(parse_backend(backend_name(k), &parsed)) << backend_name(k);
    EXPECT_EQ(parsed, k);
  }
  BackendKind parsed{};
  EXPECT_FALSE(parse_backend("sse9", &parsed));
  // The retired name still parses (older scripts and SACPP_BACKEND values)
  // but is no longer offered.
  ASSERT_TRUE(parse_backend("jit", &parsed));
  EXPECT_EQ(parsed, BackendKind::kJit);
  // The registry-driven name list is what --backend help/errors print.
  EXPECT_EQ(backend_names(), "scalar | simd | simd-portable");
}

// -- per-primitive differential sweeps --------------------------------------

TEST(BackendRows, FillCopyBitIdenticalAcrossEngines) {
  std::mt19937_64 rng(101);
  const auto engines = all_engines();
  for (int round = 0; round < kRounds; ++round) {
    const RowCase c = random_case(rng);
    const auto src = random_row(rng, static_cast<std::size_t>(c.n));
    const double v = static_cast<double>(round) * 0.37 - 3.0;
    std::vector<std::vector<double>> fills, copies;
    for (const Backend* be : engines) {
      std::vector<double> f(static_cast<std::size_t>(c.n), -99.0);
      be->fill_row(f.data(), c.lo, c.hi, v);
      fills.push_back(std::move(f));
      std::vector<double> cp(static_cast<std::size_t>(c.n), -99.0);
      be->copy_row(cp.data(), src.data(), c.lo, c.hi);
      copies.push_back(std::move(cp));
    }
    for (std::size_t e = 1; e < engines.size(); ++e) {
      ASSERT_TRUE(bits_equal(fills[e], fills[0]))
          << engines[e]->name() << " n=" << c.n << " [" << c.lo << ","
          << c.hi << ")";
      ASSERT_TRUE(bits_equal(copies[e], copies[0]))
          << engines[e]->name() << " n=" << c.n;
    }
  }
}

TEST(BackendRows, PlaneSumsBitIdenticalAcrossEngines) {
  std::mt19937_64 rng(102);
  const auto engines = all_engines();
  for (int round = 0; round < kRounds; ++round) {
    const extent_t n = random_length(rng);
    std::vector<std::vector<double>> in;
    in.reserve(8);
    for (int r = 0; r < 8; ++r) {
      in.push_back(random_row(rng, static_cast<std::size_t>(n)));
    }
    std::vector<std::vector<double>> u1s, u2s;
    for (const Backend* be : engines) {
      std::vector<double> u1(static_cast<std::size_t>(n), -99.0);
      std::vector<double> u2(static_cast<std::size_t>(n), -99.0);
      be->plane_sums(in[0].data(), in[1].data(), in[2].data(), in[3].data(),
                     in[4].data(), in[5].data(), in[6].data(), in[7].data(),
                     u1.data(), u2.data(), n);
      u1s.push_back(std::move(u1));
      u2s.push_back(std::move(u2));
    }
    for (std::size_t e = 1; e < engines.size(); ++e) {
      ASSERT_TRUE(bits_equal(u1s[e], u1s[0]))
          << engines[e]->name() << " n=" << n;
      ASSERT_TRUE(bits_equal(u2s[e], u2s[0]))
          << engines[e]->name() << " n=" << n;
    }
  }
}

TEST(BackendRows, CombineAndAccumulateBitIdenticalAcrossEngines) {
  std::mt19937_64 rng(103);
  const auto engines = all_engines();
  for (int round = 0; round < kRounds; ++round) {
    const extent_t n = random_length(rng) + 2;  // room for the [lo-1, hi+1) reads
    const auto uc = random_row(rng, static_cast<std::size_t>(n));
    const auto u1 = random_row(rng, static_cast<std::size_t>(n));
    const auto u2 = random_row(rng, static_cast<std::size_t>(n));
    // Interior sub-range: the combine contract needs lo-1 / hi readable.
    std::uniform_int_distribution<extent_t> bound(1, n - 1);
    extent_t lo = bound(rng), hi = bound(rng);
    if (hi < lo) std::swap(lo, hi);
    std::vector<std::vector<double>> outs, accs;
    for (const Backend* be : engines) {
      std::vector<double> o(static_cast<std::size_t>(n), -99.0);
      be->combine_row(kTestCoeffs.c.data(), uc.data(), u1.data(), u2.data(),
                      o.data(), lo, hi);
      outs.push_back(std::move(o));
      std::vector<double> a(static_cast<std::size_t>(n), 0.5);
      be->accumulate_row(kTestCoeffs.c.data(), uc.data(), u1.data(),
                         u2.data(), a.data(), lo, hi);
      accs.push_back(std::move(a));
    }
    for (std::size_t e = 1; e < engines.size(); ++e) {
      ASSERT_TRUE(bits_equal(outs[e], outs[0]))
          << engines[e]->name() << " n=" << n << " [" << lo << "," << hi
          << ")";
      ASSERT_TRUE(bits_equal(accs[e], accs[0]))
          << engines[e]->name() << " n=" << n;
    }
  }
}

// The grouped rows (kPlanes below the cutover) promise more than
// cross-engine agreement: every element is the per-point grouped_stencil3
// tree, bit for bit.  Rows may coincide (extent-2 and extent-3 axes wrap
// onto one row), and a quarter of the inputs are +-0.0, so a reordered sum
// shows up in the sign of a zero as well as in the rounding.
TEST(BackendRows, GroupedRowsEqualTheGroupedTreeOnEveryEngine) {
  std::mt19937_64 rng(108);
  const auto engines = all_engines();
  const StencilCoeffs coeffs[] = {
      kTestCoeffs,
      {{-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0}},  // NPB's smoother S
      {{0.7, -0.3, 0.11, -0.05}}};
  for (int round = 0; round < kRounds; ++round) {
    const extent_t n = random_length(rng) + 2;
    std::vector<std::vector<double>> src(9);
    for (auto& r : src) {
      r = random_row(rng, static_cast<std::size_t>(n));
      for (double& x : r) {
        if (rng() % 4 == 0) x = rng() % 2 == 0 ? 0.0 : -0.0;
      }
    }
    const double* rows[9];
    for (std::size_t r = 0; r < 9; ++r) {
      // Every fifth round some rows alias the centre or a neighbour.
      rows[r] = round % 5 == 0 ? src[r % 3].data() : src[r].data();
    }
    const StencilCoeffs& c = coeffs[round % 3];
    std::uniform_int_distribution<extent_t> bound(1, n - 1);
    extent_t lo = bound(rng), hi = bound(rng);
    if (hi < lo) std::swap(lo, hi);
    std::vector<double> want(static_cast<std::size_t>(n), -99.0);
    std::vector<double> want_acc = random_row(rng, static_cast<std::size_t>(n));
    const std::vector<double> acc0 = want_acc;
    for (extent_t k = lo; k < hi; ++k) {
      const double g = grouped_stencil3(c, [&](int di, int dj, int dk) {
        return rows[(di + 1) * 3 + (dj + 1)][k + dk];
      });
      want[static_cast<std::size_t>(k)] = g;
      want_acc[static_cast<std::size_t>(k)] += g;
    }
    for (const Backend* be : engines) {
      std::vector<double> o(static_cast<std::size_t>(n), -99.0);
      be->grouped_combine_row(c.c.data(), rows, o.data(), lo, hi);
      ASSERT_TRUE(bits_equal(o, want))
          << be->name() << " n=" << n << " [" << lo << "," << hi << ")";
      std::vector<double> a = acc0;
      be->grouped_accumulate_row(c.c.data(), rows, a.data(), lo, hi);
      ASSERT_TRUE(bits_equal(a, want_acc))
          << be->name() << " n=" << n << " [" << lo << "," << hi << ")";
    }
  }
}

TEST(BackendRows, EwiseMergesBitIdenticalAcrossEngines) {
  std::mt19937_64 rng(104);
  const auto engines = all_engines();
  for (int round = 0; round < kRounds; ++round) {
    const RowCase c = random_case(rng);
    const auto a = random_row(rng, static_cast<std::size_t>(c.n));
    const auto base = random_row(rng, static_cast<std::size_t>(c.n));
    for (int op = 0; op < 3; ++op) {
      std::vector<std::vector<double>> outs;
      for (const Backend* be : engines) {
        std::vector<double> o = base;
        if (op == 0) be->add_into_row(a.data(), o.data(), c.lo, c.hi);
        if (op == 1) be->sub_into_row(a.data(), o.data(), c.lo, c.hi);
        if (op == 2) be->mul_into_row(a.data(), o.data(), c.lo, c.hi);
        outs.push_back(std::move(o));
      }
      for (std::size_t e = 1; e < engines.size(); ++e) {
        ASSERT_TRUE(bits_equal(outs[e], outs[0]))
            << engines[e]->name() << " op=" << op << " n=" << c.n;
      }
    }
  }
}

TEST(BackendRows, GatherScatterBitIdenticalAcrossEngines) {
  std::mt19937_64 rng(105);
  const auto engines = all_engines();
  for (int round = 0; round < kRounds; ++round) {
    const extent_t count = random_length(rng);
    std::uniform_int_distribution<extent_t> stride_pick(1, 5);
    const extent_t stride = stride_pick(rng);
    const auto src =
        random_row(rng, static_cast<std::size_t>(count * stride));
    std::vector<std::vector<double>> gathers, scatters;
    for (const Backend* be : engines) {
      std::vector<double> g(static_cast<std::size_t>(count), -99.0);
      be->gather_row(g.data(), src.data(), stride, count);
      gathers.push_back(std::move(g));
      std::vector<double> s(static_cast<std::size_t>(count * stride), -99.0);
      be->scatter_row(s.data(), stride, src.data(), count);
      scatters.push_back(std::move(s));
    }
    for (std::size_t e = 1; e < engines.size(); ++e) {
      ASSERT_TRUE(bits_equal(gathers[e], gathers[0]))
          << engines[e]->name() << " stride=" << stride;
      ASSERT_TRUE(bits_equal(scatters[e], scatters[0]))
          << engines[e]->name() << " stride=" << stride;
    }
  }
}

TEST(BackendFolds, AgreeWithScalarToTolAndAcrossSimdEnginesExactly) {
  std::mt19937_64 rng(106);
  const Backend& sc = detail::scalar_backend();
  const auto vec = detail::vector_backends();
  const Backend& po = *vec.front();
  for (int round = 0; round < kRounds; ++round) {
    const RowCase c = random_case(rng);
    const auto p = random_row(rng, static_cast<std::size_t>(c.n));
    const double acc0 = round * 0.013;

    const double ss_sc = sc.sum_sq_row(acc0, p.data(), c.lo, c.hi);
    const double ss_po = po.sum_sq_row(acc0, p.data(), c.lo, c.hi);
    ASSERT_NEAR(ss_po, ss_sc, 1e-12 * std::max(1.0, std::fabs(ss_sc)))
        << "n=" << c.n << " [" << c.lo << "," << c.hi << ")";

    // max is association-insensitive: exact across every engine.
    const double ma_sc = sc.max_abs_row(acc0, p.data(), c.lo, c.hi);
    const double ma_po = po.max_abs_row(acc0, p.data(), c.lo, c.hi);
    ASSERT_EQ(ma_po, ma_sc) << "n=" << c.n;

    // Every wider engine folds in the portable 4-lane structure, bit for
    // bit (AVX-512 included: its folds are not 8 lanes).
    for (const Backend* be : vec) {
      ASSERT_EQ(be->sum_sq_row(acc0, p.data(), c.lo, c.hi), ss_po)
          << be->name() << " n=" << c.n << " [" << c.lo << "," << c.hi
          << ")";
      ASSERT_EQ(be->max_abs_row(acc0, p.data(), c.lo, c.hi), ma_po)
          << be->name() << " n=" << c.n;
    }
  }
}

// Vectorized loops may peel iterations to reach an aligned address and
// finish rows in a scalar epilogue, so results must not depend on where a
// row starts.  Every primitive runs on every engine with rows starting 0-7
// doubles past a 64-byte boundary, over sub-ranges around the 4- and
// 8-lane widths.
TEST(BackendRows, AlignmentOffsetSweepBitIdenticalAcrossEngines) {
  struct alignas(64) Row {
    double v[64];
  };
  static constexpr extent_t kLos[] = {1, 2, 3};
  static constexpr extent_t kLens[] = {0, 1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 17};
  constexpr extent_t kStride = 2;
  std::mt19937_64 rng(107);
  std::uniform_real_distribution<double> dist(-8.0, 8.0);
  std::vector<Row> in(8);
  for (Row& r : in) {
    for (double& x : r.v) x = dist(rng);
  }
  const auto engines = all_engines();
  for (extent_t off = 0; off < 8; ++off) {
    const auto row = [off](const Row& r) { return r.v + off; };
    const auto out_row = [off](Row& r) { return r.v + off; };
    for (const extent_t lo : kLos) {
      for (const extent_t len : kLens) {
        const extent_t hi = lo + len;
        std::vector<std::vector<double>> rows;
        std::vector<double> ss, ma;
        for (const Backend* be : engines) {
          // Outputs: fill, copy, u1, u2, combine, gather, scatter and the
          // grouped combine start as a sentinel; accumulate, the ewise
          // merges and the grouped accumulate start from in[7].
          std::vector<Row> o(13);
          for (Row& r : o) std::fill(std::begin(r.v), std::end(r.v), -99.0);
          for (std::size_t i = 5; i < 9; ++i) o[i] = in[7];
          o[12] = in[7];
          const double* nine[9] = {row(in[0]), row(in[1]), row(in[2]),
                                   row(in[3]), row(in[4]), row(in[5]),
                                   row(in[6]), row(in[7]), row(in[0])};
          be->fill_row(out_row(o[0]), lo, hi, 0.75);
          be->copy_row(out_row(o[1]), row(in[0]), lo, hi);
          be->plane_sums(row(in[0]), row(in[1]), row(in[2]), row(in[3]),
                         row(in[4]), row(in[5]), row(in[6]), row(in[7]),
                         out_row(o[2]), out_row(o[3]), hi);
          be->combine_row(kTestCoeffs.c.data(), row(in[0]), row(in[1]),
                          row(in[2]), out_row(o[4]), lo, hi);
          be->accumulate_row(kTestCoeffs.c.data(), row(in[0]), row(in[1]),
                             row(in[2]), out_row(o[5]), lo, hi);
          be->add_into_row(row(in[3]), out_row(o[6]), lo, hi);
          be->sub_into_row(row(in[3]), out_row(o[7]), lo, hi);
          be->mul_into_row(row(in[3]), out_row(o[8]), lo, hi);
          be->gather_row(out_row(o[9]), row(in[4]), kStride, len);
          be->scatter_row(out_row(o[10]), kStride, row(in[5]), len);
          be->grouped_combine_row(kTestCoeffs.c.data(), nine, out_row(o[11]),
                                  lo, hi);
          be->grouped_accumulate_row(kTestCoeffs.c.data(), nine,
                                     out_row(o[12]), lo, hi);
          std::vector<double> flat;
          for (const Row& r : o) flat.insert(flat.end(), r.v, r.v + 64);
          rows.push_back(std::move(flat));
          ss.push_back(be->sum_sq_row(0.5, row(in[6]), lo, hi));
          ma.push_back(be->max_abs_row(0.0, row(in[6]), lo, hi));
        }
        for (std::size_t e = 1; e < engines.size(); ++e) {
          const std::string where = std::string(engines[e]->name()) +
                                    " off=" + std::to_string(off) + " [" +
                                    std::to_string(lo) + "," +
                                    std::to_string(hi) + ")";
          ASSERT_TRUE(bits_equal(rows[e], rows[0])) << where;
          ASSERT_NEAR(ss[e], ss[0], 1e-12 * std::max(1.0, ss[0])) << where;
          ASSERT_EQ(ss[e], ss[1]) << where;
          ASSERT_EQ(ma[e], ma[0]) << where;
        }
      }
    }
  }
}

// -- whole-kernel differential sweeps ---------------------------------------

Array<double> run_relax(const Array<double>& a, BackendKind backend,
                        bool periodic, int threads = 0) {
  SacConfig cfg = config();
  cfg.stencil_mode = StencilMode::kPlanes;
  cfg.stencil_planes_cutover = 0;
  cfg.backend = backend;
  if (threads > 0) {
    cfg.mt_enabled = true;
    cfg.mt_threads = threads;
    cfg.mt_threshold = 1;
  }
  ScopedConfig guard(cfg);
  return periodic
             ? relax_kernel_periodic(a, kTestCoeffs, StencilMode::kPlanes)
             : relax_kernel(a, kTestCoeffs, StencilMode::kPlanes);
}

TEST(BackendKernels, PlanesRelaxBitIdenticalAcrossBackends) {
  // Stencil rows are element-parallel in every backend, so whole sweeps are
  // bitwise equal — fixed and periodic boundaries, odd extents included.
  for (const Shape& shp :
       {Shape{6, 7, 9}, Shape{5, 5, 4}, Shape{8, 6, 19}, Shape{4, 9, 33}}) {
    auto a = random_array(shp, 71);
    for (const bool periodic : {false, true}) {
      auto scalar = run_relax(a, BackendKind::kScalar, periodic);
      auto simd = run_relax(a, BackendKind::kSimd, periodic);
      auto portable = run_relax(a, BackendKind::kSimdPortable, periodic);
      for (extent_t i = 0; i < scalar.elem_count(); ++i) {
        ASSERT_EQ(simd.at_linear(i), scalar.at_linear(i))
            << (periodic ? "periodic " : "fixed ") << i;
        ASSERT_EQ(portable.at_linear(i), scalar.at_linear(i))
            << (periodic ? "periodic " : "fixed ") << i;
      }
    }
  }
}

TEST(BackendKernels, MultithreadedRunsAreBitwiseDeterministicPerBackend) {
  const Shape shp{24, 24, 24};
  auto a = random_array(shp, 73);
  for (const BackendKind kind :
       {BackendKind::kScalar, BackendKind::kSimd,
        BackendKind::kSimdPortable}) {
    auto serial = run_relax(a, kind, /*periodic=*/false);
    auto mt1 = run_relax(a, kind, /*periodic=*/false, /*threads=*/4);
    auto mt2 = run_relax(a, kind, /*periodic=*/false, /*threads=*/4);
    for (extent_t i = 0; i < serial.elem_count(); ++i) {
      ASSERT_EQ(mt1.at_linear(i), serial.at_linear(i))
          << backend_name(kind) << " " << i;
      ASSERT_EQ(mt2.at_linear(i), mt1.at_linear(i))
          << backend_name(kind) << " " << i;
    }
  }
}

TEST(BackendKernels, GatherRowPathsMatchPerPointEvaluation) {
  // Structural ops over concrete arrays ride the backend gather/scatter row
  // primitives; pure data movement must be bit-identical in every backend
  // and equal to the scalar per-point reference.
  std::mt19937_64 rng(75);
  for (int round = 0; round < 24; ++round) {
    const extent_t n0 = 2 + static_cast<extent_t>(round % 5);
    const Shape shp{n0 * 2, 6, random_length(rng) + 2};
    auto a = random_array(shp, 77 + static_cast<unsigned>(round));
    Array<double> ref_c, ref_s, ref_t, ref_e;
    {
      SacConfig cfg = config();
      cfg.backend = BackendKind::kScalar;
      ScopedConfig guard(cfg);
      ref_c = condense(2, a);
      ref_s = scatter(3, condense(2, a));
      ref_t = take({shp[0] / 2, 3, shp[2] / 2}, a);
      ref_e = embed(IndexVec{shp[0] + 3, shp[1] + 1, shp[2] + 5},
                    IndexVec{2, 1, 3}, a);
    }
    for (const BackendKind kind :
         {BackendKind::kSimd, BackendKind::kSimdPortable}) {
      SacConfig cfg = config();
      cfg.backend = kind;
      ScopedConfig guard(cfg);
      auto c = condense(2, a);
      auto s = scatter(3, condense(2, a));
      auto t = take({shp[0] / 2, 3, shp[2] / 2}, a);
      auto e = embed(IndexVec{shp[0] + 3, shp[1] + 1, shp[2] + 5},
                     IndexVec{2, 1, 3}, a);
      for (extent_t i = 0; i < ref_c.elem_count(); ++i) {
        ASSERT_EQ(c.at_linear(i), ref_c.at_linear(i)) << backend_name(kind);
      }
      for (extent_t i = 0; i < ref_s.elem_count(); ++i) {
        ASSERT_EQ(s.at_linear(i), ref_s.at_linear(i)) << backend_name(kind);
      }
      for (extent_t i = 0; i < ref_t.elem_count(); ++i) {
        ASSERT_EQ(t.at_linear(i), ref_t.at_linear(i)) << backend_name(kind);
      }
      for (extent_t i = 0; i < ref_e.elem_count(); ++i) {
        ASSERT_EQ(e.at_linear(i), ref_e.at_linear(i)) << backend_name(kind);
      }
    }
  }
}

TEST(BackendKernels, FusedRestrictionRowPathMatchesPerPointToTol) {
  // condense(2, stencil) under a vectorized backend runs the stencil's ROW
  // evaluator (planes association) where per-point evaluation groups by
  // class — equal to 1e-12, and bit-identical between the simd engines.
  const Shape shp{10, 10, 18};
  auto a = random_array(shp, 79);
  SacConfig cfg = config();
  cfg.stencil_mode = StencilMode::kPlanes;
  cfg.stencil_planes_cutover = 0;
  auto run = [&](BackendKind kind) {
    SacConfig c = cfg;
    c.backend = kind;
    ScopedConfig guard(c);
    return force(
        lazy_condense(2, StencilExpr(a, kTestCoeffs, StencilMode::kPlanes)));
  };
  auto scalar = run(BackendKind::kScalar);
  auto simd = run(BackendKind::kSimd);
  auto portable = run(BackendKind::kSimdPortable);
  for (extent_t i = 0; i < scalar.elem_count(); ++i) {
    ASSERT_NEAR(simd.at_linear(i), scalar.at_linear(i), 1e-12) << i;
    ASSERT_EQ(portable.at_linear(i), simd.at_linear(i)) << i;
  }
}

TEST(BackendFolds, WholeArrayFoldsAgreeAndSimdEnginesMatchExactly) {
  const Shape shp{12, 13, 21};
  auto r = random_array(shp, 83);
  auto run_ss = [&](BackendKind kind) {
    SacConfig cfg = config();
    cfg.backend = kind;
    ScopedConfig guard(cfg);
    return with_fold(std::plus<>{}, 0.0, r.shape(), gen_interior(r.shape()),
                     sum_sq_rows(r));
  };
  auto run_ma = [&](BackendKind kind) {
    SacConfig cfg = config();
    cfg.backend = kind;
    ScopedConfig guard(cfg);
    return max_abs(r);
  };
  const double ss_scalar = run_ss(BackendKind::kScalar);
  const double ss_simd = run_ss(BackendKind::kSimd);
  EXPECT_NEAR(ss_simd / ss_scalar, 1.0, 1e-12);
  EXPECT_EQ(run_ss(BackendKind::kSimdPortable), ss_simd);
  const double ma_scalar = run_ma(BackendKind::kScalar);
  EXPECT_EQ(run_ma(BackendKind::kSimd), ma_scalar);
  EXPECT_EQ(run_ma(BackendKind::kSimdPortable), ma_scalar);
}

TEST(BackendStats, SimdRowTallyCountsVectorizedRowsOnly) {
  const Shape shp{20, 20, 20};
  auto a = random_array(shp, 89);
  {
    SacConfig cfg = config();
    cfg.stencil_mode = StencilMode::kPlanes;
    cfg.stencil_planes_cutover = 0;
    cfg.backend = BackendKind::kScalar;
    ScopedConfig guard(cfg);
    reset_stats();
    (void)relax_kernel(a, kTestCoeffs, StencilMode::kPlanes);
    EXPECT_EQ(stats().backend_simd_rows, 0u);
  }
  {
    SacConfig cfg = config();
    cfg.stencil_mode = StencilMode::kPlanes;
    cfg.stencil_planes_cutover = 0;
    cfg.backend = BackendKind::kSimd;
    ScopedConfig guard(cfg);
    reset_stats();
    (void)relax_kernel(a, kTestCoeffs, StencilMode::kPlanes);
    EXPECT_GT(stats().backend_simd_rows, 0u);
  }
}

}  // namespace
}  // namespace sacpp::sac
