// Multigrid convergence behaviour: the V-cycle must contract the residual
// at a grid-size-independent rate (the defining property of multigrid), and
// the benchmark classes must reproduce their verification norms.

#include <gtest/gtest.h>

#include <cmath>

#include "sacpp/mg/driver.hpp"
#include "sacpp/mg/mg_ref.hpp"

namespace sacpp::mg {
namespace {

std::vector<double> norms_for(extent_t nx, int nit) {
  MgRef solver(MgSpec::custom(nx, nit));
  solver.setup_default_rhs();
  solver.zero_u();
  solver.initial_resid();
  std::vector<double> norms{solver.residual_norm()};
  for (int it = 0; it < nit; ++it) {
    solver.iterate(1);
    norms.push_back(solver.residual_norm());
  }
  return norms;
}

TEST(Convergence, ResidualDecreasesMonotonically) {
  const auto norms = norms_for(32, 4);
  for (std::size_t i = 1; i < norms.size(); ++i) {
    ASSERT_LT(norms[i], norms[i - 1]) << "iteration " << i;
  }
}

TEST(Convergence, ContractionFactorIsMultigridLike) {
  // Each V-cycle should shrink the residual by a large, roughly constant
  // factor (NPB MG contracts by tens per iteration).
  const auto norms = norms_for(32, 4);
  for (std::size_t i = 1; i < norms.size(); ++i) {
    const double factor = norms[i - 1] / norms[i];
    ASSERT_GT(factor, 3.0) << "weak contraction at iteration " << i;
    ASSERT_LT(factor, 1e4) << "implausible contraction at iteration " << i;
  }
}

TEST(Convergence, RateIsGridSizeIndependent) {
  // The multigrid promise: the contraction factor of the first iteration
  // does not degrade as the grid is refined.
  double prev_factor = 0.0;
  for (extent_t nx : {16, 32, 64}) {
    const auto norms = norms_for(nx, 1);
    const double factor = norms[0] / norms[1];
    if (prev_factor > 0.0) {
      EXPECT_GT(factor, prev_factor * 0.3)
          << "contraction collapsed between grid sizes at nx=" << nx;
    }
    prev_factor = factor;
  }
}

TEST(Convergence, ClassSVerificationValue) {
  // Regenerated class S reference value; also exactly the official NPB 2.3
  // verification constant 0.530770700573e-04 (our kernels reproduce the
  // benchmark definition bit-compatibly at this size).
  MgRef solver(MgSpec::for_class(MgClass::S));
  solver.setup_default_rhs();
  solver.zero_u();
  solver.initial_resid();
  solver.iterate(4);
  EXPECT_NEAR(solver.residual_norm(), 0.530770700573e-04, 1e-14);
}

TEST(Convergence, InitialNormMatchesChargeCount) {
  // Before any iteration r == v: twenty unit charges on nx^3 points.
  const extent_t nx = 32;
  MgRef solver(MgSpec::custom(nx, 1));
  solver.setup_default_rhs();
  solver.zero_u();
  solver.initial_resid();
  const double expect =
      std::sqrt(20.0 / (static_cast<double>(nx) * nx * nx));
  EXPECT_NEAR(solver.residual_norm(), expect, 1e-12);
}

TEST(Convergence, MoreIterationsNeverWorse) {
  const auto four = norms_for(16, 4);
  const auto eight = norms_for(16, 8);
  EXPECT_LT(eight.back(), four.back());
}

TEST(Convergence, SmootherCoefficientsBMatter) {
  // The class-B smoother is a different operator; same grid, different
  // final norm (guards against the smoother coefficients being ignored).
  MgRef a(MgSpec::custom(16, 2, /*class_b_smoother=*/false));
  MgRef b(MgSpec::custom(16, 2, /*class_b_smoother=*/true));
  for (MgRef* s : {&a, &b}) {
    s->setup_default_rhs();
    s->zero_u();
    s->initial_resid();
    s->iterate(2);
  }
  EXPECT_NE(a.residual_norm(), b.residual_norm());
  // both still converge (S(b) contracts slower on small grids)
  EXPECT_LT(a.residual_norm(), 5e-2);
  EXPECT_LT(b.residual_norm(), 5e-2);
}

TEST(Verification, ClassSAllVariantsSuccessful) {
  const MgSpec spec = MgSpec::for_class(MgClass::S);
  RunOptions opts;
  opts.warmup = false;
  for (auto v : {Variant::kSac, Variant::kFortran, Variant::kOpenMp,
                 Variant::kSacDirect}) {
    const MgResult res = run_benchmark(v, spec, opts);
    bool known = false;
    EXPECT_TRUE(verify(res, spec, &known)) << variant_name(v);
    EXPECT_TRUE(known);
  }
}

TEST(Verification, ReferenceNormsRecordedForStandardClasses) {
  double ref = 0.0;
  ASSERT_TRUE(reference_norm(MgSpec::for_class(MgClass::S), &ref));
  // classes S, A, B equal the official NPB 2.3 verification constants
  EXPECT_NEAR(ref, 0.5307707005734e-04, 1e-15);
  ASSERT_TRUE(reference_norm(MgSpec::for_class(MgClass::A), &ref));
  EXPECT_NEAR(ref, 0.2433365309e-05, 1e-14);
  ASSERT_TRUE(reference_norm(MgSpec::for_class(MgClass::B), &ref));
  EXPECT_NEAR(ref, 0.180056440132e-05, 1e-14);
  ASSERT_TRUE(reference_norm(MgSpec::for_class(MgClass::W), &ref));
  EXPECT_FALSE(reference_norm(MgSpec::custom(16, 2), &ref));
}

TEST(Verification, ClassWVerifiesAtTheRoundingFloor) {
  // 40 iterations reach the round-off floor; reordered arithmetic lands at
  // a slightly different noise norm, which must still verify by magnitude.
  const MgSpec spec = MgSpec::for_class(MgClass::W);
  MgResult res;
  res.final_norm = 3.2e-18;  // a SAC-ordered run's typical floor value
  res.variant = Variant::kSac;
  bool known = false;
  EXPECT_TRUE(verify(res, spec, &known));
  EXPECT_TRUE(known);
  res.final_norm = 1e-12;  // three orders off: stalled convergence
  EXPECT_FALSE(verify(res, spec, &known));
}

TEST(Verification, CorruptedResultFailsVerification) {
  const MgSpec spec = MgSpec::for_class(MgClass::S);
  RunOptions opts;
  opts.warmup = false;
  MgResult res = run_benchmark(Variant::kFortran, spec, opts);
  res.final_norm *= 1.0 + 1e-6;  // outside the 1e-8 tolerance
  bool known = false;
  EXPECT_FALSE(verify(res, spec, &known));
  EXPECT_TRUE(known);
}

TEST(Verification, NpbReportContainsVerdict) {
  const MgSpec spec = MgSpec::for_class(MgClass::S);
  RunOptions opts;
  opts.warmup = false;
  const MgResult res = run_benchmark(Variant::kFortran, spec, opts);
  const std::string report = npb_report(res, spec);
  EXPECT_NE(report.find("SUCCESSFUL"), std::string::npos);
  EXPECT_NE(report.find("Class               = S"), std::string::npos);
  EXPECT_NE(report.find("Fortran-77"), std::string::npos);
}

// Microseconds: two decimals would quantise a 0.13 s class-W run by 7%.
TEST(Verification, NpbReportTimesAtMicrosecondResolution) {
  MgResult res;
  res.variant = Variant::kFortran;
  res.seconds = 0.1234567;
  const std::string report = npb_report(res, MgSpec::for_class(MgClass::S));
  EXPECT_NE(report.find(" Time in seconds     = 0.123457\n"),
            std::string::npos)
      << report;
}

TEST(Spec, ClassGeometry) {
  EXPECT_EQ(MgSpec::for_class(MgClass::S).nx, 32);
  EXPECT_EQ(MgSpec::for_class(MgClass::S).nit, 4);
  EXPECT_EQ(MgSpec::for_class(MgClass::W).nx, 64);
  EXPECT_EQ(MgSpec::for_class(MgClass::W).nit, 40);
  EXPECT_EQ(MgSpec::for_class(MgClass::A).nx, 256);
  EXPECT_EQ(MgSpec::for_class(MgClass::A).nit, 4);
  EXPECT_EQ(MgSpec::for_class(MgClass::B).nx, 256);
  EXPECT_EQ(MgSpec::for_class(MgClass::B).nit, 20);
}

TEST(Spec, LevelsAndExtents) {
  const MgSpec s = MgSpec::for_class(MgClass::S);
  EXPECT_EQ(s.levels(), 5);
  EXPECT_EQ(s.extended_extent(5), 34);
  EXPECT_EQ(s.extended_extent(1), 4);
  EXPECT_THROW(s.extended_extent(0), ContractError);
  EXPECT_THROW(s.extended_extent(6), ContractError);
}

TEST(Spec, SmootherSelectionByClass) {
  EXPECT_DOUBLE_EQ(MgSpec::for_class(MgClass::A).s[0], -3.0 / 8.0);
  EXPECT_DOUBLE_EQ(MgSpec::for_class(MgClass::B).s[0], -3.0 / 17.0);
}

TEST(Spec, ParseClassAndName) {
  EXPECT_EQ(parse_class("A"), MgClass::A);
  EXPECT_EQ(parse_class("w"), MgClass::W);
  EXPECT_THROW(parse_class("X"), ContractError);
  EXPECT_THROW(parse_class("AB"), ContractError);
  EXPECT_EQ(MgSpec::for_class(MgClass::W).name(), "W");
  EXPECT_EQ(MgSpec::custom(16, 2).name(), "custom(16^3 x 2)");
}

TEST(Driver, NominalFlopsFormula) {
  const MgSpec s = MgSpec::for_class(MgClass::S);
  EXPECT_DOUBLE_EQ(nominal_flops(s), 58.0 * 32768.0 * 4.0);
}

TEST(Driver, VariantNamesRoundTrip) {
  EXPECT_EQ(parse_variant("sac"), Variant::kSac);
  EXPECT_EQ(parse_variant("f77"), Variant::kFortran);
  EXPECT_EQ(parse_variant("omp"), Variant::kOpenMp);
  EXPECT_THROW(parse_variant("pascal"), ContractError);
  EXPECT_STREQ(variant_name(Variant::kSac), "SAC");
}

}  // namespace
}  // namespace sacpp::mg
