// Trace construction: the per-iteration region sequences must reflect the
// V-cycle geometry and the per-implementation execution properties.

#include <gtest/gtest.h>

#include <cmath>

#include "sacpp/machine/trace.hpp"

namespace sacpp::machine {
namespace {

const mg::MgSpec kSpecS = mg::MgSpec::for_class(mg::MgClass::S);

TEST(Trace, LowLevelRegionCountMatchesSchedule) {
  const Trace t = build_trace(mg::Variant::kFortran, kSpecS);
  // 5 levels: 4 rprj3+comm3 down, bottom zero+psinv+comm3, 4 up-legs
  // (3 with zero), final resid+comm3.
  int rprj3 = 0, resid = 0, psinv = 0, interp = 0;
  for (const auto& r : t.regions) {
    rprj3 += r.op == Op::kRprj3;
    resid += r.op == Op::kResid;
    psinv += r.op == Op::kPsinv;
    interp += r.op == Op::kInterp;
  }
  EXPECT_EQ(rprj3, 4);
  EXPECT_EQ(interp, 4);
  EXPECT_EQ(resid, 5);  // 4 up-leg + 1 final
  EXPECT_EQ(psinv, 5);  // bottom + 4 up-leg
}

TEST(Trace, FlopsDominatedByFinestLevel) {
  const Trace t = build_trace(mg::Variant::kFortran, kSpecS);
  double finest = 0.0;
  for (const auto& r : t.regions) {
    if (r.level == kSpecS.levels()) finest += r.flops;
  }
  EXPECT_GT(finest / t.total_flops(), 0.75);
}

TEST(Trace, OpenMpParallelisesEverySweep) {
  const Trace t = build_trace(mg::Variant::kOpenMp, kSpecS);
  for (const auto& r : t.regions) {
    if (r.op == Op::kComm3) continue;  // ghost exchange stays serial
    EXPECT_TRUE(r.parallel) << op_name(r.op) << " level " << r.level;
  }
  EXPECT_GT(t.parallel_flop_fraction(), 0.95);
}

TEST(Trace, AutoParallelisedFortranHasPartialCoverage) {
  const Trace t = build_trace(mg::Variant::kFortran, kSpecS);
  const double f = t.parallel_flop_fraction();
  EXPECT_GT(f, 0.5);
  EXPECT_LT(f, 0.95);  // rprj3/interp are not auto-parallelised
  for (const auto& r : t.regions) {
    if (r.op == Op::kRprj3 || r.op == Op::kInterp) {
      EXPECT_FALSE(r.parallel);
    }
  }
}

TEST(Trace, LowLevelImplementationsHaveNoAllocations) {
  for (auto v : {mg::Variant::kFortran, mg::Variant::kOpenMp}) {
    EXPECT_EQ(build_trace(v, kSpecS).total_alloc_events(), 0)
        << "static memory layout must not allocate";
  }
}

TEST(Trace, SacHasAllocationsOnEveryLevel) {
  const Trace t = build_trace(mg::Variant::kSac, kSpecS);
  EXPECT_GT(t.total_alloc_events(), 0);
  for (int k = 1; k <= kSpecS.levels(); ++k) {
    int allocs = 0;
    for (const auto& r : t.regions) {
      if (r.level == k) allocs += r.alloc_events;
    }
    EXPECT_GT(allocs, 0) << "level " << k;
  }
}

TEST(Trace, SacThresholdSerialisesSmallGrids) {
  TraceOptions opts;
  opts.sac_seq_threshold_elems = 4096.0;  // 16^3
  const Trace t = build_trace(mg::Variant::kSac, kSpecS, opts);
  for (const auto& r : t.regions) {
    if (r.elems < opts.sac_seq_threshold_elems) {
      EXPECT_FALSE(r.parallel)
          << op_name(r.op) << " with " << r.elems << " elems";
    } else {
      EXPECT_TRUE(r.parallel);
    }
  }
}

TEST(Trace, UnfoldedSacDoesMoreWorkThanFolded) {
  TraceOptions folded, unfolded;
  folded.sac_folding = true;
  unfolded.sac_folding = false;
  const Trace tf = build_trace(mg::Variant::kSac, kSpecS, folded);
  const Trace tu = build_trace(mg::Variant::kSac, kSpecS, unfolded);
  EXPECT_LT(tf.total_bytes(), tu.total_bytes());
  EXPECT_LE(tf.regions.size(), tu.regions.size());
  EXPECT_LT(tf.total_alloc_events(), tu.total_alloc_events());
}

TEST(Trace, SacMovesMoreMemoryThanFortran) {
  const Trace sac = build_trace(mg::Variant::kSac, kSpecS);
  const Trace f77 = build_trace(mg::Variant::kFortran, kSpecS);
  EXPECT_GT(sac.total_bytes(), f77.total_bytes());
}

TEST(Trace, WorkScalesWithGridVolume) {
  const Trace small = build_trace(mg::Variant::kFortran,
                                  mg::MgSpec::custom(32, 1));
  const Trace large = build_trace(mg::Variant::kFortran,
                                  mg::MgSpec::custom(64, 1));
  const double ratio = large.total_flops() / small.total_flops();
  EXPECT_NEAR(ratio, 8.0, 0.8);  // one refinement octuples the volume
}

TEST(Trace, PlanesOptionScalesOnlyLargeRelaxationSweeps) {
  TraceOptions opts;
  const Trace base = build_trace(mg::Variant::kSac, kSpecS, opts);
  opts.sac_planes = true;
  opts.sac_planes_cutover = 18.0;
  const Trace planes = build_trace(mg::Variant::kSac, kSpecS, opts);
  ASSERT_EQ(base.regions.size(), planes.regions.size());
  const double scale = opts.sac_planes_flop_scale;
  for (std::size_t i = 0; i < base.regions.size(); ++i) {
    const Region& b = base.regions[i];
    const Region& p = planes.regions[i];
    const bool relax = b.op == Op::kResid || b.op == Op::kPsinv;
    // The cutover compares the interior extent 2^level, ghosts excluded.
    const bool above = std::pow(2.0, b.level) >= opts.sac_planes_cutover;
    if (relax && above) {
      EXPECT_NEAR(p.flops, b.flops * scale, 1e-9) << op_name(b.op);
    } else {
      EXPECT_EQ(p.flops, b.flops) << op_name(b.op) << " level " << b.level;
    }
  }
  // The option genuinely engages somewhere and leaves the bottom alone.
  EXPECT_LT(planes.total_flops(), base.total_flops());
}

TEST(Trace, PlanesOptionOffByDefaultKeepsCalibratedTrace) {
  const Trace a = build_trace(mg::Variant::kSac, kSpecS);
  TraceOptions opts;  // defaults: sac_planes = false
  const Trace b = build_trace(mg::Variant::kSac, kSpecS, opts);
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (std::size_t i = 0; i < a.regions.size(); ++i) {
    EXPECT_EQ(a.regions[i].flops, b.regions[i].flops);
  }
}

TEST(Trace, OpNamesComplete) {
  EXPECT_STREQ(op_name(Op::kResid), "resid");
  EXPECT_STREQ(op_name(Op::kPsinv), "psinv");
  EXPECT_STREQ(op_name(Op::kRprj3), "rprj3");
  EXPECT_STREQ(op_name(Op::kInterp), "interp");
  EXPECT_STREQ(op_name(Op::kComm3), "comm3");
  EXPECT_STREQ(op_name(Op::kVecOp), "vecop");
  EXPECT_STREQ(op_name(Op::kZero), "zero");
}

}  // namespace
}  // namespace sacpp::machine
