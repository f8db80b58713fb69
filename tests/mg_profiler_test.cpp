// The per-level profiler: accumulation, enable/disable cost gating, and
// the exclusive-per-level accounting inside the recursive V-cycle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sacpp/mg/driver.hpp"
#include "sacpp/mg/mg_ref.hpp"
#include "sacpp/mg/profiler.hpp"
#include "sacpp/obs/obs.hpp"
#include "sacpp/sac/config.hpp"

namespace sacpp::mg {
namespace {

class ProfilerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    LevelProfiler::instance().reset();
    LevelProfiler::instance().enable(false);
  }
  void TearDown() override {
    LevelProfiler::instance().reset();
    LevelProfiler::instance().enable(false);
  }
};

TEST_F(ProfilerFixture, DisabledRecordsNothing) {
  {
    LevelScope scope(3);
  }
  EXPECT_TRUE(LevelProfiler::instance().entries().empty());
  EXPECT_DOUBLE_EQ(LevelProfiler::instance().total_seconds(), 0.0);
}

TEST_F(ProfilerFixture, EnabledAccumulatesPerLevel) {
  LevelProfiler::instance().enable(true);
  { LevelScope scope(2); }
  { LevelScope scope(2); }
  { LevelScope scope(5); }
  const auto entries = LevelProfiler::instance().entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].level, 2);
  EXPECT_EQ(entries[0].count, 2u);
  EXPECT_EQ(entries[1].level, 5);
  EXPECT_EQ(entries[1].count, 1u);
  EXPECT_GE(LevelProfiler::instance().total_seconds(), 0.0);
}

TEST_F(ProfilerFixture, RecordAddsTime) {
  LevelProfiler::instance().record(4, 1.5);
  LevelProfiler::instance().record(4, 0.5);
  EXPECT_DOUBLE_EQ(LevelProfiler::instance().total_seconds(), 2.0);
  const auto entries = LevelProfiler::instance().entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_DOUBLE_EQ(entries[0].seconds, 2.0);
}

TEST_F(ProfilerFixture, MgRunVisitsEveryLevelTheRightNumberOfTimes) {
  LevelProfiler::instance().enable(true);
  const MgSpec spec = MgSpec::custom(16, 2);  // 4 levels
  MgRef solver(spec);
  solver.setup_default_rhs();
  solver.zero_u();
  solver.initial_resid();
  solver.iterate(2);
  const auto entries = LevelProfiler::instance().entries();
  ASSERT_EQ(entries.size(), 4u);
  for (const auto& e : entries) {
    // each mg3p touches every level twice (restriction down-leg plus the
    // up-leg / top block) except the coarsest (bottom smooth only); the
    // iteration-ending residual lies outside the profiled mg3p scopes.
    // With 2 iterations: coarsest 2 visits, every other level 4.
    if (e.level == 1) {
      EXPECT_EQ(e.count, 2u) << "level " << e.level;
    } else {
      EXPECT_EQ(e.count, 4u) << "level " << e.level;
    }
  }
}

TEST_F(ProfilerFixture, SacVCycleExcludesRecursionFromEachLevel) {
  // Exclusive accounting, checked without comparing durations: every level
  // above the coarsest opens one scope on the way down and one on the way
  // up, so one V-cycle visits it twice; and because the recursive call runs
  // between those scopes, no level span overlaps another.  A scope held
  // across the recursion either merges the two visits or nests the coarser
  // spans inside the finer one, and fails one of the two checks.
  LevelProfiler::instance().enable(true);
  const bool obs_was_on = sac::config().obs;
  sac::set_obs(true);
  obs::reset();
  const MgSpec spec = MgSpec::custom(16, 1);
  RunOptions opts;
  opts.warmup = false;
  opts.record_norms = false;
  (void)run_benchmark(Variant::kSac, spec, opts);
  sac::set_obs(obs_was_on);

  const auto entries = LevelProfiler::instance().entries();
  ASSERT_EQ(entries.size(), static_cast<std::size_t>(spec.levels()));
  std::uint64_t visits = 0;
  for (const auto& e : entries) {
    EXPECT_EQ(e.count, e.level == 1 ? 1u : 2u) << "level " << e.level;
    visits += e.count;
  }

  std::vector<obs::SpanRecord> spans;
  for (const obs::ThreadSpans& t : obs::snapshot_spans()) {
    for (const obs::SpanRecord& r : t.spans) {
      if (r.kind == obs::SpanKind::kLevel) spans.push_back(r);
    }
  }
  ASSERT_EQ(spans.size(), visits);
  std::sort(spans.begin(), spans.end(),
            [](const obs::SpanRecord& x, const obs::SpanRecord& y) {
              return x.start_ns < y.start_ns;
            });
  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_LE(spans[i - 1].start_ns + spans[i - 1].dur_ns, spans[i].start_ns)
        << "level " << spans[i - 1].arg << " span contains level "
        << spans[i].arg;
  }
}

}  // namespace
}  // namespace sacpp::mg
