// Flight recorder: dump gating (no path / rate limit / force), snapshot
// content (reason, per-thread spans, retained traces, provider state), and
// the dump counter.  Signal-handler installation is exercised only for
// idempotence — actually crashing belongs to the CI telemetry job.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sacpp/obs/flight.hpp"
#include "sacpp/obs/obs.hpp"
#include "sacpp/obs/trace.hpp"

namespace sacpp::obs {
namespace {

std::string unique_dump_path(const char* test) {
  return testing::TempDir() + "sacpp_flight_" + test + ".json";
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream out;
  out << f.rdbuf();
  return out.str();
}

TEST(FlightRecorder, NoConfiguredPathMeansNoDump) {
  flight_configure("");
  EXPECT_EQ(flight_path(), "");
  EXPECT_FALSE(flight_dump("unit-test", /*force=*/true));
}

TEST(FlightRecorder, DumpEmbedsSpansTracesAndProviderState) {
  set_enabled(false);
  reset();
  clear_retained_traces();

  // One stamped span promoted into the retained store, so the dump carries
  // both the black-box ring view and the trace store view of it.
  set_enabled(true);
  const std::uint64_t id = mint_trace_id();
  {
    TraceBinding bind({id, 0, kTraceForced});
    record_span(SpanKind::kPhase, "flight_probe_span", 10, 5);
  }
  set_enabled(false);
  TraceMeta meta;
  meta.trace_id = id;
  meta.reason = RetainReason::kFlagged;
  meta.status = "ok";
  ASSERT_TRUE(retain_trace(meta));

  // Providers are process-lifetime, so give this one a test-unique name.
  flight_register_provider("flight_test_probe",
                           [] { return std::string("{\"answer\":42}"); });

  const std::string path = unique_dump_path("content");
  flight_configure(path);
  const std::uint64_t dumps_before = flight_dump_count();
  ASSERT_TRUE(flight_dump("unit-test-reason", /*force=*/true));
  EXPECT_EQ(flight_dump_count(), dumps_before + 1);
  flight_configure("");

  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"reason\":\"unit-test-reason\""), std::string::npos);
  EXPECT_NE(json.find("flight_probe_span"), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":\"" + std::to_string(id) + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"flight_test_probe\":{\"answer\":42}"),
            std::string::npos);
  EXPECT_NE(json.find("\"threads\":["), std::string::npos);

  reset();
  clear_retained_traces();
}

// The rate limit reads this stepped clock, not the wall clock.
std::int64_t g_fake_now_ns = 0;

TEST(FlightRecorder, DumpsAreRateLimitedUnlessForced) {
  const std::string path = unique_dump_path("ratelimit");
  flight_configure(path);
  flight_set_clock([] { return g_fake_now_ns; });
  g_fake_now_ns = 5'000'000'000;
  ASSERT_TRUE(flight_dump("first", /*force=*/true));
  // Within the 1s window an unforced dump is suppressed (a storm of
  // deadline misses must not thrash the disk) ...
  g_fake_now_ns += 999'999'999;
  EXPECT_FALSE(flight_dump("suppressed"));
  // ... but an operator-forced dump still lands, and refreshes the file.
  ASSERT_TRUE(flight_dump("forced-second", /*force=*/true));
  EXPECT_NE(slurp(path).find("\"reason\":\"forced-second\""),
            std::string::npos);
  // The forced dump restarted the window; once it has passed, an unforced
  // dump lands again.
  g_fake_now_ns += 999'999'999;
  EXPECT_FALSE(flight_dump("still-suppressed"));
  g_fake_now_ns += 1;
  ASSERT_TRUE(flight_dump("after-window"));
  EXPECT_NE(slurp(path).find("\"reason\":\"after-window\""),
            std::string::npos);
  flight_set_clock(nullptr);
  flight_configure("");
}

TEST(FlightRecorder, ProviderExceptionsAreContained) {
  flight_register_provider("flight_test_thrower",
                           []() -> std::string { throw std::runtime_error("boom"); });
  const std::string path = unique_dump_path("thrower");
  flight_configure(path);
  ASSERT_TRUE(flight_dump("provider-threw", /*force=*/true));
  flight_configure("");
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"flight_test_thrower\":\"<provider threw>\""),
            std::string::npos)
      << json;
}

TEST(FlightRecorder, SignalHandlerInstallIsIdempotent) {
  flight_install_signal_handlers();
  flight_install_signal_handlers();  // second call must be a no-op
}

}  // namespace
}  // namespace sacpp::obs
