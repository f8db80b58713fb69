#pragma once
// Black-box flight recorder: snapshot the recent telemetry state to a
// post-mortem file when something goes wrong — a crash (signal handler), a
// deadline miss, or a drain timeout.
//
// The always-on per-thread span rings double as the black box: they hold the
// last N spans per thread whether or not anything is exporting, so a dump
// taken at failure time shows what the process was doing just before.  The
// dump also embeds the retained-trace store (trace.hpp) and the state of any
// registered providers (admission-queue depths, gang-pool occupancy, the
// lock-registry graph, ... — higher layers register these; obs never links
// upward, mirroring the metric-collector pattern).
//
// Signal-handler dumps are best-effort: the writer allocates and takes
// registry locks, which is not async-signal-safe in the strict sense.  For a
// crash that corrupted those structures the dump may be lost — acceptable
// for a post-mortem aid, and the common failure modes (stuck drain, missed
// deadline, assertion abort) dump from healthy contexts.

#include <cstdint>
#include <functional>
#include <string>

namespace sacpp::obs {

// Set (or clear, with "") the dump file path.  Thread-safe; the path is read
// at each dump.
void flight_configure(const std::string& path);
std::string flight_path();

// Register a named state provider.  The returned string is embedded verbatim
// as a JSON value under "state", so providers emit their own JSON (object,
// array, or quoted string).  Process-lifetime, like metric collectors.
void flight_register_provider(const std::string& name,
                              std::function<std::string()> fn);

// Write a snapshot (reason, per-thread recent spans, retained traces,
// provider state) to the configured path, overwriting any previous dump.
// Returns false when no path is configured or the write failed.  Dumps are
// rate-limited to one per second unless `force`, so a storm of deadline
// misses keeps the newest snapshot instead of thrashing the disk.
bool flight_dump(const char* reason, bool force = false);

// The clock, in ns, that the dump rate limit reads (obs::now_ns by
// default; nullptr restores it).  Lets tests step time instead of relying
// on two calls landing inside one real second.
void flight_set_clock(std::int64_t (*now)());

// Install best-effort SIGSEGV / SIGABRT / SIGFPE handlers that dump and then
// re-raise the default disposition.  Idempotent.
void flight_install_signal_handlers();

std::uint64_t flight_dump_count();

}  // namespace sacpp::obs
