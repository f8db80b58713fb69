#pragma once
// sacpp_serve job model: what a solve request and its outcome look like.
//
// The serving subsystem (docs/serve.md) turns the single-shot MG stack into
// a multi-tenant engine: callers describe a solve declaratively
// (class, variant, iteration count, deadline, priority, thread gang) and
// receive a SolveResult asynchronously.  Requests are plain value types so
// they can cross any transport — the in-process submit() path, the
// length-prefixed wire framing (wire.hpp) over a socket, or the msg::World
// SPMD substrate — without translation.

#include <cstdint>
#include <string>

#include "sacpp/mg/driver.hpp"
#include "sacpp/mg/spec.hpp"
#include "sacpp/sac/config.hpp"

namespace sacpp::serve {

// Scheduling priority lanes, highest first.  The admission queue keeps one
// FIFO lane per priority; under overload, low lanes are evicted first.
enum class Priority : std::uint8_t { kHigh = 0, kNormal = 1, kLow = 2 };
inline constexpr int kPriorityLanes = 3;

const char* priority_name(Priority p) noexcept;

// One solve to perform.  All fields are caller-settable knobs; everything a
// job needs from the runtime (pool, stencil engine, MT) is captured into a
// per-job SacConfig snapshot at dispatch, so two in-flight requests with
// different knobs cannot bleed into each other.
struct SolveRequest {
  std::uint64_t id = 0;     // caller correlation id (echoed in the result)
  mg::MgClass cls = mg::MgClass::S;
  mg::Variant variant = mg::Variant::kSacDirect;
  std::uint32_t nit = 0;    // benchmark iterations; 0 = class default
  Priority priority = Priority::kNormal;
  // Stencil engine and row-primitive engine: the process defaults, taken
  // from SacConfig{} so a request and a local run start from the same path.
  sac::StencilMode stencil_mode = sac::SacConfig{}.stencil_mode;
  sac::BackendKind backend = sac::SacConfig{}.backend;
  std::uint32_t gang = 0;   // worker threads wanted; 0 = scheduler policy
  std::int64_t deadline_ns = 0;  // latency budget from submit; 0 = none
  bool record_norms = false;     // per-iteration norms (costs a resid pass)
  // Request trace context (obs/trace.hpp; wire v3).  trace_id 0 = untraced.
  std::uint64_t trace_id = 0;
  std::uint64_t trace_parent = 0;  // client-side root span id
  std::uint8_t trace_flags = 0;    // obs::kTraceSampled / kTraceForced
};

// How a request ended.
enum class SolveStatus : std::uint8_t {
  kOk = 0,         // solved; verification passed or class has no reference
  kWrongAnswer,    // solved but the recorded class norm did not match
  kShedDeadline,   // dropped before dispatch: deadline expired in the queue
  kShedCapacity,   // dropped: queue full / evicted by priority / stopped
  kDeadlineMiss,   // solved, but completed after its deadline
  kError,          // the solver threw (diagnostic in `error`)
};

const char* solve_status_name(SolveStatus s) noexcept;

// True for the statuses that carry a finished solve (kOk / kWrongAnswer /
// kDeadlineMiss): final_norm and seconds are meaningful.
bool solve_completed(SolveStatus s) noexcept;

struct SolveResult {
  std::uint64_t id = 0;
  SolveStatus status = SolveStatus::kError;
  double final_norm = 0.0;   // rnm2 after the last iteration
  double seconds = 0.0;      // solver wall time (timed section only)
  std::int64_t queue_ns = 0; // admission -> dispatch
  std::int64_t e2e_ns = 0;   // submit -> completion
  std::uint32_t gang = 0;    // worker threads actually granted
  bool verified = false;     // matched the recorded class norm
  std::string error;         // kError diagnostic (empty otherwise)
  std::uint64_t trace_id = 0;  // echoed request trace id (wire v3)
};

}  // namespace sacpp::serve
