#pragma once
// Runtime configuration of the SAC-style array system.
//
// sac2c applies its optimisations (with-loop folding, reference-counting
// memory reuse, with-loop scalarisation / index-vector elimination, implicit
// multithreading) at compile time.  In this embedded reproduction they are
// runtime-selectable strategies so that the ablation benchmarks (DESIGN.md
// D1-D4) can quantify each one's contribution.

#include <cstdint>
#include <string>

namespace sacpp::sac {

// Stencil evaluation strategy (stencil.hpp; docs/stencil.md).  Lives here —
// not in stencil.hpp — so SacConfig can carry the process-wide default
// without a circular include.
//  * kGrouped — sum the neighbours of each coefficient class first, then one
//    multiplication per class (4 mults / 26 adds for rank 3); sac2c reaches
//    this form implicitly, and it is the paper configuration's mode.
//  * kNaive — one multiply-add per stencil point (27 mults / 26 adds).
//  * kPlanes — the NPB Fortran hand optimisation: per-class row partial sums
//    shared between neighbouring output points (4 mults / ~16 adds with
//    reuse); the default.  Falls back to kGrouped arithmetic, evaluated on
//    grouped rows (bit for bit kGrouped), on grids whose interior extent is
//    below SacConfig::stencil_planes_cutover.
enum class StencilMode { kGrouped, kNaive, kPlanes };

// Canonical names used by SACPP_STENCIL_MODE / --stencil-mode / BENCH_mg.
const char* stencil_mode_name(StencilMode mode);

// Compute backend for the dense-rank-3 row primitives (backend.hpp;
// docs/backends.md).  Lives here — not in backend.hpp — so SacConfig can
// carry the process-wide default without a circular include.
//  * kScalar — today's element-at-a-time row loops, refactored behind the
//    Backend interface; the bit-exact reference every other backend is
//    pinned against.
//  * kSimd — the vectorized row engine: AVX-512 or AVX2 when the CPU has
//    it (runtime CPUID dispatch), otherwise a 4-wide portable fallback that
//    performs the same lane-structured arithmetic, so kSimd results are
//    bit-identical across hosts.
//  * kSimdPortable — the 4-wide portable fallback unconditionally, even on
//    AVX2 hardware.  Exists so CI can exercise the no-AVX2 path everywhere
//    and so the differential battery can pin AVX2 against it bit-for-bit.
//  * kJit — retired (the runtime code-generation engine was removed).  It
//    keeps wire index 3 so older serve peers still decode, and the name
//    "jit" still parses; both resolve to the kSimd engine with one
//    diagnostic per process (backend_for).
enum class BackendKind { kScalar, kSimd, kSimdPortable, kJit };

// Canonical names used by SACPP_BACKEND / --backend / BENCH_mg:
// "scalar" | "simd" | "simd-portable", plus the retired "jit".
const char* backend_name(BackendKind kind);

// The backend registry: every selectable kind, in wire-byte order (the
// serve protocol encodes BackendKind as this index).  CLI help text and
// error messages enumerate this instead of hard-coding names, so a new
// engine appears everywhere at once.  The retired kJit is not listed.
inline constexpr BackendKind kAllBackendKinds[] = {
    BackendKind::kScalar, BackendKind::kSimd, BackendKind::kSimdPortable};

// The canonical names of every registered backend joined with `sep`:
// backend_names() == "scalar | simd | simd-portable".
std::string backend_names(const char* sep = " | ");

struct SacConfig {
  // D1: with-loop folding.  When true, the high-level MG code composes lazy
  // array expressions that fuse into a single traversal; when false every
  // array-library operation materialises its result.
  bool folding = true;

  // D2: uniqueness-based in-place reuse.  When true, modarray and
  // element-wise updates steal the argument buffer if its reference count is
  // one (SAC's reference-counting reuse); when false every operation
  // allocates a fresh buffer.
  bool reuse = true;

  // D3: rank specialisation.  When true, dense rank-3 with-loops run through
  // an unrolled triple loop nest (modelling with-loop scalarisation and
  // index-vector elimination); when false everything goes through the
  // rank-generic odometer walker.
  bool specialize = true;

  // Implicit multithreading (SAC's MT backend).
  bool mt_enabled = false;

  // Number of worker threads when mt_enabled (0 = hardware concurrency).
  unsigned mt_threads = 0;

  // D4: sequential small-grid threshold: with-loops over fewer elements than
  // this run sequentially even when mt_enabled (the paper's
  // bottom-of-the-V-cycle analysis).
  std::int64_t mt_threshold = 4096;

  // sacpp_check verification passes (src/check): when true the array system
  // records buffer-ownership and parallel-region events for the runtime
  // checkers (docs/static_analysis.md).  Off the hot path when false: every
  // recording site is a single predictable branch.  The initial value comes
  // from the SACPP_CHECK environment variable.
  bool check = false;

  // Unified runtime telemetry (sacpp_obs; docs/observability.md): when true
  // the array system, thread pool, buffer pool, MG solvers and msg record
  // spans into per-thread ring buffers plus duration/size histograms, and
  // parallel regions feed the per-level busy/idle/imbalance aggregates.  Off
  // the hot path when false: every instrumentation point is one relaxed
  // atomic load and a predictable branch.  The canonical flag lives in
  // obs::set_enabled; this field mirrors it so ScopedConfig can save and
  // restore it — mutate it through set_obs() (or ScopedConfig), not by
  // direct field assignment.  The initial value comes from SACPP_OBS.
  bool obs = false;

  // Pooled buffer allocator (docs/memory.md): when true Buffer<T> serves
  // allocations from the size-class BufferPool instead of calling
  // std::aligned_alloc/std::free each time — the paper's Sec. 5/6
  // memory-management overhead on the small grids at the bottom of the
  // V-cycle.  Toggleable at any time (pool blocks are ordinary aligned
  // allocations).  SACPP_POOL=0 disables it at startup.
  bool pool = true;

  // Stencil evaluation strategy used when a call site does not pick one
  // explicitly (docs/stencil.md).  The default is the fast shared plane-sum
  // engine; the paper configuration (kGrouped, the association order the
  // machine model is calibrated against) stays one SACPP_STENCIL_MODE=grouped
  // or npb_mg --stencil-mode=grouped away.
  StencilMode stencil_mode = StencilMode::kPlanes;

  // Small-grid cutover for kPlanes: grids whose smallest interior extent
  // (ghost layers excluded, so grids with and without ghosts agree) is
  // below this fall back to the kGrouped tree, run on grouped rows — at the
  // bottom of the V-cycle the row scratch setup costs more than the
  // additions it saves (the same small-grid economics as mt_threshold / the pool's role
  // on small levels, docs/memory.md).  The MG levels have interior extent
  // 2, 4, 8, 16, 32, 64, ...; 18 keeps every level up to 16^3 on grouped
  // rows.
  std::int64_t stencil_planes_cutover = 18;

  // Compute backend for the dense-rank-3 row primitives (docs/backends.md).
  // The default is the widest vector engine the CPU has; kScalar, the
  // historical element order of the paper configuration, stays one
  // SACPP_BACKEND=scalar or npb_mg --backend=scalar away.  Element-parallel
  // rows (fills, stencil plane sums/combines, gathers) are bit-identical
  // across backends; only the row folds (L2 / max-abs norms) reassociate,
  // in a fixed lane order.
  BackendKind backend = BackendKind::kSimd;
};

// Process-global configuration used by all with-loop executions.
SacConfig& config();

namespace detail {
// Per-thread configuration override (see ConfigBinding).  Read on every hot
// path through active_config(); nullptr means "use the process global".
// constinit tells every reader that the variable needs no dynamic
// initialisation, so reads are plain TLS loads rather than calls through
// the compiler's TLS init wrapper (whose weak, possibly null init hook
// UBSan flags in optimised builds).
extern thread_local constinit const SacConfig* tl_config;
}  // namespace detail

// The configuration governing work on the calling thread: the thread's bound
// per-job snapshot when one is installed, the process global otherwise.
// Every optimisation/strategy decision in the array system reads this — not
// config() directly — so concurrent solves with different knobs (stencil
// mode, pool, MT) cannot bleed into each other (docs/serve.md).  The MT
// runtime propagates the coordinator's binding to its workers for the
// duration of each parallel region.
inline const SacConfig& active_config() noexcept {
  const SacConfig* bound = detail::tl_config;
  return bound != nullptr ? *bound : config();
}

// RAII: bind a per-job configuration snapshot to the calling thread.  The
// snapshot must outlive the binding (the serve executors keep it in the job
// frame).  Bindings nest; destruction restores the previous binding.  Unlike
// ScopedConfig this touches no global state, so any number of threads can
// hold different bindings concurrently.
class ConfigBinding {
 public:
  explicit ConfigBinding(const SacConfig* cfg) noexcept
      : prev_(detail::tl_config) {
    detail::tl_config = cfg;
  }
  ~ConfigBinding() { detail::tl_config = prev_; }
  ConfigBinding(const ConfigBinding&) = delete;
  ConfigBinding& operator=(const ConfigBinding&) = delete;

 private:
  const SacConfig* prev_;
};

// The configuration a fresh process starts from: defaults plus environment
// overrides (SACPP_CHECK=1 enables the verification passes, SACPP_POOL=0/1
// disables/enables the pooled allocator, SACPP_OBS=1 enables telemetry,
// SACPP_STENCIL_MODE=grouped|naive|planes selects the stencil strategy).
// Exposed so tests can exercise the environment parsing directly.
SacConfig config_from_env();

// Parse a stencil mode name ("grouped" | "naive" | "planes").  Returns false
// (leaving `out` untouched) on anything else.
bool parse_stencil_mode(const char* name, StencilMode* out);

// Parse a backend name (any entry of backend_names(), or the retired
// "jit").  Returns false (leaving `out` untouched) on anything else.
bool parse_backend(const char* name, BackendKind* out);

// Toggle telemetry recording: sets both SacConfig::obs and the obs layer's
// own flag (the one instrumentation points actually test).
void set_obs(bool on);

// RAII override of the global configuration (restores on destruction).
// Used by tests and ablation benches to run the same code under different
// optimisation settings.
class ScopedConfig {
 public:
  explicit ScopedConfig(const SacConfig& cfg);
  ~ScopedConfig();
  ScopedConfig(const ScopedConfig&) = delete;
  ScopedConfig& operator=(const ScopedConfig&) = delete;

 private:
  SacConfig saved_;
};

}  // namespace sacpp::sac
