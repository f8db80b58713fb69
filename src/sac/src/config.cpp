#include "sacpp/sac/config.hpp"

#include <cstdlib>
#include <cstring>

#include "sacpp/obs/export.hpp"
#include "sacpp/obs/obs.hpp"
#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/pool.hpp"
#include "sacpp/sac/stats.hpp"

namespace sacpp::sac {

const char* stencil_mode_name(StencilMode mode) {
  switch (mode) {
    case StencilMode::kGrouped: return "grouped";
    case StencilMode::kNaive: return "naive";
    case StencilMode::kPlanes: return "planes";
  }
  return "grouped";
}

bool parse_stencil_mode(const char* name, StencilMode* out) {
  if (name == nullptr || out == nullptr) return false;
  if (std::strcmp(name, "grouped") == 0) {
    *out = StencilMode::kGrouped;
  } else if (std::strcmp(name, "naive") == 0) {
    *out = StencilMode::kNaive;
  } else if (std::strcmp(name, "planes") == 0) {
    *out = StencilMode::kPlanes;
  } else {
    return false;
  }
  return true;
}

const char* backend_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::kScalar: return "scalar";
    case BackendKind::kSimd: return "simd";
    case BackendKind::kSimdPortable: return "simd-portable";
    case BackendKind::kJit: return "jit";
  }
  return "scalar";
}

// Parsing walks the registry rather than repeating the strings, so the
// accepted set, the canonical names and the CLI help text cannot drift.
// The retired "jit" also parses; backend_for maps it to kSimd.
bool parse_backend(const char* name, BackendKind* out) {
  if (name == nullptr || out == nullptr) return false;
  for (BackendKind kind : kAllBackendKinds) {
    if (std::strcmp(name, backend_name(kind)) == 0) {
      *out = kind;
      return true;
    }
  }
  if (std::strcmp(name, backend_name(BackendKind::kJit)) == 0) {
    *out = BackendKind::kJit;
    return true;
  }
  return false;
}

std::string backend_names(const char* sep) {
  std::string joined;
  for (BackendKind kind : kAllBackendKinds) {
    if (!joined.empty()) joined += sep;
    joined += backend_name(kind);
  }
  return joined;
}

SacConfig config_from_env() {
  SacConfig cfg;
  const char* check = std::getenv("SACPP_CHECK");
  cfg.check = check != nullptr && check[0] != '\0' && check[0] != '0';
  const char* pool = std::getenv("SACPP_POOL");
  if (pool != nullptr && pool[0] != '\0') cfg.pool = pool[0] != '0';
  const char* obs = std::getenv("SACPP_OBS");
  cfg.obs = obs != nullptr && obs[0] != '\0' && obs[0] != '0';
  // Unknown values are ignored rather than fatal: a stale SACPP_STENCIL_MODE
  // must not break every binary in the tree.
  const char* mode = std::getenv("SACPP_STENCIL_MODE");
  if (mode != nullptr) parse_stencil_mode(mode, &cfg.stencil_mode);
  const char* backend = std::getenv("SACPP_BACKEND");
  if (backend != nullptr) parse_backend(backend, &cfg.backend);
  return cfg;
}

namespace {

// RuntimeStats and pool totals in the sacpp_obs metrics dump — registered
// once, on first config() use, so every binary that touches the array system
// exports the same counter set (the "one source of truth" for what npb_mg
// used to print ad hoc).
void collect_stats(obs::MetricSink& sink) {
  const RuntimeStats& st = stats();
  sink.counter("sacpp_allocations_total",
               static_cast<double>(st.allocations), "fresh buffers allocated");
  sink.counter("sacpp_releases_total", static_cast<double>(st.releases),
               "buffers freed (refcount reached 0)");
  sink.counter("sacpp_bytes_allocated_total",
               static_cast<double>(st.bytes_allocated),
               "total bytes of fresh buffers");
  sink.counter("sacpp_reuses_total", static_cast<double>(st.reuses),
               "buffers stolen via uniqueness reuse");
  sink.counter("sacpp_copies_on_write_total",
               static_cast<double>(st.copies_on_write),
               "deep copies forced by shared buffers");
  sink.counter("sacpp_with_loops_total", static_cast<double>(st.with_loops),
               "with-loop executions");
  sink.counter("sacpp_elements_total", static_cast<double>(st.elements),
               "generator elements processed");
  sink.counter("sacpp_parallel_regions_total",
               static_cast<double>(st.parallel_regions),
               "with-loops run multithreaded");
  sink.counter("sacpp_pool_hits_total", static_cast<double>(st.pool_hits),
               "buffers served from the BufferPool");
  sink.counter("sacpp_pool_misses_total",
               static_cast<double>(st.pool_misses),
               "pooled allocations that fell through to malloc");
  sink.counter("sacpp_pool_returns_total",
               static_cast<double>(st.pool_returns),
               "buffers recycled into the pool");
  sink.counter("sacpp_stencil_rows_reused_total",
               static_cast<double>(st.stencil_rows_reused),
               "output rows computed via the kPlanes shared plane-sum path");
  sink.counter("sacpp_stencil_rows_grouped_total",
               static_cast<double>(st.stencil_rows_grouped),
               "output rows computed via the kPlanes grouped rows");
  sink.counter("sacpp_backend_simd_rows_total",
               static_cast<double>(st.backend_simd_rows),
               "rows dispatched through a vectorized backend row primitive");
  // Which row engine the process-wide default resolves to right now: the
  // vector width (1 = scalar, 4 = simd), so dashboards can tell a scalar
  // serving fleet from a vectorized one at a glance.
  sink.gauge("sacpp_backend_lanes",
             static_cast<double>(backend_for(config().backend).lanes()),
             "vector lanes of the configured default backend");
  const BufferPool::Totals t = BufferPool::instance().totals();
  sink.counter("sacpp_pool_trimmed_total", static_cast<double>(t.trimmed),
               "blocks freed by epoch trim");
  sink.gauge("sacpp_pool_depot_cached_bytes",
             static_cast<double>(BufferPool::instance().depot_cached_bytes()),
             "bytes currently cached in the depot free lists");
}

}  // namespace

namespace detail {
constinit thread_local const SacConfig* tl_config = nullptr;
}  // namespace detail

SacConfig& config() {
  static SacConfig cfg = [] {
    SacConfig c = config_from_env();
    obs::set_enabled(c.obs);
    obs::register_collector(collect_stats);
    return c;
  }();
  return cfg;
}

void set_obs(bool on) {
  config().obs = on;
  obs::set_enabled(on);
}

ScopedConfig::ScopedConfig(const SacConfig& cfg) : saved_(config()) {
  config() = cfg;
  obs::set_enabled(cfg.obs);
}

ScopedConfig::~ScopedConfig() {
  obs::set_enabled(saved_.obs);
  config() = saved_;
}

RuntimeStats& stats() {
  static RuntimeStats s;
  return s;
}

void reset_stats() { stats() = RuntimeStats{}; }

RuntimeStats stats_snapshot() { return stats(); }

}  // namespace sacpp::sac
