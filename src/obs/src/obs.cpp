#include "sacpp/obs/obs.hpp"

#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "sacpp/obs/trace.hpp"

namespace sacpp::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_probe_mask{kAllProbes};
constinit thread_local TraceContext tl_trace;
}

// ---------------------------------------------------------------------------
// Clock
// ---------------------------------------------------------------------------

namespace {

std::chrono::steady_clock::time_point epoch() noexcept {
  static const auto t0 = std::chrono::steady_clock::now();
  return t0;
}

}  // namespace

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch())
      .count();
}

void set_enabled(bool on) noexcept {
  (void)epoch();  // prime the epoch before the first span
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void set_probe_mask(std::uint32_t mask) noexcept {
  detail::g_probe_mask.store(mask, std::memory_order_relaxed);
}

std::uint32_t probe_mask() noexcept {
  return detail::g_probe_mask.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Names
// ---------------------------------------------------------------------------

const char* span_kind_name(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kWithLoop: return "with_loop";
    case SpanKind::kFold: return "fold";
    case SpanKind::kParallelRegion: return "parallel_region";
    case SpanKind::kWorkerChunk: return "worker_chunk";
    case SpanKind::kPoolAlloc: return "pool_alloc";
    case SpanKind::kPoolRelease: return "pool_release";
    case SpanKind::kLevel: return "level";
    case SpanKind::kKernel: return "kernel";
    case SpanKind::kMsgSend: return "msg_send";
    case SpanKind::kCollective: return "collective";
    case SpanKind::kPhase: return "phase";
    case SpanKind::kNetFrame: return "net_frame";
  }
  return "?";
}

const char* hist_name(Hist h) noexcept {
  switch (h) {
    case Hist::kWithLoopNs: return "sacpp_with_loop_duration_ns";
    case Hist::kFoldNs: return "sacpp_fold_duration_ns";
    case Hist::kRegionNs: return "sacpp_parallel_region_duration_ns";
    case Hist::kChunkNs: return "sacpp_worker_chunk_duration_ns";
    case Hist::kPoolAllocNs: return "sacpp_pool_alloc_duration_ns";
    case Hist::kPoolReleaseNs: return "sacpp_pool_release_duration_ns";
    case Hist::kLevelNs: return "sacpp_level_duration_ns";
    case Hist::kKernelNs: return "sacpp_kernel_duration_ns";
    case Hist::kMsgSendNs: return "sacpp_msg_send_duration_ns";
    case Hist::kCollectiveNs: return "sacpp_collective_duration_ns";
    case Hist::kAllocBytes: return "sacpp_alloc_bytes";
    case Hist::kMsgBytes: return "sacpp_msg_bytes";
    case Hist::kServeQueueNs: return "sacpp_serve_queue_wait_ns";
    case Hist::kServeJobNs: return "sacpp_serve_job_duration_ns";
    case Hist::kServeE2eNs: return "sacpp_serve_e2e_latency_ns";
    case Hist::kNetFrameNs: return "sacpp_net_frame_duration_ns";
    case Hist::kCount: break;
  }
  return "?";
}

const char* hist_help(Hist h) noexcept {
  switch (h) {
    case Hist::kWithLoopNs: return "with-loop execution time";
    case Hist::kFoldNs: return "with-loop fold execution time";
    case Hist::kRegionNs: return "parallel region fork..join wall time";
    case Hist::kChunkNs: return "per-worker chunk execution time";
    case Hist::kPoolAllocNs: return "BufferPool::allocate time";
    case Hist::kPoolReleaseNs: return "BufferPool::deallocate time";
    case Hist::kLevelNs: return "V-cycle level visit time";
    case Hist::kKernelNs: return "MG kernel execution time";
    case Hist::kMsgSendNs: return "point-to-point delivery time";
    case Hist::kCollectiveNs: return "msg collective time";
    case Hist::kAllocBytes: return "buffer allocation payload bytes";
    case Hist::kMsgBytes: return "point-to-point payload bytes";
    case Hist::kServeQueueNs: return "solve request time in admission queue";
    case Hist::kServeJobNs: return "solve job execution time";
    case Hist::kServeE2eNs: return "solve request submit-to-done latency";
    case Hist::kNetFrameNs: return "socket transport per-frame send/recv time";
    case Hist::kCount: break;
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

namespace {

LogHistogram g_histograms[static_cast<int>(Hist::kCount)];

Hist duration_hist(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kWithLoop: return Hist::kWithLoopNs;
    case SpanKind::kFold: return Hist::kFoldNs;
    case SpanKind::kParallelRegion: return Hist::kRegionNs;
    case SpanKind::kWorkerChunk: return Hist::kChunkNs;
    case SpanKind::kPoolAlloc: return Hist::kPoolAllocNs;
    case SpanKind::kPoolRelease: return Hist::kPoolReleaseNs;
    case SpanKind::kLevel: return Hist::kLevelNs;
    case SpanKind::kKernel: return Hist::kKernelNs;
    case SpanKind::kMsgSend: return Hist::kMsgSendNs;
    case SpanKind::kCollective: return Hist::kCollectiveNs;
    case SpanKind::kPhase: return Hist::kCount;  // no histogram
    case SpanKind::kNetFrame: return Hist::kNetFrameNs;
  }
  return Hist::kCount;
}

}  // namespace

LogHistogram& histogram(Hist h) noexcept {
  return g_histograms[static_cast<int>(h)];
}

// ---------------------------------------------------------------------------
// Thread registry and rings
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kDefaultRingCapacity = std::size_t{1} << 15;

struct ThreadRec {
  std::uint32_t tid = 0;
  std::string name;
  // Spans suppressed by a masked probe (satellite of the overwrite/skip
  // accounting split): counted here because they never reach the ring.
  std::atomic<std::uint64_t> skipped{0};
  std::unique_ptr<SpanRing> ring;  // created on first record
};

struct Registry {
  std::mutex mutex;
  // Owned and never erased: rings must outlive their threads so exports can
  // read them after joins; a registration is a few bytes until the first
  // recorded span allocates the ring.
  std::vector<std::unique_ptr<ThreadRec>> threads;
  std::size_t ring_capacity = kDefaultRingCapacity;
};

Registry& registry() {
  static Registry* r = [] {
    auto* reg = new Registry;  // immortal, like the BufferPool
    if (const char* env = std::getenv("SACPP_OBS_RING");
        env != nullptr && env[0] != '\0') {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) reg->ring_capacity = static_cast<std::size_t>(v);
    }
    return reg;
  }();
  return *r;
}

ThreadRec& thread_rec() {
  thread_local ThreadRec* rec = [] {
    Registry& reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    auto owned = std::make_unique<ThreadRec>();
    owned->tid = static_cast<std::uint32_t>(reg.threads.size());
    owned->name = "thread-" + std::to_string(owned->tid);
    reg.threads.push_back(std::move(owned));
    return reg.threads.back().get();
  }();
  return *rec;
}

SpanRing& thread_ring() {
  ThreadRec& rec = thread_rec();
  if (rec.ring == nullptr) {
    Registry& reg = registry();
    std::size_t cap;
    {
      std::lock_guard<std::mutex> lock(reg.mutex);
      cap = reg.ring_capacity;
    }
    rec.ring = std::make_unique<SpanRing>(cap);
  }
  return *rec.ring;
}

}  // namespace

void record_span(SpanKind kind, const char* name, std::int64_t start_ns,
                 std::int64_t dur_ns, std::int64_t arg,
                 std::uint64_t id) noexcept {
  if (!probe_enabled(kind)) {
    detail::note_probe_skip();
    return;
  }
  SpanRecord r;
  r.start_ns = start_ns;
  r.dur_ns = dur_ns;
  r.arg = arg;
  r.id = id;
  r.trace = detail::tl_trace.trace_id;
  r.name = name;
  r.kind = kind;
  thread_ring().push(r);
  const Hist h = duration_hist(kind);
  if (h != Hist::kCount) {
    histogram(h).observe(dur_ns > 0 ? static_cast<std::uint64_t>(dur_ns) : 0);
  }
}

namespace detail {
void note_probe_skip() noexcept {
  thread_rec().skipped.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

void set_thread_name(std::string name) {
  ThreadRec& rec = thread_rec();
  Registry& reg = registry();
  // The registry lock also guards names: snapshot readers copy them under it.
  std::lock_guard<std::mutex> lock(reg.mutex);
  rec.name = std::move(name);
}

std::uint64_t next_region_id() noexcept {
  static std::atomic<std::uint64_t> id{0};
  return id.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::vector<ThreadSpans> snapshot_spans() {
  Registry& reg = registry();
  // Collect the rec pointers under the lock, then read rings lock-free (the
  // vector is append-only and recs are never destroyed).
  std::vector<ThreadRec*> recs;
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    recs.reserve(reg.threads.size());
    for (auto& t : reg.threads) recs.push_back(t.get());
  }
  std::vector<ThreadSpans> out;
  out.reserve(recs.size());
  for (ThreadRec* rec : recs) {
    ThreadSpans ts;
    ts.tid = rec->tid;
    {
      std::lock_guard<std::mutex> lock(reg.mutex);
      ts.name = rec->name;
    }
    ts.skipped = rec->skipped.load(std::memory_order_relaxed);
    if (rec->ring != nullptr) {
      ts.recorded = rec->ring->recorded();
      ts.overwritten = rec->ring->overwritten();
      ts.spans = rec->ring->snapshot();
    }
    out.push_back(std::move(ts));
  }
  return out;
}

std::uint64_t total_dropped_spans() {
  std::uint64_t total = 0;
  for (const ThreadSpans& t : snapshot_spans()) total += t.overwritten;
  return total;
}

std::uint64_t total_skipped_spans() {
  std::uint64_t total = 0;
  for (const ThreadSpans& t : snapshot_spans()) total += t.skipped;
  return total;
}

void set_default_ring_capacity(std::size_t capacity) {
  Registry& reg = registry();
  std::lock_guard<std::mutex> lock(reg.mutex);
  if (capacity > 0) reg.ring_capacity = capacity;
}

// ---------------------------------------------------------------------------
// Level context and per-level region aggregates
// ---------------------------------------------------------------------------

namespace {

thread_local int tl_level = -1;

struct LevelAgg {
  double seconds = 0.0;
  std::uint64_t visits = 0;
  std::uint64_t regions = 0;
  std::int64_t busy_ns = 0;
  std::int64_t idle_ns = 0;
  double imbalance_sum = 0.0;
  std::int64_t fork_latency_ns = 0;
};

struct LevelTable {
  std::mutex mutex;
  std::map<int, LevelAgg> levels;
};

LevelTable& level_table() {
  static LevelTable* t = new LevelTable;  // immortal
  return *t;
}

}  // namespace

int current_level() noexcept { return tl_level; }

int set_current_level(int level) noexcept {
  const int prev = tl_level;
  tl_level = level;
  return prev;
}

void record_level_ns(int level, std::int64_t ns) noexcept {
  LevelTable& t = level_table();
  std::lock_guard<std::mutex> lock(t.mutex);
  LevelAgg& agg = t.levels[level];
  agg.seconds += static_cast<double>(ns) * 1e-9;
  agg.visits += 1;
}

void record_region_sample(const RegionSample& s) noexcept {
  LevelTable& t = level_table();
  std::lock_guard<std::mutex> lock(t.mutex);
  LevelAgg& agg = t.levels[s.level];
  agg.regions += 1;
  agg.busy_ns += s.busy_total_ns;
  const std::int64_t wall_all =
      static_cast<std::int64_t>(s.participants) * s.region_ns;
  agg.idle_ns += wall_all > s.busy_total_ns ? wall_all - s.busy_total_ns : 0;
  if (s.busy_total_ns > 0 && s.participants > 0) {
    const double mean = static_cast<double>(s.busy_total_ns) /
                        static_cast<double>(s.participants);
    agg.imbalance_sum += static_cast<double>(s.busy_max_ns) / mean;
  } else {
    agg.imbalance_sum += 1.0;
  }
  agg.fork_latency_ns += s.fork_latency_ns;
}

std::vector<LevelMetrics> level_metrics() {
  LevelTable& t = level_table();
  std::lock_guard<std::mutex> lock(t.mutex);
  std::vector<LevelMetrics> out;
  out.reserve(t.levels.size());
  for (const auto& [level, agg] : t.levels) {
    LevelMetrics m;
    m.level = level;
    m.seconds = agg.seconds;
    m.visits = agg.visits;
    m.regions = agg.regions;
    m.busy_seconds = static_cast<double>(agg.busy_ns) * 1e-9;
    m.idle_seconds = static_cast<double>(agg.idle_ns) * 1e-9;
    if (agg.regions > 0) {
      m.imbalance = agg.imbalance_sum / static_cast<double>(agg.regions);
      m.fork_latency_seconds = static_cast<double>(agg.fork_latency_ns) *
                               1e-9 / static_cast<double>(agg.regions);
    }
    out.push_back(m);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reset
// ---------------------------------------------------------------------------

void reset() {
  Registry& reg = registry();
  {
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (auto& t : reg.threads) {
      t->skipped.store(0, std::memory_order_relaxed);
      if (t->ring != nullptr) t->ring->clear();
    }
  }
  for (auto& h : g_histograms) h.clear();
  reset_levels();
  clear_retained_traces();
}

void reset_levels() {
  LevelTable& t = level_table();
  std::lock_guard<std::mutex> lock(t.mutex);
  t.levels.clear();
}

}  // namespace sacpp::obs
