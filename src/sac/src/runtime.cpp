#include "sacpp/sac/runtime.hpp"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sacpp/common/error.hpp"
#include "sacpp/obs/obs.hpp"
#include "sacpp/obs/trace.hpp"
#include "sacpp/sac/check_events.hpp"
#include "sacpp/sac/config.hpp"

namespace sacpp::sac {

struct ThreadPool::Impl {
  explicit Impl(unsigned workers) {
    for (unsigned w = 0; w < workers; ++w) {
      threads.emplace_back([this, w] { worker_loop(w + 1); });
    }
  }

  ~Impl() {
    {
      std::unique_lock<std::mutex> lock(mutex);
      stop = true;
    }
    work_ready.notify_all();
    for (auto& t : threads) t.join();
  }

  void worker_loop(unsigned worker_id) {
    obs::set_thread_name("sac-worker-" + std::to_string(worker_id));
    std::uint64_t seen_epoch = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mutex);
        work_ready.wait(lock, [&] { return stop || epoch != seen_epoch; });
        if (stop) return;
        seen_epoch = epoch;
      }
      run_my_chunk(worker_id);
      if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::unique_lock<std::mutex> lock(mutex);
        work_done.notify_all();
      }
    }
  }

  void run_my_chunk(unsigned worker_id) {
    const extent_t lo = chunk_bounds[worker_id];
    const extent_t hi = chunk_bounds[worker_id + 1];
    if (lo < hi) (*task)(lo, hi, worker_id);
  }

  std::vector<std::thread> threads;
  std::mutex mutex;
  std::condition_variable work_ready;
  std::condition_variable work_done;
  bool stop = false;
  std::uint64_t epoch = 0;
  std::atomic<int> pending{0};
  const std::function<void(extent_t, extent_t, unsigned)>* task = nullptr;
  std::vector<extent_t> chunk_bounds;  // size = participants + 1

  // Telemetry scratch (one slot per participant, reused across regions).
  // Workers write only their own slot; the coordinator reads after the join,
  // which the `pending` acquire/release pair orders.
  struct ChunkTiming {
    std::int64_t start_ns = 0;
    std::int64_t busy_ns = 0;
  };
  std::vector<ChunkTiming> obs_timing;
};

ThreadPool::ThreadPool(unsigned threads) : threads_(threads == 0 ? 1 : threads) {
  // The coordinating thread is participant 0; spawn threads_ - 1 workers.
  impl_ = new Impl(threads_ - 1);
}

ThreadPool::~ThreadPool() { delete impl_; }

void ThreadPool::parallel_for(
    extent_t begin, extent_t end, extent_t align,
    const std::function<void(extent_t, extent_t, unsigned)>& fn) {
  SACPP_REQUIRE(align >= 1, "chunk alignment must be >= 1");
  if (end <= begin) return;

  const extent_t span = end - begin;
  const unsigned participants = threads_;
  if (participants == 1 || span < 2) {
    fn(begin, end, 0);
    return;
  }

  // Contiguous chunks with starts aligned down to `align` relative to
  // `begin`, so strided generators keep their step phase inside each chunk.
  std::vector<extent_t>& bounds = impl_->chunk_bounds;
  bounds.assign(participants + 1, end);
  bounds[0] = begin;
  for (unsigned p = 1; p < participants; ++p) {
    extent_t cut = begin + span * static_cast<extent_t>(p) /
                               static_cast<extent_t>(participants);
    cut = begin + (cut - begin) / align * align;
    bounds[p] = std::max(cut, bounds[p - 1]);
  }
  bounds[participants] = end;

  // Propagate the coordinator's per-job configuration binding (serve jobs)
  // into the workers: chunk bodies read active_config() for pool/stencil
  // decisions, and workers are shared process machinery that must observe
  // the job's snapshot, not the process global.
  const SacConfig* bound_cfg = detail::tl_config;
  std::function<void(extent_t, extent_t, unsigned)> cfg_wrapped;
  const std::function<void(extent_t, extent_t, unsigned)>* base = &fn;
  if (bound_cfg != nullptr) [[unlikely]] {
    cfg_wrapped = [&fn, bound_cfg](extent_t lo, extent_t hi, unsigned who) {
      ConfigBinding bind(bound_cfg);
      fn(lo, hi, who);
    };
    base = &cfg_wrapped;
  }

  // Same for the coordinator's request trace context (obs/trace.hpp): bind
  // it around every worker chunk so the spans a traced solve records on the
  // gang threads stitch into the request's tree.
  const obs::TraceContext trace_ctx = obs::current_trace();
  std::function<void(extent_t, extent_t, unsigned)> trace_wrapped;
  if (trace_ctx.active()) [[unlikely]] {
    const auto* inner = base;
    trace_wrapped = [inner, trace_ctx](extent_t lo, extent_t hi,
                                       unsigned who) {
      obs::TraceBinding bind(trace_ctx);
      (*inner)(lo, hi, who);
    };
    base = &trace_wrapped;
  }

  // Checked mode: log this region and the interval each worker will write,
  // so the race detector (src/check) can verify the chunks tile [begin, end)
  // disjointly with aligned starts, and the ownership watch can flag any
  // buffer retain/release performed off the coordinating thread while the
  // region runs.
  const bool checked = active_config().check;
  if (checked) [[unlikely]] {
    const std::uint64_t region =
        check_detail::begin_parallel_region(begin, end, align);
    for (unsigned p = 0; p < participants; ++p) {
      check_detail::record_chunk(region, p, bounds[p], bounds[p + 1],
                                 /*write=*/true);
    }
  }

  // Telemetry: wrap the task so every participant times its chunk on its own
  // ring; the coordinator derives the region's busy/idle/imbalance numbers at
  // the join and attributes them to the current V-cycle level.  The disabled
  // path touches none of this (one relaxed load + branch).
  const bool obs_on = obs::enabled();
  std::uint64_t region_id = 0;
  std::int64_t fork_ns = 0;
  std::function<void(extent_t, extent_t, unsigned)> instrumented;
  const std::function<void(extent_t, extent_t, unsigned)>* run = base;
  std::vector<Impl::ChunkTiming>& timing = impl_->obs_timing;
  if (obs_on) [[unlikely]] {
    region_id = obs::next_region_id();
    timing.assign(participants, Impl::ChunkTiming{});
    instrumented = [base, &timing, region_id](extent_t lo, extent_t hi,
                                              unsigned who) {
      const std::int64_t t0 = obs::now_ns();
      (*base)(lo, hi, who);
      const std::int64_t t1 = obs::now_ns();
      timing[who].start_ns = t0;
      timing[who].busy_ns = t1 - t0;
      obs::record_span(obs::SpanKind::kWorkerChunk, "chunk", t0, t1 - t0,
                       static_cast<std::int64_t>(who), region_id);
    };
    run = &instrumented;
    fork_ns = obs::now_ns();
  }

  impl_->task = run;
  impl_->pending.store(static_cast<int>(participants - 1),
                       std::memory_order_release);
  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    ++impl_->epoch;
  }
  impl_->work_ready.notify_all();

  // Participant 0 (this thread) runs the first chunk.
  if (bounds[0] < bounds[1]) (*run)(bounds[0], bounds[1], 0);

  {
    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->work_done.wait(lock, [&] {
      return impl_->pending.load(std::memory_order_acquire) == 0;
    });
    impl_->task = nullptr;
  }
  if (checked) [[unlikely]] {
    check_detail::end_parallel_region();
  }

  if (obs_on) [[unlikely]] {
    const std::int64_t join_ns = obs::now_ns();
    obs::RegionSample sample;
    sample.level = obs::current_level();
    sample.participants = participants;
    sample.region_ns = join_ns - fork_ns;
    std::int64_t first_worker_start = 0;
    for (unsigned p = 0; p < participants; ++p) {
      sample.busy_total_ns += timing[p].busy_ns;
      sample.busy_max_ns = std::max(sample.busy_max_ns, timing[p].busy_ns);
      // Fork latency: how long after the fork the first *worker* (not the
      // coordinator, which starts immediately) began real work — the paper's
      // fixed fork/join overhead on small grids.
      if (p > 0 && timing[p].busy_ns > 0 &&
          (first_worker_start == 0 || timing[p].start_ns < first_worker_start)) {
        first_worker_start = timing[p].start_ns;
      }
    }
    if (first_worker_start > fork_ns) {
      sample.fork_latency_ns = first_worker_start - fork_ns;
    }
    obs::record_span(obs::SpanKind::kParallelRegion, "parallel_region",
                     fork_ns, sample.region_ns,
                     static_cast<std::int64_t>(participants), region_id);
    obs::record_region_sample(sample);
  }
}

namespace runtime_detail {
constinit thread_local ThreadPool* tl_pool = nullptr;
}  // namespace runtime_detail

namespace {
std::unique_ptr<ThreadPool> g_pool;
// Guards creation/re-creation of the global pool.  Concurrent *use* of the
// global pool from several coordinators remains unsupported (its task slot
// is single); concurrent solves bind private pools instead.
std::mutex g_pool_mutex;
}

ThreadPool& runtime() {
  if (ThreadPool* bound = runtime_detail::tl_pool) return *bound;
  const SacConfig& cfg = active_config();
  unsigned want = cfg.mt_threads;
  if (want == 0) want = std::max(1u, std::thread::hardware_concurrency());
  if (!cfg.mt_enabled) want = 1;
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool || g_pool->thread_count() != want) {
    g_pool = std::make_unique<ThreadPool>(want);
  }
  return *g_pool;
}

void shutdown_runtime() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  g_pool.reset();
}

}  // namespace sacpp::sac
