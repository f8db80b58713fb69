#pragma once
// Log-bucketed histograms for span durations and allocation sizes.
//
// Buckets are powers of two: value v lands in bucket bit_width(v) (bucket 0
// holds exactly v == 0), so recording is one bit-scan plus three relaxed
// atomic increments — cheap enough for the pool allocation path.  Exports
// render the buckets Prometheus-style with cumulative `le` upper bounds.

#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>

namespace sacpp::obs {

class LogHistogram {
 public:
  // Bucket i holds values with bit_width == i; 0..64 inclusive.
  static constexpr int kBuckets = 65;

  static int bucket_of(std::uint64_t v) noexcept {
    return v == 0 ? 0 : std::bit_width(v);
  }

  // Inclusive upper bound of bucket i (2^i - 1; the last bucket is open).
  static std::uint64_t bucket_upper(int i) noexcept {
    if (i <= 0) return 0;
    if (i >= 64) return std::numeric_limits<std::uint64_t>::max();
    return (std::uint64_t{1} << i) - 1;
  }

  void observe(std::uint64_t v) noexcept {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  // Observe with an exemplar: remember (trace_id, v) as the bucket's most
  // recent traced sample, so the Prometheus dump can point from a latency
  // bucket (e.g. the p99 spike) to an exact retained trace.  Last-writer-
  // wins per bucket; a torn pair is tolerable (both fields are recent
  // samples of the same bucket).
  void observe(std::uint64_t v, std::uint64_t trace_id) noexcept {
    const int b = bucket_of(v);
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    if (trace_id != 0) {
      exemplar_trace_[b].store(trace_id, std::memory_order_relaxed);
      exemplar_value_[b].store(v, std::memory_order_relaxed);
    }
  }

  std::uint64_t bucket(int i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t exemplar_trace(int i) const noexcept {
    return exemplar_trace_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t exemplar_value(int i) const noexcept {
    return exemplar_value_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }

  void clear() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    for (auto& e : exemplar_trace_) e.store(0, std::memory_order_relaxed);
    for (auto& e : exemplar_value_) e.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> exemplar_trace_[kBuckets]{};
  std::atomic<std::uint64_t> exemplar_value_[kBuckets]{};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> count_{0};
};

// The fixed histogram set sacpp_obs maintains.  Span-ending routes the
// duration into the kind's histogram automatically; byte-valued ones are fed
// explicitly (obs::observe).
enum class Hist : int {
  kWithLoopNs,
  kFoldNs,
  kRegionNs,
  kChunkNs,
  kPoolAllocNs,
  kPoolReleaseNs,
  kLevelNs,
  kKernelNs,
  kMsgSendNs,
  kCollectiveNs,
  kAllocBytes,  // buffer allocation payload sizes
  kMsgBytes,    // point-to-point message payload bytes
  // Serving subsystem (docs/serve.md): fed explicitly by sacpp_serve.
  kServeQueueNs,  // admission-to-dispatch time in queue
  kServeJobNs,    // dispatch-to-completion execution time
  kServeE2eNs,    // submit-to-completion end-to-end latency
  // Socket transport (docs/net.md): one frame's send or blocking-recv time.
  kNetFrameNs,
  kCount,
};

const char* hist_name(Hist h) noexcept;  // Prometheus metric stem
const char* hist_help(Hist h) noexcept;

LogHistogram& histogram(Hist h) noexcept;

}  // namespace sacpp::obs
