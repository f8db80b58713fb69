#pragma once
// Shared pieces of the repository benchmark: clocks, order statistics, the
// metric sink, the seeded input generator, and the span tracer.
//
// The tracer records spans only at the benchmark's own call sites into the
// sacpp layers (nothing inside src/ is instrumented).  Spans are kept in
// memory, checked for tree shape and written out when the run ends; self
// time of a span is its duration minus the union of its children.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample; 0 for an
// empty sample.
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}

// Every metric the run reports, by name, with its unit.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  // {"name": {"value": v, "unit": u}, ...}
  std::string json() const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Entry> values_;
};

// SplitMix64: the one source of every seeded choice (variant order, arrival
// times, request mix), identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  // Uniform integer in [lo, hi].
  int between(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t s_;
};

// The CPUs this process may run on, in ascending order.
std::vector<int> allowed_cpus();

// RAII: restrict the calling thread, and the threads it starts while the
// pin is held, to `cpus`; the previous mask comes back on destruction.  An
// empty list leaves the mask alone.
class Pin {
 public:
  explicit Pin(const std::vector<int>& cpus);
  ~Pin();
  Pin(const Pin&) = delete;
  Pin& operator=(const Pin&) = delete;

 private:
  std::vector<unsigned char> prev_;  // a saved cpu_set_t
  bool active_ = false;
};

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 for a root
  std::string name;
  std::string key;           // root key: "solve:<n>", "request:<n>", ...
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

// Thread-safe in-memory span store.  Disabled tracers record nothing; every
// call site costs one branch then.
class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  // Open a span as a child of the calling thread's innermost open span (or
  // as a root under `key` when there is none).  Returns 0 when disabled.
  std::uint64_t open(const std::string& name, const std::string& key = "");
  void close(std::uint64_t id);

  // A finished span with explicit bounds (the serve request roots are
  // measured from their scheduled time, which no thread was inside of).
  std::uint64_t record(const std::string& name, const std::string& key,
                       std::uint64_t parent, std::int64_t start_ns,
                       std::int64_t end_ns);

  std::vector<Span> spans() const;

  // Empty when every span is closed, every parent exists and encloses its
  // children, and every root key names exactly one root; else a diagnostic.
  std::string validate() const;

  // Self time per span: duration minus the union of child intervals.
  std::map<std::uint64_t, double> self_seconds() const;

  // {"spans": [...]} with times relative to the first span.
  std::string json() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::map<std::uint64_t, std::size_t> index_;
  std::uint64_t next_id_ = 1;
};

Tracer& tracer();

// RAII span at a benchmark call site.
class Scope {
 public:
  explicit Scope(const std::string& name, const std::string& key = "")
      : id_(tracer().enabled() ? tracer().open(name, key) : 0) {}
  ~Scope() {
    if (id_ != 0) tracer().close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  std::uint64_t id_;
};

}  // namespace perfbench
