#include "bench.hpp"

#include <sched.h>

#include <algorithm>
#include <cstring>
#include <cmath>
#include <cstdio>
#include <set>

namespace perfbench {

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

std::string Metrics::json() const {
  std::string out = "{";
  bool first = true;
  char buf[64];
  for (const auto& [name, e] : values_) {
    if (!first) out += ", ";
    first = false;
    // Non-finite values are not JSON; report them as null so a broken
    // measurement is visible instead of silently dropped.
    if (std::isfinite(e.value)) {
      std::snprintf(buf, sizeof buf, "%.17g", e.value);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  return out + "}";
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

Pin::Pin(const std::vector<int>& cpus) {
  cpu_set_t prev;
  if (cpus.empty() || sched_getaffinity(0, sizeof prev, &prev) != 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return;
  prev_.resize(sizeof prev);
  std::memcpy(prev_.data(), &prev, sizeof prev);
  active_ = true;
}

Pin::~Pin() {
  if (!active_) return;
  cpu_set_t prev;
  std::memcpy(&prev, prev_.data(), sizeof prev);
  sched_setaffinity(0, sizeof prev, &prev);
}

namespace {
// Spans open on this thread, innermost last, with the tracer owning each.
thread_local std::vector<std::pair<const Tracer*, std::uint64_t>> tl_open;

std::uint64_t innermost(const Tracer* t) {
  for (auto it = tl_open.rbegin(); it != tl_open.rend(); ++it) {
    if (it->first == t) return it->second;
  }
  return 0;
}
}  // namespace

Tracer& tracer() {
  static Tracer t;
  return t;
}

std::uint64_t Tracer::open(const std::string& name, const std::string& key) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  Span s;
  s.id = next_id_++;
  s.parent = innermost(this);
  s.name = name;
  s.key = s.parent == 0 ? key : spans_[index_.at(s.parent)].key;
  s.start_ns = t;
  index_[s.id] = spans_.size();
  spans_.push_back(std::move(s));
  tl_open.emplace_back(this, spans_.back().id);
  return spans_.back().id;
}

void Tracer::close(std::uint64_t id) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[index_.at(id)].end_ns = t;
  if (!tl_open.empty() && tl_open.back() == std::make_pair<const Tracer*>(this, id)) {
    tl_open.pop_back();
  }
}

std::uint64_t Tracer::record(const std::string& name, const std::string& key,
                             std::uint64_t parent, std::int64_t start_ns,
                             std::int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  Span s;
  s.id = next_id_++;
  s.parent = parent;
  s.name = name;
  s.key = parent == 0 ? key : spans_[index_.at(parent)].key;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  index_[s.id] = spans_.size();
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::string Tracer::validate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::set<std::string> root_keys;
  for (const Span& s : spans_) {
    const std::string where = "span " + std::to_string(s.id) + " (" + s.name + ")";
    if (s.end_ns == 0 || s.end_ns < s.start_ns) return where + " is not closed";
    if (s.parent == 0) {
      if (s.key.empty()) return where + " is a root without a key";
      if (!root_keys.insert(s.key).second) {
        return where + ": second root for " + s.key;
      }
      continue;
    }
    const auto it = index_.find(s.parent);
    if (it == index_.end()) return where + " has a missing parent";
    const Span& p = spans_[it->second];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      return where + " lies outside its parent " + p.name;
    }
    if (s.key != p.key) return where + " changes root key";
  }
  return {};
}

std::map<std::uint64_t, double> Tracer::self_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::map<std::uint64_t, double> self;
  for (const Span& s : spans_) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = iv[0].first, cur_hi = iv[0].second;
      for (std::size_t i = 1; i < iv.size(); ++i) {
        if (iv[i].first > cur_hi) {
          covered += cur_hi - cur_lo;
          cur_lo = iv[i].first;
          cur_hi = iv[i].second;
        } else {
          cur_hi = std::max(cur_hi, iv[i].second);
        }
      }
      covered += cur_hi - cur_lo;
    }
    self[s.id] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

std::string Tracer::json() const {
  const std::vector<Span> all = spans();
  std::int64_t t0 = all.empty() ? 0 : all.front().start_ns;
  for (const Span& s : all) t0 = std::min(t0, s.start_ns);
  std::string out = "{\"spans\": [";
  char buf[256];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"id\": %llu, \"parent\": %llu, \"start_ns\": %lld, "
                  "\"end_ns\": %lld, ",
                  i == 0 ? "" : ",", static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<long long>(s.start_ns - t0),
                  static_cast<long long>(s.end_ns - t0));
    out += buf;
    out += "\"name\": \"" + s.name + "\", \"key\": \"" + s.key + "\"}";
  }
  return out + "\n]}";
}

}  // namespace perfbench
