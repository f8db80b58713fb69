#include "sacpp/common/lockorder.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace sacpp {

namespace {

// Locks the calling thread currently holds, outermost first.  Release erases
// by value (unlock order need not mirror lock order), and an id that was
// acquired before tracing began is simply absent — note_released tolerates
// that.  A fixed array, not a vector: a trivially destructible thread_local
// is never destroyed, so it stays usable while other thread_local
// destructors take tracked locks at thread exit (the buffer pool's magazine
// flushes into the depot there).  Nesting deeper than kMaxHeld is not
// recorded; lock nesting here is a handful deep.
struct HeldLocks {
  static constexpr std::size_t kMaxHeld = 32;
  int ids[kMaxHeld];
  std::size_t count;
};
thread_local HeldLocks tl_held;

}  // namespace

LockRegistry& LockRegistry::instance() {
  static LockRegistry* registry = new LockRegistry();  // never destroyed:
  // TrackedMutexes with static storage duration unlock during shutdown.
  return *registry;
}

int LockRegistry::register_lock(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.push_back(name);
  return static_cast<int>(names_.size() - 1);
}

void LockRegistry::note_acquired(int id) {
  if (!enabled()) return;
  if (tl_held.count != 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < tl_held.count; ++i) {
      const int held = tl_held.ids[i];
      if (held == id) continue;  // re-entry on the shared class node
      auto it = std::find_if(edges_.begin(), edges_.end(), [&](const Edge& e) {
        return e.from == held && e.to == id;
      });
      if (it != edges_.end()) {
        it->count += 1;
      } else {
        edges_.push_back(Edge{held, id, 1});
      }
    }
  }
  if (tl_held.count < HeldLocks::kMaxHeld) tl_held.ids[tl_held.count++] = id;
}

void LockRegistry::note_released(int id) noexcept {
  if (!enabled()) return;
  for (std::size_t i = tl_held.count; i-- > 0;) {
    if (tl_held.ids[i] == id) {
      std::copy(tl_held.ids + i + 1, tl_held.ids + tl_held.count,
                tl_held.ids + i);
      tl_held.count -= 1;
      return;
    }
  }
  // Acquired before tracing started: nothing to pop.
}

std::vector<LockRegistry::Edge> LockRegistry::edges() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return edges_;
}

std::size_t LockRegistry::edge_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return edges_.size();
}

std::size_t LockRegistry::lock_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return names_.size();
}

std::string LockRegistry::lock_name(int id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id < 0 || static_cast<std::size_t>(id) >= names_.size()) return "?";
  return names_[static_cast<std::size_t>(id)];
}

void LockRegistry::reset_edges() {
  std::lock_guard<std::mutex> lock(mutex_);
  edges_.clear();
}

// Cycle enumeration: depth-first search over the recorded graph from every
// node, reporting each closed path once (canonicalised by its smallest node
// id so A->B->A and B->A->B are the same finding).  Lock graphs here are a
// dozen nodes, so the simple exponential walk is fine and yields the actual
// paths (which the diagnostics print), not just SCC membership.
std::vector<std::vector<int>> LockRegistry::find_cycles() const {
  std::map<int, std::vector<int>> adj;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Edge& e : edges_) adj[e.from].push_back(e.to);
  }
  std::vector<std::vector<int>> cycles;
  std::set<std::vector<int>> seen;

  for (const auto& [start, _] : adj) {
    std::vector<int> path{start};
    std::set<int> on_path{start};
    // Iterative DFS with explicit branch indices.
    std::vector<std::size_t> branch{0};
    while (!path.empty()) {
      const int node = path.back();
      auto it = adj.find(node);
      if (it == adj.end() || branch.back() >= it->second.size()) {
        on_path.erase(node);
        path.pop_back();
        branch.pop_back();
        continue;
      }
      const int next = it->second[branch.back()++];
      if (next == start) {
        // Closed cycle: canonicalise by rotating the smallest id first.
        std::vector<int> cyc = path;
        const auto min_it = std::min_element(cyc.begin(), cyc.end());
        std::rotate(cyc.begin(), min_it, cyc.end());
        if (seen.insert(cyc).second) {
          cyc.push_back(cyc.front());
          cycles.push_back(std::move(cyc));
        }
        continue;
      }
      if (on_path.count(next) != 0) continue;  // cycle not through start
      path.push_back(next);
      on_path.insert(next);
      branch.push_back(0);
    }
  }
  return cycles;
}

std::string LockRegistry::to_dot() const {
  const std::vector<Edge> es = edges();
  std::set<std::pair<int, int>> cycle_edges;
  for (const auto& cyc : find_cycles()) {
    for (std::size_t i = 0; i + 1 < cyc.size(); ++i) {
      cycle_edges.insert({cyc[i], cyc[i + 1]});
    }
  }
  std::set<int> nodes;
  for (const Edge& e : es) {
    nodes.insert(e.from);
    nodes.insert(e.to);
  }
  std::ostringstream out;
  out << "digraph lock_order {\n";
  out << "  // A -> B: B was acquired while A was held.  Red edges sit on a\n";
  out << "  // lock-order cycle (potential deadlock).\n";
  out << "  rankdir=LR;\n";
  for (int n : nodes) {
    out << "  n" << n << " [label=\"" << lock_name(n) << "\"];\n";
  }
  for (const Edge& e : es) {
    out << "  n" << e.from << " -> n" << e.to << " [label=\"" << e.count
        << '"';
    if (cycle_edges.count({e.from, e.to}) != 0) {
      out << ", color=red, penwidth=2";
    }
    out << "];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace sacpp
