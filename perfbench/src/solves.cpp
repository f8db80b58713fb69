// Solve phase: rounds of interleaved NPB solves of the six variants.
//
// Each solve follows the NPB protocol of mg::run_benchmark — build the
// solver on the round's right-hand side, one untimed warm-up iteration,
// re-initialise, then time exactly nit iterations of (V-cycle + residual) —
// but with set-up and the timed section measured apart, so set-up work shows
// in setup_s and never in a solve time.  Solvers are built per round and
// dropped after their solve.  The four single-process solvers of a round
// are resident together and take their timed iterations in turn, so that a
// ratio to f77 compares iterations at most a lockstep step apart instead of
// solves up to a round apart.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "sacpp/common/shape.hpp"
#include "sacpp/mg/driver.hpp"
#include "sacpp/mg/mg_mpi.hpp"
#include "sacpp/mg/mg_omp.hpp"
#include "sacpp/mg/mg_ref.hpp"
#include "sacpp/mg/mg_sac.hpp"
#include "sacpp/mg/mg_sac_direct.hpp"
#include "sacpp/mg/problem.hpp"
#include "sacpp/msg/msg.hpp"
#include "sacpp/net/tcp_transport.hpp"
#include "sacpp/sac/pool.hpp"
#include "sacpp/sac/sac.hpp"
#include "sacpp/sac/stats.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace sacpp;

namespace {

enum class V { kSac, kDirect, kF77, kOmp, kMpi, kMpiTcp };
constexpr V kAll[] = {V::kSac, V::kDirect, V::kF77, V::kOmp, V::kMpi, V::kMpiTcp};

const char* vname(V v) {
  switch (v) {
    case V::kSac: return "sac";
    case V::kDirect: return "direct";
    case V::kF77: return "f77";
    case V::kOmp: return "omp";
    case V::kMpi: return "mpi";
    case V::kMpiTcp: return "mpi_tcp";
  }
  return "?";
}

struct Outcome {
  double seconds = 0.0;    // timed section
  std::vector<double> iterations;  // its iterations (single-process only)
  double setup_s = 0.0;    // construction + warm-up (+ rendezvous)
  double construct_s = 0.0;
  double final_norm = 0.0;
  std::vector<double> norms;  // per iteration (f77 and mpi only)
  sac::RuntimeStats sac_delta;  // array-system counters of the timed section
  msg::WorldStats comm;         // mpi: traffic of the timed section
  double rendezvous_s = 0.0;    // mpi_tcp
};

sac::RuntimeStats stats_delta(const sac::RuntimeStats& a,
                              const sac::RuntimeStats& b) {
  sac::RuntimeStats d;
  d.allocations = b.allocations - a.allocations;
  d.bytes_allocated = b.bytes_allocated - a.bytes_allocated;
  d.copies_on_write = b.copies_on_write - a.copies_on_write;
  d.with_loops = b.with_loops - a.with_loops;
  d.parallel_regions = b.parallel_regions - a.parallel_regions;
  d.pool_hits = b.pool_hits - a.pool_hits;
  d.pool_misses = b.pool_misses - a.pool_misses;
  return d;
}

// The NPB protocol surface of one single-process solver.
struct Steps {
  virtual ~Steps() = default;
  virtual void reset() = 0;   // u = 0, then the initial residual
  virtual void vcycle() = 0;
  virtual void resid() = 0;
  virtual double norm() = 0;  // L2 norm of the current residual
};

// sac and direct: the protocol over the array system.
template <typename Solver>
class ArraySteps final : public Steps {
 public:
  ArraySteps(const mg::MgSpec& spec, const std::vector<double>& v_ext,
             bool ghost_free)
      : nx_(spec.nx),
        ghost_free_(ghost_free),
        shp_(cube_shape(3, ghost_free ? spec.nx : spec.nx + 2)),
        solver_(spec) {
    const extent_t n = nx_ + 2;
    const extent_t off = ghost_free ? 1 : 0;
    v_ = sac::with_genarray<double>(
        shp_, sac::gen_all(),
        sac::rank3_body([&](extent_t i, extent_t j, extent_t k) {
          return v_ext[static_cast<std::size_t>(((i + off) * n + (j + off)) * n +
                                                (k + off))];
        }));
  }
  void reset() override {
    u_ = sac::genarray_const(shp_, 0.0);
    r_ = solver_.residual(v_, u_);
  }
  void vcycle() override { u_ = std::move(u_) + solver_.vcycle(r_); }
  void resid() override { r_ = solver_.residual(v_, u_); }
  double norm() override {
    const Shape& rs = r_.shape();
    const sac::Gen gen = ghost_free_ ? sac::gen_all() : sac::gen_interior(rs);
    const double ss =
        sac::with_fold(std::plus<>{}, 0.0, rs, gen, sac::sum_sq_rows(r_));
    return std::sqrt(ss / static_cast<double>(nx_ * nx_ * nx_));
  }

 private:
  extent_t nx_;
  bool ghost_free_;
  Shape shp_;
  Solver solver_;
  sac::Array<double> v_, u_, r_;
};

// f77 and omp: the low-level ports share their protocol surface.
template <typename Solver>
class PortSteps final : public Steps {
 public:
  PortSteps(const mg::MgSpec& spec, const std::vector<double>& v_ext)
      : solver_(spec) {
    solver_.set_rhs(v_ext);
  }
  void reset() override {
    solver_.zero_u();
    solver_.initial_resid();
  }
  void vcycle() override { solver_.mg3p(); }
  void resid() override { solver_.initial_resid(); }
  double norm() override { return solver_.residual_norm(); }

 private:
  Solver solver_;
};

bool message_passing(V v) { return v == V::kMpi || v == V::kMpiTcp; }

std::unique_ptr<Steps> make_steps(V v, const mg::MgSpec& spec,
                                  const std::vector<double>& v_ext) {
  switch (v) {
    case V::kSac: return std::make_unique<ArraySteps<mg::MgSac>>(spec, v_ext, false);
    case V::kDirect:
      return std::make_unique<ArraySteps<mg::MgSacDirect>>(spec, v_ext, true);
    case V::kF77: return std::make_unique<PortSteps<mg::MgRef>>(spec, v_ext);
    case V::kOmp: return std::make_unique<PortSteps<mg::MgOmp>>(spec, v_ext);
    case V::kMpi:
    case V::kMpiTcp: break;
  }
  throw std::logic_error("not a single-process variant");
}

void add(sac::RuntimeStats& acc, const sac::RuntimeStats& d) {
  acc.allocations += d.allocations;
  acc.bytes_allocated += d.bytes_allocated;
  acc.copies_on_write += d.copies_on_write;
  acc.with_loops += d.with_loops;
  acc.parallel_regions += d.parallel_regions;
  acc.pool_hits += d.pool_hits;
  acc.pool_misses += d.pool_misses;
}

// One single-process NPB solve, taken a step at a time so that a round can
// run the timed iterations of several solves in lockstep.  The constructor
// is the set-up: build on the round's right-hand side, one untimed warm-up
// iteration, re-initialise.  iterate() is one timed iteration (V-cycle +
// residual), finish() takes the final norm.  A solve's spans are recorded
// when it finishes, under its own root, because lockstep solves interleave
// on one thread and cannot nest by scope.
class Solve {
 public:
  Solve(V v, const mg::MgSpec& spec, const std::vector<double>& v_ext,
        std::string key)
      : v_(v), key_(std::move(key)), start_ns_(now_ns()) {
    steps_ = make_steps(v, spec, v_ext);
    const std::int64_t built = now_ns();
    out_.construct_s = static_cast<double>(built - start_ns_) * 1e-9;
    child("construct", start_ns_, built);
    steps_->reset();
    steps_->vcycle();
    steps_->resid();
    steps_->reset();
    const std::int64_t warm = now_ns();
    child("warmup", built, warm);
    out_.setup_s = static_cast<double>(warm - start_ns_) * 1e-9;
  }

  // The array-system counters are read around each iteration, so solves in
  // lockstep each get their own share.
  void iterate() {
    const sac::RuntimeStats before = sac::stats_snapshot();
    const std::int64_t t0 = now_ns();
    steps_->vcycle();
    const std::int64_t t1 = now_ns();
    steps_->resid();
    const std::int64_t t2 = now_ns();
    out_.seconds += static_cast<double>(t2 - t0) * 1e-9;
    out_.iterations.push_back(static_cast<double>(t2 - t0) * 1e-9);
    add(out_.sac_delta, stats_delta(before, sac::stats_snapshot()));
    child("vcycle", t0, t1);
    child("residual", t1, t2);
    // The serial reference's iteration norms check the message-passing runs.
    if (v_ == V::kF77) out_.norms.push_back(steps_->norm());
  }

  Outcome finish() {
    const std::int64_t t0 = now_ns();
    out_.final_norm = steps_->norm();
    child("norm", t0, now_ns());
    steps_.reset();
    if (tracer().enabled()) {
      const std::uint64_t root = tracer().record(
          std::string("solve.") + vname(v_), key_, 0, start_ns_, now_ns());
      for (const auto& [name, a, b] : spans_) tracer().record(name, key_, root, a, b);
    }
    return out_;
  }

 private:
  void child(const char* name, std::int64_t a, std::int64_t b) {
    if (tracer().enabled()) spans_.emplace_back(name, a, b);
  }

  V v_;
  std::string key_;
  std::int64_t start_ns_;
  std::unique_ptr<Steps> steps_;
  Outcome out_;
  std::vector<std::tuple<const char*, std::int64_t, std::int64_t>> spans_;
};

// One bound loopback listener per rank; each transport takes ownership of
// its listener and closes it.
struct Listeners {
  std::vector<int> fds;
  std::vector<std::string> hosts;

  explicit Listeners(int ranks) {
    for (int r = 0; r < ranks; ++r) {
      const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (fd < 0) {
        for (int open_fd : fds) ::close(open_fd);
        throw std::runtime_error("socket() failed");
      }
      const int one = 1;
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = 0;
      socklen_t len = sizeof addr;
      if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
          ::listen(fd, 16) != 0 ||
          ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
        ::close(fd);
        for (int open_fd : fds) ::close(open_fd);
        throw std::runtime_error("loopback listener set-up failed");
      }
      fds.push_back(fd);
      hosts.push_back("127.0.0.1:" + std::to_string(ntohs(addr.sin_port)));
    }
  }
};

}  // namespace

msg::WorldStats run_two_ranks(bool tcp, const std::function<void(msg::Comm&)>& fn,
                              double* rendezvous_s) {
  constexpr int kRanks = 2;
  if (!tcp) {
    msg::World world(kRanks);
    world.run(fn);
    return world.stats();
  }
  Listeners listeners(kRanks);
  msg::WorldStats total;
  std::mutex mu;
  std::exception_ptr error;
  std::vector<double> rdv(kRanks, 0.0);
  std::vector<std::thread> threads;
  for (int r = 0; r < kRanks; ++r) {
    threads.emplace_back([&, r] {
      try {
        net::TcpOptions opt;
        opt.rank = r;
        opt.hosts = listeners.hosts;
        opt.listen_fd = listeners.fds[static_cast<std::size_t>(r)];
        const std::int64_t t0 = now_ns();
        net::TcpTransport transport(opt);
        rdv[static_cast<std::size_t>(r)] = seconds_since(t0);
        msg::World world(transport);
        world.run(fn);
        const msg::WorldStats s = world.stats();
        std::lock_guard<std::mutex> lock(mu);
        total.messages += s.messages;
        total.bytes += s.bytes;
        total.send_blocked += s.send_blocked;
        total.bytes_sent += s.bytes_sent;
        total.bytes_received += s.bytes_received;
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
  if (rendezvous_s != nullptr) *rendezvous_s = std::max(rdv[0], rdv[1]);
  return total;
}

namespace {

Outcome solve_mpi(const mg::MgSpec& spec, bool tcp) {
  Outcome o;
  const mg::MgMpi mpi(spec, 2);
  mg::MgMpi::Result res;
  const std::int64_t t0 = now_ns();
  o.comm = run_two_ranks(
      tcp,
      [&](msg::Comm& comm) {
        mg::MgMpi::Result local = mpi.run_rank(comm, spec.nit, true);
        if (comm.rank() == 0) res = std::move(local);
      },
      &o.rendezvous_s);
  const double wall = seconds_since(t0);
  o.seconds = res.seconds;
  o.setup_s = wall - res.seconds;
  o.norms = res.norms;
  o.final_norm = res.final_norm;
  return o;
}

double per_iter(std::uint64_t count, int nit) {
  return static_cast<double>(count) / static_cast<double>(nit);
}

}  // namespace

struct SolvePhase::State {
  Workload w;
  RunState& st;
  mg::MgSpec spec;
  std::vector<int> cpus;  // allowed cores, rotated over by single-threaded solves
  int round = 0;
  std::uint64_t solve_id = 0;
  std::map<V, std::vector<double>> times, construct, iterations;
  std::map<V, std::vector<double>> vs_f77;  // time over f77's, same moment
  std::map<V, Outcome> last;
  std::vector<double> rhs_s, rendezvous;

  State(const Workload& wl, RunState& s)
      : w(wl), st(s), spec(mg::MgSpec::for_class(wl.cls)) {}

  // The core a single-threaded variant takes timed iteration `it` of this
  // round on (none: the scheduler places multi-threaded ones).  Cores of a
  // virtual host differ in speed, and the difference drifts by 10-20% over
  // seconds, so each lockstep step moves to the next core: the variants of
  // one step share a core, and a round averages over all of them.
  std::vector<int> step_core(V v, int it) const {
    if (cpus.empty() || (w.threads != 1 && v != V::kF77)) return {};
    return {cpus[static_cast<std::size_t>(round * spec.nit + it) % cpus.size()]};
  }
};

SolvePhase::SolvePhase(const Workload& w, RunState& st)
    : s_(std::make_unique<State>(w, st)) {
  // The default configuration a user gets, plus implicit MT for the
  // multi-core class; OpenMP gets the same team size.
  sac::config() = sac::config_from_env();
  if (w.threads > 1) {
    sac::config().mt_enabled = true;
    sac::config().mt_threads = w.threads;
  }
  s_->cpus = allowed_cpus();
  mg::MgOmp::omp_threads(static_cast<int>(w.threads));
}

SolvePhase::~SolvePhase() {
  sac::config() = sac::config_from_env();
  mg::MgOmp::omp_threads(1);
}

void SolvePhase::round(Rng& rng) {
  State& S = *s_;
  RunState& st = S.st;
  const mg::MgSpec& spec = S.spec;
  std::vector<V> order(std::begin(kAll), std::end(kAll));
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng.next() % (i + 1)]);
  }

  const std::int64_t t_rhs = now_ns();
  std::vector<double> v_ext;
  {
    Scope s("fill_rhs", "rhs:" + std::to_string(S.round));
    const extent_t n = spec.nx + 2;
    v_ext.assign(static_cast<std::size_t>(n * n * n), 0.0);
    mg::fill_rhs(std::span<double>(v_ext), spec.nx);
  }
  S.rhs_s.push_back(seconds_since(t_rhs));
  double setup_pass = S.rhs_s.back();

  // The groups of solves this round runs one after another: the four
  // single-process solves together, taking their timed iterations in
  // lockstep, and each message-passing variant mp_solves times.
  std::vector<std::vector<V>> groups;
  bool placed = false;
  for (V v : order) {
    if (message_passing(v)) {
      groups.insert(groups.end(), static_cast<std::size_t>(S.w.mp_solves), {v});
    } else if (!placed) {
      placed = true;
      groups.emplace_back();
      for (V u : order) {
        if (!message_passing(u)) groups.back().push_back(u);
      }
    }
  }
  std::map<V, Outcome> round_out;
  std::map<V, std::vector<double>> round_times;
  std::map<V, std::vector<std::vector<double>>> mp_norms;
  auto accept = [&](V v, Outcome o) {
    if (st.inject_wrong_norm) {
      o.final_norm *= 1.0 + 1e-6;
      if (!o.norms.empty()) o.norms.back() = o.final_norm;
      st.inject_wrong_norm = false;
    }
    mg::MgResult as_result;
    as_result.final_norm = o.final_norm;
    bool known = false;
    if (!mg::verify(as_result, spec, &known) || !known) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s final norm %.17g fails class %s",
                    vname(v), o.final_norm, spec.name().c_str());
      st.fail(buf, true);
    }
    if (round_out.count(v) == 0) setup_pass += o.setup_s;
    S.times[v].push_back(o.seconds);
    S.iterations[v].insert(S.iterations[v].end(), o.iterations.begin(),
                           o.iterations.end());
    S.construct[v].push_back(o.construct_s);
    if (v == V::kMpiTcp) S.rendezvous.push_back(o.rendezvous_s);
    if (message_passing(v)) mp_norms[v].push_back(o.norms);
    round_times[v].push_back(o.seconds);
    round_out[v] = o;
  };
  auto threw = [&](V v, const std::exception& e) {
    st.fail(std::string(vname(v)) + " solve threw: " + e.what(), true);
  };
  for (const std::vector<V>& group : groups) {
    // Every group starts from an empty buffer pool, so its set-up, timing
    // and footprint do not depend on which variant ran before it.
    sac::BufferPool::instance().drain();
    if (message_passing(group[0])) {
      const V v = group[0];
      st.attempted += 1;
      try {
        Outcome o;
        {
          Scope root(std::string("solve.") + vname(v),
                     "solve:" + std::to_string(++S.solve_id));
          o = solve_mpi(spec, v == V::kMpiTcp);
        }
        accept(v, std::move(o));
      } catch (const std::exception& e) {
        threw(v, e);
      }
      continue;
    }
    std::vector<std::pair<V, std::unique_ptr<Solve>>> live;
    for (V v : group) {
      st.attempted += 1;
      try {
        live.emplace_back(v, std::make_unique<Solve>(
                                 v, spec, v_ext, "solve:" + std::to_string(++S.solve_id)));
      } catch (const std::exception& e) {
        threw(v, e);
      }
    }
    for (int it = 0; it < spec.nit; ++it) {
      for (auto& [v, s] : live) {
        if (!s) continue;
        try {
          const Pin pin(S.step_core(v, it));
          s->iterate();
        } catch (const std::exception& e) {
          threw(v, e);
          s.reset();
        }
      }
    }
    for (auto& [v, s] : live) {
      if (!s) continue;
      try {
        accept(v, s->finish());
      } catch (const std::exception& e) {
        threw(v, e);
      }
      s.reset();
    }
  }
  sac::BufferPool::instance().drain();
  // Variants that share an algorithm must agree: direct computes sac's
  // values without ghost layers, omp is f77's C port, and the
  // message-passing runs reuse the reference kernels in the same order, so
  // every mpi iteration norm must match this round's serial f77 solve.
  // (Class W converges to the rounding floor, where mg::verify can only
  // check the magnitude.)
  for (auto [a, b] : {std::pair{V::kDirect, V::kSac}, std::pair{V::kOmp, V::kF77}}) {
    if (round_out.count(a) != 0 && round_out.count(b) != 0 &&
        !agrees(round_out[a].final_norm, round_out[b].final_norm)) {
      st.fail(std::string(vname(a)) + " final norm differs from " + vname(b), true);
    }
  }
  if (round_out.count(V::kF77) != 0) {
    const std::vector<double>& want = round_out[V::kF77].norms;
    for (const auto& [v, all] : mp_norms) {
      for (const std::vector<double>& got : all) {
        bool ok = got.size() == want.size();
        for (std::size_t i = 0; ok && i < got.size(); ++i) {
          ok = agrees(got[i], want[i]);
        }
        if (!ok) st.fail(std::string(vname(v)) + " norms differ from serial f77", true);
      }
    }
  }
  // Each variant's time over the f77 reference's at the same moment: per
  // lockstep step for the single-process variants, per solve over the
  // round's f77 solve for the message-passing ones.
  if (round_out.count(V::kF77) != 0) {
    const Outcome& f77 = round_out[V::kF77];
    for (const auto& [v, ts] : round_times) {
      if (message_passing(v)) {
        for (double t : ts) S.vs_f77[v].push_back(t / f77.seconds);
        continue;
      }
      const std::vector<double>& its = round_out[v].iterations;
      for (std::size_t i = 0; i < its.size() && i < f77.iterations.size(); ++i) {
        S.vs_f77[v].push_back(its[i] / f77.iterations[i]);
      }
    }
  }
  for (auto& [v, o] : round_out) S.last[v] = o;
  st.setup_passes.push_back(setup_pass);
  ++S.round;
}

void SolvePhase::finish() {
  State& S = *s_;
  Metrics& m = S.st.metrics;
  for (V v : kAll) {
    S.st.samples[std::string(vname(v)) + "_solve_s"] = S.times[v];
    S.st.samples[std::string(vname(v)) + "_iteration_s"] = S.iterations[v];
    m.set(std::string(vname(v)) + "_solve_s", median(S.times[v]), "s");
  }
  // The paper's comparison, taken at the same moment so that the host's
  // speed cancels.  Threads that meet at a barrier or wait on a message
  // wake-up run two to four times slower for seconds at a time while the
  // host preempts the virtual cores, and the serial f77 does not; the lower
  // quartile of the ratios follows the program through such stretches,
  // where the median follows the host.
  for (V v : {V::kSac, V::kDirect, V::kOmp, V::kMpi}) {
    S.st.samples[std::string(vname(v)) + "_vs_f77"] = S.vs_f77[v];
    m.set(std::string(vname(v)) + "_vs_f77", quantile(S.vs_f77[v], 0.25), "x");
  }
  m.set("mg.fill_rhs_s", median(S.rhs_s), "s");
  for (V v : {V::kSac, V::kDirect, V::kF77}) {
    m.set(std::string("mg.") + vname(v) + ".construct_s", median(S.construct[v]),
          "s");
  }
  m.set("net.rendezvous_s", median(S.rendezvous), "s");

  const int nit = S.spec.nit;
  for (V v : {V::kSac, V::kDirect}) {
    const sac::RuntimeStats& d = S.last[v].sac_delta;
    const std::string p = std::string("sac.") + vname(v) + ".";
    m.set(p + "with_loops_per_iter", per_iter(d.with_loops, nit), "count");
    m.set(p + "allocs_per_iter", per_iter(d.allocations, nit), "count");
    m.set(p + "bytes_allocated_per_iter", per_iter(d.bytes_allocated, nit), "B");
    m.set(p + "cow_copies_per_iter", per_iter(d.copies_on_write, nit), "count");
    m.set(p + "parallel_regions_per_iter", per_iter(d.parallel_regions, nit),
          "count");
    const double served = static_cast<double>(d.pool_hits + d.pool_misses);
    m.set(p + "pool_hit_ratio",
          served > 0 ? static_cast<double>(d.pool_hits) / served : 0.0, "ratio");
  }
  const msg::WorldStats& inproc = S.last[V::kMpi].comm;
  m.set("msg.messages_per_iter", per_iter(inproc.messages, nit), "count");
  m.set("msg.bytes_per_iter", per_iter(inproc.bytes, nit), "B");
  const msg::WorldStats& tcp = S.last[V::kMpiTcp].comm;
  m.set("net.wire_bytes_per_payload_byte",
        tcp.bytes > 0 ? static_cast<double>(tcp.bytes_sent) /
                            static_cast<double>(tcp.bytes)
                      : 0.0,
        "ratio");
  m.set("net.send_blocked_per_iter", per_iter(tcp.send_blocked, nit), "count");

  if (!tracer().enabled()) return;
  // Tracing overhead: the spans of the timed iterations times the cost of
  // recording one span, over the timed seconds.  A traced-minus-untraced
  // difference of solve times would be buried in the host's run-to-run
  // noise; the per-span cost is measured directly.
  double timed_s = 0.0;
  for (V v : kAll) {
    for (double t : S.times[v]) timed_s += t;
  }
  std::size_t timed_spans = 0;
  for (const Span& sp : tracer().spans()) {
    if (sp.name == "vcycle" || sp.name == "residual") ++timed_spans;
  }
  Tracer probe;
  probe.set_enabled(true);
  constexpr int kProbeSpans = 20000;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kProbeSpans; ++i) {
    const std::int64_t t = now_ns();
    probe.record("vcycle", "probe", 0, t, t);
  }
  const double per_span_s = seconds_since(t0) / kProbeSpans;
  m.set("bench.trace_overhead_share",
        timed_s > 0 ? static_cast<double>(timed_spans) * per_span_s / timed_s : 0.0,
        "ratio");
  // V-cycle and residual self time per call, from the traced solves.
  std::map<std::string, std::vector<double>> calls;
  const std::vector<Span> spans = tracer().spans();
  const std::map<std::uint64_t, double> self = tracer().self_seconds();
  std::map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  for (const Span& s : spans) {
    if (s.name != "vcycle" && s.name != "residual") continue;
    const Span* root = &s;
    while (root->parent != 0) root = by_id.at(root->parent);
    if (root->name.rfind("solve.", 0) != 0) continue;
    calls[root->name.substr(6) + "." + s.name].push_back(self.at(s.id) * 1e3);
  }
  for (V v : {V::kSac, V::kDirect, V::kF77}) {
    const std::string p = std::string("mg.") + vname(v) + ".";
    m.set(p + "vcycle_ms", median(calls[std::string(vname(v)) + ".vcycle"]), "ms");
    m.set(p + "residual_ms", median(calls[std::string(vname(v)) + ".residual"]),
          "ms");
  }
}

}  // namespace perfbench
