// serve_bench: throughput and overload behaviour of the solver service.
//
//   $ serve_bench --class S --clients 8 --requests 24 --json serve_raw.json
//
// Three phases (docs/serve.md):
//
//   serial     — the comparator: solves run back to back in one thread, no
//                service in the way.
//   concurrent — solves offered by `clients` closed-loop client threads
//                against one SolverService sharing the core budget.  Gate:
//                speedup >= a core-scaled floor (3x needs >= 8 hardware
//                threads; a 1-core host can only be asked not to regress),
//                and every result must match the serial final norm to
//                1e-12 — concurrency must never change answers.
//   overload   — open-loop Poisson arrivals at 2x (serial throughput x
//                cores), an upper bound of the service's capacity, mixed
//                priorities, deadlines on non-high requests.  Gates: the
//                queue sheds (bounded, no OOM) and admitted high-priority
//                p99 stays within a core-scaled factor of the unloaded p99,
//                itself taken over at least kUnloadedSolves solves (and
//                kWindowSeconds) on the idle service.
//
// Every gate compares wall-clock figures, so each is measured over windows
// long enough that one thread wake-up or a burst of load from another
// process is noise: the serial and concurrent phases run kRounds
// alternating windows of at least kWindowSeconds (and --requests solves)
// each, and a phase's throughput is its best window — capacity is what the
// host delivered when nothing else got in the way, and a disturbed window
// of either phase cannot move the speedup in either direction.
//
// --json writes the raw summary; bench/serve_consolidate.py validates it
// against bench/serve_schema.json and emits BENCH_serve.json (CI's
// serve-load job runs exactly that pipeline).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "sacpp/common/cli.hpp"
#include "sacpp/common/table.hpp"
#include "sacpp/mg/driver.hpp"
#include "sacpp/obs/obs.hpp"
#include "sacpp/serve/server.hpp"

using namespace sacpp;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t idx = std::min(
      xs.size() - 1, static_cast<std::size_t>(q * static_cast<double>(xs.size())));
  return xs[idx];
}

// Core-scaled gates: the acceptance targets assume >= 8 hardware threads;
// smaller machines (the 1-CPU container this repo's experiments run in, or
// a 4-core CI runner) get proportionally weaker floors, recorded in the
// artifact so readers can see which gate applied.
double speedup_gate(unsigned cores) {
  if (cores >= 8) return 3.0;
  if (cores >= 4) return 2.0;
  if (cores >= 2) return 1.3;
  return 0.75;  // 1 core: the service must not cost more than ~25%
}

double p99_ratio_gate(unsigned cores) {
  // With one core an admitted high-priority job still waits out the
  // non-preemptible job in flight (and queues behind other high jobs, which
  // alone are ~20% core utilisation at 2x overload), so the single-core
  // floor is looser.
  return cores >= 2 ? 2.0 : 4.0;
}

// Measurement windows (see the header): long enough against a wake-up, few
// enough that the whole bench stays a smoke test.
constexpr double kWindowSeconds = 0.5;
constexpr int kRounds = 3;
constexpr std::size_t kUnloadedSolves = 40;

struct PhaseResult {
  double wall_seconds = 0.0;  // of the best window
  double throughput = 0.0;    // completed solves per second, best window
  double worst_throughput = 0.0;
  std::size_t completed = 0;  // in the best window
  std::vector<double> norms;  // every window's
};

// Fold one measurement window into a phase: keep the best window's figures.
void add_window(PhaseResult& phase, std::size_t completed, double wall) {
  const double rate = static_cast<double>(completed) / wall;
  if (rate > phase.throughput) {
    phase.throughput = rate;
    phase.wall_seconds = wall;
    phase.completed = completed;
  }
  if (phase.worst_throughput == 0.0 || rate < phase.worst_throughput) {
    phase.worst_throughput = rate;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  cli.add_option("class", "S", "benchmark class for every request");
  cli.add_option("clients", "8", "concurrent closed-loop client threads");
  cli.add_option("requests", "24", "minimum solves per measurement window");
  cli.add_option("cores", "0", "service core budget (0 = hardware)");
  cli.add_option("overload-seconds", "3", "duration of the overload phase");
  cli.add_option("json", "", "write the raw machine-readable summary here");
  cli.add_flag("skip-overload", "run only the throughput phases");
  if (!cli.parse(argc, argv)) return 1;

  const mg::MgClass cls = mg::parse_class(cli.get("class"));
  const auto requests = static_cast<std::size_t>(cli.get_int("requests"));
  const auto clients = static_cast<std::size_t>(cli.get_int("clients"));
  unsigned cores = static_cast<unsigned>(cli.get_int("cores"));
  if (cores == 0) cores = std::max(1u, std::thread::hardware_concurrency());

  const mg::MgSpec spec = mg::MgSpec::for_class(cls);
  mg::RunOptions run_opts;
  run_opts.warmup = false;
  run_opts.record_norms = false;

  serve::ServeConfig cfg;
  cfg.total_cores = cores;
  cfg.executors = static_cast<unsigned>(
      std::min<std::size_t>(clients, cores));
  cfg.queue_capacity = std::max<std::size_t>(64, 2 * requests);
  serve::SolverService service(cfg);

  // A window lasts until it has both run `requests` solves and lasted
  // kWindowSeconds.
  auto window_open = [&](std::size_t started, double t0) {
    return started < requests || now_seconds() - t0 < kWindowSeconds;
  };

  // -- phase 1: serialized comparator ---------------------------------------
  auto serial_window = [&](PhaseResult& phase) {
    const double t0 = now_seconds();
    std::size_t done = 0;
    while (window_open(done, t0)) {
      const mg::MgResult r =
          mg::run_benchmark(mg::Variant::kSacDirect, spec, run_opts);
      phase.norms.push_back(r.final_norm);
      done += 1;
    }
    add_window(phase, done, now_seconds() - t0);
  };

  // -- phase 2: concurrent clients ------------------------------------------
  // Returns whether every request of the window completed.
  std::uint64_t next_id = 1;
  auto concurrent_window = [&](PhaseResult& phase) {
    std::atomic<std::size_t> next{0};
    std::vector<std::vector<serve::SolveResult>> per_client(clients);
    const std::uint64_t id0 = next_id;
    const double t0 = now_seconds();
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        // Closed loop: each client keeps one request in flight.
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (!window_open(i, t0)) return;
          serve::SolveRequest req;
          req.id = id0 + i;
          req.cls = cls;
          req.gang = 1;  // throughput mode: one core per job
          per_client[c].push_back(service.submit(req).get());
        }
      });
    }
    for (auto& t : threads) t.join();
    const double wall = now_seconds() - t0;
    std::size_t offered = 0, done = 0;
    for (const auto& batch : per_client) {
      for (const serve::SolveResult& r : batch) {
        offered += 1;
        if (serve::solve_completed(r.status)) {
          done += 1;
          phase.norms.push_back(r.final_norm);
        }
      }
    }
    next_id += offered;
    add_window(phase, done, wall);
    return done == offered;
  };

  PhaseResult serial, conc;
  bool all_completed = true;
  for (int round = 0; round < kRounds; ++round) {
    serial_window(serial);
    all_completed = concurrent_window(conc) && all_completed;
  }
  const double golden_norm = serial.norms.front();
  std::printf("serve_bench: serial    best of %d windows: %zu solves in "
              "%.2fs  (%.2f/s; worst window %.2f/s)\n",
              kRounds, serial.completed, serial.wall_seconds,
              serial.throughput, serial.worst_throughput);

  const double speedup = conc.throughput / serial.throughput;
  double max_norm_rel_err = 0.0;
  for (const double norm : conc.norms) {
    max_norm_rel_err = std::max(
        max_norm_rel_err, std::abs(norm - golden_norm) /
                              std::max(std::abs(golden_norm), 1e-300));
  }
  for (const double norm : serial.norms) {
    max_norm_rel_err = std::max(
        max_norm_rel_err, std::abs(norm - golden_norm) /
                              std::max(std::abs(golden_norm), 1e-300));
  }
  const bool norms_ok = all_completed && max_norm_rel_err <= 1e-12;
  const double gate = speedup_gate(cores);
  const bool speedup_ok = speedup >= gate;
  std::printf("serve_bench: concurrent best of %d windows: %zu solves in "
              "%.2fs  (%.2f/s; worst window %.2f/s) with %zu clients on %u "
              "cores\n",
              kRounds, conc.completed, conc.wall_seconds, conc.throughput,
              conc.worst_throughput, clients, cores);
  std::printf("serve_bench: speedup %.2fx (gate %.2fx on %u cores)  "
              "max norm rel err %.2e\n",
              speedup, gate, cores, max_norm_rel_err);

  // -- phase 3: overload ------------------------------------------------------
  bool overload_ran = false;
  bool shed_ok = true;
  bool p99_ok = true;
  double unloaded_p99_ms = 0.0;
  double high_p99_ms = 0.0;
  double p99_ratio = 0.0;
  double offered_rate = 0.0;
  serve::ServerSnapshot overload_snap{};
  std::size_t overload_offered = 0;
  std::size_t overload_completed = 0;
  std::size_t overload_shed = 0;
  if (!cli.get_flag("skip-overload")) {
    overload_ran = true;
    // Unloaded high-priority latency: solves one at a time on the idle
    // service, for a window and at least kUnloadedSolves of them, so that
    // the p99 is not the maximum of a few samples: one clean or one
    // disturbed run of them would move it either way.
    {
      std::vector<double> e2e_ms;
      const double t0 = now_seconds();
      for (std::size_t i = 0;
           i < kUnloadedSolves || now_seconds() - t0 < kWindowSeconds; ++i) {
        serve::SolveRequest req;
        req.id = next_id++;
        req.cls = cls;
        req.priority = serve::Priority::kHigh;
        req.gang = 1;
        const serve::SolveResult r = service.submit(req).get();
        e2e_ms.push_back(static_cast<double>(r.e2e_ns) * 1e-6);
      }
      unloaded_p99_ms = quantile(e2e_ms, 0.99);
    }

    // 2x an upper bound of the capacity: the service cannot outrun one
    // serial solver per core, so the offered load exceeds what it can
    // serve however the concurrent phase happened to measure.
    offered_rate = 2.0 * serial.throughput * static_cast<double>(cores);
    const double duration = cli.get_double("overload-seconds");
    const auto offered =
        static_cast<std::size_t>(offered_rate * duration);
    const double mean_exec_s = 1.0 / serial.throughput;
    const auto deadline_ns =
        static_cast<std::int64_t>(3.0 * mean_exec_s * 1e9);
    std::mt19937_64 rng(12345);
    std::exponential_distribution<double> gap(offered_rate);
    std::uniform_real_distribution<double> uni(0.0, 1.0);

    std::vector<std::future<serve::SolveResult>> futures;
    std::vector<bool> is_high;
    futures.reserve(offered);
    is_high.reserve(offered);
    const auto start = std::chrono::steady_clock::now();
    double t = 0.0;
    for (std::size_t i = 0; i < offered; ++i) {
      std::this_thread::sleep_until(
          start + std::chrono::nanoseconds(static_cast<std::int64_t>(t * 1e9)));
      t += gap(rng);
      serve::SolveRequest req;
      req.id = next_id++;
      req.cls = cls;
      req.gang = 1;
      // 10% high keeps the high lane itself well under capacity (the gate
      // measures responsiveness of a small privileged share, not the high
      // lane's own saturation point).
      const bool high = uni(rng) < 0.1;
      req.priority = high ? serve::Priority::kHigh : serve::Priority::kLow;
      if (!high) req.deadline_ns = deadline_ns;  // sheddable bulk traffic
      is_high.push_back(high);
      futures.push_back(service.submit(req));
    }
    std::vector<double> high_e2e_ms;
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const serve::SolveResult r = futures[i].get();
      if (serve::solve_completed(r.status)) {
        overload_completed += 1;
        if (is_high[i]) {
          high_e2e_ms.push_back(static_cast<double>(r.e2e_ns) * 1e-6);
        }
      } else {
        overload_shed += 1;
      }
    }
    overload_offered = offered;
    overload_snap = service.snapshot();
    high_p99_ms = quantile(high_e2e_ms, 0.99);
    p99_ratio = unloaded_p99_ms > 0.0 ? high_p99_ms / unloaded_p99_ms : 0.0;
    // Under 2x overload the bounded queue must shed rather than absorb
    // everything, and the high lane must stay responsive.  Both halves of
    // "bounded" are counted events, not timings: the queue itself settled
    // some requests unserved, and it never held more than its capacity.
    const serve::QueueCounters& q = overload_snap.counters.queue;
    shed_ok = overload_shed > 0 &&
              q.rejected + q.evicted + q.shed_deadline + q.shed_overload > 0 &&
              q.peak_depth <= cfg.queue_capacity;
    p99_ok = !high_e2e_ms.empty() && p99_ratio <= p99_ratio_gate(cores);
    std::printf("serve_bench: overload  offered %zu at %.1f/s for %.1fs: "
                "%zu completed, %zu shed (queue peak %zu)\n",
                overload_offered, offered_rate, duration, overload_completed,
                overload_shed, overload_snap.counters.queue.peak_depth);
    std::printf("serve_bench: high-priority p99 %.2fms vs unloaded %.2fms "
                "(ratio %.2f, gate %.2f)\n",
                high_p99_ms, unloaded_p99_ms, p99_ratio,
                p99_ratio_gate(cores));
  }

  // -- report -----------------------------------------------------------------
  Table tbl({"phase", "solves", "wall_s", "per_s"});
  tbl.add_row({"serial", std::to_string(serial.completed),
               Table::fmt(serial.wall_seconds), Table::fmt(serial.throughput)});
  tbl.add_row({"concurrent", std::to_string(conc.completed),
               Table::fmt(conc.wall_seconds), Table::fmt(conc.throughput)});
  std::printf("\n%s", tbl.to_ascii("serve_bench (class " +
                                   cli.get("class") + ")")
                          .c_str());

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "serve_bench: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f,
                 "  \"host\": {\"hw_threads\": %u, \"cores_used\": %u},\n",
                 std::max(1u, std::thread::hardware_concurrency()), cores);
    std::fprintf(f, "  \"class\": \"%s\",\n", cli.get("class").c_str());
    std::fprintf(f, "  \"clients\": %zu,\n", clients);
    std::fprintf(
        f,
        "  \"serial\": {\"solves\": %zu, \"wall_seconds\": %.6f, "
        "\"throughput\": %.6f},\n",
        serial.completed, serial.wall_seconds, serial.throughput);
    std::fprintf(
        f,
        "  \"concurrent\": {\"solves\": %zu, \"wall_seconds\": %.6f, "
        "\"throughput\": %.6f},\n",
        conc.completed, conc.wall_seconds, conc.throughput);
    std::fprintf(f, "  \"speedup\": %.6f,\n", speedup);
    std::fprintf(f, "  \"speedup_gate\": %.2f,\n", gate);
    std::fprintf(f, "  \"speedup_ok\": %s,\n", speedup_ok ? "true" : "false");
    std::fprintf(f, "  \"max_norm_rel_err\": %.3e,\n", max_norm_rel_err);
    std::fprintf(f, "  \"norms_ok\": %s,\n", norms_ok ? "true" : "false");
    if (overload_ran) {
      std::fprintf(
          f,
          "  \"overload\": {\"offered\": %zu, \"offered_rate\": %.3f, "
          "\"completed\": %zu, \"shed\": %zu, \"queue_peak\": %zu, "
          "\"unloaded_p99_ms\": %.3f, \"high_p99_ms\": %.3f, "
          "\"p99_ratio\": %.3f, \"p99_gate\": %.2f, \"shed_ok\": %s, "
          "\"p99_ok\": %s},\n",
          overload_offered, offered_rate, overload_completed, overload_shed,
          overload_snap.counters.queue.peak_depth, unloaded_p99_ms,
          high_p99_ms, p99_ratio, p99_ratio_gate(cores),
          shed_ok ? "true" : "false", p99_ok ? "true" : "false");
    }
    const bool all_ok =
        speedup_ok && norms_ok && (!overload_ran || (shed_ok && p99_ok));
    std::fprintf(f, "  \"ok\": %s\n}\n", all_ok ? "true" : "false");
    std::fclose(f);
    std::printf("serve_bench: raw summary written to %s\n",
                json_path.c_str());
  }

  if (!norms_ok) {
    std::fprintf(stderr,
                 "serve_bench: FAIL — concurrent results diverged from the "
                 "serial goldens (completed %zu/%zu, max rel err %.2e)\n",
                 conc.completed, requests, max_norm_rel_err);
    return 1;
  }
  if (!speedup_ok) {
    std::fprintf(stderr,
                 "serve_bench: FAIL — speedup %.2fx below the %.2fx gate "
                 "for %u cores\n",
                 speedup, gate, cores);
    return 1;
  }
  if (overload_ran && !shed_ok) {
    std::fprintf(stderr,
                 "serve_bench: FAIL — 2x overload was not shed by a bounded "
                 "queue (%zu unserved; queue peak %zu of capacity %zu)\n",
                 overload_shed, overload_snap.counters.queue.peak_depth,
                 cfg.queue_capacity);
    return 1;
  }
  if (overload_ran && !p99_ok) {
    std::fprintf(stderr,
                 "serve_bench: FAIL — high-priority p99 %.2fms is %.2fx "
                 "the unloaded p99 (gate %.2fx)\n",
                 high_p99_ms, p99_ratio, p99_ratio_gate(cores));
    return 1;
  }
  std::printf("serve_bench: PASS\n");
  return 0;
}
