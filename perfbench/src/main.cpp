// perfbench: the repository benchmark driver.
//
//   perfbench --workload <npb-W|npb-A> --seed <n> --seconds <s>
//             --trace <0|1> [--out <file>] [--inject-wrong-norm]
//
// Runs one workload for about --seconds, checks every answer, and prints
// the run's set-up record, then as its last line one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every metric it measured (perfbench/run.py selects the end-to-end
// or per-layer set).  --trace 1 records spans at the benchmark's call sites
// and adds the per-layer sweeps; --out receives the record, the metrics and
// the spans.  Exit status: 0 when every answer was right, 1 on a wrong
// answer or solver exception, 2 on bad usage or an environment override.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/config.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

void RunState::fail(const std::string& why, bool wrong_answer) {
  failed += 1;
  if (wrong_answer) wrong += 1;
  if (diagnostics.size() < 20) diagnostics.push_back(why);
}

namespace {

using sacpp::mg::MgClass;

// Why each workload: npb-W's grids stay in cache, so per-with-loop fixed cost,
// allocation, border set-up and the small V-cycle levels dominate, and the
// message-passing runs are bound by message count; npb-A's grids exceed the
// shared L3, so kernels are bound by memory bandwidth and the MT runtime
// and large halo planes are exercised.  Traced runs of both carry the same
// class-S serve traffic, where per-call overhead and pool contention show
// most.
const Workload kWorkloads[] = {
    {"npb-W", MgClass::W, 1, 0.4, 3},
    {"npb-A", MgClass::A, 2, 0.5, 2},
};

// Length of one serve block (a fixed-rate stretch plus a max-rate probe).
constexpr double kServeBlockSeconds = 3.0;

// Alternate solve rounds and serve blocks so that each phase keeps its
// share of the elapsed time, as near its target as whole steps allow, and
// end on a whole core rotation of the serve blocks.  Untraced runs report
// only the end-to-end metrics, none of which comes from serve traffic: they
// spend the whole run on solve rounds and keep of the serve phase its
// set-up.
void run_phases(const Workload& w, double seconds, Rng& rng, RunState& st) {
  SolvePhase solve(w, st);
  ServePhase serve(st);
  const bool with_serve = tracer().enabled();
  const double solve_target = with_serve ? seconds * w.solve_share : seconds;
  const double serve_target = seconds - solve_target;
  double solve_s = 0.0, serve_s = 0.0;
  int rounds = 0, blocks = 0;
  // Another step is due while stopping now would leave the phase further
  // below its target than one more (average) step would take it above; a
  // phase takes at least two steps, so that no median rests on one sample.
  auto due = [](double done, int steps, double target) {
    return steps < 2 || done + 0.5 * done / steps < target;
  };
  if (!with_serve) serve.time_start();
  for (;;) {
    const bool want_solve = due(solve_s, rounds, solve_target);
    const bool want_serve =
        with_serve &&
        (due(serve_s, blocks, serve_target) || blocks % serve.rotation() != 0);
    if (!want_solve && !want_serve) break;
    const bool do_solve =
        want_solve && (!want_serve || solve_s / solve_target <= serve_s / serve_target);
    const std::int64_t t0 = now_ns();
    if (do_solve) {
      solve.round(rng);
      solve_s += seconds_since(t0);
      ++rounds;
    } else {
      serve.block(kServeBlockSeconds, rng);
      serve_s += seconds_since(t0);
      ++blocks;
    }
  }
  solve.finish();
  serve.finish();
  st.metrics.set("bench.solve_rounds", rounds, "count");
  st.metrics.set("bench.serve_blocks", blocks, "count");
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <npb-W|npb-A> "
               "--seed <n> --seconds <s> --trace <0|1> [--out <file>] "
               "[--inject-wrong-norm]\n",
               msg);
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

// What was measured: the resolved engines and modes a default user gets,
// the CPU and the compiler.
std::string record(const Workload& w, std::uint64_t seed, double seconds) {
  using namespace sacpp;
  const sac::SacConfig cfg = sac::config_from_env();
  std::string flags;
  auto flag = [&flags](bool has, const char* name) {
    if (has) flags += std::string(flags.empty() ? "" : " ") + name;
  };
  flag(__builtin_cpu_supports("avx2"), "avx2");
  flag(__builtin_cpu_supports("fma"), "fma");
  flag(__builtin_cpu_supports("avx512f"), "avx512f");
  flag(__builtin_cpu_supports("avx512dq"), "avx512dq");
  flag(__builtin_cpu_supports("avx512vl"), "avx512vl");
  std::string out = "{";
  out += "\"workload\": " + json_string(w.name);
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"seconds\": " + std::to_string(seconds);
  out += ", \"engine\": " + json_string(sac::backend_for(cfg.backend).name());
  out += ", \"backend\": " + json_string(sac::backend_name(cfg.backend));
  out += ", \"simd_engine\": " +
         json_string(sac::backend_for(sac::BackendKind::kSimd).name());
  out += ", \"stencil_mode\": " + json_string(sac::stencil_mode_name(cfg.stencil_mode));
  out += ", \"pool\": " + std::string(cfg.pool ? "true" : "false");
  out += ", \"folding\": " + std::string(cfg.folding ? "true" : "false");
  out += ", \"threads\": " + std::to_string(w.threads);
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"cpu_flags\": " + json_string(flags);
  out += ", \"compiler\": " + json_string(std::string(PERFBENCH_COMPILER) +
                                          " (" + __VERSION__ + ")");
  return out + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload, out_path;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool inject = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--inject-wrong-norm") {
      inject = true;
    } else if (a == "--workload" && (v = value())) {
      workload = v;
    } else if (a == "--seed" && (v = value())) {
      seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && (v = value())) {
      seconds = std::strtod(v, nullptr);
    } else if (a == "--trace" && (v = value())) {
      trace = std::atoi(v);
    } else if (a == "--out" && (v = value())) {
      out_path = v;
    } else {
      return usage(("bad argument " + a).c_str());
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (cand.name == workload) w = &cand;
  }
  if (w == nullptr) return usage("unknown --workload");
  if (!have_seed || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage("--seed, --seconds > 0 and --trace 0|1 are required");
  }
  // Overrides would silently change what is measured.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SACPP_", 6) == 0 ||
        std::strncmp(*e, "OMP_NUM_THREADS=", 16) == 0) {
      return usage((std::string("refusing to run with override ") + *e).c_str());
    }
  }

  RunState st;
  st.inject_wrong_norm = inject;
  tracer().set_enabled(trace == 1);
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5851f42d4c957f2dULL);
  const std::string rec = record(*w, seed, seconds);
  std::printf("perfbench record %s\n", rec.c_str());
  std::fflush(stdout);

  try {
    run_phases(*w, seconds, rng, st);
    if (trace == 1) run_layer_sweeps(*w, st);
  } catch (const std::exception& e) {
    st.fail(std::string("benchmark aborted: ") + e.what(), true);
  }

  st.samples["setup_s.rounds"] = st.setup_passes;
  st.metrics.set("setup_s", median(st.setup_passes) + st.serve_setup_s, "s");
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  st.metrics.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");
  std::string span_error;
  if (trace == 1) {
    span_error = tracer().validate();
    st.metrics.set("bench.span_tree_valid", span_error.empty() ? 1.0 : 0.0, "bool");
    st.metrics.set("bench.spans", static_cast<double>(tracer().spans().size()),
                   "count");
    if (!span_error.empty()) st.diagnostics.push_back("span tree: " + span_error);
  }

  for (const std::string& d : st.diagnostics) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", d.c_str());
  }
  const bool correct = st.wrong == 0;
  const std::string result =
      "{\"correct\": " + std::string(correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(st.attempted) +
      ", \"failed\": " + std::to_string(st.failed) +
      ", \"metrics\": " + st.metrics.json() + "}";
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << "{\"record\": " << rec << ",\n\"result\": " << result;
    out << ",\n\"samples\": {";
    const char* sep = "";
    for (const auto& [name, xs] : st.samples) {
      out << sep << "\"" << name << "\": [";
      for (std::size_t i = 0; i < xs.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%s%.9g", i ? ", " : "", xs[i]);
        out << buf;
      }
      out << "]";
      sep = ", ";
    }
    out << "}";
    if (trace == 1) out << ",\n\"trace\": " << tracer().json();
    out << "}\n";
  }
  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}
