// Ablation 4 (DESIGN.md D4) — the sequential small-grid threshold.
//
// Below the threshold a with-loop runs on one CPU even when multithreading
// is on; the paper advises this to avoid fork/join overhead on the small
// grids at the bottom of the V-cycle.  The sweep shows the modelled class
// W/A speedups at 10 CPUs as the threshold moves, and the host-measured
// cost of parallelising tiny with-loops.

#include <cstdio>
#include <thread>

#include "bench_common.hpp"
#include "sacpp/common/table.hpp"
#include "sacpp/common/timer.hpp"
#include "sacpp/machine/model.hpp"
#include "sacpp/sac/sac.hpp"

using namespace sacpp;
using namespace sacpp::machine;

int main(int argc, char** argv) {
  Cli cli;
  bench::add_standard_options(cli, "W,A");
  cli.add_option("cpus", "10", "CPU count for the modelled speedups");
  if (!cli.parse(argc, argv)) return 1;
  const int cpus = static_cast<int>(cli.get_int("cpus"));

  // 1. model sweep
  {
    SmpModel model;
    Table t({"class", "threshold [elems]", "speedup at P=" + std::to_string(cpus)});
    for (const mg::MgSpec& spec : bench::parse_classes(cli.get("classes"))) {
      for (double threshold : {1.0, 512.0, 4096.0, 32768.0, 262144.0,
                               2097152.0}) {
        TraceOptions opts;
        opts.sac_seq_threshold_elems = threshold;
        const Trace trace = build_trace(mg::Variant::kSac, spec, opts);
        const auto s = model.speedups(trace, cpus);
        t.add_row({spec.name(), Table::fmt(threshold, 0),
                   Table::fmt(s.back(), 2)});
      }
    }
    std::printf(
        "%s\n",
        t.to_ascii("Ablation D4 — modelled SAC speedup vs sequential "
                   "threshold (too low: fork/join on tiny grids; too high: "
                   "lost parallelism)")
            .c_str());
  }

  // 2. host: cost of parallelising tiny with-loops (needs >1 hardware CPU
  //    to show a benefit; on 1 CPU it shows pure overhead, which is the
  //    point of the threshold)
  {
    Table t({"grid", "sequential [us]", "forced parallel [us]"});
    const sac::StencilCoeffs c{{-0.5, 0.1, 0.05, 0.02}};
    for (extent_t n : {4, 10, 18, 34, 66}) {
      auto a = sac::genarray_const(cube_shape(3, n), 1.0);
      const int reps = n <= 18 ? 5000 : 200;
      double seq_us = 0.0, par_us = 0.0;
      {
        sac::SacConfig cfg = bench::paper_config();
        cfg.mt_enabled = false;
        sac::ScopedConfig guard(cfg);
        Timer timer;
        for (int i = 0; i < reps; ++i) (void)sac::relax_kernel(a, c);
        seq_us = timer.elapsed_seconds() * 1e6 / reps;
      }
      {
        sac::SacConfig cfg = bench::paper_config();
        cfg.mt_enabled = true;
        cfg.mt_threads = std::max(2u, std::thread::hardware_concurrency());
        cfg.mt_threshold = 1;  // force parallel execution
        sac::ScopedConfig guard(cfg);
        Timer timer;
        for (int i = 0; i < reps; ++i) (void)sac::relax_kernel(a, c);
        par_us = timer.elapsed_seconds() * 1e6 / reps;
      }
      t.add_row({std::to_string(n) + "^3", Table::fmt(seq_us, 1),
                 Table::fmt(par_us, 1)});
    }
    sac::shutdown_runtime();
    std::printf("%s\n",
                t.to_ascii("Host: forcing multithreading on small grids "
                           "(threshold = 1)")
                    .c_str());
  }
  return 0;
}
