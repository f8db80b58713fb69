// Ablation — pooled buffer allocator on the small-grid knee (paper Sec. 5/6).
//
// The paper pins SAC's parallel limit on dynamic memory management whose
// cost is invariant in grid size: on the small grids at the bottom of the MG
// V-cycle the per-operation overhead dominates the arithmetic.  The pooled
// allocator (docs/memory.md) attacks exactly that term.  This binary shows:
//
//  * the allocation-path microbench: alloc/release pairs over the class-W
//    V-cycle shape ladder with the pool on vs off, with the aggregate
//    reduction on the bottom-of-V-cycle (sub-threshold) grids — the
//    acceptance number for the pool (--min-reduction enforces it);
//  * real benchmark runs with the pool on vs off: wall time and the
//    hit/miss counters that calibrate the model's pool term;
//  * the model's Fig. 12-style predicted speedup with the malloc-overhead
//    term replaced by the measured pool hit/miss split — the small-grid
//    knee with and without the pool.

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "sacpp/common/table.hpp"
#include "sacpp/common/timer.hpp"
#include "sacpp/machine/model.hpp"
#include "sacpp/mg/driver.hpp"
#include "sacpp/sac/buffer.hpp"
#include "sacpp/sac/sac.hpp"

using namespace sacpp;
using namespace sacpp::mg;
using namespace sacpp::machine;

namespace {

// One alloc/release pair through the real Buffer hot path (what every
// with-loop result costs before any element is computed).
double time_alloc_pairs(extent_t n, int reps) {
  const std::size_t count = static_cast<std::size_t>(n * n * n);
  Timer timer;
  for (int i = 0; i < reps; ++i) {
    sac::Buffer<double> b(count);
    // Touch one line so lazily mapped pages cannot make cold malloc look
    // artificially cheap relative to a recycled (already mapped) block.
    b.data()[0] = static_cast<double>(i);
  }
  return timer.elapsed_seconds() * 1e9 / reps;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  bench::add_standard_options(cli, "S,W");
  cli.add_option("min-reduction", "0",
                 "fail unless the bottom-of-V-cycle allocation-path "
                 "reduction reaches this percentage");
  if (!cli.parse(argc, argv)) return 1;

  const MgSpec w = MgSpec::for_class(MgClass::W);

  // 1. allocation-path microbench over the class-W V-cycle shape ladder
  double bottom_on = 0.0, bottom_off = 0.0;
  {
    Table t({"level", "extended grid", "ns/pair pool off", "ns/pair pool on",
             "reduction"});
    for (int k = 1; k <= w.levels(); ++k) {
      const extent_t n = w.extended_extent(k);
      const int reps = n <= 18 ? 200000 : (n <= 34 ? 20000 : 2000);
      double ns[2] = {0.0, 0.0};
      for (bool pool : {false, true}) {
        sac::SacConfig cfg = bench::paper_config();
        cfg.pool = pool;
        sac::ScopedConfig guard(cfg);
        time_alloc_pairs(n, reps / 10 + 1);  // warm caches / pool
        ns[pool ? 1 : 0] = time_alloc_pairs(n, reps);
      }
      // The paper's knee lives on the sub-threshold grids: aggregate the
      // levels whose with-loops run sequentially (D4 threshold).
      const double elems = static_cast<double>(n * n * n);
      if (elems < static_cast<double>(sac::config().mt_threshold) * 2.0) {
        bottom_off += ns[0];
        bottom_on += ns[1];
      }
      t.add_row({std::to_string(k), std::to_string(n) + "^3",
                 Table::fmt(ns[0], 1), Table::fmt(ns[1], 1),
                 Table::fmt(100.0 * (1.0 - ns[1] / ns[0]), 1) + "%"});
    }
    std::printf("%s\n",
                t.to_ascii("Allocation-path cost per buffer alloc/release "
                           "pair, class-W V-cycle shapes")
                    .c_str());
    if (!cli.get("csv").empty()) t.write_csv(cli.get("csv"));
  }
  const double reduction = 100.0 * (1.0 - bottom_on / bottom_off);
  std::printf("Bottom-of-V-cycle allocation-path reduction: %.1f%%\n\n",
              reduction);

  // 2. real runs with the pool on/off: wall time + the counters that feed
  // the model's pool term
  double hit_rate = 1.0;
  {
    Table t({"class", "pool", "time [s]", "allocations", "hits", "misses",
             "hit rate"});
    for (const MgSpec& spec : bench::parse_classes(cli.get("classes"))) {
      for (bool pool : {false, true}) {
        sac::SacConfig cfg = bench::paper_config();
        cfg.pool = pool;
        sac::ScopedConfig guard(cfg);
        sac::reset_stats();
        RunOptions opts;
        opts.record_norms = false;
        const MgResult res = run_benchmark(Variant::kSac, spec, opts);
        const auto& st = sac::stats();
        const double rate =
            st.pool_hits + st.pool_misses > 0
                ? static_cast<double>(st.pool_hits) /
                      static_cast<double>(st.pool_hits + st.pool_misses)
                : 0.0;
        if (pool) hit_rate = rate;  // last class: steady-state measurement
        t.add_row({spec.name(), pool ? "on" : "off",
                   Table::fmt(res.seconds, 3), std::to_string(st.allocations),
                   std::to_string(st.pool_hits),
                   std::to_string(st.pool_misses),
                   pool ? Table::fmt(100.0 * rate, 1) + "%" : "-"});
      }
    }
    std::printf("%s\n",
                t.to_ascii("Real benchmark runs (SAC variant) with the "
                           "pooled allocator on/off")
                    .c_str());
  }

  // 3. model: the Fig. 12 small-grid knee with the malloc term replaced by
  // the measured pool hit/miss split
  {
    TraceOptions off;
    TraceOptions on;
    on.sac_pool = true;
    on.sac_pool_hit_rate = hit_rate;
    const Trace t_off = build_trace(Variant::kSac, w, off);
    const Trace t_on = build_trace(Variant::kSac, w, on);
    SmpModel model;
    const auto s_off = model.speedups(t_off, 10);
    const auto s_on = model.speedups(t_on, 10);
    Table t({"CPUs", "speedup (malloc)", "speedup (pool)", "gain"});
    for (int p = 1; p <= 10; ++p) {
      t.add_row({std::to_string(p), Table::fmt(s_off[p - 1], 2),
                 Table::fmt(s_on[p - 1], 2),
                 Table::fmt(100.0 * (s_on[p - 1] / s_off[p - 1] - 1.0), 1) +
                     "%"});
    }
    std::printf(
        "%s\n",
        t.to_ascii("Modelled class-W speedup on the E4000: the paper's "
                   "memory-management term vs the pooled allocator "
                   "(measured hit rate " +
                   Table::fmt(100.0 * hit_rate, 1) + "%)")
            .c_str());
  }

  if (reduction < cli.get_double("min-reduction")) {
    std::fprintf(stderr,
                 "FAIL: allocation-path reduction %.1f%% is below the "
                 "required %.1f%%\n",
                 reduction, cli.get_double("min-reduction"));
    return 1;
  }
  return 0;
}
