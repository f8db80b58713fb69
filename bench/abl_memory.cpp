// Ablation 2 (paper Sec. 5) — dynamic memory management on small grids.
//
// The paper attributes SAC's scalability limit to memory-management
// overhead that is invariant in grid size and therefore dominates the small
// grids at the bottom of the V-cycle.  This binary makes that visible:
//
//  * measured per-grid-size with-loop cost on this host, showing the fixed
//    per-operation overhead taking over as grids shrink;
//  * the SAC implementation's allocation counters with uniqueness reuse
//    on/off (DESIGN.md D2);
//  * the model's per-level time split for one V-cycle on the E4000.

#include <cstdio>

#include "bench_common.hpp"
#include "sacpp/common/table.hpp"
#include "sacpp/common/timer.hpp"
#include "sacpp/machine/model.hpp"
#include "sacpp/mg/driver.hpp"
#include "sacpp/sac/sac.hpp"

using namespace sacpp;
using namespace sacpp::mg;
using namespace sacpp::machine;

int main(int argc, char** argv) {
  Cli cli;
  bench::add_standard_options(cli, "S");
  if (!cli.parse(argc, argv)) return 1;

  // 1. fixed per-with-loop overhead vs grid size (host measurement)
  {
    Table t({"extended grid", "elements", "ns/with-loop", "ns/element"});
    const sac::StencilCoeffs c{{-0.5, 0.1, 0.05, 0.02}};
    for (extent_t n : {4, 6, 10, 18, 34, 66, 130}) {
      auto a = sac::genarray_const(cube_shape(3, n), 1.0);
      const int reps = n <= 18 ? 20000 : (n <= 66 ? 500 : 50);
      Timer timer;
      for (int i = 0; i < reps; ++i) {
        auto r = sac::relax_kernel(a, c);
        (void)r;
      }
      const double ns = timer.elapsed_seconds() * 1e9 / reps;
      const double elems = static_cast<double>(n * n * n);
      t.add_row({std::to_string(n) + "^3", Table::fmt(elems, 0),
                 Table::fmt(ns, 0), Table::fmt(ns / elems, 1)});
    }
    std::printf("%s\n",
                t.to_ascii("Per-with-loop cost vs grid size (host): the "
                           "fixed overhead dominates small grids")
                    .c_str());
  }

  // 2. allocation counters with reuse on/off
  {
    Table t({"class", "reuse", "time [s]", "allocations", "reuses",
             "copies-on-write", "bytes allocated [MB]"});
    for (const MgSpec& spec : bench::parse_classes(cli.get("classes"))) {
      for (bool reuse : {true, false}) {
        sac::SacConfig cfg = bench::paper_config();
        cfg.reuse = reuse;
        sac::ScopedConfig guard(cfg);
        sac::reset_stats();
        RunOptions opts;
        opts.record_norms = false;
        const MgResult res = run_benchmark(Variant::kSac, spec, opts);
        const auto& st = sac::stats();
        t.add_row({spec.name(), reuse ? "on" : "off",
                   Table::fmt(res.seconds, 3), std::to_string(st.allocations),
                   std::to_string(st.reuses),
                   std::to_string(st.copies_on_write),
                   Table::fmt(static_cast<double>(st.bytes_allocated) / 1e6,
                              1)});
      }
    }
    std::printf("%s\n",
                t.to_ascii("Ablation D2 — uniqueness-based reuse").c_str());
  }

  // 3. model: per-level time split of one SAC V-cycle iteration on the E4000
  {
    const MgSpec spec = MgSpec::for_class(MgClass::A);
    const Trace trace = build_trace(Variant::kSac, spec);
    SmpModel model;
    const VariantProfile prof = VariantProfile::for_variant(Variant::kSac);
    Table t({"level", "grid", "time P=1 [ms]", "time P=10 [ms]",
             "alloc events", "alloc share P=10"});
    for (int k = 1; k <= spec.levels(); ++k) {
      double t1 = 0.0, t10 = 0.0, talloc = 0.0;
      int allocs = 0;
      for (const auto& r : trace.regions) {
        if (r.level != k) continue;
        t1 += model.region_time(r, 1, prof);
        t10 += model.region_time(r, 10, prof);
        talloc += r.alloc_events * model.params().alloc_cost;
        allocs += r.alloc_events;
      }
      t.add_row({std::to_string(k),
                 std::to_string(extent_t{1} << k) + "^3",
                 Table::fmt(t1 * 1e3, 3), Table::fmt(t10 * 1e3, 3),
                 std::to_string(allocs),
                 Table::fmt(100.0 * talloc / t10, 1) + "%"});
    }
    std::printf("%s\n",
                t.to_ascii("Modelled per-level time of one SAC V-cycle "
                           "iteration, class A (memory management is "
                           "size-invariant, so its share grows as grids "
                           "shrink — the paper's Sec. 5 analysis)")
                    .c_str());
  }
  return 0;
}
