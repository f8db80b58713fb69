// Model validation — measured vs modelled per-level time shares.
//
// The paper's Sec. 5 analysis (and our machine model's core assumption) is
// that time concentrates on the finest levels while fixed per-operation
// overheads grow in *share* toward the bottom of the V-cycle.  This binary
// runs the real solvers with the per-level profiler and prints the measured
// shares next to the model's sequential prediction for the same schedule.

#include <cstdio>

#include "bench_common.hpp"
#include "sacpp/common/table.hpp"
#include "sacpp/machine/model.hpp"
#include "sacpp/mg/driver.hpp"
#include "sacpp/mg/profiler.hpp"

using namespace sacpp;
using namespace sacpp::mg;
using namespace sacpp::machine;

namespace {

std::vector<double> model_level_shares(Variant v, const MgSpec& spec) {
  const Trace trace = build_trace(v, spec);
  SmpModel model;
  const VariantProfile prof = VariantProfile::for_variant(v);
  std::vector<double> per_level(static_cast<std::size_t>(spec.levels()) + 1,
                                0.0);
  double total = 0.0;
  for (const auto& r : trace.regions) {
    const double t = model.region_time(r, 1, prof);
    per_level[static_cast<std::size_t>(r.level)] += t;
    total += t;
  }
  for (double& t : per_level) t /= total;
  return per_level;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  bench::add_standard_options(cli, "W");
  if (!cli.parse(argc, argv)) return 1;

  for (const MgSpec& spec : bench::parse_classes(cli.get("classes"))) {
    for (Variant v : {Variant::kFortran, Variant::kSac}) {
      LevelProfiler::instance().reset();
      LevelProfiler::instance().enable(true);
      RunOptions opts;
      opts.record_norms = false;
      opts.warmup = false;
      {
        // The model prices the paper configuration's schedule.
        const sac::ScopedConfig paper(bench::paper_config());
        (void)run_benchmark(v, spec, opts);
      }
      LevelProfiler::instance().enable(false);

      const auto measured = LevelProfiler::instance().entries();
      const double total = LevelProfiler::instance().total_seconds();
      const auto modelled = model_level_shares(v, spec);

      Table t({"level", "grid", "measured [ms]", "measured share",
               "model share"});
      for (const auto& e : measured) {
        t.add_row({std::to_string(e.level),
                   std::to_string(extent_t{1} << e.level) + "^3",
                   Table::fmt(e.seconds * 1e3, 2),
                   Table::fmt(100.0 * e.seconds / total, 1) + "%",
                   Table::fmt(100.0 * modelled[static_cast<std::size_t>(
                                          e.level)],
                              1) +
                       "%"});
      }
      std::printf("%s\n",
                  t.to_ascii("Per-level time, class " + spec.name() + ", " +
                             variant_name(v) +
                             " (measured on this host vs the E4000 model's "
                             "sequential shares)")
                      .c_str());
    }
  }
  return 0;
}
