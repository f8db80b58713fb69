// Fig. 11 — single-processor performance of the three MG implementations.
//
// The paper reports (SUN Ultra Enterprise 4000, one CPU):
//   class W: Fortran-77 faster than SAC by 29.6 %, SAC faster than C by 14.2 %
//   class A: Fortran-77 faster than SAC by 23.0 %, SAC faster than C by 22.5 %
//
// This binary reports, per class:
//   * measured wall-clock on the current host (this machine, this compiler);
//   * the calibrated machine model's predicted E4000 times, which reproduce
//     the paper's ratios (the substitution documented in DESIGN.md §4);
//   * the paper's published ratios next to both.
//
// Default classes: S,W (quick).  Reproduce the figure with --classes W,A.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sacpp/common/table.hpp"
#include "sacpp/machine/model.hpp"
#include "sacpp/machine/paper_data.hpp"
#include "sacpp/mg/driver.hpp"

using namespace sacpp;
using namespace sacpp::mg;
using namespace sacpp::machine;

namespace {

// Host times of the paper configuration (bench::paper_config), not of the
// process defaults.
double measure(Variant v, const MgSpec& spec, int repeats) {
  const sac::ScopedConfig paper(bench::paper_config());
  RunOptions opts;
  opts.record_norms = false;
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const MgResult res = run_benchmark(v, spec, opts);
    best = (r == 0) ? res.seconds : std::min(best, res.seconds);
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  bench::add_standard_options(cli, "S,W");
  if (!cli.parse(argc, argv)) return 1;

  SmpModel model;
  Table table({"class", "implementation", "host [s]", "host rel",
               "model E4000 [s]", "model rel", "paper rel"});

  for (const MgSpec& spec : bench::parse_classes(cli.get("classes"))) {
    const Variant variants[] = {Variant::kFortran, Variant::kSac,
                                Variant::kOpenMp};
    double host[3], modeled[3];
    for (int i = 0; i < 3; ++i) {
      host[i] = measure(variants[i], spec,
                        static_cast<int>(cli.get_int("repeats")));
      modeled[i] =
          model.benchmark_time(build_trace(variants[i], spec), /*cpus=*/1);
    }
    // Paper ratios relative to Fortran-77 (only published for W and A).
    auto paper_rel = [&](int i) -> std::string {
      double f77_over_sac = 0.0, sac_over_c = 0.0;
      if (spec.cls == MgClass::W && spec.nx == 64) {
        f77_over_sac = paper::kF77OverSacW;
        sac_over_c = paper::kSacOverCW;
      } else if (spec.cls == MgClass::A) {
        f77_over_sac = paper::kF77OverSacA;
        sac_over_c = paper::kSacOverCA;
      } else {
        return "-";
      }
      const double rel[3] = {1.0, f77_over_sac, f77_over_sac * sac_over_c};
      return Table::fmt(rel[i], 3);
    };
    for (int i = 0; i < 3; ++i) {
      table.add_row({spec.name(), variant_name(variants[i]),
                     Table::fmt(host[i], 3), Table::fmt(host[i] / host[0], 3),
                     Table::fmt(modeled[i], 2),
                     Table::fmt(modeled[i] / modeled[0], 3), paper_rel(i)});
    }
  }

  std::printf("%s\n",
              table
                  .to_ascii("Fig. 11 — single-processor performance "
                            "(rel = time / Fortran-77 time)")
                  .c_str());
  table.write_csv(cli.get("csv"));
  return 0;
}
