// Fig. 12 — speedups relative to each implementation's own sequential time,
// P = 1..10 CPUs, classes W and A.
//
// The paper's end points (10 CPUs of a SUN Ultra Enterprise 4000):
//   SAC 5.3 (W) / 7.6 (A); auto-parallelised Fortran-77 2.8 / 4.0;
//   C/OpenMP 8.0 / 9.0.
//
// Curves come from the calibrated SMP model executing each implementation's
// parallel-region trace (DESIGN.md §4 substitution — this container has one
// CPU).  With --real-threads the binary additionally measures the SAC
// implementation's actual multithreaded runtime on the host, which shows
// real scaling only on a multi-core machine.

#include <cstdio>
#include <thread>

#include "bench_common.hpp"
#include "sacpp/common/svg_plot.hpp"
#include "sacpp/common/table.hpp"
#include "sacpp/machine/model.hpp"
#include "sacpp/machine/paper_data.hpp"
#include "sacpp/mg/driver.hpp"
#include "sacpp/sac/sac.hpp"

using namespace sacpp;
using namespace sacpp::mg;
using namespace sacpp::machine;

namespace {

double paper_endpoint(Variant v, const MgSpec& spec) {
  const bool w = spec.cls == MgClass::W;
  switch (v) {
    case Variant::kSac:
      return w ? paper::kSacSpeedupW10 : paper::kSacSpeedupA10;
    case Variant::kFortran:
      return w ? paper::kF77SpeedupW10 : paper::kF77SpeedupA10;
    case Variant::kOpenMp:
      return w ? paper::kOmpSpeedupW10 : paper::kOmpSpeedupA10;
    case Variant::kSacDirect:
      break;  // not in the paper (future work)
  }
  return 0.0;
}

void real_thread_scaling(const MgSpec& spec, int max_threads) {
  std::printf("Real host scaling of the SAC implementation (hardware "
              "concurrency: %u)\n",
              std::thread::hardware_concurrency());
  RunOptions opts;
  opts.record_norms = false;
  double base = 0.0;
  for (int p = 1; p <= max_threads; ++p) {
    sac::SacConfig cfg = bench::paper_config();
    cfg.mt_enabled = p > 1;
    cfg.mt_threads = static_cast<unsigned>(p);
    sac::ScopedConfig guard(cfg);
    const MgResult res = run_benchmark(Variant::kSac, spec, opts);
    if (p == 1) base = res.seconds;
    std::printf("  P=%2d  %.3fs  speedup %.2f\n", p, res.seconds,
                base / res.seconds);
  }
  sac::shutdown_runtime();
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  bench::add_standard_options(cli, "W,A");
  cli.add_option("cpus", "10", "maximum CPU count");
  cli.add_option("svg", "", "write the figure as SVG to this path prefix");
  cli.add_flag("real-threads", "also measure real SAC thread scaling on host");
  if (!cli.parse(argc, argv)) return 1;

  const int max_cpus = static_cast<int>(cli.get_int("cpus"));
  SmpModel model;

  std::vector<std::string> header{"class", "implementation"};
  for (int p = 1; p <= max_cpus; ++p) header.push_back("P=" + std::to_string(p));
  header.push_back("paper P=10");
  Table table(header);

  for (const MgSpec& spec : bench::parse_classes(cli.get("classes"))) {
    for (Variant v :
         {Variant::kSac, Variant::kFortran, Variant::kOpenMp}) {
      const Trace trace = build_trace(v, spec);
      const auto s = model.speedups(trace, max_cpus);
      std::vector<std::string> row{spec.name(), variant_name(v)};
      for (double x : s) row.push_back(Table::fmt(x, 2));
      row.push_back(spec.cls == MgClass::W || spec.cls == MgClass::A
                        ? Table::fmt(paper_endpoint(v, spec), 1)
                        : "-");
      table.add_row(row);
    }
  }

  std::printf("%s\n",
              table
                  .to_ascii("Fig. 12 — modelled speedups relative to own "
                            "sequential time (SUN E4000 model)")
                  .c_str());

  // ASCII rendition of the curves at P = max_cpus.
  std::printf("speedup at P=%d:\n", max_cpus);
  for (const MgSpec& spec : bench::parse_classes(cli.get("classes"))) {
    for (Variant v :
         {Variant::kSac, Variant::kFortran, Variant::kOpenMp}) {
      const auto s = model.speedups(build_trace(v, spec), max_cpus);
      std::printf("  %-2s %-11s %5.2f |%s|\n", spec.name().c_str(),
                  variant_name(v), s.back(),
                  ascii_bar(s.back(), static_cast<double>(max_cpus)).c_str());
    }
  }
  std::printf("\n");

  table.write_csv(cli.get("csv"));

  if (!cli.get("svg").empty()) {
    for (const MgSpec& spec : bench::parse_classes(cli.get("classes"))) {
      SvgChart chart("Fig. 12 — class " + spec.name() +
                         " (modelled SUN E4000)",
                     "processors", "speedup vs own sequential time");
      for (Variant v :
           {Variant::kSac, Variant::kFortran, Variant::kOpenMp}) {
        const auto s = model.speedups(build_trace(v, spec), max_cpus);
        std::vector<std::pair<double, double>> pts;
        for (int p = 1; p <= max_cpus; ++p) {
          pts.emplace_back(p, s[static_cast<std::size_t>(p - 1)]);
        }
        chart.add_series(variant_name(v), std::move(pts));
      }
      chart.add_diagonal("linear");
      chart.write(cli.get("svg") + "_" + spec.name() + ".svg");
    }
  }

  if (cli.get_flag("real-threads")) {
    const auto specs = bench::parse_classes(cli.get("classes"));
    if (!specs.empty()) {
      real_thread_scaling(specs.front(),
                          std::min(max_cpus,
                                   static_cast<int>(
                                       std::thread::hardware_concurrency())));
    }
  }
  return 0;
}
