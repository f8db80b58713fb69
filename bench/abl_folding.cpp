// Ablation 3 (DESIGN.md D1) — with-loop folding on the full benchmark and
// on the grid-transfer microkernels where it matters most (Fine2Coarse
// evaluates the P stencil at 1/8 of the points when fused; Coarse2Fine
// reads the coarse grid instead of relaxing a materialised scatter).

#include <cstdio>

#include "bench_common.hpp"
#include "sacpp/common/table.hpp"
#include "sacpp/common/timer.hpp"
#include "sacpp/mg/driver.hpp"
#include "sacpp/mg/mg_sac.hpp"
#include "sacpp/sac/sac.hpp"

using namespace sacpp;
using namespace sacpp::mg;

namespace {

MgResult run_with_folding(const MgSpec& spec, bool folding) {
  sac::SacConfig cfg = bench::paper_config();
  cfg.folding = folding;
  sac::ScopedConfig guard(cfg);
  RunOptions opts;
  opts.record_norms = false;
  return run_benchmark(Variant::kSac, spec, opts);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  bench::add_standard_options(cli, "S,W");
  if (!cli.parse(argc, argv)) return 1;

  Table table({"class", "folding", "time [s]", "with-loops", "allocations",
               "bytes allocated [MB]", "speed vs unfolded"});

  for (const MgSpec& spec : bench::parse_classes(cli.get("classes"))) {
    double unfolded_time = 0.0;
    for (bool folding : {false, true}) {
      sac::reset_stats();
      const MgResult res = run_with_folding(spec, folding);
      const auto& st = sac::stats();
      if (!folding) unfolded_time = res.seconds;
      table.add_row({spec.name(), folding ? "on" : "off",
                     Table::fmt(res.seconds, 3),
                     std::to_string(st.with_loops),
                     std::to_string(st.allocations),
                     Table::fmt(static_cast<double>(st.bytes_allocated) / 1e6,
                                1),
                     Table::fmt(unfolded_time / res.seconds, 2)});
    }
  }
  std::printf("%s\n",
              table.to_ascii("Ablation D1 — with-loop folding on the SAC MG "
                             "implementation")
                  .c_str());

  // Microkernels, fused vs unfused, both on the same 128^3 fine grid:
  // Fine2Coarse from it, Coarse2Fine onto it.
  const extent_t n = 130;
  MgSac mg(MgSpec::for_class(MgClass::A));
  auto grid = [](extent_t extent) {
    return sac::with_genarray<double>(
        cube_shape(3, extent),
        sac::rank3_body([](extent_t i, extent_t j, extent_t k) {
          return 1e-3 * static_cast<double>(i * j + k);
        }));
  };
  const auto r = grid(n);
  const auto z = grid(n / 2 + 1);
  Table micro({"kernel", "mode", "time [ms]"});
  for (bool folding : {false, true}) {
    sac::SacConfig cfg = bench::paper_config();
    cfg.folding = folding;
    sac::ScopedConfig guard(cfg);
    Timer t;
    for (int i = 0; i < 5; ++i) {
      auto rn = mg.fine2coarse(r);
      (void)rn;
    }
    micro.add_row({"Fine2Coarse 128^3", folding ? "fused" : "materialised",
                   Table::fmt(t.elapsed_seconds() / 5.0 * 1e3, 2)});
  }
  for (bool folding : {false, true}) {
    sac::SacConfig cfg = bench::paper_config();
    cfg.folding = folding;
    sac::ScopedConfig guard(cfg);
    Timer t;
    for (int i = 0; i < 5; ++i) {
      auto zf = mg.coarse2fine(z);
      (void)zf;
    }
    micro.add_row({"Coarse2Fine 128^3", folding ? "fused" : "materialised",
                   Table::fmt(t.elapsed_seconds() / 5.0 * 1e3, 2)});
  }
  std::printf("%s\n", micro.to_ascii("Grid-transfer microkernels").c_str());
  table.write_csv(cli.get("csv"));
  return 0;
}
