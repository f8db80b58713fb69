// Ablation 1 (paper Sec. 5 analysis) — the stencil implementation ladder:
//
//   naive      27 multiplications + 26 additions per point (the literal
//              mathematics),
//   grouped    4 multiplications per point by summing coefficient classes
//              first (what sac2c reaches implicitly),
//   planes     the same factorisation as the Fortran hand optimisation,
//              expressed generically in the SAC stencil engine
//              (StencilMode::kPlanes, docs/stencil.md): per-class row sums
//              shared across the k loop through pooled scratch,
//   shared     the hand-coded Fortran-77 resid kernel itself (mg_ref), the
//              upper bound the paper says sac2c lacks.
//
// One google-benchmark timing per rung and level size (the MG ladder 10,
// 18, 34, 66, 130).  kPlanes runs with the production small-grid cutover,
// so sizes below it (interior extent under 18) report the grouped rows —
// the grouped tree evaluated row by row, exactly what the engine does at
// the bottom of the V-cycle.  Every rung
// runs on the scalar row engine (bench::paper_config), so the ladder
// compares the stencil forms alone.  bench/run_all.sh gates the
// planes-vs-grouped improvement at the class-W-sized grid (n = 66).

#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.hpp"
#include "sacpp/mg/mg_ref.hpp"
#include "sacpp/mg/problem.hpp"
#include "sacpp/sac/sac.hpp"

namespace {

using namespace sacpp;
using sac::Array;

Array<double> input_grid(extent_t n) {
  const Shape shp{n, n, n};
  return sac::with_genarray<double>(
      shp, sac::rank3_body([](extent_t i, extent_t j, extent_t k) {
        return 0.25 * static_cast<double>(i + 2 * j + 3 * k);
      }));
}

const sac::StencilCoeffs kA{{-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0}};

void BM_StencilNaive(benchmark::State& state) {
  const extent_t n = state.range(0);
  auto a = input_grid(n);
  const sac::ScopedConfig scalar(bench::paper_config());
  for (auto _ : state) {
    auto r = sac::relax_kernel(a, kA, sac::StencilMode::kNaive);
    benchmark::DoNotOptimize(r.data());
  }
  state.SetItemsProcessed(state.iterations() * (n - 2) * (n - 2) * (n - 2));
}

void BM_StencilGrouped(benchmark::State& state) {
  const extent_t n = state.range(0);
  auto a = input_grid(n);
  const sac::ScopedConfig scalar(bench::paper_config());
  for (auto _ : state) {
    auto r = sac::relax_kernel(a, kA, sac::StencilMode::kGrouped);
    benchmark::DoNotOptimize(r.data());
  }
  state.SetItemsProcessed(state.iterations() * (n - 2) * (n - 2) * (n - 2));
}

void BM_StencilPlanes(benchmark::State& state) {
  const extent_t n = state.range(0);
  auto a = input_grid(n);
  const sac::ScopedConfig scalar(bench::paper_config());
  for (auto _ : state) {
    auto r = sac::relax_kernel(a, kA, sac::StencilMode::kPlanes);
    benchmark::DoNotOptimize(r.data());
  }
  state.SetItemsProcessed(state.iterations() * (n - 2) * (n - 2) * (n - 2));
}

void BM_StencilSharedPlanes(benchmark::State& state) {
  const extent_t n = state.range(0);
  auto a = input_grid(n);
  const std::size_t count = static_cast<std::size_t>(n * n * n);
  std::vector<double> u(a.data(), a.data() + count);
  std::vector<double> v(count, 0.0);
  std::vector<double> r(count, 0.0);
  mg::MgRef ref(mg::MgSpec::for_class(mg::MgClass::A));
  for (auto _ : state) {
    ref.kernel_resid(u.data(), v.data(), r.data(), n);
    benchmark::DoNotOptimize(r.data());
  }
  state.SetItemsProcessed(state.iterations() * (n - 2) * (n - 2) * (n - 2));
}

}  // namespace

BENCHMARK(BM_StencilNaive)->Arg(10)->Arg(18)->Arg(34)->Arg(66)->Arg(130)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StencilGrouped)->Arg(10)->Arg(18)->Arg(34)->Arg(66)->Arg(130)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StencilPlanes)->Arg(10)->Arg(18)->Arg(34)->Arg(66)->Arg(130)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_StencilSharedPlanes)->Arg(10)->Arg(18)->Arg(34)->Arg(66)->Arg(130)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
