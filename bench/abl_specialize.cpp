// Ablation 5 (DESIGN.md D3) — rank specialisation: the unrolled rank-3
// execution path (with-loop scalarisation + index-vector elimination) vs
// the rank-generic odometer walker, on the kernels MG actually runs.

#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "sacpp/sac/sac.hpp"

namespace {

using namespace sacpp;
using sac::Array;

Array<double> input_grid(extent_t n) {
  return sac::with_genarray<double>(
      cube_shape(3, n), sac::rank3_body([](extent_t i, extent_t j, extent_t k) {
        return 1e-3 * static_cast<double>(i * 7 + j * 3 + k);
      }));
}

const sac::StencilCoeffs kS{{-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0}};

void with_specialize(bool on, benchmark::State& state,
                     const std::function<void()>& body) {
  sac::SacConfig cfg = bench::paper_config();
  cfg.specialize = on;
  sac::ScopedConfig guard(cfg);
  for (auto _ : state) body();
}

void BM_RelaxSpecialized(benchmark::State& state) {
  auto a = input_grid(state.range(0));
  with_specialize(true, state, [&] {
    auto r = sac::relax_kernel(a, kS);
    benchmark::DoNotOptimize(r.data());
  });
  state.SetItemsProcessed(state.iterations() * a.elem_count());
}

void BM_RelaxGeneric(benchmark::State& state) {
  auto a = input_grid(state.range(0));
  with_specialize(false, state, [&] {
    auto r = sac::relax_kernel(a, kS);
    benchmark::DoNotOptimize(r.data());
  });
  state.SetItemsProcessed(state.iterations() * a.elem_count());
}

void BM_EwiseSpecialized(benchmark::State& state) {
  auto a = input_grid(state.range(0));
  auto b = input_grid(state.range(0));
  with_specialize(true, state, [&] {
    auto r = a + b;
    benchmark::DoNotOptimize(r.data());
  });
  state.SetItemsProcessed(state.iterations() * a.elem_count());
}

void BM_EwiseGeneric(benchmark::State& state) {
  auto a = input_grid(state.range(0));
  auto b = input_grid(state.range(0));
  with_specialize(false, state, [&] {
    auto r = a + b;
    benchmark::DoNotOptimize(r.data());
  });
  state.SetItemsProcessed(state.iterations() * a.elem_count());
}

void BM_CondenseSpecialized(benchmark::State& state) {
  auto a = input_grid(state.range(0));
  with_specialize(true, state, [&] {
    auto r = sac::condense(2, a);
    benchmark::DoNotOptimize(r.data());
  });
  state.SetItemsProcessed(state.iterations() * a.elem_count() / 8);
}

void BM_CondenseGeneric(benchmark::State& state) {
  auto a = input_grid(state.range(0));
  with_specialize(false, state, [&] {
    auto r = sac::condense(2, a);
    benchmark::DoNotOptimize(r.data());
  });
  state.SetItemsProcessed(state.iterations() * a.elem_count() / 8);
}

}  // namespace

BENCHMARK(BM_RelaxSpecialized)->Arg(34)->Arg(66)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RelaxGeneric)->Arg(34)->Arg(66)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EwiseSpecialized)->Arg(66)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EwiseGeneric)->Arg(66)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CondenseSpecialized)->Arg(66)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CondenseGeneric)->Arg(66)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
