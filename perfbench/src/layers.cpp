// Per-layer measurements made only by the traced run, each through the
// layer's public interface:
//   * mg   — a level-by-level sweep of every public kernel of sac, direct and
//            f77 on the solve's grid shapes, weighted by how often one
//            NPB iteration calls it per level; computed bytes from
//            machine::op_cost give GB/s on the finest level;
//   * sac  — the MT fork cost and the four row engines on one stencil plane;
//   * msg / net — one finest-level halo plane sendrecv and one allreduce,
//            in process and over loopback TCP;
//   * nasrand — the NAS random field of the class;
//   * host — a STREAM triad over arrays four times the caches, the ceiling
//            the kernel GB/s figures sit under.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <unistd.h>

#include "sacpp/machine/trace.hpp"
#include "sacpp/mg/mg_ref.hpp"
#include "sacpp/mg/mg_sac.hpp"
#include "sacpp/mg/mg_sac_direct.hpp"
#include "sacpp/mg/problem.hpp"
#include "sacpp/nasrand/nasrand.hpp"
#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/jit.hpp"
#include "sacpp/sac/runtime.hpp"
#include "sacpp/sac/sac.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace sacpp;

namespace {

// Kernels of one NPB iteration (mg3P + resid).  Counts per level follow the
// V-cycle: restriction and prolongation once per fine level, smoothing once
// per level, residual once per level above the coarsest plus the
// iteration-ending one on the finest.  Border setups are counted from the
// machine-model trace of the variant.
enum class K { kResid, kPsinv, kRprj3, kInterp, kBorder, kNorm };
constexpr K kKernels[] = {K::kResid, K::kPsinv, K::kRprj3,
                          K::kInterp, K::kBorder, K::kNorm};

const char* kname(K k) {
  switch (k) {
    case K::kResid: return "resid";
    case K::kPsinv: return "psinv";
    case K::kRprj3: return "rprj3";
    case K::kInterp: return "interp";
    case K::kBorder: return "border";
    case K::kNorm: return "norm";
  }
  return "?";
}

// Levels whose grids have fewer than 16 interior points per axis (extended
// extent < 18): the bottom of the V-cycle.
constexpr int kCoarseMaxLevel = 3;

double count_per_iter(K k, int level, int lt,
                      const std::map<int, int>& border_per_level) {
  switch (k) {
    case K::kResid: return level >= 2 ? (level == lt ? 2 : 1) : 0;
    case K::kPsinv: return 1;
    case K::kRprj3:
    case K::kInterp: return level >= 2 ? 1 : 0;
    case K::kBorder: {
      auto it = border_per_level.find(level);
      return it == border_per_level.end() ? 0 : it->second;
    }
    case K::kNorm: return level == lt ? 1 : 0;
  }
  return 0;
}

// Computed bytes of one finest-level call, from the machine model's per
// element traffic (the norm reads each interior point once).
double finest_bytes(K k, const mg::MgSpec& spec) {
  const double n = static_cast<double>(spec.nx);
  const double interior = n * n * n;
  switch (k) {
    case K::kResid: return machine::op_cost(machine::Op::kResid).bytes_per_elem * interior;
    case K::kPsinv: return machine::op_cost(machine::Op::kPsinv).bytes_per_elem * interior;
    case K::kRprj3:
      return machine::op_cost(machine::Op::kRprj3).bytes_per_elem * interior / 8.0;
    case K::kInterp: return machine::op_cost(machine::Op::kInterp).bytes_per_elem * interior;
    case K::kBorder:
      return machine::op_cost(machine::Op::kComm3).bytes_per_elem * 6.0 *
             (n + 2.0) * (n + 2.0);
    case K::kNorm: return 8.0 * interior;
  }
  return 0.0;
}

// Call `fn` inside spans named after the kernel and level (leaves of the
// open sweep root) until at least three calls and 30 ms have passed.
void time_calls(const std::string& name, const std::function<void()>& fn) {
  fn();  // warm: page faults, pool fill, lazily built rows
  const std::int64_t start = now_ns();
  for (int calls = 0; calls < 3 || (seconds_since(start) < 0.03 && calls < 50); ++calls) {
    Scope s(name);
    fn();
  }
}

// "@<level>", the suffix of a kernel span's name.
std::string level_tag(int level) {
  std::string tag(1, '@');
  tag += std::to_string(level);
  return tag;
}

std::vector<double> noise(std::size_t count, double seed) {
  std::vector<double> out(count);
  nasrand::NasRandom rng(seed);
  rng.fill(out);
  return out;
}

sac::Array<double> noise_cube(extent_t n, double seed) {
  const std::vector<double> vals = noise(static_cast<std::size_t>(n * n * n), seed);
  return sac::with_genarray<double>(
      cube_shape(3, n), sac::gen_all(),
      sac::rank3_body([&](extent_t i, extent_t j, extent_t k) {
        return vals[static_cast<std::size_t>((i * n + j) * n + k)];
      }));
}


template <typename Solver>
void sweep_array(const mg::MgSpec& spec, bool ghost_free) {
  const Solver solver(spec);
  const extent_t ghost = ghost_free ? 0 : 2;
  sac::Array<double> coarse_z;
  for (int k = 1; k <= spec.levels(); ++k) {
    const extent_t n = (extent_t{1} << k) + ghost;
    const sac::Array<double> v = noise_cube(n, 271828183.0);
    const sac::Array<double> u = noise_cube(n, 314159265.0);
    const sac::Array<double> r = noise_cube(n, 161803399.0);
    const std::string lvl = level_tag(k);
    time_calls("kernel.psinv" + lvl, [&] { (void)solver.smooth(r); });
    if (k >= 2) {
      time_calls("kernel.resid" + lvl, [&] { (void)solver.residual(v, u); });
      time_calls("kernel.rprj3" + lvl, [&] { (void)solver.fine2coarse(r); });
      time_calls(
          "kernel.interp" + lvl, [&] { (void)solver.coarse2fine(coarse_z); });
    }
    if (!ghost_free) {
      time_calls("kernel.border" + lvl, [&] {
        (void)mg::MgSac::setup_periodic_border(r);  // shared: copy-on-write
      });
    }
    if (k == spec.levels()) {
      time_calls("kernel.norm" + lvl, [&] {
        const sac::Gen g = ghost_free ? sac::gen_all() : sac::gen_interior(r.shape());
        (void)sac::with_fold(std::plus<>{}, 0.0, r.shape(), g, sac::sum_sq_rows(r));
      });
    }
    coarse_z = u;
  }
}

void sweep_f77(const mg::MgSpec& spec) {
  mg::MgRef ref(spec);
  for (int k = 1; k <= spec.levels(); ++k) {
    const extent_t n = ref.level_extent(k);
    std::span<double> u = ref.level_u_span(k);
    std::span<double> r = ref.level_r_span(k);
    const std::vector<double> fill = noise(u.size(), 314159265.0);
    std::copy(fill.begin(), fill.end(), u.begin());
    std::copy(fill.begin(), fill.end(), r.begin());
    const std::string lvl = level_tag(k);
    time_calls("kernel.psinv" + lvl, [&] {
      ref.kernel_psinv(r.data(), u.data(), n);
    });
    if (k >= 2) {
      time_calls("kernel.resid" + lvl, [&] {
        ref.kernel_resid(u.data(), r.data(), r.data(), n);
      });
      const extent_t nc = ref.level_extent(k - 1);
      std::span<double> rc = ref.level_r_span(k - 1);
      std::span<double> uc = ref.level_u_span(k - 1);
      time_calls("kernel.rprj3" + lvl, [&] {
        ref.kernel_rprj3(r.data(), n, rc.data(), nc);
      });
      time_calls("kernel.interp" + lvl, [&] {
        ref.kernel_interp(uc.data(), nc, u.data(), n);
      });
    }
    time_calls("kernel.border" + lvl, [&] {
      mg::periodic_border_3d(r, n);
    });
    if (k == spec.levels()) {
      time_calls("kernel.norm" + lvl, [&] { (void)ref.residual_norm(); });
    }
  }
}

void kernel_ledger(const mg::MgSpec& spec, Metrics& m) {
  const int lt = spec.levels();
  struct Entry {
    const char* name;
    mg::Variant variant;
  };
  for (const Entry& e : {Entry{"sac", mg::Variant::kSac},
                         Entry{"direct", mg::Variant::kSacDirect},
                         Entry{"f77", mg::Variant::kFortran}}) {
    std::map<int, int> borders;
    for (const machine::Region& r : machine::build_trace(e.variant, spec).regions) {
      if (r.op == machine::Op::kComm3) ++borders[r.level];
    }
    std::uint64_t root_id = 0;
    {
      Scope root(std::string("sweep.") + e.name, std::string("sweep:") + e.name);
      root_id = root.id();
      if (e.variant == mg::Variant::kSac) sweep_array<mg::MgSac>(spec, false);
      if (e.variant == mg::Variant::kSacDirect) sweep_array<mg::MgSacDirect>(spec, true);
      if (e.variant == mg::Variant::kFortran) sweep_f77(spec);
    }
    // Median self time per call of each "kernel.<k>@<level>" span.
    std::map<std::string, std::vector<double>> calls;
    const std::map<std::uint64_t, double> self = tracer().self_seconds();
    for (const Span& sp : tracer().spans()) {
      if (sp.parent == root_id) calls[sp.name].push_back(self.at(sp.id));
    }
    auto per_call = [&](K k, int level) {
      auto it = calls.find(std::string("kernel.") + kname(k) + level_tag(level));
      return it == calls.end() ? 0.0 : median(it->second);
    };
    double total = 0.0, coarse = 0.0;
    const std::string p = std::string("mg.") + e.name + ".";
    for (K k : kKernels) {
      if (k == K::kBorder && e.variant == mg::Variant::kSacDirect) continue;
      double ms = 0.0;
      for (int level = 1; level <= lt; ++level) {
        const double per_iter =
            count_per_iter(k, level, lt, borders) * per_call(k, level) * 1e3;
        ms += per_iter;
        if (k != K::kNorm) {
          total += per_iter;
          if (level <= kCoarseMaxLevel) coarse += per_iter;
        }
      }
      m.set(p + kname(k) + ".ms", ms, "ms");
      m.set(p + kname(k) + ".gbps", finest_bytes(k, spec) / per_call(k, lt) * 1e-9,
            "GB/s");
    }
    m.set(p + "coarse_share", total > 0 ? coarse / total : 0.0, "ratio");
  }
}

// One fused plane-sum + combine row per output row of the middle plane of a
// 3 x n x n block, for each engine; ns per output point.
void row_engines(const mg::MgSpec& spec, Metrics& m) {
  struct Engine {
    const char* key;
    sac::BackendKind kind;
  };
  for (extent_t n : {extent_t{66}, extent_t{258}}) {
    const std::vector<double> block = noise(static_cast<std::size_t>(3 * n * n), 271828183.0);
    std::vector<double> out(static_cast<std::size_t>(n)), u1(out.size()), u2(out.size());
    auto row = [&](int plane, extent_t j) {
      return block.data() + static_cast<std::size_t>((plane * n + j) * n);
    };
    for (const Engine& e : {Engine{"scalar", sac::BackendKind::kScalar},
                            Engine{"simd-portable", sac::BackendKind::kSimdPortable},
                            Engine{"simd", sac::BackendKind::kSimd},
                            Engine{"jit", sac::BackendKind::kJit}}) {
      const sac::Backend& be = sac::backend_for(e.kind);
      auto plane = [&] {
        for (extent_t j = 1; j + 1 < n; ++j) {
          be.stencil_row(spec.a.c.data(), row(1, j), row(0, j), row(2, j),
                         row(1, j - 1), row(1, j + 1), row(0, j - 1),
                         row(0, j + 1), row(2, j - 1), row(2, j + 1), u1.data(),
                         u2.data(), out.data(), 1, n - 1, n, false);
        }
      };
      plane();
      if (e.kind == sac::BackendKind::kJit) {
        sac::jit::drain();  // warm: the compiled kernel is in place
        plane();
      }
      const std::string name = "sac.row." + std::string(e.key) +
                               ".stencil_ns_per_point.n" + std::to_string(n);
      const double points = static_cast<double>((n - 2) * (n - 2));
      std::vector<double> per_point;
      Scope root("rows." + std::string(e.key), "rows:" + std::string(e.key) + ":" +
                                                    std::to_string(n));
      for (int batch = 0; batch < 5; ++batch) {
        Scope s("plane");
        const std::int64_t t0 = now_ns();
        int reps = 0;
        while (reps < 3 || seconds_since(t0) < 0.005) {
          plane();
          ++reps;
        }
        per_point.push_back(static_cast<double>(now_ns() - t0) / (reps * points));
      }
      m.set(name, median(per_point), "ns");
    }
  }
}

void mt_fork(Metrics& m) {
  sac::config().mt_enabled = true;
  sac::config().mt_threads = 2;
  sac::ThreadPool& pool = sac::runtime();
  std::vector<double> us;
  Scope root("mt.fork", "mt:fork");
  for (int batch = 0; batch < 5; ++batch) {
    constexpr int kReps = 400;
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kReps; ++i) {
      pool.parallel_for(0, 2, 1, [](extent_t, extent_t, unsigned) {});
    }
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3 / kReps);
  }
  m.set("sac.mt.fork_us", median(us), "us");
  sac::config() = sac::config_from_env();
}

// One finest-level plane sendrecv and one allreduce between two ranks.
void comm_micro(const mg::MgSpec& spec, Metrics& m) {
  const std::size_t plane = static_cast<std::size_t>((spec.nx + 2) * (spec.nx + 2));
  const int halo_reps = plane * 8 > 256 * 1024 ? 40 : 200;
  constexpr int kReduceReps = 400;
  for (bool tcp : {false, true}) {
    std::vector<double> halo_us, reduce_us;
    const char* tag = tcp ? "tcp" : "inproc";
    Scope root(std::string("comm.") + tag, std::string("comm:") + tag);
    run_two_ranks(
        tcp,
        [&](msg::Comm& comm) {
          const int partner = 1 - comm.rank();
          std::vector<double> out(plane, 1.0 + comm.rank()), in(plane);
          for (int batch = 0; batch < 5; ++batch) {
            comm.barrier();
            std::int64_t t0 = now_ns();
            for (int i = 0; i < halo_reps; ++i) {
              comm.sendrecv(partner, out, partner, in, 11);
            }
            const double h = static_cast<double>(now_ns() - t0) * 1e-3 / halo_reps;
            comm.barrier();
            t0 = now_ns();
            double acc = 0.0;
            for (int i = 0; i < kReduceReps; ++i) acc += comm.allreduce_sum(1.0);
            const double a = static_cast<double>(now_ns() - t0) * 1e-3 / kReduceReps;
            if (acc != 2.0 * kReduceReps || in[0] != 2.0 - comm.rank()) {
              throw std::runtime_error("message payload mismatch");
            }
            if (comm.rank() == 0) {
              halo_us.push_back(h);
              reduce_us.push_back(a);
            }
          }
        },
        nullptr);
    m.set(tcp ? "net.halo_us.tcp" : "msg.halo_us.inproc", median(halo_us), "us");
    m.set(tcp ? "net.allreduce_us.tcp" : "msg.allreduce_us.inproc",
          median(reduce_us), "us");
  }
}

void random_field(const mg::MgSpec& spec, Metrics& m) {
  std::vector<double> s;
  Scope root("nasrand.random_field", "nasrand");
  for (int rep = 0; rep < 3; ++rep) {
    const std::int64_t t0 = now_ns();
    {
      Scope c("random_field");
      const std::vector<double> field = mg::random_field(spec.nx);
      if (field.size() != static_cast<std::size_t>(spec.nx * spec.nx * spec.nx)) {
        throw std::runtime_error("random field has the wrong size");
      }
    }
    s.push_back(seconds_since(t0));
  }
  m.set("nasrand.random_field_s", median(s), "s");
}

// STREAM triad a = b + s*c over arrays each four times the sum of the
// caches (all L2 plus the shared L3), on the workload's thread count.
void stream_triad(unsigned threads, Metrics& m) {
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const long cores = sysconf(_SC_NPROCESSORS_ONLN);
  const double caches = static_cast<double>(std::max(0L, l2) * std::max(1L, cores) +
                                            std::max(0L, l3));
  const double llc = caches > 0 ? caches : 128.0 * 1024 * 1024;
  const std::size_t n = static_cast<std::size_t>(4.0 * llc / 8.0);
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]), c(new double[n]);
  auto parallel = [&](const std::function<void(std::size_t, std::size_t)>& fn) {
    std::vector<std::thread> team;
    for (unsigned t = 0; t < threads; ++t) {
      team.emplace_back([&, t] { fn(n * t / threads, n * (t + 1) / threads); });
    }
    for (std::thread& th : team) th.join();
  };
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  std::vector<double> gbps;
  Scope root("host.stream", "host:stream");
  for (int pass = 0; pass < 4; ++pass) {
    const std::int64_t t0 = now_ns();
    {
      Scope s("triad");
      parallel([&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
      });
    }
    if (pass > 0) gbps.push_back(24.0 * static_cast<double>(n) / (now_ns() - t0));
  }
  if (a[n / 2] != 7.0) throw std::runtime_error("triad result mismatch");
  m.set("host.stream_gbps", median(gbps), "GB/s");
  m.set("host.stream_array_mib", 8.0 * static_cast<double>(n) / (1 << 20), "MiB");
  m.set("host.cache_mib", llc / (1 << 20), "MiB");
}

}  // namespace

void run_layer_sweeps(const Workload& w, RunState& st) {
  const mg::MgSpec spec = mg::MgSpec::for_class(w.cls);
  sac::config() = sac::config_from_env();
  if (w.threads > 1) {
    sac::config().mt_enabled = true;
    sac::config().mt_threads = w.threads;
  }
  kernel_ledger(spec, st.metrics);
  sac::config() = sac::config_from_env();
  row_engines(spec, st.metrics);
  mt_fork(st.metrics);
  comm_micro(spec, st.metrics);
  random_field(spec, st.metrics);
  stream_triad(w.threads, st.metrics);
}

}  // namespace perfbench
