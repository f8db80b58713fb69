#include "sacpp/machine/trace.hpp"

#include <algorithm>
#include <cmath>

#include "sacpp/common/error.hpp"

namespace sacpp::machine {

const char* op_name(Op op) {
  switch (op) {
    case Op::kResid:
      return "resid";
    case Op::kPsinv:
      return "psinv";
    case Op::kRprj3:
      return "rprj3";
    case Op::kInterp:
      return "interp";
    case Op::kComm3:
      return "comm3";
    case Op::kVecOp:
      return "vecop";
    case Op::kZero:
      return "zero";
  }
  return "?";
}

double Trace::total_flops() const {
  double t = 0.0;
  for (const auto& r : regions) t += r.flops;
  return t;
}

double Trace::total_bytes() const {
  double t = 0.0;
  for (const auto& r : regions) t += r.bytes;
  return t;
}

int Trace::total_alloc_events() const {
  int t = 0;
  for (const auto& r : regions) t += r.alloc_events;
  return t;
}

int Trace::total_pool_hits() const {
  int t = 0;
  for (const auto& r : regions) t += r.pool_hits;
  return t;
}

int Trace::total_pool_misses() const {
  int t = 0;
  for (const auto& r : regions) t += r.pool_misses;
  return t;
}

double Trace::parallel_flop_fraction() const {
  double par = 0.0, all = 0.0;
  for (const auto& r : regions) {
    all += r.flops;
    if (r.parallel) par += r.flops;
  }
  return all > 0.0 ? par / all : 0.0;
}

// Flops use the grouped-stencil form every implementation reaches (4 mults
// shared over coefficient classes); bytes count each array touched once
// (neighbour reads hit cache).
OpCost op_cost(Op op) {
  switch (op) {
    case Op::kResid:
      return {31.0, 24.0};  // stencil + subtraction; read u, v, write r
    case Op::kPsinv:
      return {31.0, 24.0};  // stencil + addition; read r, read+write u
    case Op::kRprj3:
      return {30.0, 72.0};  // per coarse elem: 8 unique fine reads + write
    case Op::kInterp:
      return {3.5, 18.0};   // per fine elem: read+write fine, amortised coarse
    case Op::kComm3:
      return {0.0, 16.0};   // ghost copy: read + write
    case Op::kVecOp:
      return {1.0, 24.0};   // element-wise: two reads, one write
    case Op::kZero:
      return {0.0, 8.0};
  }
  return {0.0, 0.0};
}

namespace {

class TraceBuilder {
 public:
  TraceBuilder(mg::Variant variant, const mg::MgSpec& spec,
               const TraceOptions& opts)
      : variant_(variant), spec_(spec), opts_(opts), lt_(spec.levels()) {}

  // Interior element count of level k.
  double interior(int k) const {
    const double n = std::pow(2.0, k);
    return n * n * n;
  }
  // Ghost-face element count of level k (six faces of the extended cube).
  double faces(int k) const {
    const double n = std::pow(2.0, k) + 2.0;
    return 6.0 * n * n;
  }

  void emit(Op op, int level, double elems, bool parallel, int allocs) {
    const OpCost c = op_cost(op);
    Region r;
    r.op = op;
    r.level = level;
    r.elems = elems;
    r.flops = c.flops_per_elem * elems;
    r.bytes = c.bytes_per_elem * elems;
    r.parallel = parallel;
    r.alloc_events = allocs;
    regions_.push_back(r);
  }

  std::vector<Region> take() { return std::move(regions_); }

 protected:
  mg::Variant variant_;
  mg::MgSpec spec_;
  TraceOptions opts_;
  int lt_;
  static constexpr int lb_ = 1;
  std::vector<Region> regions_;
};

// -- Fortran-77 / OpenMP: the NPB kernel schedule -----------------------------
//
// Parallel coverage is where the two low-level implementations differ:
// automatic parallelisation handles the uniform relaxation loop nests
// (resid/psinv, grid clears) but gives up on the coupled fine/coarse index
// expressions of rprj3/interp and on the ghost exchanges; the OpenMP port
// carries an explicit directive on every sweep.

class LowLevelBuilder : public TraceBuilder {
 public:
  using TraceBuilder::TraceBuilder;

  std::vector<Region> build() {
    const bool omp = variant_ == mg::Variant::kOpenMp;
    auto par = [&](bool auto_par_handles_it) {
      return omp ? true : auto_par_handles_it;
    };

    // Downward leg: restriction to the coarsest grid.
    for (int k = lt_; k > lb_; --k) {
      emit(Op::kRprj3, k - 1, interior(k - 1), par(false), 0);
      emit(Op::kComm3, k - 1, faces(k - 1), false, 0);
    }
    // Bottom: one smoothing step on a cleared grid.
    emit(Op::kZero, lb_, interior(lb_), par(true), 0);
    emit(Op::kPsinv, lb_, interior(lb_), par(true), 0);
    emit(Op::kComm3, lb_, faces(lb_), false, 0);
    // Upward leg: prolongation, residual correction, smoothing.
    for (int k = lb_ + 1; k <= lt_; ++k) {
      if (k < lt_) emit(Op::kZero, k, interior(k), par(true), 0);
      emit(Op::kInterp, k, interior(k), par(false), 0);
      emit(Op::kResid, k, interior(k), par(true), 0);
      emit(Op::kComm3, k, faces(k), false, 0);
      emit(Op::kPsinv, k, interior(k), par(true), 0);
      emit(Op::kComm3, k, faces(k), false, 0);
    }
    // Iteration-ending residual on the finest grid.
    emit(Op::kResid, lt_, interior(lt_), par(true), 0);
    emit(Op::kComm3, lt_, faces(lt_), false, 0);
    return take();
  }
};

// -- SAC: the with-loop schedule ----------------------------------------------
//
// Every with-loop is implicitly parallel but runs sequentially below the
// threshold; every with-loop producing a fresh array costs two dynamic
// memory-management events (allocate + release), and border setup on a
// shared array costs an additional copy-on-write sweep.  The folded and
// unfolded schedules mirror MgSac's two code paths.

class SacBuilder : public TraceBuilder {
 public:
  using TraceBuilder::TraceBuilder;

  bool par(double elems) const {
    return elems >= opts_.sac_seq_threshold_elems;
  }

  bool direct() const { return variant_ == mg::Variant::kSacDirect; }

  // SetupPeriodicBorder(a) where `a` is shared: copy-on-write full-grid
  // copy, then the in-place border partitions.  The direct-periodic
  // implementation (paper Sec. 7 future work) has no artificial boundary
  // elements: these regions vanish entirely from its trace.
  void border_shared(int k) {
    if (direct()) return;
    emit(Op::kVecOp, k, interior(k), par(interior(k)), 2);  // COW copy
    emit(Op::kComm3, k, faces(k), par(faces(k)), 0);
  }
  // Border setup on a uniquely owned array: in place, no copy.
  void border_unique(int k) {
    if (direct()) return;
    emit(Op::kComm3, k, faces(k), par(faces(k)), 0);
  }

  // One full relaxation sweep producing a fresh array.
  void relax(int k) { emit(Op::kResid, k, interior(k), par(interior(k)), 2); }

  void vcycle(int k) {
    if (k > lb_) {
      fine2coarse(k);
      vcycle(k - 1);
      coarse2fine(k);
      // r = r - Resid(z); z = z + Smooth(r)
      sub_resid(k);
      add_smooth(k);
    } else {
      // z = Smooth(r)
      border_shared(k);
      relax(k);
    }
  }

  void fine2coarse(int k) {
    border_shared(k);
    if (opts_.sac_folding) {
      // One with-loop evaluates the P stencil at the condensed points only.
      emit(Op::kRprj3, k - 1, interior(k - 1), par(interior(k - 1)), 2);
    } else {
      relax(k);                                                   // P stencil
      emit(Op::kVecOp, k - 1, interior(k - 1) * 8.0 / 8.0,        // condense
           par(interior(k - 1)), 2);
      emit(Op::kVecOp, k - 1, interior(k - 1), par(interior(k - 1)), 2);  // embed
    }
  }

  void coarse2fine(int k) {
    border_shared(k - 1);
    // scatter (+ take): one full fine-grid sweep writing mostly zeros.
    emit(Op::kVecOp, k, interior(k), par(interior(k)), 2);
    if (!opts_.sac_folding) {
      emit(Op::kVecOp, k, interior(k), par(interior(k)), 2);  // separate take
    }
    relax(k);  // Q stencil
  }

  void sub_resid(int k) {
    border_shared(k);
    if (opts_.sac_folding) {
      emit(Op::kResid, k, interior(k), par(interior(k)), 2);  // fused v - A u
    } else {
      relax(k);                                               // A stencil
      emit(Op::kVecOp, k, interior(k), par(interior(k)), 2);  // subtraction
    }
  }

  void add_smooth(int k) {
    border_shared(k);
    if (opts_.sac_folding) {
      emit(Op::kPsinv, k, interior(k), par(interior(k)), 2);  // fused z + S r
    } else {
      relax(k);                                               // S stencil
      emit(Op::kVecOp, k, interior(k), par(interior(k)), 2);  // addition
    }
  }

  std::vector<Region> build() {
    // u = u + VCycle(r):
    vcycle(lt_);
    emit(Op::kVecOp, lt_, interior(lt_), par(interior(lt_)), 2);  // u + z
    // r = v - Resid(u):
    sub_resid(lt_);
    return take();
  }
};

}  // namespace

Trace build_trace(mg::Variant variant, const mg::MgSpec& spec,
                  const TraceOptions& opts) {
  Trace t;
  t.variant = variant;
  t.spec = spec;
  if (variant == mg::Variant::kSac || variant == mg::Variant::kSacDirect) {
    t.regions = SacBuilder(variant, spec, opts).build();
    if (opts.sac_pool) {
      // Pooled runtime: the same memory-management events happen, but a
      // measured fraction of them recycle a block instead of calling malloc.
      const double rate = std::clamp(opts.sac_pool_hit_rate, 0.0, 1.0);
      for (Region& r : t.regions) {
        r.pool_hits =
            static_cast<int>(std::lround(r.alloc_events * rate));
        r.pool_misses = r.alloc_events - r.pool_hits;
      }
    }
    if (opts.sac_planes) {
      // kPlanes runtime: relaxation sweeps on levels whose interior extent
      // reaches the small-grid cutover run the factorised plane-sum
      // kernel; smaller levels and the folded rprj3 gather stay on the
      // grouped form, just like SacConfig::stencil_planes_cutover in the
      // real engine (which compares the interior extent for both
      // variants).
      const double scale = std::clamp(opts.sac_planes_flop_scale, 0.0, 1.0);
      for (Region& r : t.regions) {
        if (r.op != Op::kResid && r.op != Op::kPsinv) continue;
        if (std::pow(2.0, r.level) >= opts.sac_planes_cutover) {
          r.flops *= scale;
        }
      }
    }
  } else {
    t.regions = LowLevelBuilder(variant, spec, opts).build();
  }
  return t;
}

}  // namespace sacpp::machine
