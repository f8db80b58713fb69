#pragma once
// Parallel-region traces of the MG implementations.
//
// The paper's parallel results (Figs. 12/13) were measured on a 12-CPU SUN
// Ultra Enterprise 4000, which we do not have; DESIGN.md §4 documents the
// substitution.  The substitute works on an execution *trace*: the exact
// sequence of grid sweeps one benchmark iteration performs — derived from
// the same V-cycle schedule the real solvers execute, with per-sweep element
// counts, flop counts and memory traffic computed from the real grid
// geometry — annotated with how each implementation runs that sweep:
//
//  * SAC        — every with-loop is implicitly parallel, but each array
//                 operation carries dynamic memory-management events whose
//                 cost is invariant in grid size (the paper's Sec. 5
//                 analysis), and sweeps below the sequential threshold run
//                 on one CPU;
//  * Fortran-77 — automatic parallelisation covers the simple relaxation
//                 sweeps but not the loop nests with coupled index
//                 expressions (rprj3/interp) nor the ghost exchanges;
//                 static memory layout, no allocation events;
//  * C/OpenMP   — hand-placed directives parallelise every sweep with small
//                 constant overhead ("almost static" memory layout).
//
// The model (model.hpp) then schedules a trace onto P CPUs.

#include <string>
#include <vector>

#include "sacpp/mg/driver.hpp"
#include "sacpp/mg/spec.hpp"

namespace sacpp::machine {

enum class Op {
  kResid,    // r = v - A u        (27-point stencil + subtraction)
  kPsinv,    // u += C r           (27-point stencil + addition)
  kRprj3,    // fine -> coarse restriction
  kInterp,   // coarse -> fine prolongation (additive)
  kComm3,    // periodic ghost exchange / border setup
  kVecOp,    // full-grid element-wise operation (unfused SAC only)
  kZero,     // grid clear
};

const char* op_name(Op op);

// Nominal per-element work and unique memory traffic of each sweep kind
// (shared by the shared-memory trace builder and the distributed model).
struct OpCost {
  double flops_per_elem = 0.0;
  double bytes_per_elem = 0.0;
};

OpCost op_cost(Op op);

// One grid sweep as one (potential) parallel region.
struct Region {
  Op op = Op::kResid;
  int level = 0;          // V-cycle level (levels() = finest)
  double elems = 0.0;     // result elements computed
  double flops = 0.0;     // total floating-point operations
  double bytes = 0.0;     // total unique memory traffic (read + write)
  bool parallel = false;  // this implementation runs the sweep in parallel
  int alloc_events = 0;   // dynamic memory-management operations (serial)
  // Split of alloc_events under the pooled allocator (docs/memory.md):
  // hits recycle a block at pool_hit_cost, misses pay the full alloc_cost.
  // Both zero means "no pool" and the region is charged alloc_events at
  // alloc_cost — the paper's original memory-management term.
  int pool_hits = 0;
  int pool_misses = 0;
};

struct Trace {
  mg::Variant variant = mg::Variant::kSac;
  mg::MgSpec spec;
  std::vector<Region> regions;  // one benchmark iteration (V-cycle + resid)

  double total_flops() const;
  double total_bytes() const;
  int total_alloc_events() const;
  int total_pool_hits() const;
  int total_pool_misses() const;
  // Fraction of flops inside parallel-annotated regions (Amdahl coverage).
  double parallel_flop_fraction() const;
};

struct TraceOptions {
  // SAC: with-loops over fewer elements run sequentially (config D4).
  double sac_seq_threshold_elems = 4096.0;
  // SAC: with-loop folding (folded traces have fewer sweeps/allocations).
  bool sac_folding = true;
  // SAC: pooled buffer allocator (SacConfig::pool).  Off by default: the
  // paper's SAC runtime had none, and the calibrated figures (Fig. 11-13)
  // reproduce that machine.  When on, each region's alloc_events are split
  // into pool hits/misses at sac_pool_hit_rate — bench/abl_pool feeds the
  // hit rate measured on a real run (steady-state MG recycles every shape,
  // so the real rate is ~1 minus a cold-start term).
  bool sac_pool = false;
  double sac_pool_hit_rate = 1.0;
  // SAC: kPlanes shared plane-sum stencil engine (SacConfig::stencil_mode,
  // docs/stencil.md).  Off by default — the paper's sac2c runtime had only
  // the grouped form, so the calibrated Fig. 11-13 traces stay byte
  // identical.  When on, relaxation-sweep regions (kResid/kPsinv — the ops
  // the row path serves) on levels whose interior extent reaches
  // sac_planes_cutover have their flops scaled by sac_planes_flop_scale:
  // the factorised 4-mult/~16-add per-point cost over the grouped
  // 4-mult/26-add one.  Folded rprj3 regions (kRprj3) are never scaled —
  // the condensed gather evaluates per point in the real engine too.
  bool sac_planes = false;
  double sac_planes_cutover = 18.0;
  double sac_planes_flop_scale = 20.0 / 31.0;
};

// Build the single-iteration trace of one implementation.
Trace build_trace(mg::Variant variant, const mg::MgSpec& spec,
                  const TraceOptions& opts = {});

}  // namespace sacpp::machine
