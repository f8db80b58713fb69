#pragma once
// NAS MG without artificial boundary elements — the paper's first
// future-work item realised (Sec. 7).
//
// Grids are pure 2^k cubes (no ghost layers); periodic boundary conditions
// live inside the relaxation kernel (sac::PeriodicStencilExpr), not in the
// data.  The grid-transfer operations collapse to their mathematical form:
//
//   Fine2Coarse(r) = condense(2, P(r))          (no embed correction)
//   Coarse2Fine(z) = Q(scatter(2, z))           (no take correction)
//
// and the V-cycle reads exactly like the mathematical specification of the
// paper's Fig. 2 — the "even closer to the mathematical specification"
// claim.  With folding on, both run as one with-loop: P at the condensed
// points only, and Q(scatter(2, z)) straight from the coarse grid
// (sac::lazy_prolong_periodic), bit-identical to the materialised scatter.  Results are numerically identical to the ghost-layer
// implementation (tests assert ≤1e-12 relative agreement on every
// iteration norm, and the interior stencil evaluation is bitwise equal).

#include "sacpp/mg/spec.hpp"
#include "sacpp/sac/periodic_stencil.hpp"
#include "sacpp/sac/sac.hpp"

namespace sacpp::mg {

class MgSacDirect {
 public:
  explicit MgSacDirect(const MgSpec& spec) : spec_(spec) {}

  const MgSpec& spec() const { return spec_; }

  // iter iterations of r = v - A u; u = u + VCycle(r), from u = 0.
  // v is a ghost-free 2^k cube of any rank.
  sac::Array<double> mgrid(const sac::Array<double>& v, int iter) const;

  sac::Array<double> vcycle(const sac::Array<double>& r) const;

  // Operator application A u with built-in periodicity (no border setup).
  sac::Array<double> resid(const sac::Array<double>& u) const;
  sac::Array<double> smooth(const sac::Array<double>& r) const;
  sac::Array<double> fine2coarse(const sac::Array<double>& r) const;
  sac::Array<double> coarse2fine(const sac::Array<double>& zn) const;

  // r = v - A u, fused when folding is enabled.
  sac::Array<double> residual(const sac::Array<double>& v,
                              const sac::Array<double>& u) const;

  // sqrt(sum(r^2)/count) over the whole (ghost-free) grid.
  double residual_norm(const sac::Array<double>& v,
                       const sac::Array<double>& u) const;

  // One red-black Gauss-Seidel sweep of A u = v with periodic boundaries —
  // a stronger smoother than the benchmark's additive S-step, and the
  // canonical application of multi-partition strided WITH-loop generators:
  // the red and black checkerboard half-grids are each the union of four
  // step-2 grid partitions, and the black partitions read the freshly
  // updated red values in place.  Takes u by value (in place when unique).
  sac::Array<double> smooth_rbgs(sac::Array<double> u,
                                 const sac::Array<double>& v) const;

  // `iter` V-cycles using red-black Gauss-Seidel smoothing instead of the
  // benchmark smoother (an extension: converges faster per cycle, no NPB
  // verification constant applies).
  sac::Array<double> mgrid_rbgs(const sac::Array<double>& v, int iter) const;

  // Strip the ghost ring from an extended grid (to share inputs with the
  // ghost-layer implementations).
  static sac::Array<double> strip_ghosts(const sac::Array<double>& extended);

 private:
  MgSpec spec_;
};

}  // namespace sacpp::mg
