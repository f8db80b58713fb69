#pragma once
// The paper's high-level SAC implementation of NAS MG (Figs. 4-10),
// transliterated onto the sacpp array system.
//
// All functions are rank-generic: they accept extended grids of any rank
// whose per-axis extent is 2^k + 2 (the paper's double[+] genericity —
// "this SAC code could be reused for grids of any dimension without
// alteration").  The benchmark itself uses rank 3.
//
// Two execution paths reproduce the compiler story:
//  * folding off — every operation materialises its result, the literal
//    composition of Figs. 6/7 (border setup, RelaxKernel, condense, embed,
//    scatter, take as separate with-loops);
//  * folding on (default) — the compositions are fused into single
//    traversals (with-loop folding): v - A(u) evaluates in one sweep,
//    Fine2Coarse evaluates the P-stencil only at the condensed points,
//    Coarse2Fine evaluates the Q-relaxed scatter straight from the coarse
//    grid (sac::lazy_prolong, no fine scattered grid), and the border setup
//    folds into every consumer (the stencils and the prolongation read the
//    ghost layer through the periodic wrap), so no grid is re-bordered or
//    copied before a stencil.
// Both paths compute identical values (tests assert this).

#include "sacpp/mg/spec.hpp"
#include "sacpp/sac/sac.hpp"

namespace sacpp::mg {

class MgSac {
 public:
  explicit MgSac(const MgSpec& spec) : spec_(spec) {}

  const MgSpec& spec() const { return spec_; }

  // Paper Fig. 4, MGrid: iter iterations of  r = v - Resid(u);
  // u = u + VCycle(r)  starting from u = 0.  v is an extended grid.
  sac::Array<double> mgrid(const sac::Array<double>& v, int iter) const;

  // Paper Fig. 4, VCycle: the recursive V-cycle correction operator.
  sac::Array<double> vcycle(const sac::Array<double>& r) const;

  // Paper Fig. 6: Resid — periodic border setup + relaxation with A (the
  // border folded into the stencil when folding is on).  (The paper's
  // Resid(u) computes the operator application A u; the residual itself is
  // v - Resid(u).)
  sac::Array<double> resid(const sac::Array<double>& u) const;

  // Paper Fig. 6: Smooth — periodic border setup + relaxation with S.
  sac::Array<double> smooth(const sac::Array<double>& r) const;

  // Paper Fig. 7: Fine2Coarse — border setup, relax with P, condense,
  // embed into the coarse extended shape.  With folding enabled the
  // condense/embed fuse into the relaxation (P evaluated at 1/8 of points).
  sac::Array<double> fine2coarse(const sac::Array<double>& r) const;

  // Paper Fig. 7: Coarse2Fine — border setup, scatter, take, relax with Q.
  // With folding enabled all four fuse into one traversal that reads the
  // coarse grid (sac::lazy_prolong), bit-identical to the literal composition.
  sac::Array<double> coarse2fine(const sac::Array<double>& rn) const;

  // The current residual  r = v - Resid(u) , fused into one traversal when
  // with-loop folding is enabled.
  sac::Array<double> residual(const sac::Array<double>& v,
                              const sac::Array<double>& u) const;

  // Periodic boundary initialisation (paper Fig. 5): each ghost layer
  // receives the opposite interior layer, axis by axis.  Runs in place when
  // the argument is uniquely owned.  The unfolded path calls it before
  // every stencil; the folded path reads through sac::lazy_periodic_border
  // instead.
  static sac::Array<double> setup_periodic_border(sac::Array<double> a);

  // Residual norm used for verification: sqrt(sum((v - A u)^2) / nx^rank)
  // over interior points.
  double residual_norm(const sac::Array<double>& v,
                       const sac::Array<double>& u) const;

 private:
  // Fused forms used when with-loop folding is enabled.
  sac::Array<double> sub_resid_fused(const sac::Array<double>& v,
                                     const sac::Array<double>& u) const;
  // Takes z by value: when the caller passes its last reference the update
  // z + S(r) happens in place in z's buffer (SAC's psinv does the same).
  sac::Array<double> add_smooth_fused(sac::Array<double> z,
                                      const sac::Array<double>& r) const;
  sac::Array<double> fine2coarse_fused(const sac::Array<double>& r) const;
  sac::Array<double> coarse2fine_fused(const sac::Array<double>& rn) const;

  MgSpec spec_;
};

}  // namespace sacpp::mg
