#pragma once
// The prolongation Q(scatter(2, z)) evaluated straight from the coarse grid
// (docs/stencil.md, "The prolongation, folded").
//
// Coarse2Fine scatters the coarse grid into a fine grid whose other 7/8 of
// the points are zero, then relaxes it with the 27-point Q stencil.  Along
// each axis a fine point is either on a coarse sample or between two, and
// the stencil's neighbours on samples are exactly those whose offset is
// +-1 on the "between" axes and 0 on the others.  With b axes between, all
// of them lie in distance class b, and every other neighbour is a scatter
// gap.  So the relaxed value is q[b] times the sum of the 2^b coarse values
// around the point, plus zero terms.  ProlongExpr computes that sum from
// the coarse grid, in the summation order of the stencil it replaces, so it
// is bit for bit the materialised scatter relaxed by relax_kernel (ghosted)
// or relax_kernel_periodic (ghost-free):
//  * per point (kGrouped, kNaive, or kPlanes without the row path): the
//    coarse values in grouped_stencil3 / StencilTable order;
//  * on the kPlanes row path: the plane-sum association — one coarse row,
//    or the sum of the two or four coarse rows around the fine row, then
//    per k either that row's value (k on a sample) or the sum of its two
//    neighbours (k between);
//  * on kPlanes grouped rows (below the cutover): the per-point grouped
//    order across a row — the row sum on a sample (the same sum as the
//    plane-sum path's), and between two samples each coarse row's pair of
//    values added in turn.
// Dropping a zero term changes a sum only in the sign of a zero result, so
// each evaluator adds two constants that restore exactly the sign the full
// sum would have had (see `fix_` and `zero_` below).

#include <array>
#include <vector>

#include "sacpp/common/error.hpp"
#include "sacpp/common/shape.hpp"
#include "sacpp/sac/array.hpp"
#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/config.hpp"
#include "sacpp/sac/expr.hpp"
#include "sacpp/sac/stencil.hpp"

namespace sacpp::sac {

class ProlongExpr {
 public:
  // The two grid geometries of the MG variants.
  enum class Geometry {
    // Extended grids (MgSac): z has extent m+2 per axis and is read through
    // the periodic border; the result has extent 2m+2, fine point 2X sits
    // on coarse point X, and the outer layer is the stencil's fixed 0.
    kGhosted,
    // Ghost-free grids (MgSacDirect): z has extent m, the result 2m; fine
    // point 2X+1 sits on coarse point X (phase 1) and neighbours wrap.
    kPeriodic,
  };

  ProlongExpr(Array<double> z, Geometry geometry, const StencilCoeffs& q,
              StencilMode mode);

  const Shape& shape() const { return shp_; }

  double operator()(const IndexVec& iv) const {
    std::array<extent_t, 3> idx{0, 0, 0};
    const std::size_t pad = 3 - iv.size();
    for (std::size_t d = 0; d < iv.size(); ++d) idx[pad + d] = iv[d];
    return (*this)(idx[0], idx[1], idx[2]);
  }

  double operator()(extent_t i, extent_t j, extent_t k) const {
    const Tap& ti = taps_[0][static_cast<std::size_t>(i)];
    const Tap& tj = taps_[1][static_cast<std::size_t>(j)];
    const Tap& tk = taps_[2][static_cast<std::size_t>(k)];
    if (ti.n == 0 || tj.n == 0 || tk.n == 0) return 0.0;
    switch ((ti.n - 1) * 4 + (tj.n - 1) * 2 + (tk.n - 1)) {
      case 0: return sum<1, 1, 1>(ti, tj, tk);
      case 1: return sum<1, 1, 2>(ti, tj, tk);
      case 2: return sum<1, 2, 1>(ti, tj, tk);
      case 3: return sum<1, 2, 2>(ti, tj, tk);
      case 4: return sum<2, 1, 1>(ti, tj, tk);
      case 5: return sum<2, 1, 2>(ti, tj, tk);
      case 6: return sum<2, 2, 1>(ti, tj, tk);
      default: return sum<2, 2, 2>(ti, tj, tk);
    }
  }

  // -- kPlanes row-fill protocol (detail::RowFillBody) ------------------------
  //
  // Row (i, j) reads one, two or four coarse rows; their sum goes into
  // scratch once and every fine k of the row reads one or two entries of
  // it.  Enabled under the condition the replaced stencil takes its row
  // path: kPlanes, rank 3; at the cutover in the plane-sum association,
  // below it in the grouped one (grouped rows, bit for bit the per-point
  // kGrouped value).

  bool row_fill_enabled() const { return planes_rows_ || grouped_rows_; }

  PlaneScratch make_row_state() const { return PlaneScratch(shp_[2]); }

  void fill_row(PlaneScratch& st, extent_t i, extent_t j, double* out,
                extent_t k_lo, extent_t k_hi) const;

 private:
  // Fine index -> coarse positions along one axis.  n == 2: between x[0]
  // (the - neighbour) and x[1]; n == 1: on sample x[0]; n == 0: the fixed
  // boundary layer of the ghosted geometry.  Positions are stored linear
  // offsets of the coarse array (index times the axis stride), already
  // wrapped.
  struct Tap {
    int n;
    extent_t x[2];
  };

  // Per-point evaluators, one per form of the stencil being replaced.
  enum class Form {
    kGrouped3,        // grouped_stencil3
    kGroupedGeneric,  // per-class sums from 0.0 (StencilExpr::at_linear,
                      // PeriodicStencilExpr::wrapped_generic)
    kNaive,           // one multiply-add per neighbour from 0.0
  };

  // The 2^b coarse values around a point with NI/NJ/NK taps per axis, in
  // lexicographic offset order — the order both grouped_stencil3 and
  // StencilTable list a class's members in.
  template <int NI, int NJ, int NK>
  double sum(const Tap& ti, const Tap& tj, const Tap& tk) const {
    constexpr std::size_t b = NI + NJ + NK - 3;  // axes between: the class
    const double* p = z_.data();
    const double cb = c_[b];
    double s = 0.0;
    bool first = true;
    for (int a = 0; a < NI; ++a) {
      for (int e = 0; e < NJ; ++e) {
        for (int f = 0; f < NK; ++f) {
          const double v = p[ti.x[a] + tj.x[e] + tk.x[f]];
          if (form_ == Form::kNaive) {
            s += cb * v;
          } else {
            s = first ? v : s + v;
          }
          first = false;
        }
      }
    }
    if (form_ == Form::kNaive) return s;
    return cb * (s + fix_[b]) + zero_[b];
  }

  Array<double> z_;
  Shape shp_;
  std::array<std::vector<Tap>, 3> taps_;  // ranks < 3 pad the leading axes
  extent_t k0_ = 0;  // first interior k of a coarse row and of a fine row
  extent_t m2_ = 0;  // coarse interior extent along k
  Form form_ = Form::kGrouped3;
  // Per live class b:  c_[b] * (sum + fix_[b]) + zero_[b].  fix_[b] is +0.0
  // where the replaced class sum also added scatter gaps (classes 1 and 2
  // of the rank-3 trees; every class of the forms that start at 0.0) and
  // -0.0, the additive identity, elsewhere; zero_[b] is the IEEE sum of the
  // dropped class products q[i] * +0.0.
  std::array<double, 4> c_{};
  std::array<double, 4> fix_{};
  std::array<double, 4> zero_{};
  const Backend* be_;  // row-primitive engine, snapshotted at construction
  bool planes_rows_ = false;   // plane-sum rows (rank 3, at the cutover)
  bool grouped_rows_ = false;  // grouped rows (rank 3, below the cutover)
};

// Q(scatter(2, z)) over extended grids: MgSac's folded Coarse2Fine, equal
// bit for bit to relax_kernel(take(2*shape(z)-2, scatter(2,
// SetupPeriodicBorder(z))), q).  Ranks 1-3, extent >= 3.
ProlongExpr lazy_prolong(const PeriodicBorderExpr& z, const StencilCoeffs& q,
                         StencilMode mode = active_config().stencil_mode);

// Q(scatter(2, z)) over ghost-free grids with phase 1 and periodic wrap:
// MgSacDirect's folded Coarse2Fine, equal bit for bit to
// relax_kernel_periodic(scatter(2, z, 1), q).  Ranks 1-3, extent >= 1.
ProlongExpr lazy_prolong_periodic(Array<double> z, const StencilCoeffs& q,
                                  StencilMode mode =
                                      active_config().stencil_mode);

}  // namespace sacpp::sac
