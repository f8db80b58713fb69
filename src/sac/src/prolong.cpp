#include "sacpp/sac/prolong.hpp"

#include <algorithm>

namespace sacpp::sac {

ProlongExpr::ProlongExpr(Array<double> z, Geometry geometry,
                         const StencilCoeffs& q, StencilMode mode)
    : z_(std::move(z)), be_(&active_backend()) {
  const Shape& zs = z_.shape();
  const std::size_t rank = zs.rank();
  SACPP_REQUIRE(rank >= 1 && rank <= 3, "prolongation needs rank 1-3");
  const bool ghosted = geometry == Geometry::kGhosted;
  const IndexVec strides = zs.strides();
  const std::size_t pad = 3 - rank;
  for (std::size_t a = 0; a < pad; ++a) taps_[a] = {Tap{1, {0, 0}}};
  IndexVec fine(rank);
  extent_t min_interior = 0;
  for (std::size_t d = 0; d < rank; ++d) {
    const extent_t n = zs.extent(d);
    SACPP_REQUIRE(n >= (ghosted ? 3 : 1),
                  "prolongation needs a coarse interior extent >= 1");
    const extent_t m = ghosted ? n - 2 : n;
    const extent_t s = strides[d];
    fine[d] = 2 * m + (ghosted ? 2 : 0);
    min_interior = d == 0 ? 2 * m : std::min(min_interior, 2 * m);
    auto& taps = taps_[pad + d];
    taps.resize(static_cast<std::size_t>(fine[d]));
    for (extent_t p = 0; p < fine[d]; ++p) {
      Tap& t = taps[static_cast<std::size_t>(p)];
      if (ghosted) {
        // Fine 2X is coarse X; the - neighbour of an odd point may be the
        // coarse ghost 0, read through the border as m.
        if (p == 0 || p == fine[d] - 1) {
          t = Tap{0, {0, 0}};
        } else if (p % 2 == 0) {
          t = Tap{1, {p / 2 * s, 0}};
        } else {
          t = Tap{2, {PeriodicBorderExpr::wrap((p - 1) / 2, n) * s,
                      (p + 1) / 2 * s}};
        }
      } else if (p % 2 == 1) {  // fine 2X+1 is coarse X
        t = Tap{1, {(p - 1) / 2 * s, 0}};
      } else {
        t = Tap{2, {(p / 2 + m - 1) % m * s, p / 2 * s}};
      }
    }
  }
  shp_ = Shape(fine);
  k0_ = ghosted ? 1 : 0;
  m2_ = ghosted ? zs.extent(rank - 1) - 2 : zs.extent(rank - 1);

  // The per-point form of the stencil being replaced: StencilExpr takes
  // grouped_stencil3 at rank 3 unless naive, and at_linear (grouped only
  // in kGrouped) below; PeriodicStencilExpr ignores the mode per point.
  if (rank == 3) {
    form_ = ghosted && mode == StencilMode::kNaive ? Form::kNaive
                                                   : Form::kGrouped3;
  } else {
    form_ = ghosted && mode != StencilMode::kGrouped ? Form::kNaive
                                                     : Form::kGroupedGeneric;
  }
  for (std::size_t b = 0; b < 4; ++b) {
    c_[b] = q[b];
    if (form_ == Form::kGrouped3) {
      // Rank-3 trees (grouped and planes alike): class sums 1 and 2 mix
      // samples with gaps, 0 and 3 hold samples only; the class products
      // are summed from the first, not from 0.0.
      fix_[b] = b == 1 || b == 2 ? 0.0 : -0.0;
      bool first = true;
      for (std::size_t i = 0; i < 4; ++i) {
        if (i == b) continue;
        const double dropped = q[i] * 0.0;
        zero_[b] = first ? dropped : zero_[b] + dropped;
        first = false;
      }
    } else {
      fix_[b] = 0.0;  // sums start at 0.0
      zero_[b] = 0.0;
    }
  }
  if (rank == 3 && mode == StencilMode::kPlanes) {
    planes_rows_ = min_interior >= active_config().stencil_planes_cutover;
    grouped_rows_ = !planes_rows_;
  }
}

void ProlongExpr::fill_row(PlaneScratch& st, extent_t i, extent_t j,
                           double* out, extent_t k_lo, extent_t k_hi) const {
  const Tap& ti = taps_[0][static_cast<std::size_t>(i)];
  const Tap& tj = taps_[1][static_cast<std::size_t>(j)];
  if (ti.n == 0 || tj.n == 0) {
    be_->fill_row(out, k_lo, k_hi, 0.0);
    return;
  }
  // T, the coarse rows around this fine row summed in the plane sums'
  // order, goes to w[1..m]; w[0] is the wrapped w[m].  Addition commutes,
  // so add_into_row's r + w is the plane sums' w + r.  T is also the
  // grouped tree's sum on a sample, where the coarse values come in the
  // same row order.  Between two samples the grouped tree instead adds
  // each row's pair of values in turn, so grouped rows also build those
  // sums, into g[0..m): g[t] pairs coarse positions t-1 and t, g[0] the
  // wrapped m-1 and 0.
  const extent_t m = m2_;
  double* w = st.u1();
  double* g = st.uc();
  const double* base = z_.data() + k0_;
  bool first = true;
  for (int a = 0; a < ti.n; ++a) {
    for (int e = 0; e < tj.n; ++e) {
      const double* row = base + ti.x[a] + tj.x[e];
      if (first) {
        be_->copy_row(w + 1, row, 0, m);
      } else {
        be_->add_into_row(row, w + 1, 0, m);
      }
      if (grouped_rows_) {
        if (first) {
          g[0] = row[m - 1] + row[0];
          for (extent_t t = 1; t < m; ++t) g[t] = row[t - 1] + row[t];
        } else {
          g[0] = (g[0] + row[m - 1]) + row[0];
          for (extent_t t = 1; t < m; ++t) {
            g[t] = (g[t] + row[t - 1]) + row[t];
          }
        }
      }
      first = false;
    }
  }
  w[0] = w[m];

  // Fine k alternates between two coarse samples (class c+1) and on one
  // (class c), starting between at k0_.
  const auto c = static_cast<std::size_t>(ti.n + tj.n - 2);
  const double cs = c_[c], gs = fix_[c], zs = zero_[c];
  const double cb = c_[c + 1], gb = fix_[c + 1], zb = zero_[c + 1];
  const extent_t n2 = shp_[2];
  const bool whole = k_lo == 0 && k_hi == n2;
  double* row_out = whole ? out : st.u2();
  double* o = row_out + k0_;
  if (grouped_rows_) {
    for (extent_t t = 0; t < m; ++t) {
      o[2 * t] = cb * (g[t] + gb) + zb;
      o[2 * t + 1] = cs * (w[t + 1] + gs) + zs;
    }
    st.grouped_rows += 1;
  } else {
    for (extent_t t = 0; t < m; ++t) {
      o[2 * t] = cb * ((w[t] + w[t + 1]) + gb) + zb;
      o[2 * t + 1] = cs * (w[t + 1] + gs) + zs;
    }
    st.rows += 1;
  }
  if (k0_ == 1) {  // the fixed boundary of the ghosted geometry
    row_out[0] = 0.0;
    row_out[n2 - 1] = 0.0;
  }
  if (!whole) be_->copy_row(out, row_out + k_lo, k_lo, k_hi);
}

ProlongExpr lazy_prolong(const PeriodicBorderExpr& z, const StencilCoeffs& q,
                         StencilMode mode) {
  return ProlongExpr(z.a, ProlongExpr::Geometry::kGhosted, q, mode);
}

ProlongExpr lazy_prolong_periodic(Array<double> z, const StencilCoeffs& q,
                                  StencilMode mode) {
  return ProlongExpr(std::move(z), ProlongExpr::Geometry::kPeriodic, q, mode);
}

}  // namespace sacpp::sac
