#pragma once
// Direct periodic relaxation — the paper's first future-work item (Sec. 7):
//
//   "A direct implementation of relaxation with periodic boundary
//    conditions that makes artificial boundary elements obsolete is most
//    desirable.  On the one hand, it saves the overhead associated with
//    updating these additional elements.  On the other hand, it allows for
//    a benchmark implementation that is even closer to the mathematical
//    specification."
//
// PeriodicStencilExpr applies a coefficient-class stencil to an array
// WITHOUT ghost layers: neighbour indices wrap around modulo the extent.
// Evaluation is split the way a compiler would split the with-loop: points
// whose full neighbourhood is in bounds use the unrolled direct evaluator;
// only the O(n^(rank-1)) boundary points pay for modular arithmetic.
//
// The expression participates in with-loop folding exactly like
// StencilExpr (it satisfies ArrayExpr / Rank3Expr).

#include <algorithm>
#include <array>

#include "sacpp/common/error.hpp"
#include "sacpp/common/shape.hpp"
#include "sacpp/sac/array.hpp"
#include "sacpp/sac/stencil.hpp"
#include "sacpp/sac/with_loop.hpp"

namespace sacpp::sac {

class PeriodicStencilExpr {
 public:
  PeriodicStencilExpr(Array<double> a, const StencilCoeffs& coeffs,
                      StencilMode mode = active_config().stencil_mode)
      : a_(std::move(a)), c_(coeffs), mode_(mode), be_(&active_backend()) {
    const Shape& shp = a_.shape();
    SACPP_REQUIRE(shp.rank() >= 1, "stencil needs rank >= 1");
    extent_t min_extent = shp.extent(0);
    for (std::size_t d = 0; d < shp.rank(); ++d) {
      SACPP_REQUIRE(shp.extent(d) >= 2,
                    "periodic stencil needs extent >= 2 per dimension");
      min_extent = std::min(min_extent, shp.extent(d));
    }
    if (shp.rank() == 3) {
      s0_ = shp.extent(1) * shp.extent(2);
      s1_ = shp.extent(2);
      if (mode_ == StencilMode::kPlanes) {
        planes_rows_ = min_extent >= active_config().stencil_planes_cutover;
        grouped_rows_ = !planes_rows_;
      }
    }
  }

  const Shape& shape() const { return a_.shape(); }
  const Array<double>& argument() const { return a_; }
  StencilMode mode() const { return mode_; }

  double operator()(const IndexVec& iv) const {
    const Shape& shp = a_.shape();
    if (shp.rank() == 3) return (*this)(iv[0], iv[1], iv[2]);
    return wrapped_generic(iv);
  }

  double operator()(extent_t i, extent_t j, extent_t k) const {
    const Shape& shp = a_.shape();
    const extent_t n0 = shp.extent(0), n1 = shp.extent(1),
                   n2 = shp.extent(2);
    if (i >= 1 && i < n0 - 1 && j >= 1 && j < n1 - 1 && k >= 1 &&
        k < n2 - 1) {
      return direct3((i * n1 + j) * n2 + k);
    }
    return wrapped3(i, j, k);
  }

  // -- kPlanes row-fill protocol (detail::RowFillBody) ------------------------
  //
  // Unlike the fixed-boundary StencilExpr, the factorised form here covers
  // EVERY output row: the nine source rows are taken with their i/j
  // coordinates wrapped, so the boundary ring needs no per-point modular
  // fallback, and only the first/last k positions pay a wrapped combine.
  // Below the cutover the rows are grouped rows (StencilExpr's), the
  // wrapped3 tree of every point bit for bit.

  bool row_fill_enabled() const { return planes_rows_ || grouped_rows_; }

  PlaneScratch make_row_state() const {
    return PlaneScratch(planes_rows_ ? a_.shape().extent(2) : 0);
  }

  void fill_row(PlaneScratch& st, extent_t i, extent_t j, double* out,
                extent_t k_lo, extent_t k_hi) const {
    if (grouped_rows_) {
      grouped_row(st, i, j, out, k_lo, k_hi);
      return;
    }
    const Shape& shp = a_.shape();
    const extent_t n0 = shp[0], n1 = shp[1], n2 = shp[2];
    const extent_t iw = (i + n0 - 1) % n0, ie = (i + 1) % n0;
    const extent_t jw = (j + n1 - 1) % n1, je = (j + 1) % n1;
    const double* base = a_.data();
    auto row = [&](extent_t x, extent_t y) {
      return base + x * s0_ + y * s1_;
    };
    // Reads only — overlapping pointers on extent-2 axes stay legal inside
    // the backend's plane kernel.
    be_->plane_sums(row(iw, j), row(ie, j), row(i, jw), row(i, je),
                    row(iw, jw), row(iw, je), row(ie, jw), row(ie, je),
                    st.u1(), st.u2(), n2);
    const double* uc = row(i, j);
    const double* u1 = st.u1();
    const double* u2 = st.u2();
    double* o = out;
    auto combine = [&](extent_t k, extent_t km, extent_t kp) {
      o[k] = c_[0] * uc[k] + c_[1] * ((u1[k] + uc[km]) + uc[kp]) +
             c_[2] * ((u2[k] + u1[km]) + u1[kp]) +
             c_[3] * (u2[km] + u2[kp]);
    };
    if (k_lo == 0) combine(0, n2 - 1, 1 % n2);
    // Interior points use the backend row combine; only the wrapped first
    // and last k pay the modular lookup above/below.
    be_->combine_row(c_.c.data(), uc, u1, u2, o,
                     std::max<extent_t>(k_lo, 1),
                     std::min<extent_t>(k_hi, n2 - 1));
    if (k_hi == n2 && n2 >= 2) combine(n2 - 1, n2 - 2, 0);
    st.rows += 1;
  }

 private:
  // Interior: the grouped tree of StencilExpr::at_linear3, so the two
  // formulations agree bitwise there.
  double direct3(extent_t centre) const {
    const double* c = a_.data() + centre;
    const extent_t s0 = s0_, s1 = s1_;
    return grouped_stencil3(c_, [c, s0, s1](int di, int dj, int dk) {
      return c[di * s0 + dj * s1 + dk];
    });
  }

  // fill_row below the cutover: the grouped rows over the nine wrapped
  // neighbour rows, the wrapped first and last k peeled as in wrapped3.
  void grouped_row(PlaneScratch& st, extent_t i, extent_t j, double* out,
                   extent_t k_lo, extent_t k_hi) const {
    const Shape& shp = a_.shape();
    const extent_t n0 = shp[0], n1 = shp[1], n2 = shp[2];
    const extent_t x[3] = {(i + n0 - 1) % n0, i, (i + 1) % n0};
    const extent_t y[3] = {(j + n1 - 1) % n1, j, (j + 1) % n1};
    const double* rows[9];
    for (int a = 0; a < 3; ++a) {
      for (int b = 0; b < 3; ++b) {
        rows[a * 3 + b] = a_.data() + x[a] * s0_ + y[b] * s1_;
      }
    }
    if (k_lo == 0) out[0] = grouped_point3(c_, rows, 0, n2 - 1, 1 % n2);
    be_->grouped_combine_row(c_.c.data(), rows, out,
                             std::max<extent_t>(k_lo, 1),
                             std::min<extent_t>(k_hi, n2 - 1));
    if (k_hi == n2 && n2 >= 2) {
      out[n2 - 1] = grouped_point3(c_, rows, n2 - 1, n2 - 2, 0);
    }
    st.grouped_rows += 1;
  }

  // Boundary points: the same tree, neighbour coordinates wrapping modulo
  // the extent.
  double wrapped3(extent_t i, extent_t j, extent_t k) const {
    const Shape& shp = a_.shape();
    const extent_t n0 = shp.extent(0), n1 = shp.extent(1),
                   n2 = shp.extent(2);
    const extent_t x[3] = {(i + n0 - 1) % n0 * s0_, i * s0_,
                           (i + 1) % n0 * s0_};
    const extent_t y[3] = {(j + n1 - 1) % n1 * s1_, j * s1_,
                           (j + 1) % n1 * s1_};
    const extent_t z[3] = {(k + n2 - 1) % n2, k, (k + 1) % n2};
    const double* p = a_.data();
    return grouped_stencil3(c_, [&](int di, int dj, int dk) {
      return p[x[di + 1] + y[dj + 1] + z[dk + 1]];
    });
  }

  // Any-rank fallback via the cached offset table, wrapping per axis.
  double wrapped_generic(const IndexVec& iv) const {
    const Shape& shp = a_.shape();
    std::array<double, 4> sums{};
    IndexVec src(iv.size());
    for (const auto& e : StencilTable::for_rank(shp.rank()).entries()) {
      for (std::size_t d = 0; d < iv.size(); ++d) {
        const extent_t n = shp.extent(d);
        src[d] = (iv[d] + e.offset[d] + n) % n;
      }
      sums[static_cast<std::size_t>(e.cls)] += a_[src];
    }
    double acc = 0.0;
    for (std::size_t cls = 0; cls < 4; ++cls) acc += c_[cls] * sums[cls];
    return acc;
  }

  Array<double> a_;
  StencilCoeffs c_;
  StencilMode mode_;
  const Backend* be_;  // row-primitive engine, snapshotted at construction
  extent_t s0_ = 0;
  extent_t s1_ = 0;
  bool planes_rows_ = false;   // kPlanes plane-sum rows (rank 3, >= cutover)
  bool grouped_rows_ = false;  // kPlanes grouped rows (rank 3, < cutover)
};

// Eager form: one with-loop over the whole (ghost-free) grid.  The default
// mode is the process-wide SacConfig::stencil_mode (evaluated per call).
Array<double> relax_kernel_periodic(const Array<double>& a,
                                    const StencilCoeffs& coeffs,
                                    StencilMode mode = active_config().stencil_mode);

}  // namespace sacpp::sac
