#include "sacpp/mg/mg_sac.hpp"

#include <cmath>

#include "sacpp/common/error.hpp"
#include "sacpp/mg/profiler.hpp"

namespace sacpp::mg {

using sac::Array;
using sac::force;
using sac::gen_interior;
using sac::gen_range;
using sac::lazy_periodic_border;
using sac::relax_kernel;
using sac::StencilExpr;
using sac::with_fold;
using sac::with_modarray_reading;

namespace {

// Extended grids must have extent 2^k + 2 along every axis.
void check_extended(const Array<double>& a) {
  SACPP_REQUIRE(a.rank() >= 1, "MG grids must have rank >= 1");
  for (std::size_t d = 0; d < a.rank(); ++d) {
    const extent_t n = a.shape().extent(d) - 2;
    SACPP_REQUIRE(n >= 2 && (n & (n - 1)) == 0,
                  "MG extended grid extent must be 2^k + 2 with k >= 1");
  }
}

// Loop body of add_smooth_fused: z[i,j,k] + (S r)[i,j,k], reading the output
// array in place.  Carries the kPlanes row protocol by delegating to
// StencilExpr::accumulate_row — the output row is z's own row, which the
// stencil never reads (it reads the residual), so accumulating in place is
// alias-safe and boundary positions simply keep their z value.
struct AddSmoothBody {
  const StencilExpr& st;
  const double* self;
  extent_t e1, e2;

  double operator()(extent_t i, extent_t j, extent_t k) const {
    return self[(i * e1 + j) * e2 + k] + st(i, j, k);
  }
  double operator()(const IndexVec& iv) const {
    return (*this)(iv[0], iv[1], iv[2]);
  }
  bool row_fill_enabled() const { return st.row_fill_enabled(); }
  sac::PlaneScratch make_row_state() const { return st.make_row_state(); }
  void fill_row(sac::PlaneScratch& s, extent_t i, extent_t j, double* out,
                extent_t k_lo, extent_t k_hi) const {
    st.accumulate_row(s, i, j, out, k_lo, k_hi);
  }
};

}  // namespace

Array<double> MgSac::setup_periodic_border(Array<double> a) {
  const std::size_t rank = a.rank();
  const Shape shp = a.shape();
  std::vector<sac::ReadingPartition<double>> parts;
  parts.reserve(2 * rank);
  for (std::size_t d = 0; d < rank; ++d) {
    const extent_t n = shp.extent(d);
    SACPP_REQUIRE(n >= 3, "periodic border needs extent >= 3");

    IndexVec low_lo = uniform_vec(rank, 0);
    IndexVec low_up(shp.extents().begin(), shp.extents().end());
    low_up[d] = 1;  // the iv[d] == 0 ghost face
    parts.push_back(sac::ReadingPartition<double>{
        gen_range(std::move(low_lo), std::move(low_up)),
        [d, n, shp](const IndexVec& iv, const double* p) {
          IndexVec src(iv.begin(), iv.end());
          src[d] = n - 2;
          return p[shp.linearize(src)];
        }});

    IndexVec high_lo = uniform_vec(rank, 0);
    high_lo[d] = n - 1;  // the iv[d] == n-1 ghost face
    IndexVec high_up(shp.extents().begin(), shp.extents().end());
    parts.push_back(sac::ReadingPartition<double>{
        gen_range(std::move(high_lo), std::move(high_up)),
        [d, shp](const IndexVec& iv, const double* p) {
          IndexVec src(iv.begin(), iv.end());
          src[d] = 1;
          return p[shp.linearize(src)];
        }});
  }
  return with_modarray_reading(std::move(a), parts);
}

Array<double> MgSac::resid(const Array<double>& u) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "resid");
  if (sac::active_config().folding) {
    return relax_kernel(lazy_periodic_border(u), spec_.a);
  }
  return relax_kernel(setup_periodic_border(u), spec_.a);
}

Array<double> MgSac::smooth(const Array<double>& r) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "psinv");
  if (sac::active_config().folding) {
    return relax_kernel(lazy_periodic_border(r), spec_.s);
  }
  return relax_kernel(setup_periodic_border(r), spec_.s);
}

Array<double> MgSac::fine2coarse(const Array<double>& r) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "rprj3");
  if (sac::active_config().folding) return fine2coarse_fused(r);
  Array<double> rs = setup_periodic_border(r);
  Array<double> rr = relax_kernel(rs, spec_.p);
  Array<double> rc = sac::condense(2, rr);
  return sac::embed(rc.shape().extents() + 1, 0 * rc.shape().extents(), rc);
}

Array<double> MgSac::coarse2fine(const Array<double>& rn) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "interp");
  if (sac::active_config().folding) return coarse2fine_fused(rn);
  Array<double> rp = setup_periodic_border(rn);
  Array<double> rs = sac::scatter(2, rp);
  Array<double> rt = sac::take(rs.shape().extents() - 2, rs);
  return relax_kernel(rt, spec_.q);
}

// -- fused forms (with-loop folding on) --------------------------------------
//
// The border setup folds into each consumer too: the stencils and the
// prolongation read the argument through lazy_periodic_border, so no
// with-loop rewrites the ghost layer and no shared grid is copied.

Array<double> MgSac::sub_resid_fused(const Array<double>& v,
                                     const Array<double>& u) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "resid");
  return force(sac::ewise(v, StencilExpr(lazy_periodic_border(u), spec_.a),
                          std::minus<>{}));
}

Array<double> MgSac::add_smooth_fused(Array<double> z,
                                      const Array<double>& r) const {
  obs::ScopedSpan span(obs::SpanKind::kKernel, "psinv");
  const StencilExpr st(lazy_periodic_border(r), spec_.s);
  const Shape shp = z.shape();
  double* self = z.mutable_data();  // in place when uniquely owned
  const auto g = sac::detail::resolve(sac::gen_all(), shp);
  if (shp.rank() == 3) {
    sac::detail::execute_assign(
        self, shp, g,
        AddSmoothBody{st, self, shp.extent(1), shp.extent(2)});
  } else {
    sac::detail::execute_assign(self, shp, g, [&](const IndexVec& iv) {
      return self[shp.linearize(iv)] + st(iv);
    });
  }
  return z;
}

Array<double> MgSac::fine2coarse_fused(const Array<double>& r) const {
  auto relaxed = StencilExpr(lazy_periodic_border(r), spec_.p);
  auto rc = sac::lazy_condense(2, std::move(relaxed));
  const IndexVec coarse_shape = rc.shape().extents() + 1;
  const IndexVec zero = 0 * coarse_shape;
  // One with-loop evaluates the P-stencil only at the condensed points.
  return force(sac::lazy_embed(coarse_shape, zero, std::move(rc)));
}

Array<double> MgSac::coarse2fine_fused(const Array<double>& rn) const {
  // border + scatter + take + Q-relaxation in one traversal of the coarse
  // grid: the scatter's gaps only add zero terms, so the node reads the
  // coarse values the relaxation would have met and nothing else.
  return force(sac::lazy_prolong(lazy_periodic_border(rn), spec_.q));
}

Array<double> MgSac::residual(const Array<double>& v,
                              const Array<double>& u) const {
  SACPP_REQUIRE(v.shape() == u.shape(), "residual shape mismatch");
  return sac::active_config().folding ? sub_resid_fused(v, u) : v - resid(u);
}

// -- the V-cycle --------------------------------------------------------------

namespace {

// V-cycle level of an extended grid: 2^k + 2 extent -> level k.
int level_of(const Array<double>& a) {
  int k = 0;
  extent_t n = a.shape().extent(0) - 2;
  while (n > 1) {
    n /= 2;
    ++k;
  }
  return k;
}

}  // namespace

Array<double> MgSac::vcycle(const Array<double>& r) const {
  const bool folded = sac::active_config().folding;
  const int level = level_of(r);
  if (r.shape().extent(0) > 2 + 2) {
    Array<double> rn;
    {
      LevelScope scope(level);  // this level's work, recursion excluded
      rn = fine2coarse(r);
    }
    Array<double> zn = vcycle(rn);
    LevelScope scope(level);
    Array<double> z = coarse2fine(zn);
    if (folded) {
      Array<double> r2 = sub_resid_fused(r, z);
      return add_smooth_fused(std::move(z), r2);  // z updated in place
    }
    Array<double> r2 = r - resid(z);
    return std::move(z) + smooth(r2);  // z's last use: updated in place
  }
  LevelScope scope(level);
  return smooth(r);
}

Array<double> MgSac::mgrid(const Array<double>& v, int iter) const {
  check_extended(v);
  Array<double> u = sac::genarray_const(v.shape(), 0.0);
  for (int i = 0; i < iter; ++i) {
    Array<double> r = residual(v, u);
    // u's reference count drops to one here, so the addition reuses its
    // buffer in place — what SAC's reference counting does for
    // `u = u + VCycle(r)`.
    u = std::move(u) + vcycle(r);
  }
  return u;
}

double MgSac::residual_norm(const Array<double>& v,
                            const Array<double>& u) const {
  SACPP_REQUIRE(v.shape() == u.shape(), "residual_norm shape mismatch");
  Array<double> r = residual(v, u);
  const Shape& shp = r.shape();
  const double ss =
      with_fold(std::plus<>{}, 0.0, shp, gen_interior(shp), sac::sum_sq_rows(r));
  double points = 1.0;
  for (std::size_t d = 0; d < shp.rank(); ++d) {
    points *= static_cast<double>(shp.extent(d) - 2);
  }
  return std::sqrt(ss / points);
}

}  // namespace sacpp::mg
