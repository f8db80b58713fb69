// The kScalar engine: today's element-at-a-time row loops, verbatim, moved
// behind the Backend interface.  This is the bit-exact reference the
// differential battery (tests/sac_backend_test.cpp) pins every other
// backend against — the loops must keep the exact association order the
// pinned goldens were generated with, so do not "optimise" them here.  The
// build pins -ffp-contract=off on this file, so an FMA-capable -march
// cannot fuse their multiply-adds either.

#include <algorithm>
#include <cmath>
#include <cstring>

#include "sacpp/sac/backend.hpp"

namespace sacpp::sac {
namespace {

class ScalarBackend final : public Backend {
 public:
  const char* name() const noexcept override { return "scalar"; }
  unsigned lanes() const noexcept override { return 1; }
  bool vectorized() const noexcept override { return false; }

  void fill_row(double* out, extent_t lo, extent_t hi,
                double v) const override {
    std::fill(out + lo, out + hi, v);
  }

  void copy_row(double* out, const double* src, extent_t lo,
                extent_t hi) const override {
    if (hi > lo) {
      std::memcpy(out + lo, src, static_cast<std::size_t>(hi - lo) *
                                     sizeof(double));
    }
  }

  void plane_sums(const double* im, const double* ip, const double* jm,
                  const double* jp, const double* imm, const double* imp,
                  const double* ipm, const double* ipp, double* u1,
                  double* u2, extent_t n) const override {
    const double* __restrict rim = im;
    const double* __restrict rip = ip;
    const double* __restrict rjm = jm;
    const double* __restrict rjp = jp;
    const double* __restrict rimm = imm;
    const double* __restrict rimp = imp;
    const double* __restrict ripm = ipm;
    const double* __restrict ripp = ipp;
    double* __restrict w1 = u1;
    double* __restrict w2 = u2;
    for (extent_t k = 0; k < n; ++k) {
      w1[k] = ((rim[k] + rip[k]) + rjm[k]) + rjp[k];
      w2[k] = ((rimm[k] + rimp[k]) + ripm[k]) + ripp[k];
    }
  }

  void combine_row(const double* c, const double* uc, const double* u1,
                   const double* u2, double* out, extent_t lo,
                   extent_t hi) const override {
    const double* __restrict rc = uc;
    const double* __restrict r1 = u1;
    const double* __restrict r2 = u2;
    double* __restrict o = out;
    for (extent_t k = lo; k < hi; ++k) {
      o[k] = c[0] * rc[k] + c[1] * ((r1[k] + rc[k - 1]) + rc[k + 1]) +
             c[2] * ((r2[k] + r1[k - 1]) + r1[k + 1]) +
             c[3] * (r2[k - 1] + r2[k + 1]);
    }
  }

  void accumulate_row(const double* c, const double* uc, const double* u1,
                      const double* u2, double* out, extent_t lo,
                      extent_t hi) const override {
    const double* __restrict rc = uc;
    const double* __restrict r1 = u1;
    const double* __restrict r2 = u2;
    double* __restrict o = out;
    for (extent_t k = lo; k < hi; ++k) {
      o[k] += c[0] * rc[k] + c[1] * ((r1[k] + rc[k - 1]) + rc[k + 1]) +
              c[2] * ((r2[k] + r1[k - 1]) + r1[k + 1]) +
              c[3] * (r2[k - 1] + r2[k + 1]);
    }
  }

  void add_into_row(const double* a, double* out, extent_t lo,
                    extent_t hi) const override {
    for (extent_t k = lo; k < hi; ++k) out[k] = a[k] + out[k];
  }

  void sub_into_row(const double* a, double* out, extent_t lo,
                    extent_t hi) const override {
    for (extent_t k = lo; k < hi; ++k) out[k] = a[k] - out[k];
  }

  void mul_into_row(const double* a, double* out, extent_t lo,
                    extent_t hi) const override {
    for (extent_t k = lo; k < hi; ++k) out[k] = a[k] * out[k];
  }

  void gather_row(double* out, const double* src, extent_t stride,
                  extent_t n) const override {
    for (extent_t t = 0; t < n; ++t) out[t] = src[t * stride];
  }

  void scatter_row(double* out, extent_t stride, const double* src,
                   extent_t n) const override {
    for (extent_t t = 0; t < n; ++t) out[t * stride] = src[t];
  }

  double sum_sq_row(double acc, const double* p, extent_t lo,
                    extent_t hi) const override {
    for (extent_t k = lo; k < hi; ++k) {
      const double x = p[k];
      acc = acc + x * x;
    }
    return acc;
  }

  double max_abs_row(double acc, const double* p, extent_t lo,
                     extent_t hi) const override {
    for (extent_t k = lo; k < hi; ++k) {
      acc = std::max(acc, std::fabs(p[k]));
    }
    return acc;
  }
};

}  // namespace

namespace detail {
const Backend& scalar_backend() noexcept {
  static const ScalarBackend be;
  return be;
}
}  // namespace detail

}  // namespace sacpp::sac
