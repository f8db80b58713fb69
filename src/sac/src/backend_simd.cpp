// The kSimd engines: the portable 4-wide engine plus AVX2 and AVX-512.
//
// All three are one source.  The element-parallel kernels (fill, plane
// sums, combine/accumulate, the grouped rows, add/sub/mul_into) live in
// backend_simd_kernels.inc, which this file includes once at the baseline
// ISA and once under each target pragma; the compiler vectorizes the same
// loops at the width the target allows.  The translation unit therefore
// builds at the baseline -march (no per-file -mavx flags, whose inline std
// code could be the copy the linker keeps and fault on older CPUs), and
// backend.cpp dispatches at runtime via CPUID (widest first).  The engines
// are bit-identical to each other by construction:
//  * element-parallel kernels keep the scalar association order per
//    element (so they are bit-identical to kScalar too), whatever width
//    the vectorizer picks and however it peels or finishes a row: the
//    prologue and epilogue iterations run the same per-element expression;
//  * folds are written out in the fixed 4-lane structure (element lo+n
//    lands in lane n%4, combined ((l0+l1)+l2)+l3) and compiled once at the
//    baseline ISA, shared by every engine, so kSimd fold results do not
//    depend on the host CPU;
//  * no FMA: src/common/CMakeLists.txt pins -ffp-contract=off on every
//    library and its consumers (AVX-512 brings FMA into the ISA, so the
//    target alone would not prevent contraction).
//
// Copy, gather, scatter and the folds stay outside the target regions and
// are called through the engine glue (VectorBackend, also baseline code):
// inlined into an AVX-512 kernel, the strided gather would be re-vectorized
// into a slower vgatherqpd loop.

#include <cmath>
#include <cstring>

#include "sacpp/sac/backend.hpp"

namespace sacpp::sac {
namespace {

namespace portable {
#include "backend_simd_kernels.inc"
}  // namespace portable

#if defined(__x86_64__) || defined(__i386__)
#define SACPP_HAVE_X86_TARGETS 1

#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {
#include "backend_simd_kernels.inc"
}  // namespace avx2
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f,avx512dq,avx512vl,prefer-vector-width=512")
namespace avx512 {
#include "backend_simd_kernels.inc"
}  // namespace avx512
#pragma GCC pop_options

#endif

// -- shared rows (baseline ISA, every engine) --------------------------------

void copy_row_shared(double* out, const double* src, extent_t lo,
                     extent_t hi) {
  if (hi > lo) {
    std::memcpy(out + lo, src,
                static_cast<std::size_t>(hi - lo) * sizeof(double));
  }
}

void gather_row_shared(double* out, const double* src, extent_t stride,
                       extent_t n) {
  for (extent_t t = 0; t < n; ++t) out[t] = src[t * stride];
}

void scatter_row_shared(double* out, extent_t stride, const double* src,
                        extent_t n) {
  for (extent_t t = 0; t < n; ++t) out[t * stride] = src[t];
}

// The 4-lane folds (the lane contract of the header).  A tail's live lanes
// take their element; dead lanes keep the neutral 0.0.  The max combine is
// (a > b) ? a : b, the second operand on ties and NaN.

inline double lane_max(double a, double b) { return a > b ? a : b; }

double sum_sq_row_shared(double acc, const double* p, extent_t lo,
                         extent_t hi) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  extent_t k = lo;
  for (; k + 4 <= hi; k += 4) {
    l0 = l0 + p[k] * p[k];
    l1 = l1 + p[k + 1] * p[k + 1];
    l2 = l2 + p[k + 2] * p[k + 2];
    l3 = l3 + p[k + 3] * p[k + 3];
  }
  if (k < hi) l0 = l0 + p[k] * p[k];
  if (k + 1 < hi) l1 = l1 + p[k + 1] * p[k + 1];
  if (k + 2 < hi) l2 = l2 + p[k + 2] * p[k + 2];
  return acc + (((l0 + l1) + l2) + l3);
}

double max_abs_row_shared(double acc, const double* p, extent_t lo,
                          extent_t hi) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  extent_t k = lo;
  for (; k + 4 <= hi; k += 4) {
    l0 = lane_max(l0, std::fabs(p[k]));
    l1 = lane_max(l1, std::fabs(p[k + 1]));
    l2 = lane_max(l2, std::fabs(p[k + 2]));
    l3 = lane_max(l3, std::fabs(p[k + 3]));
  }
  if (k < hi) l0 = lane_max(l0, std::fabs(p[k]));
  if (k + 1 < hi) l1 = lane_max(l1, std::fabs(p[k + 1]));
  if (k + 2 < hi) l2 = lane_max(l2, std::fabs(p[k + 2]));
  return lane_max(lane_max(lane_max(lane_max(acc, l0), l1), l2), l3);
}

// -- engines -----------------------------------------------------------------

// One engine: the kernels of one target block plus the shared rows.
template <typename K>
class VectorBackend final : public Backend {
 public:
  VectorBackend(const char* name, unsigned lanes) noexcept
      : name_(name), lanes_(lanes) {}

  const char* name() const noexcept override { return name_; }
  unsigned lanes() const noexcept override { return lanes_; }
  bool vectorized() const noexcept override { return true; }

  void fill_row(double* out, extent_t lo, extent_t hi,
                double v) const override {
    K::fill(out, lo, hi, v);
  }
  void copy_row(double* out, const double* src, extent_t lo,
                extent_t hi) const override {
    copy_row_shared(out, src, lo, hi);
  }
  void plane_sums(const double* im, const double* ip, const double* jm,
                  const double* jp, const double* imm, const double* imp,
                  const double* ipm, const double* ipp, double* u1,
                  double* u2, extent_t n) const override {
    K::plane_sums(im, ip, jm, jp, imm, imp, ipm, ipp, u1, u2, n);
  }
  void combine_row(const double* c, const double* uc, const double* u1,
                   const double* u2, double* out, extent_t lo,
                   extent_t hi) const override {
    K::combine(c, uc, u1, u2, out, lo, hi);
  }
  void accumulate_row(const double* c, const double* uc, const double* u1,
                      const double* u2, double* out, extent_t lo,
                      extent_t hi) const override {
    K::accumulate(c, uc, u1, u2, out, lo, hi);
  }
  void grouped_combine_row(const double* c, const double* const* rows,
                           double* out, extent_t lo,
                           extent_t hi) const override {
    K::template grouped<false>(c, rows, out, lo, hi);
  }
  void grouped_accumulate_row(const double* c, const double* const* rows,
                              double* out, extent_t lo,
                              extent_t hi) const override {
    K::template grouped<true>(c, rows, out, lo, hi);
  }
  void add_into_row(const double* a, double* out, extent_t lo,
                    extent_t hi) const override {
    K::add_into(a, out, lo, hi);
  }
  void sub_into_row(const double* a, double* out, extent_t lo,
                    extent_t hi) const override {
    K::sub_into(a, out, lo, hi);
  }
  void mul_into_row(const double* a, double* out, extent_t lo,
                    extent_t hi) const override {
    K::mul_into(a, out, lo, hi);
  }
  void gather_row(double* out, const double* src, extent_t stride,
                  extent_t n) const override {
    gather_row_shared(out, src, stride, n);
  }
  void scatter_row(double* out, extent_t stride, const double* src,
                   extent_t n) const override {
    scatter_row_shared(out, stride, src, n);
  }
  double sum_sq_row(double acc, const double* p, extent_t lo,
                    extent_t hi) const override {
    return sum_sq_row_shared(acc, p, lo, hi);
  }
  double max_abs_row(double acc, const double* p, extent_t lo,
                     extent_t hi) const override {
    return max_abs_row_shared(acc, p, lo, hi);
  }

 private:
  const char* name_;
  unsigned lanes_;
};

}  // namespace

namespace detail {

const Backend& portable_backend() noexcept {
  static const VectorBackend<portable::Kernels> be("portable", 4);
  return be;
}

const Backend* avx2_backend() noexcept {
#ifdef SACPP_HAVE_X86_TARGETS
  if (!cpu_has_avx2()) return nullptr;
  static const VectorBackend<avx2::Kernels> be("avx2", 4);
  return &be;
#else
  return nullptr;
#endif
}

const Backend* avx512_backend() noexcept {
#ifdef SACPP_HAVE_X86_TARGETS
  if (!cpu_has_avx512()) return nullptr;
  static const VectorBackend<avx512::Kernels> be("avx512", 8);
  return &be;
#else
  return nullptr;
#endif
}

std::vector<const Backend*> vector_backends() {
  std::vector<const Backend*> v{&portable_backend()};
  if (const Backend* be = avx2_backend()) v.push_back(be);
  if (const Backend* be = avx512_backend()) v.push_back(be);
  return v;
}

}  // namespace detail

}  // namespace sacpp::sac
