#pragma once
// Pluggable compute backends for the dense-rank-3 row primitives.
//
// Every hot with-loop in the system eventually walks contiguous k-rows of a
// dense rank-3 array: the kPlanes stencil engine (stencil.hpp), the fused
// EwiseBinaryExpr combine (expr.hpp), the gather rows of the grid-transfer
// operators, and the L2/max-abs norm folds (with_loop.hpp).  A Backend is
// one implementation of those row primitives; with_loop/stencil/expr code
// dispatches through the interface instead of open-coding the loops, so a
// vectorized engine slots in without touching the array system
// (docs/backends.md).  Four engines ship: scalar (the reference), portable
// 4-wide, AVX2 and AVX-512.  The three vector engines are one source of
// plain loops compiled once per target ISA (backend_simd.cpp).
//
// Semantics contract (what makes cross-backend differential testing work):
//  * Element-parallel primitives — fills, plane sums, stencil combines,
//    ewise combines, copies, gathers, scatters — compute every output
//    element with exactly the scalar reference's association order.  They
//    are bit-identical across ALL backends, any row length, any sub-range.
//  * Row folds (sum_sq_row / max_abs_row) may reassociate — but only into
//    one fixed shape: four independent lane accumulators (element `lo + n`
//    goes to lane `n % 4`) combined in a fixed left-to-right order after
//    the row.  Results differ from kScalar only by rounding (tests pin
//    1e-12), but are identical across every vectorized engine: portable,
//    AVX2 and AVX-512 all run one shared 4-lane fold, so kSimd folds are
//    bit-identical across hosts.
//  * No engine emits FMA: both engine files build with -ffp-contract=off.
//  * Tails run the same per-element expression as the vector body, so no
//    row length, alignment or sub-range changes results (fold tails feed
//    their dead lanes the neutral element 0.0, exact for both
//    sum-of-squares and max-abs).
//
// Backends are stateless singletons; a const Backend& is safe to use from
// any thread concurrently.

#include <cstddef>
#include <vector>

#include "sacpp/common/shape.hpp"
#include "sacpp/sac/config.hpp"

namespace sacpp::sac {

class Backend {
 public:
  virtual ~Backend() = default;

  // Resolved implementation name ("scalar" | "avx2" | "avx512" |
  // "portable") — what the engine actually is, as opposed to
  // backend_name(kind), which names the selection policy.
  virtual const char* name() const noexcept = 0;

  // Vector width the element-parallel row primitives operate at (1 for
  // scalar, 4 for the 4-wide engines, 8 for AVX-512).  Fold lane structure
  // is NOT defined by this: every vectorized engine folds in the fixed
  // 4-lane structure described above, whatever width its element-parallel
  // loops run at, so kSimd fold results stay host-independent.
  virtual unsigned lanes() const noexcept = 0;

  // True for the vectorized engines; drives stats().backend_simd_rows and
  // the row paths that only pay off when rows are vector-processed.
  virtual bool vectorized() const noexcept = 0;

  // -- element-parallel row primitives (bit-identical across backends) ------

  // out[k] = v for k in [lo, hi).
  virtual void fill_row(double* out, extent_t lo, extent_t hi,
                        double v) const = 0;

  // out[k] = src[k - lo] for k in [lo, hi)  (contiguous copy).
  virtual void copy_row(double* out, const double* src, extent_t lo,
                        extent_t hi) const = 0;

  // The kPlanes partial sums (docs/stencil.md), for k in [0, n):
  //   u1[k] = ((im[k] + ip[k]) + jm[k]) + jp[k]
  //   u2[k] = ((imm[k] + imp[k]) + ipm[k]) + ipp[k]
  virtual void plane_sums(const double* im, const double* ip,
                          const double* jm, const double* jp,
                          const double* imm, const double* imp,
                          const double* ipm, const double* ipp, double* u1,
                          double* u2, extent_t n) const = 0;

  // Per-point stencil combine over a row, for k in [lo, hi):
  //   r(k) = c[0]*uc[k] + c[1]*((u1[k] + uc[k-1]) + uc[k+1])
  //        + c[2]*((u2[k] + u1[k-1]) + u1[k+1]) + c[3]*(u2[k-1] + u2[k+1])
  //   combine_row:    out[k]  = r(k)
  //   accumulate_row: out[k] += r(k)
  // The caller guarantees uc/u1/u2 are readable on [lo-1, hi+1).
  virtual void combine_row(const double* c, const double* uc,
                           const double* u1, const double* u2, double* out,
                           extent_t lo, extent_t hi) const = 0;
  virtual void accumulate_row(const double* c, const double* uc,
                              const double* u1, const double* u2, double* out,
                              extent_t lo, extent_t hi) const = 0;

  // One fused kPlanes output row: the plane_sums over the eight neighbour
  // rows of centre row `uc` into the caller's u1/u2 scratch (each readable
  // on [0, n)), followed by the per-point combine (or accumulate) into
  // out[lo, hi).  Not an engine hook: it composes this engine's own
  // primitives, so it is bit-identical across engines whenever they are.
  void stencil_row(const double* c, const double* uc, const double* im,
                   const double* ip, const double* jm, const double* jp,
                   const double* imm, const double* imp, const double* ipm,
                   const double* ipp, double* u1, double* u2, double* out,
                   extent_t lo, extent_t hi, extent_t n,
                   bool accumulate) const;

  // Fused ewise combines (the EwiseBinaryExpr row pass-through, expr.hpp):
  // for k in [lo, hi), out[k] = a[k] <op> out[k].
  virtual void add_into_row(const double* a, double* out, extent_t lo,
                            extent_t hi) const = 0;
  virtual void sub_into_row(const double* a, double* out, extent_t lo,
                            extent_t hi) const = 0;
  virtual void mul_into_row(const double* a, double* out, extent_t lo,
                            extent_t hi) const = 0;

  // Restriction inner row (lazy_condense over rows): out[t] = src[t*stride]
  // for t in [0, n).
  virtual void gather_row(double* out, const double* src, extent_t stride,
                          extent_t n) const = 0;

  // Prolongation inner row (lazy_scatter over rows): out[t*stride] = src[t]
  // for t in [0, n).  Gap positions are the caller's business (pre-filled
  // with the expression default).
  virtual void scatter_row(double* out, extent_t stride, const double* src,
                           extent_t n) const = 0;

  // -- row folds (reassociate under vectorized backends; see contract) ------

  // Returns acc folded with sum of p[k]^2 over [lo, hi).
  virtual double sum_sq_row(double acc, const double* p, extent_t lo,
                            extent_t hi) const = 0;

  // Returns max(acc, max |p[k]| over [lo, hi)).  acc must be >= 0 (it is a
  // running max-abs, whose neutral element is 0).
  virtual double max_abs_row(double acc, const double* p, extent_t lo,
                             extent_t hi) const = 0;
};

// The engine a BackendKind resolves to on this host: kScalar and
// kSimdPortable are fixed; kSimd picks the widest vector engine the CPU
// supports (AVX-512, then AVX2, then the portable 4-wide engine — checked
// once); kJit is a retired name that resolves to the kSimd engine and
// prints one diagnostic per process.  Always returns a live singleton.
const Backend& backend_for(BackendKind kind);

// Whether this process can run the AVX2 / AVX-512 engines (cached CPUID
// probes).  cpu_has_avx512 requires the F+DQ+VL subset the engine uses.
bool cpu_has_avx2() noexcept;
bool cpu_has_avx512() noexcept;

// The backend governing work on the calling thread: resolved from
// active_config().backend, so per-job config snapshots (serve) and
// ScopedConfig/SACPP_BACKEND all flow through it.
inline const Backend& active_backend() noexcept {
  return backend_for(active_config().backend);
}

namespace detail {
// The singleton engines (backend_scalar.cpp / backend_simd.cpp).  Exposed
// for the differential battery, which pins the vector engines against each
// other bit-for-bit regardless of what kSimd resolves to.
const Backend& scalar_backend() noexcept;
const Backend& portable_backend() noexcept;
// nullptr when the CPU lacks the instruction set.
const Backend* avx2_backend() noexcept;
const Backend* avx512_backend() noexcept;
// Every vector engine this host can run: portable, then AVX2 and AVX-512
// where the CPU has them.
std::vector<const Backend*> vector_backends();
}  // namespace detail

}  // namespace sacpp::sac
