#include "sacpp/sac/backend.hpp"

#include <cstdio>

namespace sacpp::sac {

bool cpu_has_avx2() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

bool cpu_has_avx512() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  static const bool has = __builtin_cpu_supports("avx512f") != 0 &&
                          __builtin_cpu_supports("avx512dq") != 0 &&
                          __builtin_cpu_supports("avx512vl") != 0;
  return has;
#else
  return false;
#endif
}

void Backend::stencil_row(const double* c, const double* uc, const double* im,
                          const double* ip, const double* jm, const double* jp,
                          const double* imm, const double* imp,
                          const double* ipm, const double* ipp, double* u1,
                          double* u2, double* out, extent_t lo, extent_t hi,
                          extent_t n, bool accumulate) const {
  plane_sums(im, ip, jm, jp, imm, imp, ipm, ipp, u1, u2, n);
  if (accumulate) {
    accumulate_row(c, uc, u1, u2, out, lo, hi);
  } else {
    combine_row(c, uc, u1, u2, out, lo, hi);
  }
}

const Backend& backend_for(BackendKind kind) {
  switch (kind) {
    case BackendKind::kScalar:
      return detail::scalar_backend();
    case BackendKind::kSimdPortable:
      return detail::portable_backend();
    case BackendKind::kJit: {
      static const bool warned = [] {
        std::fprintf(stderr,
                     "sacpp: backend 'jit' is retired; running 'simd'\n");
        return true;
      }();
      (void)warned;
      [[fallthrough]];
    }
    case BackendKind::kSimd: {
      const Backend* avx512 = detail::avx512_backend();
      if (avx512 != nullptr) return *avx512;
      const Backend* avx2 = detail::avx2_backend();
      return avx2 != nullptr ? *avx2 : detail::portable_backend();
    }
  }
  return detail::scalar_backend();
}

}  // namespace sacpp::sac
