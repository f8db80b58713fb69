#include "sacpp/sac/stencil.hpp"

#include <map>
#include <memory>

namespace sacpp::sac {

StencilTable::StencilTable(std::size_t rank) {
  // Enumerate {-1, 0, 1}^rank via a base-3 odometer.
  IndexVec off(rank, -1);
  const extent_t total = [&] {
    extent_t n = 1;
    for (std::size_t d = 0; d < rank; ++d) n *= 3;
    return n;
  }();
  for (extent_t it = 0; it < total; ++it) {
    int cls = 0;
    for (std::size_t d = 0; d < rank; ++d) {
      if (off[d] != 0) ++cls;
    }
    entries_.push_back(Entry{IndexVec(off.begin(), off.end()), cls});
    for (std::size_t d = rank; d-- > 0;) {
      if (++off[d] <= 1) break;
      off[d] = -1;
    }
  }
}

const StencilTable& StencilTable::for_rank(std::size_t rank) {
  SACPP_REQUIRE(rank >= 1 && rank <= 8, "stencil rank must be in [1, 8]");
  static std::map<std::size_t, std::unique_ptr<StencilTable>> cache;
  auto& slot = cache[rank];
  if (!slot) slot.reset(new StencilTable(rank));
  return *slot;
}

Array<double> relax_kernel(const Array<double>& a, const StencilCoeffs& coeffs,
                           StencilMode mode) {
  // The expression itself is the loop body: it offers index-vector, unpacked
  // rank-3 and (in kPlanes mode) row-fill access, so every execution path —
  // generic, D3-specialised, and the shared plane-sum row path — picks the
  // best form available.
  const StencilExpr st(a, coeffs, mode);
  return with_genarray<double>(a.shape(), gen_interior(a.shape()), st, 0.0);
}

Array<double> relax_kernel(const PeriodicBorderExpr& b,
                           const StencilCoeffs& coeffs, StencilMode mode) {
  const StencilExpr st(b, coeffs, mode);
  return with_genarray<double>(b.shape(), gen_interior(b.shape()), st, 0.0);
}

}  // namespace sacpp::sac
