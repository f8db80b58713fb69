#pragma once
// Coefficient-class stencil relaxation (the paper's RelaxKernel).
//
// Every NAS-MG grid operation is a 3^rank-point stencil whose coefficient
// depends only on the neighbour's distance class — the number of non-zero
// components of its offset vector (centre / face / edge / corner for
// rank 3).  A coefficient vector c[0..3] therefore fully describes the four
// stencils A, P, Q and S of the benchmark.
//
// Three evaluation modes reproduce the paper's performance discussion
// (StencilMode lives in config.hpp; docs/stencil.md):
//  * kGrouped — sum the neighbours of each class first, then apply one
//    multiplication per class (4 mults / 26 adds for rank 3).  sac2c reaches
//    this form implicitly; it is the paper configuration's mode.
//  * kNaive — one multiply-add per stencil point (27 mults / 26 adds),
//    what a direct translation of the mathematics would do.  Kept for the
//    abl_stencil ablation.
//  * kPlanes — the NPB Fortran hand optimisation (mg.f resid/psinv): for
//    each output row (i, j) the four class-1 row sums u1[k] and the four
//    class-2 diagonal row sums u2[k] are computed once into scratch, then
//    every output point reuses three of each (4 mults / ~16 adds per point,
//    contiguous auto-vectorisable loops).  Executed through the with-loop
//    row-fill path (detail::RowFillBody); rank-3 grids whose interior
//    extent is below SacConfig::stencil_planes_cutover, where the scratch
//    setup would dominate, take "grouped rows" instead: the kGrouped tree
//    of every point, vectorized across k by the backend's
//    grouped_combine_row, so the fallback is bit for bit kGrouped.  It is
//    the default mode.
//
// StencilExpr is the lazy form (expr.hpp): stencil value on interior
// points, 0 on the boundary ring, exactly the result RelaxKernel
// materialises.  It fuses with surrounding expressions (with-loop folding),
// including a lazy periodic border below it (PeriodicBorderExpr): the
// stencil then reads its argument's ghost layer through the periodic wrap
// instead of from memory.

#include <algorithm>
#include <array>
#include <cstdlib>
#include <utility>
#include <vector>

#include "sacpp/common/error.hpp"
#include "sacpp/common/shape.hpp"
#include "sacpp/sac/array.hpp"
#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/config.hpp"
#include "sacpp/sac/expr.hpp"
#include "sacpp/sac/pool.hpp"
#include "sacpp/sac/stats.hpp"
#include "sacpp/sac/with_loop.hpp"

namespace sacpp::sac {

// One coefficient per neighbour distance class.  Rank <= 3 uses classes
// 0..rank; higher classes are ignored for lower ranks.
struct StencilCoeffs {
  std::array<double, 4> c{};
  double operator[](std::size_t cls) const { return c[cls]; }
};

// Per-chunk scratch of the kPlanes row path: one block holding the u1
// (class-1) and u2 (class-2) partial-sum rows and the wrapped centre row of
// a stencil over a lazy periodic border, plus the tallies flushed into
// stats().stencil_rows_reused / stencil_rows_grouped on destruction (once
// per chunk, so the hot loop never touches the shared counters).  The
// grouped rows below the cutover need no scratch: row_len 0 allocates
// nothing.  Deliberately NOT a Buffer<T>:
// chunk states live and die on worker threads, and Buffer ownership is
// coordinator-only by contract (buffer.hpp) — BufferPool itself is
// thread-safe through its per-thread magazines, which is exactly what keeps
// bottom-of-V-cycle levels from re-allocating scratch (docs/memory.md).
class PlaneScratch {
 public:
  explicit PlaneScratch(extent_t row_len) {
    if (row_len == 0) return;
    bytes_ = pool_block_bytes(3 * static_cast<std::size_t>(row_len) *
                              sizeof(double));
    pooled_ = active_config().pool;
    void* raw = pooled_ ? BufferPool::instance().allocate(bytes_)
                        : std::aligned_alloc(kBufferAlignment, bytes_);
    SACPP_REQUIRE(raw != nullptr, "stencil plane scratch allocation failed");
    u1_ = static_cast<double*>(raw);
    u2_ = u1_ + row_len;
    uc_ = u2_ + row_len;
  }
  PlaneScratch(PlaneScratch&& o) noexcept
      : rows(std::exchange(o.rows, 0)),
        grouped_rows(std::exchange(o.grouped_rows, 0)),
        u1_(std::exchange(o.u1_, nullptr)),
        u2_(std::exchange(o.u2_, nullptr)),
        uc_(std::exchange(o.uc_, nullptr)),
        bytes_(o.bytes_),
        pooled_(o.pooled_) {}
  PlaneScratch(const PlaneScratch&) = delete;
  PlaneScratch& operator=(const PlaneScratch&) = delete;
  PlaneScratch& operator=(PlaneScratch&&) = delete;
  ~PlaneScratch() {
    if (u1_ != nullptr) {
      if (pooled_) {
        BufferPool::instance().deallocate(u1_, bytes_);
      } else {
        std::free(u1_);
      }
    }
    if (rows != 0) stats().stencil_rows_reused += rows;
    if (grouped_rows != 0) stats().stencil_rows_grouped += grouped_rows;
  }

  double* u1() noexcept { return u1_; }
  double* u2() noexcept { return u2_; }
  double* uc() noexcept { return uc_; }
  const double* u1() const noexcept { return u1_; }
  const double* u2() const noexcept { return u2_; }

  std::uint64_t rows = 0;          // plane-sum rows filled with this scratch
  std::uint64_t grouped_rows = 0;  // grouped rows (below the cutover)

 private:
  double* u1_ = nullptr;
  double* u2_ = nullptr;
  double* uc_ = nullptr;  // wrapped copy of the centre row (StencilExpr)
  std::size_t bytes_ = 0;
  bool pooled_ = false;
};

// The rank-3 grouped association tree (4 mults / 26 adds), shared by every
// per-point rank-3 evaluator so that they agree bit for bit; at(di, dj, dk)
// reads the neighbour at that offset.  The order is the one sac2c's
// optimiser reaches implicitly (paper Sec. 5).
template <typename At>
inline double grouped_stencil3(const StencilCoeffs& c, At at) {
  const double faces = at(-1, 0, 0) + at(1, 0, 0) + at(0, -1, 0) +
                       at(0, 1, 0) + at(0, 0, -1) + at(0, 0, 1);
  const double edges = at(-1, -1, 0) + at(-1, 1, 0) + at(1, -1, 0) +
                       at(1, 1, 0) + at(-1, 0, -1) + at(-1, 0, 1) +
                       at(1, 0, -1) + at(1, 0, 1) + at(0, -1, -1) +
                       at(0, -1, 1) + at(0, 1, -1) + at(0, 1, 1);
  const double corners = at(-1, -1, -1) + at(-1, -1, 1) + at(-1, 1, -1) +
                         at(-1, 1, 1) + at(1, -1, -1) + at(1, -1, 1) +
                         at(1, 1, -1) + at(1, 1, 1);
  return c[0] * at(0, 0, 0) + c[1] * faces + c[2] * edges + c[3] * corners;
}

// grouped_stencil3 at position k of the row whose nine neighbour rows are
// rows[3*(di+1) + (dj+1)] (Backend::grouped_combine_row's layout), its k
// neighbours read at km and kp: the wrapped k ends of the grouped rows.
inline double grouped_point3(const StencilCoeffs& c, const double* const* rows,
                             extent_t k, extent_t km, extent_t kp) {
  return grouped_stencil3(c, [&](int di, int dj, int dk) {
    return rows[(di + 1) * 3 + (dj + 1)][dk < 0 ? km : (dk > 0 ? kp : k)];
  });
}

// All offsets in {-1, 0, 1}^rank with their distance class; cached per rank.
class StencilTable {
 public:
  struct Entry {
    IndexVec offset;
    int cls;
  };

  static const StencilTable& for_rank(std::size_t rank);

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  explicit StencilTable(std::size_t rank);
  std::vector<Entry> entries_;
};

// Lazy stencil application over a concrete array: interior points evaluate
// the weighted neighbour sum, boundary points are 0.  Over a
// PeriodicBorderExpr the neighbours on the argument's ghost layer are read
// through the periodic wrap; the stored ghost values are never read.
class StencilExpr {
 public:
  StencilExpr(Array<double> a, const StencilCoeffs& coeffs,
              StencilMode mode = active_config().stencil_mode)
      : a_(std::move(a)), c_(coeffs), mode_(mode), be_(&active_backend()) {
    const Shape& shp = a_.shape();
    SACPP_REQUIRE(shp.rank() >= 1, "stencil needs rank >= 1");
    extent_t min_extent = shp.extent(0);
    for (std::size_t d = 0; d < shp.rank(); ++d) {
      SACPP_REQUIRE(shp.extent(d) >= 3,
                    "stencil needs extent >= 3 in every dimension");
      min_extent = std::min(min_extent, shp.extent(d));
    }
    const IndexVec strides = shp.strides();
    for (const auto& e : StencilTable::for_rank(shp.rank()).entries()) {
      extent_t lin = 0;
      for (std::size_t d = 0; d < strides.size(); ++d) {
        lin += e.offset[d] * strides[d];
      }
      by_class_[static_cast<std::size_t>(e.cls)].push_back(lin);
    }
    if (shp.rank() == 3) {
      s0_ = strides[0];
      s1_ = strides[1];
      // Small-grid cutover, on the interior extent (the ghost-free
      // PeriodicStencilExpr compares the same number, so both formulations
      // pick the same path per level): below it the scratch setup costs
      // more than the shared additions save, so kPlanes degrades to
      // kGrouped arithmetic, on grouped rows.
      if (mode_ == StencilMode::kPlanes) {
        planes_rows_ =
            min_extent - 2 >= active_config().stencil_planes_cutover;
        grouped_rows_ = !planes_rows_;
      }
    }
  }

  StencilExpr(PeriodicBorderExpr b, const StencilCoeffs& coeffs,
              StencilMode mode = active_config().stencil_mode)
      : StencilExpr(std::move(b.a), coeffs, mode) {
    wrap_ = true;
  }

  const Shape& shape() const { return a_.shape(); }
  const Array<double>& argument() const { return a_; }
  StencilMode mode() const { return mode_; }

  bool is_interior(const IndexVec& iv) const {
    const Shape& shp = a_.shape();
    for (std::size_t d = 0; d < iv.size(); ++d) {
      if (iv[d] < 1 || iv[d] >= shp.extent(d) - 1) return false;
    }
    return true;
  }

  double operator()(const IndexVec& iv) const {
    if (!is_interior(iv)) return 0.0;
    // Rank 3 delegates to the same evaluator as the unpacked access so that
    // specialised and generic execution paths produce bitwise-equal values.
    // kPlanes evaluated per point (below the cutover, or through a fused
    // expression with no row path) uses the grouped association tree.
    if (mode_ != StencilMode::kNaive && iv.size() == 3) {
      return (*this)(iv[0], iv[1], iv[2]);
    }
    if (wrap_ && next_to_ghosts(iv)) return at_wrapped(iv);
    return at_linear(a_.shape().linearize(iv));
  }

  double operator()(extent_t i, extent_t j, extent_t k) const {
    SACPP_ASSERT(a_.rank() == 3, "rank-3 stencil access on non-rank-3 array");
    const Shape& shp = a_.shape();
    if (i < 1 || i >= shp[0] - 1 || j < 1 || j >= shp[1] - 1 || k < 1 ||
        k >= shp[2] - 1)
      return 0.0;
    if (wrap_ && (i == 1 || i == shp[0] - 2 || j == 1 || j == shp[1] - 2 ||
                  k == 1 || k == shp[2] - 2)) {
      if (mode_ != StencilMode::kNaive) return at_wrapped3(i, j, k);
      return at_wrapped(IndexVec{i, j, k});
    }
    if (mode_ != StencilMode::kNaive) {
      return at_linear3((i * shp[1] + j) * shp[2] + k);
    }
    return at_linear((i * shp[1] + j) * shp[2] + k);
  }

  // -- kPlanes row-fill protocol (detail::RowFillBody) ------------------------
  //
  // fill_row writes the whole output row (i, j) in one pass: the u1/u2
  // partial sums are computed once over the full row length, then every
  // output point combines three entries of each.  The u1 association tree
  // matches the grouped faces sum left-to-right, but the per-point combine
  // reassociates the class-2/3 sums — kPlanes results are therefore equal to
  // kGrouped only up to rounding (tests use 1e-12 relative), while staying
  // bit-identical across thread counts (rows are computed independently).
  // Below the cutover the rows are grouped rows instead: the per-point
  // kGrouped tree over the nine neighbour rows, bit for bit.

  bool row_fill_enabled() const { return planes_rows_ || grouped_rows_; }

  PlaneScratch make_row_state() const {
    return PlaneScratch(planes_rows_ ? a_.shape().extent(2) : 0);
  }

  // Assign-form row fill: boundary rows and boundary k positions get the
  // fixed-boundary 0, interior points the plane-sum combination.
  void fill_row(PlaneScratch& st, extent_t i, extent_t j, double* out,
                extent_t k_lo, extent_t k_hi) const {
    const Shape& shp = a_.shape();
    if (i < 1 || i >= shp[0] - 1 || j < 1 || j >= shp[1] - 1) {
      be_->fill_row(out, k_lo, k_hi, 0.0);
      return;
    }
    const extent_t n2 = shp[2];
    if (k_lo < 1) out[0] = 0.0;
    if (k_hi > n2 - 1) out[n2 - 1] = 0.0;
    const extent_t lo = std::max<extent_t>(k_lo, 1);
    const extent_t hi = std::min<extent_t>(k_hi, n2 - 1);
    if (grouped_rows_) {
      grouped_row(st, i, j, out, lo, hi, /*accumulate=*/false);
      return;
    }
    fused_row(st, i, j, out, lo, hi, /*accumulate=*/false);
    st.rows += 1;
  }

  // Accumulate-form row fill (out[k] += stencil) for in-place updates like
  // psinv's u += C r.  Boundary positions add the stencil's 0 as the
  // per-point u + 0.0 does, which only turns a -0.0 into +0.0.  `out` must
  // not alias the stencil argument (it is the array being updated, the
  // stencil reads another).
  void accumulate_row(PlaneScratch& st, extent_t i, extent_t j, double* out,
                      extent_t k_lo, extent_t k_hi) const {
    const Shape& shp = a_.shape();
    const extent_t n2 = shp[2];
    if (i < 1 || i >= shp[0] - 1 || j < 1 || j >= shp[1] - 1) {
      for (extent_t k = k_lo; k < k_hi; ++k) out[k] += 0.0;
      return;
    }
    if (k_lo < 1) out[0] += 0.0;
    if (k_hi > n2 - 1) out[n2 - 1] += 0.0;
    const extent_t lo = std::max<extent_t>(k_lo, 1);
    const extent_t hi = std::min<extent_t>(k_hi, n2 - 1);
    if (grouped_rows_) {
      grouped_row(st, i, j, out, lo, hi, /*accumulate=*/true);
      return;
    }
    fused_row(st, i, j, out, lo, hi, /*accumulate=*/true);
    st.rows += 1;
  }

  // Unrolled grouped evaluation for rank 3 (the dominant path): the
  // neighbours at compile-time +-1 offsets of the centre, 4 multiplications,
  // 26 additions.
  double at_linear3(extent_t centre) const {
    const double* c = a_.data() + centre;
    const extent_t s0 = s0_, s1 = s1_;
    return grouped_stencil3(c_, [c, s0, s1](int di, int dj, int dk) {
      return c[di * s0 + dj * s1 + dk];
    });
  }

  // Weighted neighbour sum around a (guaranteed interior) linear offset.
  double at_linear(extent_t centre) const {
    const double* p = a_.data() + centre;
    if (mode_ == StencilMode::kGrouped) {
      double acc = 0.0;
      for (std::size_t cls = 0; cls < 4; ++cls) {
        if (by_class_[cls].empty()) continue;
        double s = 0.0;
        for (extent_t off : by_class_[cls]) s += p[off];
        acc += c_[cls] * s;
      }
      return acc;
    }
    double acc = 0.0;
    for (std::size_t cls = 0; cls < 4; ++cls) {
      for (extent_t off : by_class_[cls]) acc += c_[cls] * p[off];
    }
    return acc;
  }

 private:
  bool next_to_ghosts(const IndexVec& iv) const {
    const Shape& shp = a_.shape();
    for (std::size_t d = 0; d < iv.size(); ++d) {
      if (iv[d] == 1 || iv[d] == shp[d] - 2) return true;
    }
    return false;
  }

  // at_linear3 at an interior point next to the ghost layer of a wrapped
  // stencil: the same tree, neighbour coordinates through the wrap.
  double at_wrapped3(extent_t i, extent_t j, extent_t k) const {
    const Shape& shp = a_.shape();
    const extent_t n0 = shp[0], n1 = shp[1], n2 = shp[2];
    const extent_t x[3] = {PeriodicBorderExpr::wrap(i - 1, n0) * s0_,
                           i * s0_, PeriodicBorderExpr::wrap(i + 1, n0) * s0_};
    const extent_t y[3] = {PeriodicBorderExpr::wrap(j - 1, n1) * s1_,
                           j * s1_, PeriodicBorderExpr::wrap(j + 1, n1) * s1_};
    const extent_t z[3] = {PeriodicBorderExpr::wrap(k - 1, n2), k,
                           PeriodicBorderExpr::wrap(k + 1, n2)};
    const double* p = a_.data();
    return grouped_stencil3(c_, [&](int di, int dj, int dk) {
      return p[x[di + 1] + y[dj + 1] + z[dk + 1]];
    });
  }

  // at_linear at an interior point of a wrapped stencil: the same class and
  // neighbour order, neighbour coordinates through the wrap.
  double at_wrapped(const IndexVec& iv) const {
    const Shape& shp = a_.shape();
    const auto& entries = StencilTable::for_rank(shp.rank()).entries();
    auto value = [&](const StencilTable::Entry& e) {
      extent_t off = 0;
      for (std::size_t d = 0; d < iv.size(); ++d) {
        off = off * shp[d] +
              PeriodicBorderExpr::wrap(iv[d] + e.offset[d], shp[d]);
      }
      return a_.data()[off];
    };
    double acc = 0.0;
    for (std::size_t cls = 0; cls < 4; ++cls) {
      if (mode_ == StencilMode::kGrouped) {
        if (by_class_[cls].empty()) continue;
        double s = 0.0;
        for (const auto& e : entries) {
          if (static_cast<std::size_t>(e.cls) == cls) s += value(e);
        }
        acc += c_[cls] * s;
      } else {
        for (const auto& e : entries) {
          if (static_cast<std::size_t>(e.cls) == cls) acc += c_[cls] * value(e);
        }
      }
    }
    return acc;
  }

  // One fused output row (i, j): the NPB u1/u2 plane sums — u1[k] the four
  // class-1 neighbours in the i/j directions, u2[k] the four class-2
  // diagonal rows — feeding the per-point combine, issued as the Backend's
  // stencil_row, which runs both passes on whichever of the four engines
  // is active.  The nine source rows are pairwise disjoint segments of the
  // argument and the scratch is a separate block (docs/backends.md).
  void fused_row(PlaneScratch& st, extent_t i, extent_t j, double* out,
                 extent_t k_lo, extent_t k_hi, bool accumulate) const {
    if (wrap_) {
      wrapped_row(st, i, j, out, k_lo, k_hi, accumulate);
      return;
    }
    const double* c = a_.data() + i * s0_ + j * s1_;
    const double* im = c - s0_;
    const double* ip = c + s0_;
    const double* jm = c - s1_;
    const double* jp = c + s1_;
    be_->stencil_row(c_.c.data(), c, im, ip, jm, jp, im - s1_, im + s1_,
                     ip - s1_, ip + s1_, st.u1(), st.u2(), out, k_lo, k_hi,
                     a_.shape().extent(2), accumulate);
  }

  // fused_row of a wrapped stencil.  The neighbour rows are taken with
  // their i/j coordinates wrapped.  The plane sums, and a scratch copy of
  // the centre row, cover the interior k only; each of the three rows then
  // gets its two ghost entries copied from the wrapped interior ones —
  // exactly the values the bordered row would have held, since bordering
  // only copies.  The combine therefore does the bordered row's arithmetic.
  void wrapped_row(PlaneScratch& st, extent_t i, extent_t j, double* out,
                   extent_t k_lo, extent_t k_hi, bool accumulate) const {
    const Shape& shp = a_.shape();
    const extent_t n2 = shp[2];
    const extent_t im = PeriodicBorderExpr::wrap(i - 1, shp[0]);
    const extent_t ip = PeriodicBorderExpr::wrap(i + 1, shp[0]);
    const extent_t jm = PeriodicBorderExpr::wrap(j - 1, shp[1]);
    const extent_t jp = PeriodicBorderExpr::wrap(j + 1, shp[1]);
    auto interior = [this](extent_t x, extent_t y) {
      return a_.data() + x * s0_ + y * s1_ + 1;  // row (x, y) from k = 1
    };
    double* u1 = st.u1();
    double* u2 = st.u2();
    double* uc = st.uc();
    be_->plane_sums(interior(im, j), interior(ip, j), interior(i, jm),
                    interior(i, jp), interior(im, jm), interior(im, jp),
                    interior(ip, jm), interior(ip, jp), u1 + 1, u2 + 1,
                    n2 - 2);
    be_->copy_row(uc, interior(i, j), 1, n2 - 1);
    for (double* r : {u1, u2, uc}) {
      r[0] = r[n2 - 2];
      r[n2 - 1] = r[1];
    }
    if (accumulate) {
      be_->accumulate_row(c_.c.data(), uc, u1, u2, out, k_lo, k_hi);
    } else {
      be_->combine_row(c_.c.data(), uc, u1, u2, out, k_lo, k_hi);
    }
  }

  // One grouped output row (i, j) over k in [k_lo, k_hi), interior k only:
  // the backend's grouped rows over the nine neighbour rows, their i/j
  // coordinates wrapped as in wrapped_row.  A wrapped stencil reads the k
  // neighbours of k = 1 and n2-2 through the wrap too, so those two points
  // are peeled and evaluated like at_wrapped3.
  void grouped_row(PlaneScratch& st, extent_t i, extent_t j, double* out,
                   extent_t k_lo, extent_t k_hi, bool accumulate) const {
    const Shape& shp = a_.shape();
    const double* rows[9];
    for (int di = -1; di <= 1; ++di) {
      for (int dj = -1; dj <= 1; ++dj) {
        extent_t x = i + di, y = j + dj;
        if (wrap_) {
          x = PeriodicBorderExpr::wrap(x, shp[0]);
          y = PeriodicBorderExpr::wrap(y, shp[1]);
        }
        rows[(di + 1) * 3 + (dj + 1)] = a_.data() + x * s0_ + y * s1_;
      }
    }
    auto peel = [&](extent_t k) {
      const extent_t n2 = shp[2];
      const double v =
          grouped_point3(c_, rows, k, PeriodicBorderExpr::wrap(k - 1, n2),
                         PeriodicBorderExpr::wrap(k + 1, n2));
      out[k] = accumulate ? out[k] + v : v;
    };
    if (wrap_ && k_lo < k_hi) {
      if (k_lo == 1) peel(k_lo++);
      if (k_lo < k_hi && k_hi == shp[2] - 1) peel(--k_hi);
    }
    if (accumulate) {
      be_->grouped_accumulate_row(c_.c.data(), rows, out, k_lo, k_hi);
    } else {
      be_->grouped_combine_row(c_.c.data(), rows, out, k_lo, k_hi);
    }
    st.grouped_rows += 1;
  }

  Array<double> a_;
  StencilCoeffs c_;
  StencilMode mode_;
  const Backend* be_;  // row-primitive engine, snapshotted at construction
  std::array<std::vector<extent_t>, 4> by_class_;
  extent_t s0_ = 0;  // rank-3 row strides for the unrolled evaluator
  extent_t s1_ = 0;
  bool planes_rows_ = false;   // kPlanes plane-sum rows (rank 3, >= cutover)
  bool grouped_rows_ = false;  // kPlanes grouped rows (rank 3, < cutover)
  bool wrap_ = false;  // ghost layer read through the periodic wrap
};

// Eager RelaxKernel: one with-loop over the interior, zero boundary ring —
// the fixed-boundary relaxation step of the paper's Fig. 6/7.  The default
// mode is the process-wide SacConfig::stencil_mode (evaluated per call).
Array<double> relax_kernel(const Array<double>& a, const StencilCoeffs& coeffs,
                           StencilMode mode = active_config().stencil_mode);

// RelaxKernel(SetupPeriodicBorder(a)) with the border folded into the
// stencil: bit-identical to relaxing the eagerly bordered array.
Array<double> relax_kernel(const PeriodicBorderExpr& b,
                           const StencilCoeffs& coeffs,
                           StencilMode mode = active_config().stencil_mode);

}  // namespace sacpp::sac
