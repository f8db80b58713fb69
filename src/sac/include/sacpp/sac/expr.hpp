#pragma once
// Lazy array expressions: WITH-loop folding (DESIGN.md D1).
//
// sac2c's with-loop folding fuses chains of with-loops so intermediate
// arrays are never materialised; `condense(2, RelaxKernel(r, P))` evaluates
// the stencil only at the condensed points.  Here the same fusion is
// expressed with expression templates: array-library operations build
// expression nodes (shape + element function), composition composes the
// element functions, and `force()` runs exactly one with-loop.
//
// Expression nodes hold their child arrays by value — an O(1) ref-counted
// copy — so expressions can safely outlive the names they were built from.
//
// Like the compiler optimisation, folding has a profitability constraint:
// a stencil reads 3^rank neighbours, so folding a stencil over another
// unmaterialised stencil would multiply work.  The API mirrors sac2c's
// heuristic by allowing StencilExpr only over concrete arrays.

#include <algorithm>
#include <concepts>
#include <functional>
#include <initializer_list>
#include <type_traits>
#include <utility>
#include <vector>

#include "sacpp/common/shape.hpp"
#include "sacpp/sac/array.hpp"
#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/with_loop.hpp"

namespace sacpp::sac {

namespace detail {

// Signed floor/ceil division (b > 0) for the gather row-range algebra.
inline extent_t floor_div(extent_t a, extent_t b) {
  const extent_t q = a / b;
  return (a % b != 0 && a < 0) ? q - 1 : q;
}
inline extent_t ceil_div(extent_t a, extent_t b) {
  return -floor_div(-a, b);
}

}  // namespace detail

// Anything with a shape and an element function over index vectors.
template <typename E>
concept ArrayExpr = requires(const E& e, const IndexVec& iv) {
  { e.shape() } -> std::convertible_to<Shape>;
  { e(iv) };
};

// Expressions additionally offering unpacked rank-3 access get the
// specialised execution path when forced.
template <typename E>
concept Rank3Expr = ArrayExpr<E> && requires(const E& e, extent_t i) {
  { e(i, i, i) };
};

template <typename E>
using expr_value_t = std::remove_cvref_t<decltype(std::declval<const E&>()(
    std::declval<const IndexVec&>()))>;

// ---------------------------------------------------------------------------
// Nodes
// ---------------------------------------------------------------------------

// Element-wise combination of two equally shaped expressions.
template <typename L, typename R, typename Op>
struct EwiseBinaryExpr {
  L lhs;
  R rhs;
  Op op;

  const Shape& shape() const { return lhs.shape(); }

  auto operator()(const IndexVec& iv) const { return op(lhs(iv), rhs(iv)); }

  auto operator()(extent_t i, extent_t j, extent_t k) const
    requires(Rank3Expr<L> && Rank3Expr<R>)
  {
    return op(lhs(i, j, k), rhs(i, j, k));
  }

  // Row-fill pass-through (detail::RowFillBody): when the right side offers
  // the kPlanes row path (a stencil over a concrete array — the only shape
  // the folding heuristic allows), the fused with-loop still lands on it.
  // The rhs row goes into the output row first, then the combine reads it
  // back per point — safe because force()/genarray materialise into a fresh
  // buffer, so the output row cannot alias either operand.
  bool row_fill_enabled() const
    requires(Rank3Expr<L> && detail::RowFillBody<R, double>)
  {
    return rhs.row_fill_enabled();
  }

  auto make_row_state() const
    requires(Rank3Expr<L> && detail::RowFillBody<R, double>)
  {
    return rhs.make_row_state();
  }

  template <typename State>
  void fill_row(State& st, extent_t i, extent_t j, double* out,
                extent_t k_lo, extent_t k_hi) const
    requires(Rank3Expr<L> && detail::RowFillBody<R, double>)
  {
    rhs.fill_row(st, i, j, out, k_lo, k_hi);
    // The combine is element-parallel with identical arithmetic per point,
    // so dispatching it through the backend row primitive is bit-identical
    // for every backend — no golden impact, full-width SIMD under kSimd.
    if constexpr (std::is_same_v<L, Array<double>> &&
                  (std::is_same_v<Op, std::plus<>> ||
                   std::is_same_v<Op, std::minus<>> ||
                   std::is_same_v<Op, std::multiplies<>>)) {
      const Shape& ls = lhs.shape();
      const double* a = lhs.data() + (i * ls[1] + j) * ls[2];
      const Backend& be = active_backend();
      if constexpr (std::is_same_v<Op, std::plus<>>) {
        be.add_into_row(a, out, k_lo, k_hi);
      } else if constexpr (std::is_same_v<Op, std::minus<>>) {
        be.sub_into_row(a, out, k_lo, k_hi);
      } else {
        be.mul_into_row(a, out, k_lo, k_hi);
      }
    } else {
      for (extent_t k = k_lo; k < k_hi; ++k) {
        out[k] = op(lhs(i, j, k), out[k]);
      }
    }
  }
};

// Element-wise transformation of one expression.
template <typename E, typename Op>
struct EwiseUnaryExpr {
  E inner;
  Op op;

  const Shape& shape() const { return inner.shape(); }

  auto operator()(const IndexVec& iv) const { return op(inner(iv)); }

  auto operator()(extent_t i, extent_t j, extent_t k) const
    requires Rank3Expr<E>
  {
    return op(inner(i, j, k));
  }
};

// Expression broadcasting one scalar over a shape.  Offers the row-fill
// protocol (detail::RowFillBody), so a rank-3 force stores whole rows.
template <typename T>
struct ScalarExpr {
  Shape shp;
  T value;

  const Shape& shape() const { return shp; }
  T operator()(const IndexVec&) const { return value; }
  T operator()(extent_t, extent_t, extent_t) const { return value; }

  bool row_fill_enabled() const { return true; }
  int make_row_state() const { return 0; }
  void fill_row(int&, extent_t, extent_t, T* out, extent_t k_lo,
                extent_t k_hi) const {
    std::fill(out + k_lo, out + k_hi, value);
  }
};

// SetupPeriodicBorder (paper Fig. 5) as a lazy view of a concrete array: the
// outermost layer reads through the periodic wrap — on every axis index 0
// is index n-2 and index n-1 is index 1 — and every other element reads
// itself.  Folded into its consumer (a StencilExpr, the prolongation's
// ProlongExpr, or a GatherExpr) it replaces the border with-loop, and the
// copy-on-write copy of a shared argument, by index arithmetic.  The eager
// border only copies values, so a consumer reads exactly the values it
// would have read from the bordered array: folding is bit-identical
// (docs/stencil.md).
struct PeriodicBorderExpr {
  Array<double> a;

  // Stored position read for position x of an axis of extent n.
  static extent_t wrap(extent_t x, extent_t n) {
    return x == 0 ? n - 2 : (x == n - 1 ? 1 : x);
  }

  const Shape& shape() const { return a.shape(); }

  double operator()(const IndexVec& iv) const {
    const Shape& shp = a.shape();
    extent_t off = 0;
    for (std::size_t d = 0; d < iv.size(); ++d) {
      off = off * shp[d] + wrap(iv[d], shp[d]);
    }
    return a.data()[off];
  }

  double operator()(extent_t i, extent_t j, extent_t k) const {
    const Shape& shp = a.shape();
    return a.data()[(wrap(i, shp[0]) * shp[1] + wrap(j, shp[1])) * shp[2] +
                    wrap(k, shp[2])];
  }
};

// Lazy SetupPeriodicBorder over an extended grid (extent >= 3 per axis).
inline PeriodicBorderExpr lazy_periodic_border(Array<double> a) {
  for (std::size_t d = 0; d < a.rank(); ++d) {
    SACPP_REQUIRE(a.shape().extent(d) >= 3,
                  "periodic border needs extent >= 3");
  }
  return PeriodicBorderExpr{std::move(a)};
}

// Index-remapped view: result[iv] = inner(map(iv)) where `map` is the
// affine index transform (iv * scale_num + pre) / scale_den + offset, with
// non-divisible positions ("scatter gaps") and elements mapped outside the
// source defaulting to `dflt`.  This one node fuses condense, scatter,
// take, embed and shift — also their phase-shifted forms on ghost-free
// grids — and any composition of them.
template <typename E>
struct GatherExpr {
  using T = expr_value_t<E>;

  E inner;
  Shape shp;            // result shape
  extent_t scale_num;   // see the transform above
  extent_t scale_den;   //   (per-axis uniform, matching the SAC library ops)
  extent_t pre;         // added before dividing (sampling phase)
  IndexVec offset;
  T dflt;

  const Shape& shape() const { return shp; }

  T operator()(const IndexVec& iv) const {
    IndexVec src(iv.size());
    for (std::size_t d = 0; d < iv.size(); ++d) {
      const extent_t scaled = iv[d] * scale_num + pre;
      if (scale_den != 1 && (scaled % scale_den != 0 || scaled < 0)) {
        return dflt;  // scatter gap
      }
      src[d] = scaled / scale_den + offset[d];
    }
    if (!inner.shape().contains(src)) return dflt;
    return inner(src);
  }

  T operator()(extent_t i, extent_t j, extent_t k) const
    requires Rank3Expr<E>
  {
    extent_t s[3] = {i * scale_num + pre, j * scale_num + pre,
                     k * scale_num + pre};
    if (scale_den != 1) {
      if (s[0] % scale_den || s[1] % scale_den || s[2] % scale_den ||
          s[0] < 0 || s[1] < 0 || s[2] < 0)
        return dflt;
      s[0] /= scale_den;
      s[1] /= scale_den;
      s[2] /= scale_den;
    }
    s[0] += offset[0];
    s[1] += offset[1];
    s[2] += offset[2];
    const Shape& ish = inner.shape();
    if (s[0] < 0 || s[0] >= ish[0] || s[1] < 0 || s[1] >= ish[1] ||
        s[2] < 0 || s[2] >= ish[2])
      return dflt;
    return inner(s[0], s[1], s[2]);
  }

  // -- backend row-fill protocol (detail::RowFillBody) ------------------------
  //
  // The affine transform is separable, so a whole output row maps to one
  // source row plus a k-range algebra: a contiguous copy (take/embed/shift),
  // a strided gather (condense), or a strided scatter into a default-filled
  // row (scatter).  Two inner forms participate:
  //
  //  (a) inner is a concrete Array<double> — pure data movement, bitwise
  //      identical to per-point evaluation, enabled for every backend;
  //  (b) inner itself offers the row protocol (a stencil, or another
  //      gather) — the inner row is produced first (directly into `out`
  //      when the k transform is the identity, else into a scratch row) and
  //      then gathered/scattered.  This swaps the stencil's per-point
  //      evaluator for its row combine, so it is gated on a vectorized
  //      backend to keep the pinned scalar goldens untouched.
  //
  // Builders only produce scale_num == 1 or scale_den == 1; mixed ratios
  // fall back to per-point evaluation via row_fill_enabled() == false.

  static constexpr bool kRowInnerArray = std::is_same_v<E, Array<double>>;

  // Source row (si, sj) of a concrete inner.
  const double* inner_row(extent_t si, extent_t sj) const
    requires(kRowInnerArray)
  {
    const Shape& ish = inner.shape();
    return inner.data() + (si * ish[1] + sj) * ish[2];
  }

  bool row_fill_enabled() const
    requires(kRowInnerArray)
  {
    return shp.rank() == 3 && (scale_num == 1 || scale_den == 1);
  }

  bool row_fill_enabled() const
    requires(!kRowInnerArray && detail::RowFillBody<E, double>)
  {
    return shp.rank() == 3 && (scale_num == 1 || scale_den == 1) &&
           active_backend().vectorized() && inner.row_fill_enabled();
  }

  int make_row_state() const
    requires(kRowInnerArray)
  {
    return 0;  // stateless: gathers from the concrete array need no scratch
  }

  auto make_row_state() const
    requires(!kRowInnerArray && detail::RowFillBody<E, double>)
  {
    using InnerState = decltype(inner.make_row_state());
    struct State {
      InnerState st;
      std::vector<double> row;  // scratch for non-identity k transforms
    };
    return State{inner.make_row_state(),
                 std::vector<double>(
                     static_cast<std::size_t>(inner.shape().extent(2)))};
  }

  template <typename State>
  void fill_row(State& st, extent_t i, extent_t j, double* out,
                extent_t k_lo, extent_t k_hi) const
    requires((kRowInnerArray || detail::RowFillBody<E, double>) &&
             std::same_as<T, double>)
  {
    const Backend& be = active_backend();
    const Shape& ish = inner.shape();
    // Axes 0 and 1 resolve to one source row — or a whole default row when
    // the transformed coordinate is a scatter gap or out of bounds.
    extent_t src01[2] = {i, j};
    for (int d = 0; d < 2; ++d) {
      extent_t scaled = src01[d] * scale_num + pre;
      if (scale_den != 1) {
        if (scaled % scale_den != 0 || scaled < 0) {
          be.fill_row(out, k_lo, k_hi, dflt);
          return;
        }
        scaled /= scale_den;
      }
      scaled += offset[static_cast<std::size_t>(d)];
      if (scaled < 0 || scaled >= ish[static_cast<std::size_t>(d)]) {
        be.fill_row(out, k_lo, k_hi, dflt);
        return;
      }
      src01[d] = scaled;
    }
    const extent_t si = src01[0], sj = src01[1];
    if (scale_den == 1) {
      // src_k = k*scale_num + off2: a copy (num == 1) or gather (num > 1).
      const extent_t off2 = pre + offset[2];
      extent_t k0 = std::max(k_lo, detail::ceil_div(-off2, scale_num));
      extent_t k1 = std::min(
          k_hi, detail::floor_div(ish[2] - 1 - off2, scale_num) + 1);
      k0 = std::clamp(k0, k_lo, k_hi);
      k1 = std::clamp(k1, k0, k_hi);
      be.fill_row(out, k_lo, k0, dflt);
      be.fill_row(out, k1, k_hi, dflt);
      if (k0 >= k1) return;
      if constexpr (kRowInnerArray) {
        const double* src = inner_row(si, sj);
        if (scale_num == 1) {
          be.copy_row(out, src + k0 + off2, k0, k1);
        } else {
          be.gather_row(out + k0, src + k0 * scale_num + off2, scale_num,
                        k1 - k0);
        }
      } else {
        const extent_t s_lo = k0 * scale_num + off2;
        const extent_t s_hi = (k1 - 1) * scale_num + off2 + 1;
        if (scale_num == 1) {
          // Identity k transform: land the inner row directly in `out`,
          // shifted so inner position s writes out[s - off2].
          inner.fill_row(st.st, si, sj, out - off2, s_lo, s_hi);
        } else {
          inner.fill_row(st.st, si, sj, st.row.data(), s_lo, s_hi);
          be.gather_row(out + k0, st.row.data() + s_lo, scale_num, k1 - k0);
        }
      }
    } else {
      // scale_num == 1, scale_den > 1: valid outputs sit at k = t*den - pre
      // with source index t + off2; every other position is a scatter gap.
      be.fill_row(out, k_lo, k_hi, dflt);
      const extent_t off2 = offset[2];
      const extent_t t_lo =
          std::max(detail::ceil_div(k_lo + pre, scale_den),
                   std::max<extent_t>(0, -off2));
      const extent_t t_hi =
          std::min(detail::floor_div(k_hi - 1 + pre, scale_den) + 1,
                   ish[2] - off2);
      if (t_hi <= t_lo) return;
      double* base = out + t_lo * scale_den - pre;
      if constexpr (kRowInnerArray) {
        const double* src = inner_row(si, sj);
        be.scatter_row(base, scale_den, src + t_lo + off2, t_hi - t_lo);
      } else {
        inner.fill_row(st.st, si, sj, st.row.data(), t_lo + off2,
                       t_hi + off2);
        be.scatter_row(base, scale_den, st.row.data() + t_lo + off2,
                       t_hi - t_lo);
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Builders
// ---------------------------------------------------------------------------

template <ArrayExpr L, ArrayExpr R, typename Op>
auto ewise(L lhs, R rhs, Op op) {
  SACPP_REQUIRE(lhs.shape() == rhs.shape(),
                "element-wise expression needs equal shapes");
  return EwiseBinaryExpr<L, R, Op>{std::move(lhs), std::move(rhs),
                                   std::move(op)};
}

template <ArrayExpr E, typename Op>
auto ewise1(E inner, Op op) {
  return EwiseUnaryExpr<E, Op>{std::move(inner), std::move(op)};
}

template <typename T>
ScalarExpr<T> scalar_expr(const Shape& shp, T value) {
  return ScalarExpr<T>{shp, value};
}

// lazy condense: result[iv] = inner[str * iv + phase]; shape / str.
template <ArrayExpr E>
auto lazy_condense(extent_t str, E inner, extent_t phase = 0) {
  SACPP_REQUIRE(str >= 1, "condense stride must be >= 1");
  SACPP_REQUIRE(phase >= 0 && phase < str, "condense phase must be in [0, str)");
  const Shape out_shape(inner.shape().extents() / str);
  IndexVec zero = uniform_vec(out_shape.rank(), 0);
  return GatherExpr<E>{std::move(inner), out_shape,     str,
                       1,                phase,         std::move(zero),
                       expr_value_t<E>{}};
}

// lazy scatter: result[str*iv + phase] = inner[iv], zeros elsewhere;
// shape * str.
template <ArrayExpr E>
auto lazy_scatter(extent_t str, E inner, extent_t phase = 0) {
  SACPP_REQUIRE(str >= 1, "scatter stride must be >= 1");
  SACPP_REQUIRE(phase >= 0 && phase < str, "scatter phase must be in [0, str)");
  const Shape out_shape(str * inner.shape().extents());
  IndexVec zero = uniform_vec(out_shape.rank(), 0);
  return GatherExpr<E>{std::move(inner), out_shape,     1,
                       str,              -phase,        std::move(zero),
                       expr_value_t<E>{}};
}

// lazy take: result[iv] = inner[iv] for iv < shp (prefix box).
template <ArrayExpr E>
auto lazy_take(const IndexVec& shp, E inner) {
  IndexVec zero = uniform_vec(shp.size(), 0);
  return GatherExpr<E>{std::move(inner), Shape(shp), 1, 1, 0,
                       std::move(zero),  expr_value_t<E>{}};
}

// lazy embed: result of shape shp with inner placed at pos, zeros elsewhere.
template <ArrayExpr E>
auto lazy_embed(const IndexVec& shp, const IndexVec& pos, E inner) {
  IndexVec neg(pos.size());
  for (std::size_t d = 0; d < pos.size(); ++d) neg[d] = -pos[d];
  return GatherExpr<E>{std::move(inner), Shape(shp), 1, 1, 0,
                       std::move(neg),   expr_value_t<E>{}};
}

// ---------------------------------------------------------------------------
// Forcing
// ---------------------------------------------------------------------------

// Materialise an expression with a single with-loop over its full shape.
// The expression is passed through as the loop body unchanged, so any access
// form it offers — index-vector, unpacked rank-3, or the kPlanes row-fill
// protocol — stays visible to the execution-path selection in with_loop.hpp
// (wrapping in a lambda used to erase the row path).
template <ArrayExpr E>
Array<expr_value_t<E>> force(const E& e) {
  return with_genarray<expr_value_t<E>>(e.shape(), gen_all(), e,
                                        expr_value_t<E>{});
}

// Arrays force to themselves (useful in generic code).
template <typename T>
Array<T> force(const Array<T>& a) {
  return a;
}

}  // namespace sacpp::sac
