#include "sacpp/check/fuzz.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "sacpp/common/shape.hpp"
#include "sacpp/check/wlgraph_verify.hpp"
#include "sacpp/sac/array_lib.hpp"
#include "sacpp/sac/backend.hpp"
#include "sacpp/sac/stencil.hpp"
#include "sacpp/sac/wlgraph.hpp"

namespace sacpp::check {

namespace {

using sac::wl::AffineMap;
using sac::wl::Bindings;
using sac::wl::EwiseFn;
using sac::wl::Node;
using sac::wl::NodeRef;
using sac::wl::OpKind;

// xorshift64* — deterministic, no global state, good enough for structural
// fuzzing (we need variety, not statistical quality).
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545F4914F6CDD1DULL;
  }
  std::size_t pick(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  extent_t range(extent_t lo, extent_t hi) {  // inclusive
    return lo + static_cast<extent_t>(next() % static_cast<std::uint64_t>(
                                                   hi - lo + 1));
  }
  double coeff() {  // small non-zero scale factor
    return 0.25 + 0.125 * static_cast<double>(pick(8));
  }
};

bool stencil_legal(const Shape& s) {
  if (s.rank() < 1) return false;
  for (std::size_t d = 0; d < s.rank(); ++d) {
    if (s.extent(d) < 3) return false;
  }
  return true;
}

// One randomly composed legal graph plus the bindings for its inputs.
// Built exclusively through the public builders, which enforce legality by
// construction; the verifier must therefore stay silent.
struct LegalGraph {
  NodeRef root;
  Bindings bindings;
};

LegalGraph make_legal_graph(Rng& rng) {
  const std::size_t rank = 1 + rng.pick(3);
  IndexVec ext(rank);
  for (std::size_t d = 0; d < rank; ++d) ext[d] = rng.range(3, 6);
  const Shape base{ext};

  LegalGraph g;
  std::vector<NodeRef> pool;
  const std::size_t num_inputs = 1 + rng.pick(2);
  for (std::size_t i = 0; i < num_inputs; ++i) {
    const std::string name = "in" + std::to_string(i);
    pool.push_back(sac::wl::input(name, base));
    const std::uint64_t salt = rng.next();
    g.bindings.emplace(name,
                       sac::with_genarray<double>(base, [&](const IndexVec& iv) {
                         const auto lin =
                             static_cast<std::uint64_t>(base.linearize(iv));
                         return static_cast<double>(
                                    (lin * 2654435761ULL + salt) % 1000) /
                                997.0;
                       }));
  }
  pool.push_back(sac::wl::constant(base, rng.coeff()));

  const int steps = 3 + static_cast<int>(rng.pick(6));
  for (int s = 0; s < steps; ++s) {
    NodeRef a = pool[rng.pick(pool.size())];
    const Shape& shp = a->shape;
    NodeRef made;
    switch (rng.pick(10)) {
      case 0:
        made = sac::wl::neg(a);
        break;
      case 1:
        made = sac::wl::abs(a);
        break;
      case 2:
        made = sac::wl::scale(a, rng.coeff());
        break;
      case 3:
      case 4: {
        // binary ewise needs a same-shape partner; synthesise one if the
        // pool has none.
        NodeRef b;
        for (std::size_t tries = 0; tries < pool.size(); ++tries) {
          NodeRef cand = pool[rng.pick(pool.size())];
          if (cand->shape == shp) {
            b = std::move(cand);
            break;
          }
        }
        if (b == nullptr) b = sac::wl::constant(shp, rng.coeff());
        switch (rng.pick(3)) {
          case 0:
            made = sac::wl::add(a, b);
            break;
          case 1:
            made = sac::wl::sub(a, b);
            break;
          default:
            made = sac::wl::mul(a, b);
            break;
        }
        break;
      }
      case 5:
        if (stencil_legal(shp)) {
          sac::StencilCoeffs c{};
          for (std::size_t k = 0; k < c.c.size(); ++k) {
            c.c[k] = 0.0625 * static_cast<double>(rng.pick(5));
          }
          made = sac::wl::stencil(a, c);
        }
        break;
      case 6: {
        IndexVec off(shp.rank());
        for (std::size_t d = 0; d < shp.rank(); ++d) off[d] = rng.range(-2, 2);
        made = sac::wl::shift(off, a);
        break;
      }
      case 7: {
        // scatter multiplies every extent by the stride; keep the graph
        // small enough for the naive evaluator.
        if (rng.pick(2) == 0 && shp.elem_count() < 2000) {
          made = sac::wl::scatter(2, a, rng.range(0, 1));
        } else {
          bool ok = true;
          for (std::size_t d = 0; d < shp.rank(); ++d) {
            if (shp.extent(d) < 2) ok = false;
          }
          if (ok) made = sac::wl::condense(2, a, rng.range(0, 1));
        }
        break;
      }
      case 8: {
        IndexVec shp2(shp.rank());
        for (std::size_t d = 0; d < shp.rank(); ++d) {
          shp2[d] = rng.range(1, shp.extent(d));
        }
        made = sac::wl::take(shp2, a);
        break;
      }
      default: {
        IndexVec shp2(shp.rank());
        IndexVec pos(shp.rank());
        for (std::size_t d = 0; d < shp.rank(); ++d) {
          shp2[d] = shp.extent(d) + rng.range(0, 2);
          pos[d] = rng.range(0, shp2[d] - shp.extent(d));
        }
        made = sac::wl::embed(shp2, pos, a);
        break;
      }
    }
    if (made != nullptr) pool.push_back(std::move(made));
  }
  g.root = pool.back();
  return g;
}

// Hand-assembled nodes that each violate exactly one invariant the builders
// enforce.  `base` is a legal subgraph to hang the broken node off.
std::vector<std::pair<const char*, NodeRef>> make_illegal_graphs(
    const NodeRef& base, Rng& rng) {
  std::vector<std::pair<const char*, NodeRef>> out;
  const Shape& shp = base->shape;
  const std::size_t rank = shp.rank();

  {  // ewise operand shape differs from the node shape
    Node n;
    n.kind = OpKind::kEwise;
    n.fn = EwiseFn::kAdd;
    IndexVec grown = shp.extents();
    grown[rng.pick(rank)] += 1;
    n.shape = Shape{grown};
    n.args = {base, sac::wl::constant(n.shape, 1.0)};
    out.emplace_back("ewise shape mismatch",
                     std::make_shared<const Node>(std::move(n)));
  }
  {  // binary ewise fn with a single argument
    Node n;
    n.kind = OpKind::kEwise;
    n.fn = EwiseFn::kMul;
    n.shape = shp;
    n.args = {base};
    out.emplace_back("ewise arity", std::make_shared<const Node>(std::move(n)));
  }
  {  // ewise with a null child
    Node n;
    n.kind = OpKind::kEwise;
    n.fn = EwiseFn::kNeg;
    n.shape = shp;
    n.args = {nullptr};
    out.emplace_back("null child", std::make_shared<const Node>(std::move(n)));
  }
  {  // stencil over an extent below the ghost ring minimum
    IndexVec thin = shp.extents();
    thin[rng.pick(rank)] = 2;
    NodeRef small = sac::wl::input("thin", Shape{thin});
    Node n;
    n.kind = OpKind::kStencil;
    n.shape = small->shape;
    n.args = {std::move(small)};
    out.emplace_back("stencil ghost ring",
                     std::make_shared<const Node>(std::move(n)));
  }
  {  // affine offset rank differs from the node rank
    Node n;
    n.kind = OpKind::kGather;
    n.shape = shp;
    n.map.offset = IndexVec(rank + 1);
    n.args = {base};
    out.emplace_back("gather offset rank",
                     std::make_shared<const Node>(std::move(n)));
  }
  {  // zero divisor
    Node n;
    n.kind = OpKind::kGather;
    n.shape = shp;
    n.map.den = 0;
    n.map.offset = IndexVec(rank);
    n.args = {base};
    out.emplace_back("gather zero divisor",
                     std::make_shared<const Node>(std::move(n)));
  }
  {  // unnamed input leaf
    Node n;
    n.kind = OpKind::kInput;
    n.shape = shp;
    out.emplace_back("unnamed input",
                     std::make_shared<const Node>(std::move(n)));
  }
  return out;
}

bool values_match(const sac::Array<double>& a, const sac::Array<double>& b) {
  if (a.shape() != b.shape()) return false;
  for (extent_t i = 0; i < a.elem_count(); ++i) {
    const double x = a.at_linear(i);
    const double y = b.at_linear(i);
    const double tol = 1e-12 * std::max(1.0, std::max(std::abs(x), std::abs(y)));
    if (std::abs(x - y) > tol) return false;
  }
  return true;
}

}  // namespace

FuzzStats fuzz_wlgraph_verifier(std::uint64_t seed, int rounds) {
  Rng rng{seed | 1};  // xorshift state must be non-zero
  FuzzStats stats;
  for (int r = 0; r < rounds; ++r) {
    LegalGraph legal = make_legal_graph(rng);
    stats.legal_graphs += 1;
    std::vector<Diagnostic> ds = verify_graph(legal.root);
    // Dead-source warnings are legitimate on random structural chains (a
    // take after a large shift really can read only default values); only
    // *errors* on a builder-produced graph are false positives.
    for (const Diagnostic& d : ds) {
      if (d.severity == Severity::kError) {
        stats.legal_flagged += 1;
        break;
      }
    }
    // The optimised evaluator must agree with the naive one on every legal
    // graph — a second, independent oracle for graph legality.
    const sac::Array<double> naive =
        sac::wl::evaluate_naive(legal.root, legal.bindings);
    const sac::Array<double> opt =
        sac::wl::evaluate(sac::wl::optimise(legal.root), legal.bindings);
    if (!values_match(naive, opt)) stats.eval_mismatches += 1;

    for (auto& [what, bad] : make_illegal_graphs(legal.root, rng)) {
      stats.illegal_graphs += 1;
      bool flagged = false;
      for (const Diagnostic& d : verify_graph(bad)) {
        if (d.severity == Severity::kError) {
          flagged = true;
          break;
        }
      }
      if (!flagged) stats.illegal_missed += 1;
      (void)what;
    }
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Backend row fuzzer
// ---------------------------------------------------------------------------

namespace {

// Row lengths biased to the masked-tail danger zone around the 4-lane width.
extent_t fuzz_row_length(Rng& rng) {
  static constexpr extent_t kPool[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,
                                       11, 13, 15, 16, 17, 23, 31, 32, 33,
                                       61, 64, 67, 97};
  if (rng.pick(4) == 0) return rng.range(0, 130);
  return kPool[rng.pick(std::size(kPool))];
}

std::vector<double> fuzz_row(Rng& rng, std::size_t n) {
  std::vector<double> r(n);
  for (double& x : r) {
    x = static_cast<double>(rng.range(-4000, 4000)) / 997.0;
  }
  return r;
}

bool rows_equal(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bitwise: memcmp semantics without tripping on -0.0 vs +0.0 being ==.
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) return false;
  }
  return true;
}

// NPB's residual operator `a`: non-dyadic, so a contracted FMA rounds
// differently from mul + add and shows up as a bit mismatch.
constexpr sac::StencilCoeffs kFuzzCoeffs{
    {-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0}};

// One round of raw-primitive differential checks on a random row config.
void fuzz_primitives(Rng& rng, const std::vector<const sac::Backend*>& engines,
                     BackendFuzzStats* stats) {
  const extent_t n = fuzz_row_length(rng);
  extent_t lo = n == 0 ? 0 : rng.range(0, n);
  extent_t hi = n == 0 ? 0 : rng.range(0, n);
  if (hi < lo) std::swap(lo, hi);
  const auto nz = static_cast<std::size_t>(n);
  const auto a = fuzz_row(rng, nz);
  const auto b = fuzz_row(rng, nz);
  const double v = static_cast<double>(rng.range(-9, 9)) * 0.625;

  std::vector<std::vector<double>> fill(engines.size()), copy(engines.size()),
      add(engines.size()), sub(engines.size()), mul(engines.size());
  std::vector<double> ss(engines.size()), ma(engines.size());
  for (std::size_t e = 0; e < engines.size(); ++e) {
    const sac::Backend* be = engines[e];
    fill[e].assign(nz, -77.0);
    be->fill_row(fill[e].data(), lo, hi, v);
    copy[e].assign(nz, -77.0);
    be->copy_row(copy[e].data(), a.data(), lo, hi);
    add[e] = b;
    be->add_into_row(a.data(), add[e].data(), lo, hi);
    sub[e] = b;
    be->sub_into_row(a.data(), sub[e].data(), lo, hi);
    mul[e] = b;
    be->mul_into_row(a.data(), mul[e].data(), lo, hi);
    ss[e] = be->sum_sq_row(0.125, a.data(), lo, hi);
    ma[e] = be->max_abs_row(0.0, a.data(), lo, hi);
    stats->rows_checked += 1;
    if (e == 0) continue;
    if (!rows_equal(fill[e], fill[0]) || !rows_equal(copy[e], copy[0]) ||
        !rows_equal(add[e], add[0]) || !rows_equal(sub[e], sub[0]) ||
        !rows_equal(mul[e], mul[0])) {
      stats->mismatches += 1;
    }
    const double tol = 1e-12 * std::max(1.0, std::abs(ss[0]));
    if (std::abs(ss[e] - ss[0]) > tol || ma[e] != ma[0]) {
      stats->fold_mismatches += 1;
    }
    // The vectorized engines must agree with each other exactly.
    if (e >= 2 && (ss[e] != ss[1] || ma[e] != ma[1])) {
      stats->fold_mismatches += 1;
    }
  }

  // Stencil row combine: needs lo-1 / hi readable, so pad the range in.
  if (n >= 3) {
    const auto uc = fuzz_row(rng, nz);
    const auto u1 = fuzz_row(rng, nz);
    const auto u2 = fuzz_row(rng, nz);
    extent_t clo = rng.range(1, n - 1), chi = rng.range(1, n - 1);
    if (chi < clo) std::swap(clo, chi);
    std::vector<std::vector<double>> comb(engines.size()),
        accr(engines.size());
    for (std::size_t e = 0; e < engines.size(); ++e) {
      comb[e].assign(nz, -77.0);
      engines[e]->combine_row(kFuzzCoeffs.c.data(), uc.data(), u1.data(),
                              u2.data(), comb[e].data(), clo, chi);
      accr[e] = b;
      engines[e]->accumulate_row(kFuzzCoeffs.c.data(), uc.data(), u1.data(),
                                 u2.data(), accr[e].data(), clo, chi);
      stats->rows_checked += 1;
      if (e > 0 && (!rows_equal(comb[e], comb[0]) ||
                    !rows_equal(accr[e], accr[0]))) {
        stats->mismatches += 1;
      }
    }
  }

  // Strided gather / scatter.
  if (n >= 1) {
    const extent_t stride = rng.range(1, 4);
    const auto src = fuzz_row(rng, static_cast<std::size_t>(n * stride));
    std::vector<std::vector<double>> g(engines.size()), s(engines.size());
    for (std::size_t e = 0; e < engines.size(); ++e) {
      g[e].assign(nz, -77.0);
      engines[e]->gather_row(g[e].data(), src.data(), stride, n);
      s[e].assign(static_cast<std::size_t>(n * stride), -77.0);
      engines[e]->scatter_row(s[e].data(), stride, src.data(), n);
      stats->rows_checked += 1;
      if (e > 0 &&
          (!rows_equal(g[e], g[0]) || !rows_equal(s[e], s[0]))) {
        stats->mismatches += 1;
      }
    }
  }
}

// Whole-expression check: force `expr` under every backend kind and compare
// bitwise against its per-point evaluation.
template <typename Expr>
void fuzz_expr_backends(const Expr& expr, BackendFuzzStats* stats) {
  const Shape shp = expr.shape();
  sac::Array<double> ref = sac::with_genarray<double>(
      shp, [&](const IndexVec& iv) { return expr(iv); });
  for (const sac::BackendKind kind :
       {sac::BackendKind::kScalar, sac::BackendKind::kSimd,
        sac::BackendKind::kSimdPortable}) {
    sac::SacConfig cfg = sac::config();
    cfg.backend = kind;
    sac::ScopedConfig guard(cfg);
    const sac::Array<double> got = sac::force(expr);
    stats->exprs_checked += 1;
    bool ok = got.shape() == ref.shape();
    for (extent_t i = 0; ok && i < got.elem_count(); ++i) {
      const double x = got.at_linear(i), y = ref.at_linear(i);
      ok = std::memcmp(&x, &y, sizeof(double)) == 0;
    }
    if (!ok) stats->mismatches += 1;
  }
}

void fuzz_gather_rows(Rng& rng, BackendFuzzStats* stats) {
  IndexVec ext{rng.range(1, 6), rng.range(1, 6), fuzz_row_length(rng) + 1};
  const Shape base{ext};
  std::uint64_t salt = rng.next();
  sac::Array<double> a =
      sac::with_genarray<double>(base, [&](const IndexVec& iv) {
        const auto lin = static_cast<std::uint64_t>(base.linearize(iv));
        return static_cast<double>((lin * 2654435761ULL + salt) % 1000) /
               997.0;
      });
  switch (rng.pick(5)) {
    case 0: {
      bool ok = true;
      for (std::size_t d = 0; d < 3; ++d) {
        if (base.extent(d) < 2) ok = false;
      }
      if (ok) {
        fuzz_expr_backends(sac::lazy_condense(2, a, rng.range(0, 1)), stats);
      }
      break;
    }
    case 1:
      if (base.elem_count() < 2000) {
        fuzz_expr_backends(sac::lazy_scatter(2, a, rng.range(0, 1)), stats);
      }
      break;
    case 2: {
      IndexVec shp2(3);
      for (std::size_t d = 0; d < 3; ++d) {
        shp2[d] = rng.range(1, base.extent(d));
      }
      fuzz_expr_backends(sac::lazy_take(shp2, a), stats);
      break;
    }
    case 3: {
      IndexVec shp2(3), pos(3);
      for (std::size_t d = 0; d < 3; ++d) {
        shp2[d] = base.extent(d) + rng.range(0, 5);
        pos[d] = rng.range(0, shp2[d] - base.extent(d));
      }
      fuzz_expr_backends(sac::lazy_embed(shp2, pos, a), stats);
      break;
    }
    default: {
      // Composition: embed(condense(.)) — nested GatherExpr row protocols.
      bool ok = true;
      for (std::size_t d = 0; d < 3; ++d) {
        if (base.extent(d) < 2) ok = false;
      }
      if (ok) {
        auto inner = sac::lazy_condense(2, a, rng.range(0, 1));
        const Shape cs = inner.shape();
        IndexVec shp2(3), pos(3);
        for (std::size_t d = 0; d < 3; ++d) {
          shp2[d] = cs.extent(d) + rng.range(0, 3);
          pos[d] = rng.range(0, shp2[d] - cs.extent(d));
        }
        fuzz_expr_backends(sac::lazy_embed(shp2, pos, std::move(inner)),
                           stats);
      }
      break;
    }
  }
}

// Degenerate stencil grids under the planes row path: extents 3..5 give
// interiors that are empty along some axes or a single point (the
// gen_interior regression class from the planes engine work).
void fuzz_degenerate_stencils(Rng& rng, BackendFuzzStats* stats) {
  const Shape shp{rng.range(3, 5), rng.range(3, 5), rng.range(3, 5)};
  std::uint64_t salt = rng.next();
  sac::Array<double> a =
      sac::with_genarray<double>(shp, [&](const IndexVec& iv) {
        const auto lin = static_cast<std::uint64_t>(shp.linearize(iv));
        return static_cast<double>((lin * 2654435761ULL + salt) % 1000) /
               997.0;
      });
  sac::SacConfig cfg = sac::config();
  cfg.stencil_planes_cutover = 0;
  cfg.stencil_mode = sac::StencilMode::kPlanes;
  sac::ScopedConfig guard(cfg);
  sac::Array<double> ref;
  {
    sac::SacConfig scalar_cfg = sac::config();
    scalar_cfg.backend = sac::BackendKind::kScalar;
    sac::ScopedConfig scalar_guard(scalar_cfg);
    ref = sac::relax_kernel(a, kFuzzCoeffs, sac::StencilMode::kPlanes);
  }
  for (const sac::BackendKind kind :
       {sac::BackendKind::kSimd, sac::BackendKind::kSimdPortable}) {
    sac::SacConfig k_cfg = sac::config();
    k_cfg.backend = kind;
    sac::ScopedConfig k_guard(k_cfg);
    const sac::Array<double> got =
        sac::relax_kernel(a, kFuzzCoeffs, sac::StencilMode::kPlanes);
    stats->exprs_checked += 1;
    bool ok = true;
    for (extent_t i = 0; ok && i < got.elem_count(); ++i) {
      const double x = got.at_linear(i), y = ref.at_linear(i);
      ok = std::memcmp(&x, &y, sizeof(double)) == 0;
    }
    if (!ok) stats->mismatches += 1;
  }
}

}  // namespace

BackendFuzzStats fuzz_backend_rows(std::uint64_t seed, int rounds) {
  Rng rng{seed | 1};
  BackendFuzzStats stats;
  // Every engine present on this host, scalar first (the reference).
  std::vector<const sac::Backend*> engines{&sac::detail::scalar_backend()};
  const auto vec = sac::detail::vector_backends();
  engines.insert(engines.end(), vec.begin(), vec.end());
  for (int r = 0; r < rounds; ++r) {
    fuzz_primitives(rng, engines, &stats);
    fuzz_gather_rows(rng, &stats);
    fuzz_degenerate_stencils(rng, &stats);
  }
  return stats;
}

}  // namespace sacpp::check
