#pragma once
// Fuzzing harness for the with-loop graph verifier.
//
// Each round composes a random *legal* graph through the public builders
// (which enforce the invariants by construction), then derives *illegal*
// graphs from it by hand-assembling nodes that violate exactly one
// invariant.  The verifier must stay silent on every legal graph and flag
// every illegal one; legal graphs are additionally evaluated both naively
// and optimised and the values compared, so a verifier bug and an optimiser
// bug cannot mask each other.
//
// Deterministic in `seed` (tests pin seeds; no global RNG state).

#include <cstdint>

namespace sacpp::check {

struct FuzzStats {
  int legal_graphs = 0;
  int legal_flagged = 0;    // verifier false positives — must stay 0
  int illegal_graphs = 0;
  int illegal_missed = 0;   // verifier false negatives — must stay 0
  int eval_mismatches = 0;  // optimised vs naive disagreements — must stay 0

  bool clean() const {
    return legal_flagged == 0 && illegal_missed == 0 && eval_mismatches == 0;
  }
};

FuzzStats fuzz_wlgraph_verifier(std::uint64_t seed, int rounds);

// Backend row-primitive fuzzer (docs/backends.md).  Each round draws
// adversarial row lengths and sub-ranges around the 4-lane vector width
// (0, 1, width-1, width, width+1, primes, empty ranges) and
//  * runs every row primitive on every available engine (scalar, portable,
//    AVX2 and AVX-512 where the host has them), comparing element-parallel
//    results bitwise (the grouped rows also against the per-point
//    grouped_stencil3 tree) and fold results to tolerance — masked-tail
//    bugs show up as `mismatches`;
//  * forces random gather/scatter/take/embed compositions and degenerate
//    stencil grids (the gen_interior regression class: interiors that are
//    empty or a single point) under every backend, comparing against
//    per-point evaluation — row-range algebra bugs show up here too.
struct BackendFuzzStats {
  int rows_checked = 0;     // primitive (engine, row) comparisons performed
  int exprs_checked = 0;    // whole-expression backend comparisons performed
  int mismatches = 0;       // bitwise divergences — must stay 0
  int fold_mismatches = 0;  // fold drift beyond 1e-12 — must stay 0

  bool clean() const { return mismatches == 0 && fold_mismatches == 0; }
};

BackendFuzzStats fuzz_backend_rows(std::uint64_t seed, int rounds);

}  // namespace sacpp::check
