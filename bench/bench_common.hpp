#pragma once
// Shared plumbing of the figure-reproduction binaries: class selection, the
// standard CLI options and the paper configuration.

#include <string>
#include <vector>

#include "sacpp/common/cli.hpp"
#include "sacpp/mg/spec.hpp"
#include "sacpp/sac/config.hpp"

namespace sacpp::bench {

// Parse a comma-separated class list ("S,W" / "W,A" / "A").
inline std::vector<mg::MgSpec> parse_classes(const std::string& list) {
  std::vector<mg::MgSpec> specs;
  std::string cur;
  for (char ch : list + ",") {
    if (ch == ',') {
      if (!cur.empty()) specs.push_back(mg::MgSpec::for_class(mg::parse_class(cur)));
      cur.clear();
    } else {
      cur += ch;
    }
  }
  return specs;
}

// The classes every figure binary accepts.  The paper evaluates W and A;
// the default keeps the out-of-the-box run laptop-friendly (W), with
// --classes W,A reproducing the full figure.
inline void add_standard_options(Cli& cli, const std::string& default_classes) {
  cli.add_option("classes", default_classes,
                 "comma-separated NPB classes (S, W, A, B)");
  cli.add_option("csv", "", "also write the table as CSV to this path");
  cli.add_option("repeats", "1", "timed repetitions; the minimum is reported");
}

// The paper configuration: the process configuration with the stencil and
// row engines pinned to grouped + scalar — the form sac2c generates and the
// machine model is calibrated against.  The figure reproductions and the
// paper ablations measure this path whatever the process defaults are
// (SacConfig{} runs planes + simd).
inline sac::SacConfig paper_config() {
  sac::SacConfig cfg = sac::config();
  cfg.stencil_mode = sac::StencilMode::kGrouped;
  cfg.backend = sac::BackendKind::kScalar;
  return cfg;
}

}  // namespace sacpp::bench
