#pragma once
// Kept only so perfbench/src/layers.cpp, which predates the removal of the
// runtime code-generation engine, still builds: BackendKind::kJit now
// resolves to the kSimd engine (docs/backends.md), so there is nothing to
// drain.
namespace sacpp::sac::jit { inline void drain() noexcept {} }
