#pragma once
// Umbrella header for the SAC-style array system.
//
//   Array<T>       value-semantic n-dimensional arrays (array.hpp)
//   with_*         the WITH-loop construct (with_loop.hpp)
//   array library  compound operations defined on top of it (array_lib.hpp)
//   expr           lazy expressions / with-loop folding (expr.hpp)
//   stencil        coefficient-class relaxation kernels (stencil.hpp)
//   prolong        the Q-relaxed scatter, folded (prolong.hpp)
//   config/stats   optimisation switches and runtime counters

#include "sacpp/sac/array.hpp"
#include "sacpp/sac/array_lib.hpp"
#include "sacpp/sac/config.hpp"
#include "sacpp/sac/pool.hpp"
#include "sacpp/sac/prolong.hpp"
#include "sacpp/sac/expr.hpp"
#include "sacpp/sac/io.hpp"
#include "sacpp/sac/runtime.hpp"
#include "sacpp/sac/stats.hpp"
#include "sacpp/sac/stencil.hpp"
#include "sacpp/sac/with_loop.hpp"
