// Random pure-binary programs and their brute-force optimum: the oracle the
// MILP tests check branch & bound against (test_milp, test_lp_sparse).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "lp/model.hpp"
#include "support/rng.hpp"

namespace rfp::testutil {

/// `min_vars + [0, extra_vars)` binaries under `min_rows + [0, 4)` random
/// <= / >= rows with coefficients in [-4, 6] and right-hand sides in
/// [0, 12]; random objective coefficients in [-10, 10] and random sense.
inline lp::Model randomBinaryProgram(Rng& rng, int min_vars, int extra_vars, int min_rows) {
  const int n = min_vars + static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(extra_vars)));
  const int rows = min_rows + static_cast<int>(rng.nextBelow(4));
  lp::Model m;
  for (int j = 0; j < n; ++j) m.addBinary("b");
  for (int i = 0; i < rows; ++i) {
    lp::LinExpr e;
    for (int j = 0; j < n; ++j) {
      const long c = rng.nextInt(-4, 6);
      if (c != 0) e += static_cast<double>(c) * lp::Var{j};
    }
    m.addConstr(e, rng.nextBool() ? lp::Sense::kLessEqual : lp::Sense::kGreaterEqual,
                static_cast<double>(rng.nextInt(0, 12)));
  }
  lp::LinExpr obj;
  for (int j = 0; j < n; ++j) obj += static_cast<double>(rng.nextInt(-10, 10)) * lp::Var{j};
  m.setObjective(obj, rng.nextBool() ? lp::ObjSense::kMaximize : lp::ObjSense::kMinimize);
  return m;
}

/// Best objective over every 0/1 assignment of `m`'s variables, or nullopt
/// when none is feasible. Exponential: for programs of a dozen binaries.
inline std::optional<double> bruteForceBest(const lp::Model& m) {
  const int n = m.numVars();
  std::optional<double> best;
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<double> x(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) x[static_cast<std::size_t>(j)] = (mask >> j) & 1;
    if (!m.isFeasible(x, 1e-9)) continue;
    const double obj = m.evalObjective(x);
    if (!best || (m.objSense() == lp::ObjSense::kMaximize ? obj > *best : obj < *best))
      best = obj;
  }
  return best;
}

}  // namespace rfp::testutil
