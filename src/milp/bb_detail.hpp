// Internal helpers of the branch & bound: LP option derivation, LP work
// accounting, branching variable selection, pseudo-cost bookkeeping and
// integer rounding, shared by the root work (bb.cpp) and the tree engine
// (bb_parallel.cpp).
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "lp/sparse/csc.hpp"
#include "milp/bb.hpp"
#include "support/timer.hpp"

namespace rfp::milp::detail {

/// What the root work of MilpSolver::solve hands a tree engine: the model
/// the tree branches on (the caller's own, or a working copy once a cover
/// cut was added), the presolved base bounds, the sparse matrix the root
/// LPs already used (null: the engine builds one), and the optimal basis of the last cut round when that round
/// solved exactly the tree's root LP (null: the root is solved cold).
/// The engine does not copy the model.
struct TreeRoot {
  const lp::Model* model = nullptr;
  std::vector<double> lb, ub;
  std::shared_ptr<const lp::sparse::CscMatrix> csc;
  std::shared_ptr<const lp::sparse::Basis> basis;
};

/// One bound tightening relative to the parent node (chain representation
/// keeps per-node memory O(1) regardless of model size).
struct BoundChange {
  int var = -1;
  bool is_lower = false;  // true: lb := value, false: ub := value
  double value = 0.0;
};

struct PseudoCost {
  double down_sum = 0, up_sum = 0;
  long down_count = 0, up_count = 0;
};

/// LP options with the MILP's stop flag threaded in and the time limit
/// clamped to `remaining_seconds` (<= 0: no extra cap). Paper-scale LP
/// solves run for seconds to minutes, so truncation and cancellation must
/// act inside the pivot loop, not at the next node boundary.
inline lp::LpSolver::Options cappedLpOptions(const MilpSolver::Options& opt,
                                             double remaining_seconds) {
  lp::LpSolver::Options lopt = opt.lp;
  if (!lopt.core.stop) lopt.core.stop = opt.stop;
  if (!lopt.core.telemetry) lopt.core.telemetry = opt.telemetry;
  if (remaining_seconds > 0)
    lopt.core.time_limit_seconds =
        lopt.core.time_limit_seconds > 0
            ? std::min(lopt.core.time_limit_seconds, remaining_seconds)
            : remaining_seconds;
  return lopt;
}

[[nodiscard]] inline double clampedRemaining(const Deadline& deadline) {
  return deadline.limit() > 0 ? std::max(0.01, deadline.remaining()) : 0.0;
}

/// Adds one LP's work (pivots, factor updates, triangular solves) to the
/// lp_* counters of `res`. `solved = false` is for a dual attempt that gave
/// up before its node was solved another way: its effort counts, but it is
/// not a solve.
inline void addLpWork(MipResult& res, const lp::LpResult& rel, bool solved = true) {
  res.lp_iterations += rel.iterations;
  res.lp_refactorizations += rel.refactorizations;
  res.lp_primal_pivots += rel.primal_pivots;
  res.lp_dual_pivots += rel.dual_pivots;
  res.lp_bound_flips += rel.bound_flips;
  res.lp_ft_updates += rel.ft_updates;
  res.lp_ftran_sparse += rel.ftran_sparse;
  res.lp_ftran_dense += rel.ftran_dense;
  res.lp_btran_sparse += rel.btran_sparse;
  res.lp_btran_dense += rel.btran_dense;
  res.lp_dse_updates += rel.dse_updates;
  if (!solved) return;
  ++res.lp_solves;
  res.lp_warm_hits += rel.warm_started ? 1 : 0;
  res.lp_dual_reopts += rel.dual_reopt ? 1 : 0;
}

/// Adds the lp_* counters of `part` to those of `res`.
inline void addLpWork(MipResult& res, const MipResult& part) {
  res.lp_iterations += part.lp_iterations;
  res.lp_refactorizations += part.lp_refactorizations;
  res.lp_primal_pivots += part.lp_primal_pivots;
  res.lp_dual_pivots += part.lp_dual_pivots;
  res.lp_bound_flips += part.lp_bound_flips;
  res.lp_ft_updates += part.lp_ft_updates;
  res.lp_ftran_sparse += part.lp_ftran_sparse;
  res.lp_ftran_dense += part.lp_ftran_dense;
  res.lp_btran_sparse += part.lp_btran_sparse;
  res.lp_btran_dense += part.lp_btran_dense;
  res.lp_dse_updates += part.lp_dse_updates;
  res.lp_solves += part.lp_solves;
  res.lp_warm_hits += part.lp_warm_hits;
  res.lp_dual_reopts += part.lp_dual_reopts;
}

/// Most-fractional selection (binaries first), the pseudo-cost fallback.
inline int mostFractional(const lp::Model& model, const MilpSolver::Options& opt,
                          const std::vector<double>& x) {
  int best_bin = -1, best_int = -1;
  double bin_score = opt.int_tol, int_score = opt.int_tol;
  for (int j = 0; j < model.numVars(); ++j) {
    const lp::VarType type = model.var(j).type;
    if (type == lp::VarType::kContinuous) continue;
    const double v = x[static_cast<std::size_t>(j)];
    const double dist = std::min(v - std::floor(v), std::ceil(v) - v);
    if (dist <= opt.int_tol) continue;
    if (type == lp::VarType::kBinary) {
      if (dist > bin_score) {
        bin_score = dist;
        best_bin = j;
      }
    } else if (dist > int_score) {
      int_score = dist;
      best_int = j;
    }
  }
  return best_bin >= 0 ? best_bin : best_int;
}

/// Branching variable selection. With pseudo-cost branching, fractional
/// variables are scored by the product of their estimated up/down objective
/// degradations (reliability falls back to fractionality while a variable
/// has no observations). Binaries always outrank general integers — they
/// drive the big-M structure of floorplanning models. Returns -1 when the
/// point is integral.
inline int selectBranchVar(const lp::Model& model, const MilpSolver::Options& opt,
                           const std::vector<PseudoCost>& pseudo_costs,
                           const std::vector<double>& x) {
  if (!opt.pseudo_cost_branching) return mostFractional(model, opt, x);
  int best = -1;
  bool best_binary = false;
  double best_score = -1.0;
  for (int j = 0; j < model.numVars(); ++j) {
    const lp::VarType type = model.var(j).type;
    if (type == lp::VarType::kContinuous) continue;
    const double v = x[static_cast<std::size_t>(j)];
    const double f = v - std::floor(v);
    const double dist = std::min(f, 1.0 - f);
    if (dist <= opt.int_tol) continue;
    const PseudoCost& pc = pseudo_costs[static_cast<std::size_t>(j)];
    // Unobserved directions fall back to the fractionality itself, so an
    // unscored variable competes as if it were most-fractional branching.
    const double down = pc.down_count > 0 ? pc.down_sum / pc.down_count * f : dist;
    const double up = pc.up_count > 0 ? pc.up_sum / pc.up_count * (1.0 - f) : dist;
    const double score = std::max(down, 1e-9) * std::max(up, 1e-9);
    const bool binary = type == lp::VarType::kBinary;
    if (best < 0 || (binary && !best_binary) || (binary == best_binary && score > best_score)) {
      best = j;
      best_binary = binary;
      best_score = score;
    }
  }
  return best;
}

/// Records the objective degradation a branch caused into the branched
/// variable's pseudo-cost (up or down direction by the branch sense).
inline void updatePseudoCost(std::vector<PseudoCost>& pseudo_costs, const BoundChange& change,
                             double parent_bound, double branch_frac, double child_bound) {
  const double degradation = std::max(0.0, child_bound - parent_bound);
  PseudoCost& pc = pseudo_costs[static_cast<std::size_t>(change.var)];
  if (change.is_lower) {  // up branch
    pc.up_sum += degradation / std::max(1e-9, 1.0 - branch_frac);
    pc.up_count += 1;
  } else {
    pc.down_sum += degradation / std::max(1e-9, branch_frac);
    pc.down_count += 1;
  }
}

inline void roundIntegers(const lp::Model& model, std::vector<double>& x) {
  for (int j = 0; j < model.numVars(); ++j)
    if (model.var(j).type != lp::VarType::kContinuous)
      x[static_cast<std::size_t>(j)] = std::round(x[static_cast<std::size_t>(j)]);
}

/// Work-stealing branch & bound over `root` (bb_parallel.cpp):
/// max(1, opt.threads) workers with per-worker deques and private
/// DualReoptimizer instances, cooperating through an atomic incumbent
/// cutoff; worker 0 runs on the calling thread. With `opt.deterministic`
/// the same workers run lock-step on one OS thread and the result carries a
/// replay hash over the node order and steal schedule.
[[nodiscard]] MipResult runTreeSearch(TreeRoot root, const MilpSolver::Options& opt,
                                      std::optional<std::vector<double>> warm_start);

}  // namespace rfp::milp::detail
