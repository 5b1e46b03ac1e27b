#include "milp/bb.hpp"

#include <algorithm>
#include <memory>

#include "milp/bb_detail.hpp"
#include "milp/presolve.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

namespace rfp::milp {

const char* toString(MipStatus s) noexcept {
  switch (s) {
    case MipStatus::kOptimal: return "optimal";
    case MipStatus::kFeasible: return "feasible";
    case MipStatus::kInfeasible: return "infeasible";
    case MipStatus::kNoSolution: return "no-solution";
    case MipStatus::kUnbounded: return "unbounded";
  }
  return "?";
}

namespace {

using detail::addLpWork;
using detail::cappedLpOptions;
using detail::clampedRemaining;

/// Boundary guard for the non-search return paths (pure LP, root presolve):
/// a solve that ends with the external stop flag set is a cancellation, and
/// a cancelled run must never hand the caller a proof.
void downgradeIfCancelled(MipResult& res, const MilpSolver::Options& opt) {
  if (!opt.stop || !opt.stop->load(std::memory_order_relaxed)) return;
  if (res.status == MipStatus::kOptimal) res.status = MipStatus::kFeasible;
  else if (res.status == MipStatus::kInfeasible) res.status = MipStatus::kNoSolution;
}

}  // namespace

MipResult MilpSolver::solve(const lp::Model& model,
                            std::optional<std::vector<double>> warm_start) const {
  if (!model.hasIntegerVars()) {
    // Pure LP: solve the relaxation directly (with the MILP-level budget and
    // stop flag threaded into the pivot loop).
    lp::LpSolver solver(cappedLpOptions(options_, options_.time_limit_seconds));
    lp::LpResult rel = solver.solve(model);
    MipResult res;
    addLpWork(res, rel);
    res.seconds = rel.seconds;
    switch (rel.status) {
      case lp::LpStatus::kOptimal:
        res.status = MipStatus::kOptimal;
        res.x = std::move(rel.x);
        res.objective = rel.objective;
        res.best_bound = rel.objective;
        res.gap = 0.0;
        break;
      case lp::LpStatus::kInfeasible: res.status = MipStatus::kInfeasible; break;
      case lp::LpStatus::kUnbounded: res.status = MipStatus::kUnbounded; break;
      default: res.status = MipStatus::kNoSolution; break;
    }
    downgradeIfCancelled(res, options_);
    return res;
  }
  // Root work. Presolve tightens bound vectors, not a model, and cover cuts
  // go into a working copy made only once a cut is actually added: the
  // caller's model (tens of MiB at paper scale) is never copied whole and
  // never changed. Both transformations preserve every integer-feasible
  // point, so a warm start remains valid and optimality claims are
  // unaffected. The wall-clock budget covers presolve + cuts + search: root
  // work at paper scale is LP-solve-heavy, so the search receives whatever
  // remains.
  Stopwatch root_watch;
  const Deadline cut_deadline(options_.time_limit_seconds);
  detail::TreeRoot root;
  root.model = &model;
  root.lb.resize(static_cast<std::size_t>(model.numVars()));
  root.ub.resize(static_cast<std::size_t>(model.numVars()));
  for (int j = 0; j < model.numVars(); ++j) {
    root.lb[static_cast<std::size_t>(j)] = model.var(j).lb;
    root.ub[static_cast<std::size_t>(j)] = model.var(j).ub;
  }

  if (options_.enable_presolve) {
    telemetry::Span presolve_span(options_.telemetry, "milp", "presolve");
    const PresolveResult pr =
        tightenBounds(model, root.lb, root.ub, /*max_rounds=*/10, options_.stop);
    if (pr.infeasible) {
      MipResult res;
      res.status = MipStatus::kInfeasible;
      downgradeIfCancelled(res, options_);
      return res;
    }
  }

  std::optional<lp::Model> work;  // caller's model + cuts, once a cut exists
  MipResult cut_work;             // lp_* counters of the separation LPs
  if (options_.enable_cover_cuts) {
    telemetry::Span cuts_span(options_.telemetry, "milp", "cover_cuts");
    for (int round = 0; round < options_.cut_rounds; ++round) {
      if (cut_deadline.expired() ||
          (options_.stop && options_.stop->load(std::memory_order_relaxed)))
        break;
      const lp::LpSolver lp_solver(cappedLpOptions(options_, clampedRemaining(cut_deadline)));
      // One CSC build per model version: the tree reuses it when the last
      // round adds no cut.
      if (!root.csc)
        root.csc = std::make_shared<const lp::sparse::CscMatrix>(
            lp::sparse::CscMatrix::fromModel(*root.model));
      const lp::LpResult rel =
          lp_solver.solve(*root.model, root.lb, root.ub, nullptr, root.csc.get());
      addLpWork(cut_work, rel);
      if (rel.status != lp::LpStatus::kOptimal) break;
      const std::vector<CoverCut> cuts = separateCoverCuts(*root.model, rel.x);
      if (cuts.empty()) {
        // This LP is the tree's root LP: its root node restarts from the
        // optimal basis instead of solving it again from scratch.
        root.basis = rel.basis;
        break;
      }
      if (!work) {
        work.emplace(model);
        root.model = &*work;
      }
      for (const CoverCut& cut : cuts) {
        lp::LinExpr expr;
        for (const int j : cut.vars) expr.addTerm(lp::Var{j}, 1.0);
        work->addConstr(expr, lp::Sense::kLessEqual, cut.rhs, "cover_cut");
      }
      root.csc.reset();  // the rows changed
    }
  }

  Options search_opt = options_;
  if (search_opt.time_limit_seconds > 0)
    search_opt.time_limit_seconds =
        std::max(0.01, search_opt.time_limit_seconds - root_watch.seconds());
  MipResult res = detail::runTreeSearch(std::move(root), search_opt, std::move(warm_start));
  res.seconds = root_watch.seconds();  // include presolve + cut time
  // Cut-separation LPs are real (cold) LP work: report them, or the
  // telemetry under-counts solves and inflates the warm-start hit rate.
  addLpWork(res, cut_work);
  return res;
}

}  // namespace rfp::milp
