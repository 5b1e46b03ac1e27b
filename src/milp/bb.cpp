#include "milp/bb.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>

#include "milp/bb_detail.hpp"
#include "milp/presolve.hpp"
#include "support/check.hpp"
#include "support/log.hpp"
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

using detail::BoundChange;
using detail::cappedLpOptions;
using detail::clampedRemaining;
using detail::PseudoCost;

struct Node {
  int parent = -1;          ///< index into the node arena (-1: root)
  BoundChange change;       ///< change applied relative to the parent
  double lp_bound = -lp::kInfinity;  ///< parent LP objective (dual bound)
  int depth = 0;
  double branch_frac = 0.0;  ///< fractional part of the branched variable at
                             ///< the parent (pseudo-cost bookkeeping)
  /// Parent's optimal basis (sparse LP engine): both children share one
  /// snapshot; it is released once this node's own relaxation is solved.
  std::shared_ptr<const lp::sparse::Basis> start_basis;
};

/// Min-heap entry ordered by dual bound (best-bound-first).
struct HeapEntry {
  double bound;
  long seq;  ///< tiebreak: prefer older nodes (FIFO among equals)
  int node;
  bool operator<(const HeapEntry& o) const {
    if (bound != o.bound) return bound > o.bound;  // min-heap via operator<
    return seq > o.seq;
  }
};

class Search {
 public:
  Search(detail::TreeRoot root, const MilpSolver::Options& opt)
      : model_(*root.model),
        opt_(opt),
        lp_solver_(opt.lp),
        base_lb_(std::move(root.lb)),
        base_ub_(std::move(root.ub)),
        root_basis_(std::move(root.basis)) {
    const lp::Model& model = model_;
    minimize_ = model.objSense() == lp::ObjSense::kMinimize;
    pseudo_costs_.assign(static_cast<std::size_t>(model.numVars()), PseudoCost{});
    // One CSC build per tree: every node solve differs only in bounds, so
    // the structural matrix is shared across the whole search instead of
    // being rebuilt per solve (pure constant overhead otherwise). The root
    // LPs' matrix is reused when they ran on this same model; a tree that
    // starts cancelled solves no node and builds nothing.
    if (lp_solver_.resolveEngine(model) == lp::LpEngine::kSparse && !externallyStopped()) {
      csc_ = root.csc ? std::move(root.csc)
                      : std::make_shared<const lp::sparse::CscMatrix>(
                            lp::sparse::CscMatrix::fromModel(model));
      if (opt.lp_warm_start && opt.lp.dual_reopt) {
        // Persistent dual reoptimizer: dive children warm-start from the
        // live factors of the solve that just produced their parent basis,
        // skipping both per-node refactorizations.
        lp::sparse::DualSimplexSolver::Options dopt;
        dopt.core = opt.lp.core;
        if (!dopt.core.stop) dopt.core.stop = opt.stop;
        if (!dopt.core.telemetry) dopt.core.telemetry = opt.telemetry;
        dopt.refactor_interval = opt.lp.refactor_interval;
        dopt.lu = opt.lp.lu;
        reopt_.emplace(model, csc_, dopt);
      }
    }
    if (opt.telemetry != nullptr && opt.telemetry->metrics != nullptr) {
      telemetry::MetricsRegistry& reg = *opt.telemetry->metrics;
      nodes_ctr_ = &reg.counter("milp.nodes");
      lp_solves_ctr_ = &reg.counter("lp.solves");
      lp_iter_ctr_ = &reg.counter("lp.iterations");
      node_iter_hist_ = &reg.histogram("lp.node_iterations");
    }
  }


  MipResult run(std::optional<std::vector<double>> warm_start) {
    Stopwatch watch;
    Deadline deadline(opt_.time_limit_seconds);
    deadline_ = &deadline;
    MipResult res;

    if (warm_start && model_.isFeasible(*warm_start, opt_.int_tol)) {
      incumbent_ = *warm_start;
      incumbent_obj_ = signedObj(model_.evalObjective(*warm_start));
    }

    res.lp_engine = lp_solver_.resolveEngine(model_);

    nodes_.push_back(Node{});  // root
    nodes_.front().start_basis = std::move(root_basis_);
    heap_.push(HeapEntry{-lp::kInfinity, seq_++, 0});

    bool truncated = false;
    bool root_unbounded = false;
    while (!heap_.empty()) {
      if (deadline.expired() || externallyStopped() ||
          (opt_.node_limit > 0 && res.nodes >= opt_.node_limit)) {
        truncated = true;
        break;
      }
      adoptExternalIncumbent(res);
      HeapEntry top = heap_.top();
      heap_.pop();
      // Prune against the incumbent before solving (releasing the pruned
      // node's basis snapshot — at paper scale each holds ~hundreds of KB
      // and thousands of nodes can be pruned without ever being processed).
      if (hasIncumbent() && top.bound >= incumbent_obj_ - absGapSlack()) {
        nodes_[static_cast<std::size_t>(top.node)].start_basis.reset();
        if (incumbent_external_) ++res.cutoff_prunes;
        continue;
      }

      // Depth-first plunge from the selected node. One plunge = one
      // node-batch span in the trace: fine enough to see where tree time
      // goes, coarse enough to stay off the per-node path.
      telemetry::Span plunge_span(opt_.telemetry, "milp", "node_batch");
      int current = top.node;
      int dove = 0;
      for (int dive = 0; current >= 0 && dive <= opt_.plunge_depth; ++dive) {
        if (deadline.expired() || externallyStopped()) {
          truncated = true;
          break;
        }
        if (dive > 0) adoptExternalIncumbent(res);  // dives outlive the heap poll
        ++res.nodes;
        ++dove;
        current = processNode(current, res, root_unbounded);
      }
      plunge_span.arg("nodes", dove);
      plunge_span.finish();
      if (nodes_ctr_ != nullptr) nodes_ctr_->add(dove);
      if (root_unbounded) break;
    }

    // ---- final status assembly ----
    // A run that ends with the external stop flag set never claims a proof,
    // even when every node happened to be processed before the flag was
    // observed: the flag means another engine settled the problem, and a
    // cancelled run racing it must not hand arbitration a second "proof"
    // whose final LPs may have been cut short mid-pivot.
    truncated = truncated || dropped_node_ || externallyStopped();
    res.seconds = watch.seconds();
    double bound;
    if (truncated) {
      // The dual bound is the weakest unexplored node bound (root nodes carry
      // -inf until their parent LP is solved, so this is conservative). A
      // dropped subtree leaves the dual bound unknown entirely: without
      // this, a drained heap would report gap 0 and claim optimality.
      bound = dropped_node_ ? -lp::kInfinity
                            : (heap_.empty() ? incumbent_obj_ : heap_.top().bound);
    } else {
      bound = hasIncumbent() ? incumbent_obj_ : lp::kInfinity;
    }
    if (root_unbounded) {
      res.status = MipStatus::kUnbounded;
      return res;
    }
    if (hasIncumbent()) {
      res.x = incumbent_;
      res.objective = userObj(incumbent_obj_);
      res.best_bound = userObj(bound);
      res.gap = std::abs(incumbent_obj_ - bound) / std::max(1.0, std::abs(incumbent_obj_));
      res.status = (!truncated || res.gap <= opt_.gap_tol) ? MipStatus::kOptimal
                                                           : MipStatus::kFeasible;
    } else {
      res.status = truncated ? MipStatus::kNoSolution : MipStatus::kInfeasible;
      res.best_bound = userObj(bound);
    }
    res.lp_iterations = lp_iterations_;
    res.lp_solves = lp_solves_;
    res.lp_warm_hits = lp_warm_hits_;
    res.lp_refactorizations = lp_refactorizations_;
    res.lp_primal_pivots = lp_primal_pivots_;
    res.lp_dual_pivots = lp_dual_pivots_;
    res.lp_bound_flips = lp_bound_flips_;
    res.lp_ft_updates = lp_ft_updates_;
    res.lp_dual_reopts = lp_dual_reopts_;
    res.lp_ftran_sparse = lp_ftran_sparse_;
    res.lp_ftran_dense = lp_ftran_dense_;
    res.lp_btran_sparse = lp_btran_sparse_;
    res.lp_btran_dense = lp_btran_dense_;
    res.lp_dse_updates = lp_dse_updates_;
    return res;
  }

 private:
  // All internal objective handling is in minimization sense.
  [[nodiscard]] double signedObj(double user) const { return minimize_ ? user : -user; }
  [[nodiscard]] double userObj(double internal) const { return minimize_ ? internal : -internal; }
  [[nodiscard]] bool hasIncumbent() const { return !incumbent_.empty(); }
  [[nodiscard]] bool externallyStopped() const {
    return opt_.stop && opt_.stop->load(std::memory_order_relaxed);
  }
  [[nodiscard]] double absGapSlack() const {
    return hasIncumbent() ? opt_.gap_tol * std::max(1.0, std::abs(incumbent_obj_)) : 0.0;
  }

  /// Polls the incumbent-exchange callback and adopts its point as the
  /// objective cutoff when it is integer-feasible for this (possibly cut-
  /// augmented) model and beats the current incumbent. Cover cuts preserve
  /// every integer-feasible point, so a genuinely feasible external plan
  /// passes; HO's sequence-pair rows legitimately reject plans outside the
  /// restricted space.
  void adoptExternalIncumbent(MipResult& res) {
    if (!opt_.incumbent_poll) return;
    std::optional<std::vector<double>> x = opt_.incumbent_poll();
    if (!x || !model_.isFeasible(*x, opt_.int_tol)) return;
    const double obj = signedObj(model_.evalObjective(*x));
    if (hasIncumbent() && obj >= incumbent_obj_ - 1e-12) return;
    incumbent_ = std::move(*x);
    roundIntegers(incumbent_);
    incumbent_obj_ = obj;
    incumbent_external_ = true;
    ++res.external_adoptions;
    telemetry::instant(opt_.telemetry, "incumbent", "adopt", "objective",
                       userObj(incumbent_obj_), "engine", "milp");
    if (opt_.log_progress)
      RFP_LOG_INFO("milp: adopted external incumbent " << userObj(incumbent_obj_));
  }

  void materializeBounds(int node, std::vector<double>& lb, std::vector<double>& ub) const {
    lb = base_lb_;
    ub = base_ub_;
    // Walk the change chain root-ward; the *latest* change to a variable wins,
    // so collect then apply in reverse arrival order via max/min merging
    // (bounds only ever tighten along a path, so max/min is exact).
    for (int cur = node; cur > 0; cur = nodes_[static_cast<std::size_t>(cur)].parent) {
      const BoundChange& ch = nodes_[static_cast<std::size_t>(cur)].change;
      if (ch.is_lower)
        lb[static_cast<std::size_t>(ch.var)] = std::max(lb[static_cast<std::size_t>(ch.var)], ch.value);
      else
        ub[static_cast<std::size_t>(ch.var)] = std::min(ub[static_cast<std::size_t>(ch.var)], ch.value);
    }
  }

  /// Solves the node LP, prunes/branches. Returns the child node index to
  /// continue the plunge on (-1 to end the dive).
  int processNode(int node_index, MipResult& res, bool& root_unbounded) {
    // The root relaxation dominates wall clock at paper scale; give it its
    // own named span so the timeline shows it without per-node spans.
    telemetry::Span root_span;
    if (node_index == 0 && opt_.telemetry != nullptr)
      root_span = telemetry::Span(opt_.telemetry, "lp", "root_lp");
    std::vector<double> lb, ub;
    materializeBounds(node_index, lb, ub);

    // Reoptimize from the parent's optimal basis (sparse engine; the basis
    // is usually a handful of pivots from the child optimum). Take a local
    // copy: nodes_ may reallocate when children are pushed below.
    std::shared_ptr<const lp::sparse::Basis> start_basis =
        std::move(nodes_[static_cast<std::size_t>(node_index)].start_basis);

    // Dual-first warm reoptimization through the persistent per-tree
    // reoptimizer; the primal engine is the fallback for cold nodes and for
    // warm bases the dual engine declines (no dual-feasible start).
    lp::LpResult rel;
    bool solved = false;
    if (reopt_ && opt_.lp_warm_start && start_basis) {
      // The node deadline: per-LP limit capped by the tree's remaining
      // time, merged exactly as cappedLpOptions does for the primal path.
      const double limit =
          cappedLpOptions(opt_, clampedRemaining(*deadline_)).core.time_limit_seconds;
      lp::LpResult declined;
      if (std::optional<lp::LpResult> dual =
              reopt_->reoptimize(lb, ub, start_basis, limit, &declined)) {
        rel = *std::move(dual);
        solved = true;
      } else {
        // A dual attempt that gave up still burned pivots and possibly a
        // refactorization; fold its effort into the telemetry so the
        // pivot-class counters reflect actual solver work.
        lp_iterations_ += declined.iterations;
        lp_dual_pivots_ += declined.dual_pivots;
        lp_bound_flips_ += declined.bound_flips;
        lp_ft_updates_ += declined.ft_updates;
        lp_refactorizations_ += declined.refactorizations;
        lp_ftran_sparse_ += declined.ftran_sparse;
        lp_ftran_dense_ += declined.ftran_dense;
        lp_btran_sparse_ += declined.btran_sparse;
        lp_btran_dense_ += declined.btran_dense;
        lp_dse_updates_ += declined.dse_updates;
      }
    }
    if (!solved) {
      lp::LpSolver::Options lopt = cappedLpOptions(opt_, clampedRemaining(*deadline_));
      lopt.dual_reopt = false;  // the dual fast path already had its chance
      rel = lp::LpSolver(lopt).solve(
          model_, lb, ub, opt_.lp_warm_start ? start_basis.get() : nullptr, csc_.get());
    }
    lp_iterations_ += rel.iterations;
    lp_refactorizations_ += rel.refactorizations;
    lp_warm_hits_ += rel.warm_started ? 1 : 0;
    lp_primal_pivots_ += rel.primal_pivots;
    lp_dual_pivots_ += rel.dual_pivots;
    lp_bound_flips_ += rel.bound_flips;
    lp_ft_updates_ += rel.ft_updates;
    lp_dual_reopts_ += rel.dual_reopt ? 1 : 0;
    lp_ftran_sparse_ += rel.ftran_sparse;
    lp_ftran_dense_ += rel.ftran_dense;
    lp_btran_sparse_ += rel.btran_sparse;
    lp_btran_dense_ += rel.btran_dense;
    lp_dse_updates_ += rel.dse_updates;
    ++lp_solves_;
    if (lp_solves_ctr_ != nullptr) {
      lp_solves_ctr_->increment();
      lp_iter_ctr_->add(rel.iterations);
      node_iter_hist_->record(static_cast<double>(rel.iterations));
    }
    // Warm nodes either rode the dual fast path or fell back to the primal
    // engine; sample the distinction into the trace (every LP when the
    // sampling knob is 1). Refactorizations are rare enough to always emit.
    if (telemetry::sampleHit(opt_.telemetry, static_cast<std::uint64_t>(lp_solves_)))
      opt_.telemetry->trace->instant("lp", rel.dual_reopt ? "dual_reopt" : "primal_fallback",
                                     "iterations", static_cast<double>(rel.iterations));
    if (rel.refactorizations > 0)
      telemetry::instant(opt_.telemetry, "lp", "refactorize", "count",
                         static_cast<double>(rel.refactorizations));
    if (rel.status == lp::LpStatus::kInfeasible) return -1;
    if (rel.status == lp::LpStatus::kUnbounded) {
      if (node_index == 0) root_unbounded = true;
      return -1;
    }
    if (rel.status != lp::LpStatus::kOptimal) {
      // Limit hit (or the sparse engine refused to certify its point): the
      // subtree is dropped unexplored, so any final answer is a truncation,
      // not a proof — without this a discarded subtree could hide the true
      // optimum behind a kOptimal/kInfeasible claim.
      dropped_node_ = true;
      return -1;
    }

    const double bound = signedObj(rel.objective);
    if (hasIncumbent() && bound >= incumbent_obj_ - absGapSlack()) {
      if (incumbent_external_) ++res.cutoff_prunes;
      return -1;
    }

    // Pseudo-cost update: this node's LP bound vs the parent bound measures
    // the objective degradation of the branch that created it.
    const Node& node = nodes_[static_cast<std::size_t>(node_index)];
    if (opt_.pseudo_cost_branching && node_index != 0 &&
        node.lp_bound > -lp::kInfinity / 2 && node.branch_frac > 0)
      detail::updatePseudoCost(pseudo_costs_, node.change, node.lp_bound, node.branch_frac,
                               bound);

    const int frac = detail::selectBranchVar(model_, opt_, pseudo_costs_, rel.x);
    if (frac < 0) {
      // Integral LP optimum: new incumbent.
      if (!hasIncumbent() || bound < incumbent_obj_) {
        incumbent_ = rel.x;
        roundIntegers(incumbent_);
        incumbent_obj_ = bound;
        incumbent_external_ = false;
        if (opt_.incumbent_publish) opt_.incumbent_publish(incumbent_);
        telemetry::instant(opt_.telemetry, "incumbent", "publish", "objective",
                           userObj(incumbent_obj_), "engine", "milp");
        if (opt_.log_progress)
          RFP_LOG_INFO("milp: incumbent " << userObj(incumbent_obj_) << " at node " << res.nodes);
      }
      return -1;
    }

    if (opt_.enable_rounding_heuristic) tryRounding(rel.x);

    const double xv = rel.x[static_cast<std::size_t>(frac)];
    const int depth = nodes_[static_cast<std::size_t>(node_index)].depth;

    // Down child (ub := floor) and up child (lb := ceil); both reoptimize
    // from this node's optimal basis (one shared snapshot).
    const double frac_part = xv - std::floor(xv);
    const int down = static_cast<int>(nodes_.size());
    nodes_.push_back(
        Node{node_index, {frac, false, std::floor(xv)}, bound, depth + 1, frac_part, rel.basis});
    const int up = static_cast<int>(nodes_.size());
    nodes_.push_back(
        Node{node_index, {frac, true, std::ceil(xv)}, bound, depth + 1, frac_part, rel.basis});

    // Plunge into the child closer to the LP value; queue the other.
    const bool go_down = (xv - std::floor(xv)) <= 0.5;
    const int dive_child = go_down ? down : up;
    const int queue_child = go_down ? up : down;
    heap_.push(HeapEntry{bound, seq_++, queue_child});
    return dive_child;
  }

  void roundIntegers(std::vector<double>& x) const { detail::roundIntegers(model_, x); }

  /// Rounds the fractional LP point and accepts it if it happens to be
  /// feasible and improving — cheap and surprisingly effective on big-M
  /// floorplanning models where most binaries are already integral.
  void tryRounding(const std::vector<double>& x) {
    std::vector<double> cand = x;
    roundIntegers(cand);
    if (!model_.isFeasible(cand, opt_.int_tol)) return;
    const double obj = signedObj(model_.evalObjective(cand));
    if (!hasIncumbent() || obj < incumbent_obj_ - 1e-12) {
      incumbent_ = std::move(cand);
      incumbent_obj_ = obj;
      incumbent_external_ = false;
      if (opt_.incumbent_publish) opt_.incumbent_publish(incumbent_);
      telemetry::instant(opt_.telemetry, "incumbent", "publish", "objective", userObj(obj),
                         "engine", "milp-rounding");
      if (opt_.log_progress) RFP_LOG_INFO("milp: rounding incumbent " << userObj(obj));
    }
  }

  const lp::Model& model_;
  MilpSolver::Options opt_;
  lp::LpSolver lp_solver_;
  bool minimize_ = true;
  std::vector<PseudoCost> pseudo_costs_;

  std::vector<double> base_lb_, base_ub_;
  std::shared_ptr<const lp::sparse::Basis> root_basis_;  ///< see TreeRoot::basis
  std::vector<Node> nodes_;
  std::priority_queue<HeapEntry> heap_;
  long seq_ = 0;
  long lp_iterations_ = 0;
  long lp_solves_ = 0;
  long lp_warm_hits_ = 0;
  long lp_refactorizations_ = 0;
  long lp_primal_pivots_ = 0;
  long lp_dual_pivots_ = 0;
  long lp_bound_flips_ = 0;
  long lp_ft_updates_ = 0;
  long lp_dual_reopts_ = 0;
  long lp_ftran_sparse_ = 0;
  long lp_ftran_dense_ = 0;
  long lp_btran_sparse_ = 0;
  long lp_btran_dense_ = 0;
  long lp_dse_updates_ = 0;
  /// Structural CSC matrix shared by every node solve of this tree (sparse
  /// engine only; null on the dense path).
  std::shared_ptr<const lp::sparse::CscMatrix> csc_;
  /// Persistent dual-simplex state shared across this tree's node solves.
  std::optional<lp::sparse::DualReoptimizer> reopt_;
  bool dropped_node_ = false;  ///< a node LP hit a limit; results are truncations
  // Live registry handles (null without a telemetry context).
  telemetry::Counter* nodes_ctr_ = nullptr;
  telemetry::Counter* lp_solves_ctr_ = nullptr;
  telemetry::Counter* lp_iter_ctr_ = nullptr;
  telemetry::Histogram* node_iter_hist_ = nullptr;

  std::vector<double> incumbent_;
  double incumbent_obj_ = lp::kInfinity;
  bool incumbent_external_ = false;  ///< current incumbent came from the channel
  const Deadline* deadline_ = nullptr;  ///< run()'s deadline, for node LP caps
};

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
    res.lp_iterations = rel.iterations;
    res.lp_engine = rel.engine;
    res.lp_solves = 1;
    res.lp_refactorizations = rel.refactorizations;
    res.lp_primal_pivots = rel.primal_pivots;
    res.lp_dual_pivots = rel.dual_pivots;
    res.lp_bound_flips = rel.bound_flips;
    res.lp_ft_updates = rel.ft_updates;
    res.lp_ftran_sparse = rel.ftran_sparse;
    res.lp_ftran_dense = rel.ftran_dense;
    res.lp_btran_sparse = rel.btran_sparse;
    res.lp_btran_dense = rel.btran_dense;
    res.lp_dse_updates = rel.dse_updates;
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
  long cut_solves = 0, cut_iters = 0, cut_refacs = 0;
  long cut_primal = 0, cut_flips = 0, cut_fts = 0;
  long cut_ftran_sp = 0, cut_ftran_dn = 0, cut_btran_sp = 0, cut_btran_dn = 0;
  if (options_.enable_cover_cuts) {
    telemetry::Span cuts_span(options_.telemetry, "milp", "cover_cuts");
    for (int round = 0; round < options_.cut_rounds; ++round) {
      if (cut_deadline.expired() ||
          (options_.stop && options_.stop->load(std::memory_order_relaxed)))
        break;
      const lp::LpSolver lp_solver(cappedLpOptions(options_, clampedRemaining(cut_deadline)));
      // One CSC build per model version: the tree reuses it when the last
      // round adds no cut.
      if (!root.csc && lp_solver.resolveEngine(*root.model) == lp::LpEngine::kSparse)
        root.csc = std::make_shared<const lp::sparse::CscMatrix>(
            lp::sparse::CscMatrix::fromModel(*root.model));
      const lp::LpResult rel =
          lp_solver.solve(*root.model, root.lb, root.ub, nullptr, root.csc.get());
      ++cut_solves;
      cut_iters += rel.iterations;
      cut_refacs += rel.refactorizations;
      cut_primal += rel.primal_pivots;
      cut_flips += rel.bound_flips;
      cut_fts += rel.ft_updates;
      cut_ftran_sp += rel.ftran_sparse;
      cut_ftran_dn += rel.ftran_dense;
      cut_btran_sp += rel.btran_sparse;
      cut_btran_dn += rel.btran_dense;
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
  // threads > 1 dispatches to the work-stealing parallel engine
  // (bb_parallel.cpp); the sequential engine stays the single-thread path so
  // existing single-threaded behavior is bit-for-bit unchanged.
  MipResult res =
      search_opt.threads > 1
          ? detail::runParallelSearch(std::move(root), search_opt, std::move(warm_start))
          : Search(std::move(root), search_opt).run(std::move(warm_start));
  res.seconds = root_watch.seconds();  // include presolve + cut time
  // Cut-separation LPs are real (cold) LP work: report them, or the
  // telemetry under-counts solves and inflates the warm-start hit rate.
  res.lp_solves += cut_solves;
  res.lp_iterations += cut_iters;
  res.lp_refactorizations += cut_refacs;
  res.lp_primal_pivots += cut_primal;
  res.lp_bound_flips += cut_flips;
  res.lp_ft_updates += cut_fts;
  res.lp_ftran_sparse += cut_ftran_sp;
  res.lp_ftran_dense += cut_ftran_dn;
  res.lp_btran_sparse += cut_btran_sp;
  res.lp_btran_dense += cut_btran_dn;
  return res;
}

}  // namespace rfp::milp
