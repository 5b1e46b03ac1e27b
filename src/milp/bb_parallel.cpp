// Work-stealing branch & bound: the one tree engine behind
// MilpSolver::solve, at every Options::threads value (W = max(1, threads)
// workers; worker 0 runs on the calling thread).
//
// Architecture (SNIPPETS.md Snippet 2 is the blueprint, adapted to this
// repo's warm-start substrate):
//  * scheduling is support/steal_pool.hpp: every worker expands from the
//    back of its own deque — LIFO pops give a depth-first plunge, so each
//    worker dives a subtree with hot parent bases — and a dry worker steals
//    the oldest half of a victim's deque (the shallowest nodes, which root
//    the largest unexplored subtrees); an outstanding-node count decides
//    termination;
//  * nodes carry their bound-change chain as an immutable shared_ptr spine
//    (a node arena would need a global lock; the chain is lock-free to read
//    and O(1) per node) plus the exported parent Basis, so a thief
//    warm-starts its first stolen node through adopt-and-refactorize
//    instead of cold-solving;
//  * every worker owns a private DualReoptimizer — its live factors,
//    reduced costs and give-up breaker are single-owner mutable state (see
//    dual_simplex.hpp), which also confines a hyper-degenerate subtree's
//    breaker trips to the worker diving it;
//  * the incumbent is the one shared cutoff: improvements publish an atomic
//    objective that every worker prunes against at node boundaries
//    (externally, SharedIncumbent plugs in through the poll/publish
//    callbacks — both serialized here because the fp-layer wrappers carry
//    unsynchronized mutable captures).
//
// Deterministic replay (Options::deterministic): the same logical workers
// run lock-step on one OS thread in a fixed round-robin schedule with a
// fixed steal-victim order. Node expansion order and the steal schedule are
// then functions of the instance alone; both feed MipResult::replay_hash,
// which tests compare across runs.
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "milp/bb_detail.hpp"
#include "support/log.hpp"
#include "support/steal_pool.hpp"
#include "support/sync.hpp"
#include "support/telemetry/trace.hpp"
#include "support/timer.hpp"

namespace rfp::milp::detail {
namespace {

/// One link of a node's immutable bound-change chain. Nodes share their
/// ancestors' links across workers; links free themselves when the last
/// open descendant is pruned or expanded.
struct PathNode {
  std::shared_ptr<const PathNode> parent;
  BoundChange change;
};

/// An open node: the bound chain that defines it, the dual bound and branch
/// metadata of the parent LP, and the parent's exported optimal basis.
struct PNode {
  std::shared_ptr<const PathNode> path;  ///< null: root
  double lp_bound = -lp::kInfinity;
  int depth = 0;
  double branch_frac = 0.0;
  std::shared_ptr<const lp::sparse::Basis> start_basis;
};

/// FNV-1a accumulator for the deterministic replay digest.
struct ReplayHash {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void mixDouble(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
};

using NodePool = sync::StealPool<PNode>;

class PWorker;

/// State shared by all workers of one parallel tree.
struct SharedTree {
  const lp::Model& model;
  const MilpSolver::Options& opt;
  bool minimize = true;
  std::vector<double> base_lb, base_ub;
  std::shared_ptr<const lp::sparse::CscMatrix> csc;  ///< null when started cancelled
  Deadline deadline;

  /// Open nodes: queued plus being expanded. Exhausted = tree done.
  NodePool pool;
  std::atomic<long> total_nodes{0};
  /// Abnormal-stop latch: deadline, node limit, external stop, unbounded
  /// root. Workers observe it at node boundaries and drain out.
  std::atomic<bool> halt{false};
  std::atomic<bool> truncated{false};
  std::atomic<bool> dropped{false};  ///< a node LP hit a limit mid-solve
  std::atomic<bool> root_unbounded{false};

  // The incumbent. `cutoff`/`has_incumbent` are the hot read path (every
  // node prunes against them); the vectors change under `inc_mu`.
  sync::Mutex inc_mu;
  std::vector<double> incumbent RFP_GUARDED_BY(inc_mu);
  double incumbent_obj RFP_GUARDED_BY(inc_mu) = lp::kInfinity;
  std::atomic<double> cutoff{lp::kInfinity};
  std::atomic<bool> has_incumbent{false};
  std::atomic<bool> incumbent_external{false};

  /// Serializes the incumbent_poll/incumbent_publish callbacks: the fp
  /// layer's wrappers carry unsynchronized mutable state (version cursors,
  /// telemetry counters), so concurrent invocation would race. Ordering:
  /// offerIncumbent releases inc_mu before taking callback_mu, so inc_mu is
  /// never held under it (callback_mu forwards into SharedIncumbent, which
  /// sits below in the repo-wide hierarchy — see CONTRIBUTING.md).
  sync::Mutex callback_mu;
  std::atomic<long> external_adoptions{0};
  std::atomic<long> cutoff_prunes{0};

  // Deterministic mode runs single-threaded, so the digest needs no lock.
  bool deterministic = false;
  ReplayHash replay;

  SharedTree(const lp::Model& m, const MilpSolver::Options& o, int workers)
      : model(m), opt(o), deadline(o.time_limit_seconds), pool(workers) {}

  [[nodiscard]] double signedObj(double user) const { return minimize ? user : -user; }
  [[nodiscard]] double userObj(double internal) const { return minimize ? internal : -internal; }
  [[nodiscard]] bool externallyStopped() const {
    return opt.stop && opt.stop->load(std::memory_order_relaxed);
  }
  [[nodiscard]] double absGapSlack() const {
    if (!has_incumbent.load(std::memory_order_acquire)) return 0.0;
    return opt.gap_tol * std::max(1.0, std::abs(cutoff.load(std::memory_order_relaxed)));
  }
  /// Cutoff test against the shared incumbent (counts external-cutoff
  /// prunes).
  [[nodiscard]] bool prunedByCutoff(double bound) {
    if (!has_incumbent.load(std::memory_order_acquire)) return false;
    if (bound < cutoff.load(std::memory_order_relaxed) - absGapSlack()) return false;
    if (incumbent_external.load(std::memory_order_relaxed))
      cutoff_prunes.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Installs `x` as the incumbent if it improves. Self-found improvements
  /// are forwarded to incumbent_publish (outside inc_mu — the callback can
  /// be slow, and nesting inc_mu under callback_mu elsewhere would
  /// deadlock).
  bool offerIncumbent(std::vector<double> x, double obj, bool external) {
    sync::UniqueLock lock(inc_mu);
    if (has_incumbent.load(std::memory_order_relaxed) && obj >= incumbent_obj - 1e-12)
      return false;
    incumbent = std::move(x);
    incumbent_obj = obj;
    incumbent_external.store(external, std::memory_order_relaxed);
    cutoff.store(obj, std::memory_order_relaxed);
    has_incumbent.store(true, std::memory_order_release);
    std::vector<double> snapshot;
    if (!external && opt.incumbent_publish) snapshot = incumbent;
    lock.unlock();
    if (!snapshot.empty()) {
      const sync::MutexLock cb(callback_mu);
      opt.incumbent_publish(snapshot);
    }
    telemetry::instant(opt.telemetry, "incumbent", external ? "adopt" : "publish",
                       "objective", userObj(obj), "engine", "milp");
    return true;
  }

  /// Polls the external incumbent channel and adopts its point as the
  /// cutoff when it is integer-feasible for this (possibly cut-augmented)
  /// model and beats the incumbent. Cover cuts preserve every
  /// integer-feasible point, so a genuinely feasible external plan passes;
  /// HO's sequence-pair rows legitimately reject plans outside the
  /// restricted space. try_lock: if a peer is already polling, this worker
  /// skips — the channel is shared, one reader per version suffices.
  void pollExternal() {
    if (!opt.incumbent_poll) return;
    if (!callback_mu.try_lock()) return;
    std::optional<std::vector<double>> x;
    {
      const sync::AdoptLock cb(callback_mu, std::adopt_lock);
      x = opt.incumbent_poll();
    }
    if (!x || !model.isFeasible(*x, opt.int_tol)) return;
    const double obj = signedObj(model.evalObjective(*x));
    roundIntegers(model, *x);
    if (offerIncumbent(std::move(*x), obj, true)) {
      external_adoptions.fetch_add(1, std::memory_order_relaxed);
      if (opt.log_progress)
        RFP_LOG_INFO("milp: adopted external incumbent " << userObj(obj));
    }
  }

  /// True when a global stop condition holds; latches halt+truncated for
  /// the abnormal ones so every worker drains out promptly.
  bool checkGlobalStop() {
    if (halt.load(std::memory_order_relaxed)) return true;
    if (deadline.expired() || externallyStopped() ||
        (opt.node_limit > 0 && total_nodes.load(std::memory_order_relaxed) >= opt.node_limit)) {
      truncated.store(true, std::memory_order_relaxed);
      halt.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }
};

class PWorker {
 public:
  PWorker(int id, SharedTree& shared) : id_(id), shared_(shared) {
    stats_.id = id;
    pseudo_costs_.assign(static_cast<std::size_t>(shared.model.numVars()), PseudoCost{});
    if (shared.csc && shared.opt.lp_warm_start && shared.opt.lp.dual_reopt) {
      lp::sparse::DualSimplexSolver::Options dopt;
      dopt.core = shared.opt.lp.core;
      if (!dopt.core.stop) dopt.core.stop = shared.opt.stop;
      if (!dopt.core.telemetry) dopt.core.telemetry = shared.opt.telemetry;
      dopt.refactor_interval = shared.opt.lp.refactor_interval;
      dopt.lu = shared.opt.lp.lu;
      reopt_.emplace(shared.model, shared.csc, dopt);
    }
    if (shared.opt.telemetry != nullptr) {
      trace_ = shared.opt.telemetry->trace;
      if (shared.opt.telemetry->metrics != nullptr) {
        telemetry::MetricsRegistry& reg = *shared.opt.telemetry->metrics;
        nodes_ctr_ = &reg.counter("milp.nodes");
        steals_ctr_ = &reg.counter("milp.steals");
        lp_solves_ctr_ = &reg.counter("lp.solves");
        lp_iter_ctr_ = &reg.counter("lp.iterations");
        node_iter_hist_ = &reg.histogram("lp.node_iterations");
      }
    }
  }

  /// The pool's work loop on this worker's thread: expand own nodes, steal
  /// when dry, exit when the tree is exhausted or a stop condition latched.
  void runLoop() {
    if (trace_ != nullptr) {
      char label[32];
      std::snprintf(label, sizeof(label), "milp-worker-%d", id_);
      trace_->nameThread(label);
    }
    shared_.pool.work(id_, *this);
    flushBatch();  // close the trailing batch on the worker's own lane
  }

  [[nodiscard]] MipWorkerStats stats() const {
    MipWorkerStats s = stats_;
    s.lp_solves = lp_work_.lp_solves;
    s.lp_warm_hits = lp_work_.lp_warm_hits;
    return s;
  }
  /// This worker's LP effort (the lp_* counters only).
  [[nodiscard]] const MipResult& lpWork() const { return lp_work_; }

  /// Closes the trailing node-batch span; the driver loop calls it after
  /// workers quiesce (covers the deterministic mode, which has no
  /// per-worker thread exit to hook).
  void finishTrace() { flushBatch(); }

  // ---- StealPool worker hooks ------------------------------------------------
  bool halted() {
    if (shared_.checkGlobalStop()) return true;
    shared_.pollExternal();
    return false;
  }
  void run(PNode&& node) { processNode(std::move(node)); }
  /// The fixed victim order makes the steal schedule a pure function of
  /// tree shape in deterministic mode.
  void stole(int victim, int count) {
    ++stats_.steals;
    stats_.stolen_nodes += count;
    if (trace_ != nullptr) trace_->instant("steal", "steal", "nodes", static_cast<double>(count));
    if (steals_ctr_ != nullptr) steals_ctr_->increment();
    if (shared_.deterministic) {
      shared_.replay.mix(0x57ea1ull);  // steal event marker
      shared_.replay.mix(static_cast<std::uint64_t>(id_));
      shared_.replay.mix(static_cast<std::uint64_t>(victim));
      shared_.replay.mix(static_cast<std::uint64_t>(count));
    }
  }
  void idled(double seconds) { stats_.idle_seconds += seconds; }

 private:
  void materializeBounds(const PNode& node, std::vector<double>& lb,
                         std::vector<double>& ub) const {
    lb = shared_.base_lb;
    ub = shared_.base_ub;
    // Leaf-to-root walk with max/min merging: bounds only tighten along a
    // path, so the merge is exact regardless of application order.
    for (const PathNode* p = node.path.get(); p != nullptr; p = p->parent.get()) {
      const BoundChange& ch = p->change;
      if (ch.is_lower)
        lb[static_cast<std::size_t>(ch.var)] = std::max(lb[static_cast<std::size_t>(ch.var)], ch.value);
      else
        ub[static_cast<std::size_t>(ch.var)] = std::min(ub[static_cast<std::size_t>(ch.var)], ch.value);
    }
  }

  /// Solves one node LP and prunes or branches, pushing the children onto
  /// the own deque.
  void processNode(PNode node) {
    // Pruning before the solve also releases the node's basis snapshot: at
    // paper scale each holds hundreds of KB.
    if (shared_.prunedByCutoff(node.lp_bound)) return;
    ++stats_.nodes;
    shared_.total_nodes.fetch_add(1, std::memory_order_relaxed);
    if (nodes_ctr_ != nullptr) nodes_ctr_->increment();
    // Node-batch spans, opened lazily and closed every 64 nodes (or at
    // drain time through finishTrace): per-node spans would dominate the
    // ring on big trees.
    if (trace_ != nullptr) {
      if (batch_nodes_ == 0) batch_start_us_ = trace_->nowUs();
      if (++batch_nodes_ >= 64) flushBatch();
    }
    if (shared_.deterministic) {
      shared_.replay.mix(static_cast<std::uint64_t>(id_));
      shared_.replay.mix(static_cast<std::uint64_t>(node.depth));
      const BoundChange ch = node.path ? node.path->change : BoundChange{};
      shared_.replay.mix(static_cast<std::uint64_t>(ch.var + 1));
      shared_.replay.mix(ch.is_lower ? 1u : 0u);
      shared_.replay.mixDouble(ch.value);
    }

    std::vector<double> lb, ub;
    materializeBounds(node, lb, ub);

    // Dual-first warm reoptimization through this worker's private
    // reoptimizer; the primal engine is the fallback for cold nodes and
    // warm bases the dual engine declines. A stolen node's basis is not
    // the reoptimizer's live one, so it takes the adopt-and-refactorize
    // path — still far cheaper than a cold phase-1 solve.
    telemetry::Span root_span;
    if (node.depth == 0 && shared_.opt.telemetry != nullptr)
      root_span = telemetry::Span(shared_.opt.telemetry, "lp", "root_lp");
    lp::LpResult rel;
    bool solved = false;
    if (reopt_ && shared_.opt.lp_warm_start && node.start_basis) {
      const double limit =
          cappedLpOptions(shared_.opt, clampedRemaining(shared_.deadline)).core.time_limit_seconds;
      lp::LpResult declined;
      if (std::optional<lp::LpResult> dual =
              reopt_->reoptimize(lb, ub, node.start_basis, limit, &declined)) {
        rel = *std::move(dual);
        solved = true;
      } else {
        // A dual attempt that gave up still burned pivots and possibly a
        // refactorization: count its effort, not a solve.
        addLpWork(lp_work_, declined, /*solved=*/false);
      }
    }
    if (!solved) {
      lp::LpSolver::Options lopt = cappedLpOptions(shared_.opt, clampedRemaining(shared_.deadline));
      lopt.dual_reopt = false;  // the dual fast path already had its chance
      rel = lp::LpSolver(lopt).solve(shared_.model, lb, ub,
                                     shared_.opt.lp_warm_start ? node.start_basis.get() : nullptr,
                                     shared_.csc.get());
    }
    node.start_basis.reset();
    addLpWork(lp_work_, rel);
    if (lp_solves_ctr_ != nullptr) {
      lp_solves_ctr_->increment();
      lp_iter_ctr_->add(rel.iterations);
      node_iter_hist_->record(static_cast<double>(rel.iterations));
    }
    // Warm nodes either rode the dual fast path or fell back to the primal
    // engine; sample the distinction into the trace (every LP when the
    // sampling knob is 1). Refactorizations are rare enough to always emit.
    if (telemetry::sampleHit(shared_.opt.telemetry, static_cast<std::uint64_t>(lp_work_.lp_solves)))
      trace_->instant("lp", rel.dual_reopt ? "dual_reopt" : "primal_fallback", "iterations",
                      static_cast<double>(rel.iterations));
    if (rel.refactorizations > 0)
      telemetry::instant(shared_.opt.telemetry, "lp", "refactorize", "count",
                         static_cast<double>(rel.refactorizations));

    if (rel.status == lp::LpStatus::kInfeasible) return;
    if (rel.status == lp::LpStatus::kUnbounded) {
      if (node.depth == 0) {
        shared_.root_unbounded.store(true, std::memory_order_relaxed);
        shared_.halt.store(true, std::memory_order_relaxed);
      }
      return;
    }
    if (rel.status != lp::LpStatus::kOptimal) {
      // Limit hit (or the sparse engine refused to certify its point): the
      // subtree is dropped unexplored, so the final answer is a truncation,
      // never a proof — without this a discarded subtree could hide the
      // true optimum behind a kOptimal/kInfeasible claim.
      shared_.dropped.store(true, std::memory_order_relaxed);
      return;
    }

    const double bound = shared_.signedObj(rel.objective);
    if (shared_.prunedByCutoff(bound)) return;

    // Pseudo-costs are worker-local: no cross-worker synchronization, at
    // the cost of each worker learning branching scores from its own
    // subtree only (stolen nodes still contribute to the thief's tables).
    if (shared_.opt.pseudo_cost_branching && node.path && node.lp_bound > -lp::kInfinity / 2 &&
        node.branch_frac > 0)
      updatePseudoCost(pseudo_costs_, node.path->change, node.lp_bound, node.branch_frac, bound);

    const int frac = selectBranchVar(shared_.model, shared_.opt, pseudo_costs_, rel.x);
    if (frac < 0) {
      // Integral LP optimum: offer it as the shared incumbent.
      std::vector<double> x = std::move(rel.x);
      roundIntegers(shared_.model, x);
      if (shared_.offerIncumbent(std::move(x), bound, false) && shared_.opt.log_progress)
        RFP_LOG_INFO("milp: incumbent " << shared_.userObj(bound) << " from worker " << id_);
      return;
    }

    if (shared_.opt.enable_rounding_heuristic) tryRounding(rel.x);

    const double xv = rel.x[static_cast<std::size_t>(frac)];
    const double frac_part = xv - std::floor(xv);
    auto down_path = std::make_shared<const PathNode>(
        PathNode{node.path, BoundChange{frac, false, std::floor(xv)}});
    auto up_path = std::make_shared<const PathNode>(
        PathNode{node.path, BoundChange{frac, true, std::ceil(xv)}});
    PNode down{std::move(down_path), bound, node.depth + 1, frac_part, rel.basis};
    PNode up{std::move(up_path), bound, node.depth + 1, frac_part, rel.basis};

    // Push the away-side child first: the next popBack plunges into the
    // child closer to the LP value and leaves the other at a stealable
    // (shallower) position.
    const bool go_down = frac_part <= 0.5;
    shared_.pool.spawn(id_, go_down ? std::move(up) : std::move(down));
    shared_.pool.spawn(id_, go_down ? std::move(down) : std::move(up));
  }

  /// Rounds the fractional LP point and offers it if it is feasible — cheap
  /// and surprisingly effective on big-M floorplanning models, where most
  /// binaries are already integral.
  void tryRounding(const std::vector<double>& x) {
    std::vector<double> cand = x;
    roundIntegers(shared_.model, cand);
    if (!shared_.model.isFeasible(cand, shared_.opt.int_tol)) return;
    const double obj = shared_.signedObj(shared_.model.evalObjective(cand));
    if (shared_.offerIncumbent(std::move(cand), obj, false) && shared_.opt.log_progress)
      RFP_LOG_INFO("milp: rounding incumbent " << shared_.userObj(obj));
  }

  void flushBatch() {
    if (trace_ == nullptr || batch_nodes_ == 0) return;
    telemetry::TraceEvent ev;
    ev.cat = "milp";
    ev.name = "node_batch";
    ev.ph = 'X';
    ev.ts_us = batch_start_us_;
    ev.dur_us = trace_->nowUs() - batch_start_us_;
    ev.akey[0] = "nodes";
    ev.aval[0] = static_cast<double>(batch_nodes_);
    ev.nargs = 1;
    trace_->complete(ev);
    batch_nodes_ = 0;
  }

  const int id_;
  SharedTree& shared_;
  MipWorkerStats stats_;
  MipResult lp_work_;  ///< lp_* counters of this worker's solves
  std::vector<PseudoCost> pseudo_costs_;
  /// Private warm-reopt state (live factors + give-up breaker); see the
  /// concurrency contract in dual_simplex.hpp.
  std::optional<lp::sparse::DualReoptimizer> reopt_;
  // Observability (null without a telemetry context).
  telemetry::TraceRecorder* trace_ = nullptr;
  telemetry::Counter* nodes_ctr_ = nullptr;
  telemetry::Counter* steals_ctr_ = nullptr;
  telemetry::Counter* lp_solves_ctr_ = nullptr;
  telemetry::Counter* lp_iter_ctr_ = nullptr;
  telemetry::Histogram* node_iter_hist_ = nullptr;
  int batch_nodes_ = 0;
  double batch_start_us_ = 0.0;
};

}  // namespace

MipResult runTreeSearch(TreeRoot root, const MilpSolver::Options& opt,
                        std::optional<std::vector<double>> warm_start) {
  const Stopwatch watch;
  const int W = std::max(1, opt.threads);
  const lp::Model& model = *root.model;
  SharedTree shared(model, opt, W);
  shared.minimize = model.objSense() == lp::ObjSense::kMinimize;
  shared.deterministic = opt.deterministic;
  shared.base_lb = std::move(root.lb);
  shared.base_ub = std::move(root.ub);
  // One CSC build per tree: every node solve differs only in bounds. The
  // root LPs' matrix is reused when they ran on this same model; a tree
  // that starts cancelled solves no node and builds nothing.
  if (!shared.externallyStopped())
    shared.csc = root.csc ? std::move(root.csc)
                          : std::make_shared<const lp::sparse::CscMatrix>(
                                lp::sparse::CscMatrix::fromModel(model));

  MipResult res;

  if (warm_start && model.isFeasible(*warm_start, opt.int_tol)) {
    std::vector<double> x = *std::move(warm_start);
    const double obj = shared.signedObj(model.evalObjective(x));
    roundIntegers(model, x);
    // Seeded before any worker starts; external=true suppresses publishing
    // the caller's own point back at it.
    shared.offerIncumbent(std::move(x), obj, true);
    shared.incumbent_external.store(false, std::memory_order_relaxed);
  }

  std::vector<std::unique_ptr<PWorker>> workers;
  workers.reserve(static_cast<std::size_t>(W));
  for (int i = 0; i < W; ++i) workers.push_back(std::make_unique<PWorker>(i, shared));

  PNode root_node;
  root_node.start_basis = std::move(root.basis);
  shared.pool.spawn(0, std::move(root_node));

  if (opt.deterministic) {
    // Lock-step round-robin: one node quantum per worker per round, on this
    // thread. No OS scheduling enters the node order, so two runs expand
    // identical trees and record identical steal schedules.
    while (!shared.pool.exhausted()) {
      if (shared.checkGlobalStop()) break;
      shared.pollExternal();
      for (int i = 0; i < W && !shared.halt.load(std::memory_order_relaxed); ++i)
        shared.pool.step(i, *workers[static_cast<std::size_t>(i)]);
    }
    res.replay_hash = shared.replay.h;
  } else {
    shared.pool.run([&workers](int i) { workers[static_cast<std::size_t>(i)]->runLoop(); });
  }

  // ---- final status assembly ----
  // A run that ends with the external stop flag set never claims a proof,
  // even when every node happened to be processed before the flag was
  // observed: the flag means another engine settled the problem, and a
  // cancelled run racing it must not hand arbitration a second "proof"
  // whose final LPs may have been cut short mid-pivot.
  const bool truncated = shared.truncated.load(std::memory_order_relaxed) ||
                         shared.dropped.load(std::memory_order_relaxed) ||
                         shared.externallyStopped();
  res.seconds = watch.seconds();
  res.nodes = shared.total_nodes.load(std::memory_order_relaxed);
  for (const std::unique_ptr<PWorker>& w : workers) {
    w->finishTrace();
    res.workers.push_back(w->stats());
    res.steals += w->stats().steals;
    addLpWork(res, w->lpWork());
  }
  res.external_adoptions = shared.external_adoptions.load(std::memory_order_relaxed);
  res.cutoff_prunes = shared.cutoff_prunes.load(std::memory_order_relaxed);

  if (shared.root_unbounded.load(std::memory_order_relaxed)) {
    res.status = MipStatus::kUnbounded;
    return res;
  }

  // Snapshot the incumbent under its lock. The workers have all been
  // joined, but pollExternal/offerIncumbent wrote these fields from their
  // threads — taking inc_mu here keeps the access pattern uniform (and the
  // annotation checkable) instead of relying on the join's happens-before.
  const bool has_inc = shared.has_incumbent.load(std::memory_order_acquire);
  std::vector<double> inc_x;
  double inc_obj = lp::kInfinity;
  if (has_inc) {
    const sync::MutexLock lock(shared.inc_mu);
    inc_x = shared.incumbent;
    inc_obj = shared.incumbent_obj;
  }
  double bound;
  if (truncated) {
    if (shared.dropped.load(std::memory_order_relaxed)) {
      // A dropped subtree leaves the dual bound unknown entirely.
      bound = -lp::kInfinity;
    } else {
      // Weakest unexplored node across all leftover deques (halted workers
      // leave their unprocessed nodes in place); a fully drained tree that
      // was still cancelled keeps the incumbent objective.
      bound = lp::kInfinity;
      for (int i = 0; i < W; ++i)
        shared.pool.deque(i).forEach(
            [&bound](const PNode& n) { bound = std::min(bound, n.lp_bound); });
      if (bound == lp::kInfinity) bound = has_inc ? inc_obj : -lp::kInfinity;
    }
  } else {
    bound = has_inc ? inc_obj : lp::kInfinity;
  }

  if (has_inc) {
    res.x = std::move(inc_x);
    res.objective = shared.userObj(inc_obj);
    res.best_bound = shared.userObj(bound);
    res.gap = std::abs(inc_obj - bound) / std::max(1.0, std::abs(inc_obj));
    res.status =
        (!truncated || res.gap <= opt.gap_tol) ? MipStatus::kOptimal : MipStatus::kFeasible;
  } else {
    res.status = truncated ? MipStatus::kNoSolution : MipStatus::kInfeasible;
    res.best_bound = shared.userObj(bound);
  }
  return res;
}

}  // namespace rfp::milp::detail
