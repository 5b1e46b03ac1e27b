// Tests for the branch-and-bound MILP solver, including a brute-force
// cross-check on random binary programs.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "binary_programs.hpp"
#include "lp/lp_solver.hpp"
#include "milp/bb.hpp"
#include "milp/presolve.hpp"
#include "support/rng.hpp"

namespace rfp::milp {
namespace {

using lp::LinExpr;
using lp::Model;
using lp::ObjSense;
using lp::Sense;
using lp::Var;
using testutil::bruteForceBest;
using testutil::randomBinaryProgram;

TEST(Milp, PureLpPassThrough) {
  Model m;
  const Var x = m.addContinuous(0, 4, "x");
  m.setObjective(LinExpr(x), ObjSense::kMaximize);
  const MipResult r = MilpSolver().solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 4.0, 1e-7);
  EXPECT_NEAR(r.gap, 0.0, 1e-9);
}

TEST(Milp, KnapsackOptimal) {
  // max 60a+100b+120c st 10a+20b+30c <= 50 → b+c = 220.
  Model m;
  const Var a = m.addBinary("a"), b = m.addBinary("b"), c = m.addBinary("c");
  m.addConstr(10.0 * a + 20.0 * b + 30.0 * c, Sense::kLessEqual, 50);
  m.setObjective(60.0 * a + 100.0 * b + 120.0 * c, ObjSense::kMaximize);
  const MipResult r = MilpSolver().solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 220.0, 1e-6);
  EXPECT_NEAR(r.x[0], 0.0, 1e-6);
}

TEST(Milp, IntegerRounding) {
  // min x st 3x >= 10, x integer → x=4.
  Model m;
  const Var x = m.addInteger(0, 100, "x");
  m.addConstr(3.0 * x, Sense::kGreaterEqual, 10);
  m.setObjective(LinExpr(x), ObjSense::kMinimize);
  const MipResult r = MilpSolver().solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 4.0, 1e-6);
}

TEST(Milp, InfeasibleBinaryProgram) {
  Model m;
  const Var a = m.addBinary("a"), b = m.addBinary("b");
  m.addConstr(LinExpr(a) + b, Sense::kGreaterEqual, 3);
  const MipResult r = MilpSolver().solve(m);
  EXPECT_EQ(r.status, MipStatus::kInfeasible);
}

TEST(Milp, MixedIntegerContinuous) {
  // max 2x + y, x binary, y cont <= 3.7, x + y <= 4 → x=1, y=3 → 5... y<=3.7
  // and x+y<=4 → y<=3 when x=1: obj 5. vs x=0,y=3.7: 3.7. Optimal 5.
  Model m;
  const Var x = m.addBinary("x");
  const Var y = m.addContinuous(0, 3.7, "y");
  m.addConstr(LinExpr(x) + y, Sense::kLessEqual, 4);
  m.setObjective(2.0 * x + y, ObjSense::kMaximize);
  const MipResult r = MilpSolver().solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-6);
}

TEST(Milp, WarmStartAcceptedAsIncumbent) {
  Model m;
  const Var a = m.addBinary("a"), b = m.addBinary("b");
  m.addConstr(LinExpr(a) + b, Sense::kLessEqual, 1);
  m.setObjective(LinExpr(a) + 2.0 * b, ObjSense::kMaximize);
  // Warm start with the suboptimal a=1.
  const MipResult r = MilpSolver().solve(m, std::vector<double>{1.0, 0.0});
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-6);  // must still find b=1
}

TEST(Milp, NodeLimitReportsTruncation) {
  // A 14-item knapsack with a 1-node limit cannot be proven optimal.
  Model m;
  LinExpr weight, value;
  Rng rng(5);
  for (int i = 0; i < 14; ++i) {
    const Var v = m.addBinary("v");
    weight += (1.0 + static_cast<double>(rng.nextBelow(9))) * v;
    value += (1.0 + static_cast<double>(rng.nextBelow(17))) * v;
  }
  m.addConstr(weight, Sense::kLessEqual, 20);
  m.setObjective(value, ObjSense::kMaximize);
  MilpSolver::Options opt;
  opt.node_limit = 1;
  opt.enable_rounding_heuristic = false;
  const MipResult r = MilpSolver(opt).solve(m);
  EXPECT_TRUE(r.status == MipStatus::kFeasible || r.status == MipStatus::kNoSolution ||
              r.status == MipStatus::kOptimal);
  // One worker checks the limit before every node.
  EXPECT_LE(r.nodes, opt.node_limit);
}

TEST(Milp, SolveLeavesTheCallersModelUnchanged) {
  // Presolve tightens bound vectors and cover cuts go into a working copy,
  // so the caller's model keeps its bounds and rows whether or not the root
  // separation finds a cut. z's bound [0, 10] presolves to [0, 3] via 2z <= 7.
  for (const bool knapsack : {true, false}) {
    Model m;
    const Var a = m.addBinary("a"), b = m.addBinary("b"), c = m.addBinary("c");
    const Var z = m.addInteger(0, 10, "z");
    m.addConstr(2.0 * z, Sense::kLessEqual, 7);
    if (knapsack) {
      // Any two items overflow: the LP point (1, 2/3, 0) violates a + b <= 1.
      m.addConstr(3.0 * a + 3.0 * b + 3.0 * c, Sense::kLessEqual, 5);
    } else {
      // Mixed signs: not a knapsack row, nothing to separate.
      m.addConstr(3.0 * a - 3.0 * b + 3.0 * c, Sense::kLessEqual, 5);
    }
    m.setObjective(LinExpr(a) + b + c + z, ObjSense::kMaximize);
    const lp::LpResult root = lp::LpSolver().solve(m);
    ASSERT_EQ(root.status, lp::LpStatus::kOptimal);
    ASSERT_EQ(separateCoverCuts(m, root.x).empty(), !knapsack);

    const std::string before = m.toString();
    const MipResult r = MilpSolver().solve(m);
    ASSERT_EQ(r.status, MipStatus::kOptimal) << "knapsack=" << knapsack;
    EXPECT_NEAR(r.objective, knapsack ? 4.0 : 6.0, 1e-6);
    EXPECT_EQ(m.numConstrs(), 2);
    EXPECT_EQ(m.var(z.index).ub, 10.0);
    EXPECT_EQ(m.toString(), before) << "knapsack=" << knapsack;
  }
}

TEST(Milp, EqualityConstrainedAssignment) {
  // 2x2 assignment: costs [[1, 10], [10, 1]] → diagonal, cost 2.
  Model m;
  std::vector<std::vector<Var>> x(2, std::vector<Var>(2));
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 2; ++j) x[i][j] = m.addBinary("x");
  for (int i = 0; i < 2; ++i) {
    m.addConstr(LinExpr(x[i][0]) + x[i][1], Sense::kEqual, 1);
    m.addConstr(LinExpr(x[0][i]) + x[1][i], Sense::kEqual, 1);
  }
  m.setObjective(1.0 * x[0][0] + 10.0 * x[0][1] + 10.0 * x[1][0] + 1.0 * x[1][1],
                 ObjSense::kMinimize);
  const MipResult r = MilpSolver().solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-6);
}

// ---- brute-force cross-check property -------------------------------------

TEST(MilpProperty, MatchesBruteForceOnRandomBinaryPrograms) {
  // Thread count may change which optimal point is returned, never the
  // status or the objective: the brute-force oracle decides both at every
  // worker count.
  Rng rng(99);
  int optimal = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const Model m = randomBinaryProgram(rng, 3, 8, 1);  // up to 10 binaries
    const std::optional<double> expected = bruteForceBest(m);
    optimal += expected ? 1 : 0;
    for (const int threads : {1, 2, 8}) {
      MilpSolver::Options opt;
      opt.threads = threads;
      const MipResult r = MilpSolver(opt).solve(m);
      if (!expected) {
        EXPECT_EQ(r.status, MipStatus::kInfeasible) << "trial " << trial << " threads " << threads;
      } else {
        ASSERT_EQ(r.status, MipStatus::kOptimal) << "trial " << trial << " threads " << threads;
        EXPECT_NEAR(r.objective, *expected, 1e-6) << "trial " << trial << " threads " << threads;
        EXPECT_TRUE(m.isFeasible(r.x, 1e-6)) << "trial " << trial << " threads " << threads;
      }
    }
  }
  // Both verdicts must be exercised, and enough optima to mean something.
  EXPECT_GE(optimal, 25);
  EXPECT_LT(optimal, 80);
}

// ---- work-stealing workers --------------------------------------------------

TEST(MilpParallel, WorkerTelemetryAggregates) {
  Rng rng(7);
  const Model m = randomBinaryProgram(rng, 6, 9, 2);
  MilpSolver::Options opt;
  opt.threads = 4;
  const MipResult r = MilpSolver(opt).solve(m);
  ASSERT_EQ(r.workers.size(), 4u);
  long nodes = 0, steals = 0;
  for (const MipWorkerStats& w : r.workers) {
    nodes += w.nodes;
    steals += w.steals;
  }
  EXPECT_EQ(nodes, r.nodes);
  EXPECT_EQ(steals, r.steals);
}

TEST(MilpParallel, DeterministicReplayIsReproducible) {
  // Two deterministic runs must expand the identical tree: same node count,
  // same steal schedule, same replay digest, same answer.
  Rng rng(42);
  for (int trial = 0; trial < 5; ++trial) {
    const Model m = randomBinaryProgram(rng, 6, 9, 2);
    MilpSolver::Options opt;
    opt.threads = 4;
    opt.deterministic = true;
    const MipResult a = MilpSolver(opt).solve(m);
    const MipResult b = MilpSolver(opt).solve(m);
    EXPECT_EQ(a.replay_hash, b.replay_hash) << "trial " << trial;
    EXPECT_NE(a.replay_hash, 0u) << "trial " << trial;
    EXPECT_EQ(a.nodes, b.nodes) << "trial " << trial;
    EXPECT_EQ(a.steals, b.steals) << "trial " << trial;
    EXPECT_EQ(a.status, b.status) << "trial " << trial;
    if (a.hasSolution()) {
      EXPECT_NEAR(a.objective, b.objective, 1e-12) << "trial " << trial;
      EXPECT_EQ(a.x, b.x) << "trial " << trial;
    }
  }
}

TEST(MilpParallel, WarmStartSeedsSharedIncumbent) {
  Model m;
  const Var a = m.addBinary("a"), b = m.addBinary("b");
  m.addConstr(LinExpr(a) + b, Sense::kLessEqual, 1);
  m.setObjective(LinExpr(a) + 2.0 * b, ObjSense::kMaximize);
  MilpSolver::Options opt;
  opt.threads = 2;
  const MipResult r = MilpSolver(opt).solve(m, std::vector<double>{1.0, 0.0});
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-6);
}

}  // namespace
}  // namespace rfp::milp
