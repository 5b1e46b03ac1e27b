// End-to-end tests for the O and HO MILP floorplanning flows.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "device/builders.hpp"
#include "fp/milp_floorplanner.hpp"
#include "model/problem.hpp"
#include "search/solver.hpp"
#include "support/timer.hpp"

namespace rfp::fp {
namespace {

model::FloorplanProblem smallProblem(const device::Device& dev) {
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"a", {2, 1, 0}});
  p.addRegion(model::RegionSpec{"b", {2, 0, 0}});
  p.addNet(model::Net{{0, 1}, 1.0, "n"});
  return p;
}

TEST(MilpFloorplanner, OLexicographicMatchesSearch) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCC", 3);
  const model::FloorplanProblem p = smallProblem(dev);

  MilpFloorplannerOptions opt;
  opt.algorithm = Algorithm::kO;
  const FpResult milp_res = MilpFloorplanner(opt).solve(p);
  ASSERT_TRUE(milp_res.hasSolution()) << milp_res.detail;
  EXPECT_EQ(model::check(p, milp_res.plan), "");

  const search::SearchResult sres = search::ColumnarSearchSolver().solve(p);
  ASSERT_EQ(sres.status, search::SearchStatus::kOptimal);
  EXPECT_EQ(milp_res.costs.wasted_frames, sres.costs.wasted_frames);
  EXPECT_NEAR(milp_res.costs.wire_length, sres.costs.wire_length, 1e-6);
}

TEST(MilpFloorplanner, HoProducesValidSolutionQuickly) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"a", {3, 1, 0}});
  p.addRegion(model::RegionSpec{"b", {2, 0, 1}});
  p.addNet(model::Net{{0, 1}, 4.0, "n"});

  MilpFloorplannerOptions opt;
  opt.algorithm = Algorithm::kHO;
  const FpResult res = MilpFloorplanner(opt).solve(p);
  ASSERT_TRUE(res.hasSolution()) << res.detail;
  EXPECT_EQ(model::check(p, res.plan), "");
}

TEST(MilpFloorplanner, HoNeverWorseThanItsHeuristicStart) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCCDCC", 4);
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"a", {3, 1, 0}});
  p.addRegion(model::RegionSpec{"b", {2, 0, 1}});
  const auto heuristic = constructiveFloorplan(p);
  ASSERT_TRUE(heuristic.has_value());
  const long heuristic_waste = model::evaluate(p, *heuristic).wasted_frames;

  MilpFloorplannerOptions opt;
  opt.algorithm = Algorithm::kHO;
  const FpResult res = MilpFloorplanner(opt).solve(p);
  ASSERT_TRUE(res.hasSolution());
  EXPECT_LE(res.costs.wasted_frames, heuristic_waste);
}

TEST(MilpFloorplanner, RelocationConstraintEndToEnd) {
  const device::Device dev = device::columnarFromPattern("t", "CCBCC", 4);
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"a", {2, 0, 0}});
  p.addRelocation(model::RelocationRequest{0, 1, true, 1.0});

  MilpFloorplannerOptions opt;
  opt.algorithm = Algorithm::kO;
  const FpResult res = MilpFloorplanner(opt).solve(p);
  ASSERT_TRUE(res.hasSolution()) << res.detail;
  EXPECT_EQ(res.plan.placedFcCount(), 1);
  EXPECT_EQ(model::check(p, res.plan), "");
}

TEST(MilpFloorplanner, WeightedObjectiveMode) {
  const device::Device dev = device::columnarFromPattern("t", "CCCC", 3);
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"a", {2, 0, 0}});
  p.addRelocation(model::RelocationRequest{0, 1, false, 1.0});
  p.setWeights(model::ObjectiveWeights{1, 0, 1, 1});

  MilpFloorplannerOptions opt;
  opt.algorithm = Algorithm::kO;
  opt.lexicographic = false;
  const FpResult res = MilpFloorplanner(opt).solve(p);
  ASSERT_TRUE(res.hasSolution()) << res.detail;
  EXPECT_EQ(model::check(p, res.plan), "");
  EXPECT_EQ(res.plan.placedFcCount(), 1);  // room exists → placing is cheaper
}

TEST(MilpFloorplanner, InfeasibleProblemReported) {
  const device::Device dev = device::columnarFromPattern("t", "CC", 2);
  model::FloorplanProblem p(&dev);
  p.addRegion(model::RegionSpec{"r", {4, 0, 0}});
  p.addRelocation(model::RelocationRequest{0, 1, true, 1.0});
  MilpFloorplannerOptions opt;
  opt.algorithm = Algorithm::kO;
  const FpResult res = MilpFloorplanner(opt).solve(p);
  EXPECT_FALSE(res.hasSolution());
}

// ---- cancellation and deadlines at paper scale ------------------------------
//
// Every stage of a MILP-O run polls the stop flag and the deadline — the
// formulation build, presolve, each simplex iteration — and no stage in
// between runs long (the sparse LU no longer refactorizes quadratically in
// the structural column lengths). A portfolio's proof therefore cancels a
// MILP member promptly wherever it is, and a time limit holds.

model::FloorplanProblem sdr2Problem(const device::Device& dev) {
  model::FloorplanProblem p = model::makeSdrProblem(dev);
  model::addSdrRelocations(p, 2);
  return p;
}

TEST(MilpFloorplanner, StopFlagEndsAPaperScaleSolveWithinATenthOfASecond) {
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem p = sdr2Problem(dev);
  // Early: heuristic stage or formulation build; late: the root LP.
  for (const double raise_after : {0.05, 0.4}) {
    std::atomic<bool> stop{false};
    MilpFloorplannerOptions opt;
    opt.algorithm = Algorithm::kO;
    opt.lexicographic = p.lexicographic();
    opt.milp.stop = &stop;
    Stopwatch watch;
    double raised_at = 0.0;
    std::thread raiser([&] {
      std::this_thread::sleep_for(std::chrono::duration<double>(raise_after));
      raised_at = watch.seconds();
      stop.store(true);
    });
    const FpResult res = MilpFloorplanner(opt).solve(p);
    const double returned_at = watch.seconds();
    raiser.join();
    EXPECT_LT(returned_at - raised_at, 0.1) << "stop raised at " << raised_at << "s";
    EXPECT_NE(res.status, FpStatus::kOptimal) << res.detail;  // cancelled: no proof
    if (res.hasSolution()) {
      EXPECT_EQ(model::check(p, res.plan), "");
    }
  }
}

TEST(MilpFloorplanner, TimeLimitHoldsAtPaperScale) {
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem p = sdr2Problem(dev);
  MilpFloorplannerOptions opt;
  opt.algorithm = Algorithm::kO;
  opt.lexicographic = p.lexicographic();
  opt.time_limit_seconds = 2.0;
  Stopwatch watch;
  const FpResult res = MilpFloorplanner(opt).solve(p);
  EXPECT_LT(watch.seconds(), 2.1) << res.detail;
  ASSERT_TRUE(res.hasSolution()) << res.detail;  // the constructive warm start
  EXPECT_EQ(model::check(p, res.plan), "");
}

}  // namespace
}  // namespace rfp::fp
