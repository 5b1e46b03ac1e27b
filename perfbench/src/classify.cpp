#include "classify.hpp"

#include <algorithm>
#include <cmath>

#include "model/floorplan.hpp"

namespace perfbench {
namespace {

bool near(double a, double b) {
  return std::fabs(a - b) <= 1e-6 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

bool sameCosts(const rfp::model::FloorplanCosts& a, const rfp::model::FloorplanCosts& b) {
  return a.wasted_frames == b.wasted_frames && near(a.wire_length, b.wire_length) &&
         near(a.perimeter, b.perimeter) && near(a.relocation, b.relocation) &&
         near(a.objective, b.objective);
}

/// Lexicographic comparison (waste, then wire length) with the same
/// tolerance as matchesReference.
bool betterThanReference(const rfp::model::FloorplanCosts& c, const Reference& ref) {
  if (c.wasted_frames != ref.waste) return c.wasted_frames < ref.waste;
  return !near(c.wire_length, ref.wire_length) && c.wire_length < ref.wire_length;
}

}  // namespace

const char* toString(Verdict v) noexcept {
  switch (v) {
    case Verdict::kProvedOptimal: return "proved-optimal";
    case Verdict::kProvedInfeasible: return "proved-infeasible";
    case Verdict::kUnprovedPlan: return "unproved-plan";
    case Verdict::kNoAnswer: return "no-answer";
    case Verdict::kThrew: return "threw";
    case Verdict::kPlanRejected: return "plan-rejected";
    case Verdict::kCostsMismatch: return "costs-mismatch";
    case Verdict::kWrongOptimum: return "wrong-optimum";
    case Verdict::kWrongInfeasible: return "wrong-infeasible";
    case Verdict::kBeatsReference: return "beats-reference";
  }
  return "?";
}

bool isFailure(Verdict v) noexcept {
  return v != Verdict::kProvedOptimal && v != Verdict::kProvedInfeasible &&
         v != Verdict::kUnprovedPlan && v != Verdict::kNoAnswer;
}

bool isProof(Verdict v) noexcept {
  return v == Verdict::kProvedOptimal || v == Verdict::kProvedInfeasible;
}

bool matchesReference(const rfp::model::FloorplanCosts& costs, const Reference& ref) noexcept {
  return ref.feasible && costs.wasted_frames == ref.waste &&
         near(costs.wire_length, ref.wire_length);
}

Verdict classify(const rfp::model::FloorplanProblem& problem,
                 const rfp::driver::SolveResponse& response, const Reference& ref) {
  using rfp::driver::SolveStatus;
  if (response.status == SolveStatus::kInfeasible)
    return ref.feasible ? Verdict::kWrongInfeasible : Verdict::kProvedInfeasible;
  if (!response.hasSolution()) return Verdict::kNoAnswer;

  if (!rfp::model::check(problem, response.plan).empty()) return Verdict::kPlanRejected;
  if (!sameCosts(response.costs, rfp::model::evaluate(problem, response.plan)))
    return Verdict::kCostsMismatch;
  if (!ref.feasible || betterThanReference(response.costs, ref)) return Verdict::kBeatsReference;
  if (response.status == SolveStatus::kOptimal)
    return matchesReference(response.costs, ref) ? Verdict::kProvedOptimal
                                                 : Verdict::kWrongOptimum;
  return Verdict::kUnprovedPlan;
}

}  // namespace perfbench
