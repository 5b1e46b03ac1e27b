// Response classifier: decides whether one driver response is correct
// against the committed reference answer for its instance.
#pragma once

#include <cstdint>
#include <string>

#include "driver/driver.hpp"
#include "model/problem.hpp"

namespace perfbench {

/// One row of a workload's reference file (refs/<workload>.tsv), recorded
/// with the one-thread exact search and no deadline.
struct Reference {
  std::uint64_t seed = 0;   ///< generator seed (sdr-portfolio: FC areas per region)
  std::uint64_t hash = 0;   ///< FNV-1a of the canonical problem text
  bool feasible = true;     ///< false: proved infeasible
  long waste = 0;           ///< optimal wasted frames
  double wire_length = 0;   ///< optimal wire length at that waste
  long nodes = 0;           ///< difficulty: search nodes at record time
  double seconds = 0;       ///< difficulty: search wall time at record time
  std::string milp_check;   ///< "agree" or "unproved" (MILP-O cross-check)
};

enum class Verdict {
  kProvedOptimal,     ///< optimality proof whose objective equals the reference
  kProvedInfeasible,  ///< infeasibility proof on a reference-infeasible instance
  kUnprovedPlan,      ///< checker-valid plan without a proof (budget ran out)
  kNoAnswer,          ///< no plan and no proof (budget ran out)
  kThrew,             ///< the request threw
  kPlanRejected,      ///< a returned plan fails model::check
  kCostsMismatch,     ///< reported costs differ from model::evaluate
  kWrongOptimum,      ///< optimality claimed with a non-reference objective
  kWrongInfeasible,   ///< infeasibility claimed on a reference-feasible instance
  kBeatsReference,    ///< valid plan better than the reference (or on a
                      ///< reference-infeasible instance): some proof is wrong
};

[[nodiscard]] const char* toString(Verdict v) noexcept;
[[nodiscard]] bool isFailure(Verdict v) noexcept;
[[nodiscard]] bool isProof(Verdict v) noexcept;

/// True when `costs` reach the reference optimum (equal waste and wire
/// length); false for reference-infeasible instances.
[[nodiscard]] bool matchesReference(const rfp::model::FloorplanCosts& costs,
                                    const Reference& ref) noexcept;

/// Classifies a response for `problem` (the problem the request carried,
/// in its own region order). Exceptions are classified by the caller.
[[nodiscard]] Verdict classify(const rfp::model::FloorplanProblem& problem,
                               const rfp::driver::SolveResponse& response, const Reference& ref);

}  // namespace perfbench
