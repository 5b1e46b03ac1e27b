#include "milp/presolve.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

namespace rfp::milp {

namespace {

constexpr double kInf = lp::kInfinity;
constexpr double kFeasTol = 1e-7;

/// Rounds an integer variable's bounds inward.
void roundIntegerBounds(const lp::Model& model, int j, std::vector<double>& lb,
                        std::vector<double>& ub, int& changes) {
  if (model.var(j).type == lp::VarType::kContinuous) return;
  const double rl = std::ceil(lb[static_cast<std::size_t>(j)] - kFeasTol);
  const double ru = std::floor(ub[static_cast<std::size_t>(j)] + kFeasTol);
  if (rl > lb[static_cast<std::size_t>(j)] + kFeasTol) {
    lb[static_cast<std::size_t>(j)] = rl;
    ++changes;
  }
  if (ru < ub[static_cast<std::size_t>(j)] - kFeasTol) {
    ub[static_cast<std::size_t>(j)] = ru;
    ++changes;
  }
}

/// One direction of activity-based tightening over `Σ sign·terms ≤ rhs`
/// (sign -1 reads a ≥ row as ≤). Returns false on proven infeasibility.
bool tightenLeRow(const lp::Model& model, lp::RowTerms terms, double sign, double rhs,
                  std::vector<double>& lb, std::vector<double>& ub, int& changes,
                  std::string& detail) {
  // Minimal activity and whether it is finite.
  double min_act = 0.0;
  int infinite_terms = 0;
  int infinite_index = -1;
  for (const auto& [j, coef] : terms) {
    const double a = sign * coef;
    const double contrib =
        a > 0 ? a * lb[static_cast<std::size_t>(j)] : a * ub[static_cast<std::size_t>(j)];
    const double bound_used =
        a > 0 ? lb[static_cast<std::size_t>(j)] : ub[static_cast<std::size_t>(j)];
    if (std::abs(bound_used) >= kInf / 2) {
      ++infinite_terms;
      infinite_index = j;
    } else {
      min_act += contrib;
    }
  }

  if (infinite_terms == 0 && min_act > rhs + 1e-6) {
    std::ostringstream os;
    os << "row minimal activity " << min_act << " exceeds rhs " << rhs;
    detail = os.str();
    return false;
  }
  if (infinite_terms > 1) return true;  // nothing can be implied

  for (const auto& [j, coef] : terms) {
    const double a = sign * coef;
    const double bound_used =
        a > 0 ? lb[static_cast<std::size_t>(j)] : ub[static_cast<std::size_t>(j)];
    const bool this_infinite = std::abs(bound_used) >= kInf / 2;
    if (infinite_terms == 1 && !this_infinite) continue;  // only the ∞ term tightens
    if (infinite_terms == 1 && j != infinite_index) continue;
    // Residual activity excluding j's own contribution.
    const double own = this_infinite ? 0.0 : (a > 0 ? a * lb[static_cast<std::size_t>(j)]
                                                    : a * ub[static_cast<std::size_t>(j)]);
    const double residual = min_act - own;
    const double slack = rhs - residual;
    if (a > 0) {
      const double new_ub = slack / a;
      if (new_ub < ub[static_cast<std::size_t>(j)] - 1e-9) {
        ub[static_cast<std::size_t>(j)] = new_ub;
        ++changes;
      }
    } else {
      const double new_lb = slack / a;  // a < 0 flips the inequality
      if (new_lb > lb[static_cast<std::size_t>(j)] + 1e-9) {
        lb[static_cast<std::size_t>(j)] = new_lb;
        ++changes;
      }
    }
    roundIntegerBounds(model, j, lb, ub, changes);
    if (lb[static_cast<std::size_t>(j)] > ub[static_cast<std::size_t>(j)] + kFeasTol) {
      detail = "variable bounds crossed after tightening";
      return false;
    }
  }
  return true;
}

}  // namespace

PresolveResult tightenBounds(const lp::Model& model, std::vector<double>& lb,
                             std::vector<double>& ub, int max_rounds,
                             const std::atomic<bool>* stop) {
  PresolveResult res;
  for (int j = 0; j < model.numVars(); ++j)
    roundIntegerBounds(model, j, lb, ub, res.tightened_bounds);

  for (int round = 0; round < max_rounds; ++round) {
    if (stop && stop->load(std::memory_order_relaxed)) break;
    int changes = 0;
    for (int i = 0; i < model.numConstrs(); ++i) {
      const lp::Constraint c = model.constr(i);
      std::string detail;
      // `expr ≤ rhs` (and the mirrored row for ≥ / =).
      if ((c.sense != lp::Sense::kGreaterEqual &&
           !tightenLeRow(model, c.terms, 1.0, c.rhs, lb, ub, changes, detail)) ||
          (c.sense != lp::Sense::kLessEqual &&
           !tightenLeRow(model, c.terms, -1.0, -c.rhs, lb, ub, changes, detail))) {
        res.infeasible = true;
        res.detail = std::string(c.name) + ": " + detail;
        return res;
      }
    }
    res.tightened_bounds += changes;
    res.rounds = round + 1;
    if (changes == 0) break;
  }
  return res;
}

std::vector<CoverCut> separateCoverCuts(const lp::Model& model, std::span<const double> x,
                                        int max_cuts, double min_violation) {
  std::vector<CoverCut> cuts;
  for (int i = 0; i < model.numConstrs(); ++i) {
    const lp::Constraint c = model.constr(i);
    if (c.sense != lp::Sense::kLessEqual || c.rhs <= 0) continue;

    // Knapsack shape: all-binary support, positive coefficients.
    bool knapsack = !c.terms.empty();
    for (const auto& [j, a] : c.terms)
      knapsack = knapsack && a > 0 && model.var(j).type == lp::VarType::kBinary;
    if (!knapsack) continue;

    // Greedy minimal cover: take items by descending x*_j (most fractional
    // mass first) until the capacity is exceeded.
    std::vector<int> order(c.terms.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](int p, int q) {
      return x[static_cast<std::size_t>(c.terms[static_cast<std::size_t>(p)].first)] >
             x[static_cast<std::size_t>(c.terms[static_cast<std::size_t>(q)].first)];
    });
    double weight = 0.0;
    std::vector<int> cover;
    for (const int p : order) {
      cover.push_back(c.terms[static_cast<std::size_t>(p)].first);
      weight += c.terms[static_cast<std::size_t>(p)].second;
      if (weight > c.rhs + kFeasTol) break;
    }
    if (weight <= c.rhs + kFeasTol) continue;  // no cover (row not binding)

    // Minimalize: drop members that keep Σ a > b (largest coefficient first
    // stays; try removing smallest-x members).
    for (std::size_t k = cover.size(); k-- > 0;) {
      double a_k = 0;
      for (const auto& [j, a] : c.terms)
        if (j == cover[k]) a_k = a;
      if (weight - a_k > c.rhs + kFeasTol) {
        weight -= a_k;
        cover.erase(cover.begin() + static_cast<std::ptrdiff_t>(k));
      }
    }

    CoverCut cut;
    cut.vars = cover;
    cut.rhs = static_cast<double>(cover.size()) - 1.0;
    double lhs = 0.0;
    for (const int j : cover) lhs += x[static_cast<std::size_t>(j)];
    cut.violation = lhs - cut.rhs;
    if (cut.violation >= min_violation) cuts.push_back(std::move(cut));
  }
  std::sort(cuts.begin(), cuts.end(),
            [](const CoverCut& a, const CoverCut& b) { return a.violation > b.violation; });
  if (static_cast<int>(cuts.size()) > max_cuts) cuts.resize(static_cast<std::size_t>(max_cuts));
  return cuts;
}

}  // namespace rfp::milp
