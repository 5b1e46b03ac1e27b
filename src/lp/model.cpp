#include "lp/model.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/check.hpp"

namespace rfp::lp {

void LinExpr::normalize(double zero_tol) {
  if (terms_.empty()) return;
  std::sort(terms_.begin(), terms_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t out = 0;
  for (std::size_t i = 0; i < terms_.size();) {
    int v = terms_[i].first;
    double c = 0.0;
    while (i < terms_.size() && terms_[i].first == v) c += terms_[i++].second;
    if (std::abs(c) > zero_tol) terms_[out++] = {v, c};
  }
  terms_.resize(out);
}

Var Model::addVar(double lb, double ub, VarType type, std::string name) {
  RFP_CHECK_MSG(lb <= ub, "variable '" << name << "': lb " << lb << " > ub " << ub);
  if (type == VarType::kBinary) {
    lb = std::max(lb, 0.0);
    ub = std::min(ub, 1.0);
  }
  vars_.push_back(VarInfo{lb, ub, type, std::move(name)});
  return Var{numVars() - 1};
}

Var Model::addContinuous(double lb, double ub, std::string name) {
  return addVar(lb, ub, VarType::kContinuous, std::move(name));
}

Var Model::addBinary(std::string name) {
  return addVar(0.0, 1.0, VarType::kBinary, std::move(name));
}

Var Model::addInteger(double lb, double ub, std::string name) {
  return addVar(lb, ub, VarType::kInteger, std::move(name));
}

int Model::addConstr(const LinExpr& expr, Sense sense, double rhs, std::string name) {
  LinExpr e = expr;
  e.normalize();
  for (const auto& [v, coef] : e.terms()) {
    (void)coef;
    RFP_CHECK_MSG(v >= 0 && v < numVars(), "constraint '" << name << "' uses unknown var " << v);
  }
  const std::size_t at = term_var_.size();
  term_var_.resize(at + e.terms().size());
  term_coef_.resize(at + e.terms().size());
  for (std::size_t k = 0; k < e.terms().size(); ++k) {
    term_var_[at + k] = e.terms()[k].first;
    term_coef_[at + k] = e.terms()[k].second;
  }
  row_start_.push_back(static_cast<int>(term_var_.size()));
  rows_.push_back(RowInfo{sense, rhs - e.constant()});
  name_chars_ += name;
  name_start_.push_back(static_cast<int>(name_chars_.size()));
  return numConstrs() - 1;
}

Constraint Model::constr(int i) const {
  RFP_CHECK_MSG(i >= 0 && i < numConstrs(), "constraint index " << i << " out of range");
  const auto k = static_cast<std::size_t>(i);
  const auto nb = static_cast<std::size_t>(name_start_[k]);
  const auto ne = static_cast<std::size_t>(name_start_[k + 1]);
  return Constraint{rowTerms(i), rows_[k].sense, rows_[k].rhs,
                    std::string_view(name_chars_).substr(nb, ne - nb)};
}

void Model::shrinkToFit() {
  row_start_.shrink_to_fit();
  term_var_.shrink_to_fit();
  term_coef_.shrink_to_fit();
  rows_.shrink_to_fit();
  name_start_.shrink_to_fit();
  name_chars_.shrink_to_fit();
}

int Model::addRange(const LinExpr& expr, double lo, double hi, std::string name) {
  RFP_CHECK_MSG(lo <= hi, "range '" << name << "': lo > hi");
  const int first = addConstr(expr, Sense::kGreaterEqual, lo, name + ".lo");
  addConstr(expr, Sense::kLessEqual, hi, name + ".hi");
  return first;
}

void Model::setObjective(const LinExpr& expr, ObjSense sense) {
  objective_ = expr;
  objective_.normalize();
  obj_sense_ = sense;
}

bool Model::hasIntegerVars() const noexcept {
  return std::any_of(vars_.begin(), vars_.end(), [](const VarInfo& v) {
    return v.type != VarType::kContinuous;
  });
}

void Model::setVarBounds(int i, double lb, double ub) {
  RFP_CHECK(i >= 0 && i < numVars());
  RFP_CHECK_MSG(lb <= ub, "setVarBounds: lb > ub for var " << i);
  vars_[i].lb = lb;
  vars_[i].ub = ub;
}

double Model::evalExpr(const LinExpr& e, std::span<const double> x) const {
  double v = e.constant();
  for (const auto& [idx, coef] : e.terms()) v += coef * x[static_cast<std::size_t>(idx)];
  return v;
}

double Model::evalObjective(std::span<const double> x) const {
  return evalExpr(objective_, x);
}

bool Model::isFeasible(std::span<const double> x, double tol) const {
  if (static_cast<int>(x.size()) != numVars()) return false;
  for (int i = 0; i < numVars(); ++i) {
    const VarInfo& v = vars_[static_cast<std::size_t>(i)];
    const double xi = x[static_cast<std::size_t>(i)];
    if (xi < v.lb - tol || xi > v.ub + tol) return false;
    if (v.type != VarType::kContinuous && std::abs(xi - std::round(xi)) > tol) return false;
  }
  for (int i = 0; i < numConstrs(); ++i) {
    double lhs = 0.0;
    for (const auto& [idx, coef] : rowTerms(i)) lhs += coef * x[static_cast<std::size_t>(idx)];
    const RowInfo& r = rows_[static_cast<std::size_t>(i)];
    switch (r.sense) {
      case Sense::kLessEqual:
        if (lhs > r.rhs + tol) return false;
        break;
      case Sense::kGreaterEqual:
        if (lhs < r.rhs - tol) return false;
        break;
      case Sense::kEqual:
        if (std::abs(lhs - r.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

std::string Model::toString() const {
  std::ostringstream os;
  os << (obj_sense_ == ObjSense::kMinimize ? "minimize" : "maximize") << ' ';
  for (const auto& [v, c] : objective_.terms())
    os << (c >= 0 ? "+" : "") << c << "*x" << v << ' ';
  if (objective_.constant() != 0.0) os << "+" << objective_.constant();
  os << '\n';
  for (int i = 0; i < numConstrs(); ++i) {
    const Constraint c = constr(i);
    os << "  " << (c.name.empty() ? std::string_view("c") : c.name) << ": ";
    for (const auto& [v, coef] : c.terms) os << (coef >= 0 ? "+" : "") << coef << "*x" << v << ' ';
    switch (c.sense) {
      case Sense::kLessEqual: os << "<= "; break;
      case Sense::kGreaterEqual: os << ">= "; break;
      case Sense::kEqual: os << "== "; break;
    }
    os << c.rhs << '\n';
  }
  for (int i = 0; i < numVars(); ++i) {
    const VarInfo& v = vars_[static_cast<std::size_t>(i)];
    os << "  x" << i << " in [" << v.lb << ", " << v.ub << "]"
       << (v.type == VarType::kContinuous ? "" : v.type == VarType::kBinary ? " bin" : " int");
    if (!v.name.empty()) os << "  # " << v.name;
    os << '\n';
  }
  return os.str();
}

}  // namespace rfp::lp
