#include "lp/sparse/simplex_state.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace rfp::lp::sparse {

StandardForm::StandardForm(const Model& model, std::span<const double> lb,
                           std::span<const double> ub, const CscMatrix* cached) {
  this->model = &model;
  n = model.numVars();
  m = model.numConstrs();
  nn = n + m;
  if (cached) {
    RFP_CHECK_MSG(cached->rows == m && cached->cols == n,
                  "cached CSC shape " << cached->rows << "x" << cached->cols
                                      << " does not match model " << m << "x" << n);
    a = cached;
  } else {
    owned = CscMatrix::fromModel(model);
    a = &owned;
  }
  lo.resize(uz(nn));
  up.resize(uz(nn));
  for (int j = 0; j < n; ++j) {
    lo[uz(j)] = lb[uz(j)];
    up[uz(j)] = ub[uz(j)];
  }
  rhs.resize(uz(m));
  for (int i = 0; i < m; ++i) {
    const Constraint c = model.constr(i);
    rhs[uz(i)] = c.rhs;
    const int s = n + i;
    switch (c.sense) {
      case Sense::kLessEqual:
        lo[uz(s)] = 0.0;
        up[uz(s)] = kInfinity;
        break;
      case Sense::kGreaterEqual:
        lo[uz(s)] = -kInfinity;
        up[uz(s)] = 0.0;
        break;
      case Sense::kEqual:
        lo[uz(s)] = 0.0;
        up[uz(s)] = 0.0;
        break;
    }
  }
  cost.assign(uz(nn), 0.0);
  const double dir = (model.objSense() == ObjSense::kMinimize) ? 1.0 : -1.0;
  for (const auto& [v, c] : model.objective().terms()) cost[uz(v)] += dir * c;
}

void BasisState::slackBasis(const StandardForm& f) {
  basic.resize(uz(f.m));
  status.assign(uz(f.nn), VarStatus::kAtLower);
  for (int j = 0; j < f.n; ++j) status[uz(j)] = defaultStatus(f, j);
  for (int i = 0; i < f.m; ++i) {
    basic[uz(i)] = f.n + i;
    status[uz(f.n + i)] = VarStatus::kBasic;
  }
}

bool BasisState::adoptWarmBasis(const StandardForm& f, const Basis* warm) {
  if (!warm || !warm->shapeMatches(f.m, f.n)) return false;
  int basics = 0;
  for (const VarStatus s : warm->status) basics += s == VarStatus::kBasic;
  if (basics != f.m) return false;
  for (int p = 0; p < f.m; ++p) {
    const int b = warm->basic[uz(p)];
    if (b < 0 || b >= f.nn || warm->status[uz(b)] != VarStatus::kBasic) return false;
  }
  basic = warm->basic;
  status = warm->status;
  // Bounds may have changed since the basis was taken (branch & bound
  // tightens them): re-anchor nonbasic statuses to bounds that still exist.
  reanchorStatuses(f);
  warm_started = true;
  return true;
}

void BasisState::reanchorStatuses(const StandardForm& f) {
  for (int j = 0; j < f.nn; ++j) {
    VarStatus& s = status[uz(j)];
    if (s == VarStatus::kAtLower && !finiteLo(f.lo[uz(j)]))
      s = finiteUp(f.up[uz(j)]) ? VarStatus::kAtUpper : VarStatus::kFree;
    else if (s == VarStatus::kAtUpper && !finiteUp(f.up[uz(j)]))
      s = finiteLo(f.lo[uz(j)]) ? VarStatus::kAtLower : VarStatus::kFree;
    else if (s == VarStatus::kFree && (finiteLo(f.lo[uz(j)]) || finiteUp(f.up[uz(j)])))
      s = defaultStatus(f, j);
  }
}

void BasisState::refactorize(const StandardForm& f) {
  if (!lu.factorize(*f.a, basic)) {
    // Singular basis (possible for a warm start under new bounds): swap
    // each deficient position for the slack of a distinct unpivoted row —
    // the completed pivot set plus unit columns is provably nonsingular.
    const std::vector<int> dp = lu.deficientPositions();
    const std::vector<int> ur = lu.unpivotedRows();
    RFP_CHECK(dp.size() == ur.size());
    for (std::size_t i = 0; i < dp.size(); ++i) {
      const int pos = dp[i];
      const int displaced = basic[uz(pos)];
      status[uz(displaced)] = defaultStatus(f, displaced);
      const int slack = f.n + ur[i];
      basic[uz(pos)] = slack;
      status[uz(slack)] = VarStatus::kBasic;
      ++repairs;
    }
    RFP_CHECK_MSG(lu.factorize(*f.a, basic), "basis repair failed to factorize");
  }
  ++refactorizations;
}

void BasisState::computeXb(const StandardForm& f) {
  xb = f.rhs;
  for (int j = 0; j < f.nn; ++j) {
    if (status[uz(j)] == VarStatus::kBasic) continue;
    const double v = nonbasicValue(f, j);
    f.addColumn(j, -v, xb);
  }
  lu.ftran(xb);
}

std::shared_ptr<Basis> BasisState::snapshot(const StandardForm& f) const {
  auto out = std::make_shared<Basis>();
  out->basic = basic;
  out->status = status;
  out->rows = f.m;
  out->cols = f.n;
  return out;
}

}  // namespace rfp::lp::sparse
