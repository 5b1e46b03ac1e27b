// Mixed-integer linear model container (the Gurobi-like API layer).
//
// A Model stores variables (bounds + type), linear constraints and a single
// linear objective. It performs no solving itself: `LpSolver`
// (lp/lp_solver.hpp, the sparse simplex) handles the continuous relaxation
// and `milp::MilpSolver` handles integrality.
#pragma once

#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lp/expr.hpp"

namespace rfp::lp {

/// Value used for "no bound".
inline constexpr double kInfinity = 1e30;

enum class VarType { kContinuous, kBinary, kInteger };
enum class Sense { kLessEqual, kGreaterEqual, kEqual };
enum class ObjSense { kMinimize, kMaximize };

/// Read-only view of one constraint's merged terms — (var index,
/// coefficient) pairs with ascending variables and no zero coefficients —
/// in place in the model's flat row arrays.
class RowTerms {
 public:
  struct iterator {
    const int* var;
    const double* coef;
    [[nodiscard]] std::pair<int, double> operator*() const noexcept { return {*var, *coef}; }
    iterator& operator++() noexcept {
      ++var;
      ++coef;
      return *this;
    }
    [[nodiscard]] bool operator==(const iterator& o) const noexcept { return var == o.var; }
  };

  RowTerms() = default;
  RowTerms(const int* vars, const double* coefs, std::size_t n) noexcept
      : vars_(vars), coefs_(coefs), n_(n) {}

  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0; }
  [[nodiscard]] std::pair<int, double> operator[](std::size_t k) const noexcept {
    return {vars_[k], coefs_[k]};
  }
  [[nodiscard]] iterator begin() const noexcept { return {vars_, coefs_}; }
  [[nodiscard]] iterator end() const noexcept { return {vars_ + n_, coefs_ + n_}; }

 private:
  const int* vars_ = nullptr;
  const double* coefs_ = nullptr;
  std::size_t n_ = 0;
};

/// A stored constraint, viewed in place: terms · x  (sense)  rhs. Valid
/// until the model gains a row.
struct Constraint {
  RowTerms terms;
  Sense sense = Sense::kLessEqual;
  double rhs = 0.0;
  std::string_view name;
};

/// Variable metadata.
struct VarInfo {
  double lb = 0.0;
  double ub = kInfinity;
  VarType type = VarType::kContinuous;
  std::string name;
};

class Model {
 public:
  /// Every constraint in index order, each viewed in place (see constr()).
  class ConstraintRange {
   public:
    struct iterator {
      const Model* model;
      int i;
      [[nodiscard]] Constraint operator*() const { return model->constr(i); }
      iterator& operator++() noexcept {
        ++i;
        return *this;
      }
      [[nodiscard]] bool operator==(const iterator& o) const noexcept { return i == o.i; }
    };
    explicit ConstraintRange(const Model& model) noexcept : model_(&model) {}
    [[nodiscard]] iterator begin() const noexcept { return {model_, 0}; }
    [[nodiscard]] iterator end() const noexcept { return {model_, model_->numConstrs()}; }

   private:
    const Model* model_;
  };

  // ---- construction ------------------------------------------------------
  Var addVar(double lb, double ub, VarType type, std::string name = "");
  Var addContinuous(double lb, double ub, std::string name = "");
  Var addBinary(std::string name = "");
  Var addInteger(double lb, double ub, std::string name = "");

  /// Adds `expr (sense) rhs`; the expression's constant is moved to the rhs.
  int addConstr(const LinExpr& expr, Sense sense, double rhs, std::string name = "");
  /// Adds `lo <= expr <= hi` as two rows (returns index of the first).
  int addRange(const LinExpr& expr, double lo, double hi, std::string name = "");

  void setObjective(const LinExpr& expr, ObjSense sense = ObjSense::kMinimize);

  // ---- accessors ---------------------------------------------------------
  [[nodiscard]] int numVars() const noexcept { return static_cast<int>(vars_.size()); }
  [[nodiscard]] int numConstrs() const noexcept { return static_cast<int>(rows_.size()); }
  [[nodiscard]] const VarInfo& var(int i) const { return vars_.at(i); }
  [[nodiscard]] Constraint constr(int i) const;
  [[nodiscard]] ConstraintRange constrs() const noexcept { return ConstraintRange(*this); }
  /// Row i's terms alone (no bounds check): the simplex hot path.
  [[nodiscard]] RowTerms rowTerms(int i) const noexcept {
    const auto b = static_cast<std::size_t>(row_start_[static_cast<std::size_t>(i)]);
    const auto e = static_cast<std::size_t>(row_start_[static_cast<std::size_t>(i) + 1]);
    return {term_var_.data() + b, term_coef_.data() + b, e - b};
  }
  [[nodiscard]] long numNonzeros() const noexcept { return static_cast<long>(term_var_.size()); }
  [[nodiscard]] const std::vector<VarInfo>& vars() const noexcept { return vars_; }
  [[nodiscard]] const LinExpr& objective() const noexcept { return objective_; }
  [[nodiscard]] ObjSense objSense() const noexcept { return obj_sense_; }
  [[nodiscard]] bool hasIntegerVars() const noexcept;

  /// Mutates bounds (used by branch & bound and by tests).
  void setVarBounds(int i, double lb, double ub);

  /// Releases the row arrays' growth slack (up to half their capacity);
  /// builders call it once the last row is in.
  void shrinkToFit();

  // ---- evaluation --------------------------------------------------------
  [[nodiscard]] double evalObjective(std::span<const double> x) const;
  [[nodiscard]] double evalExpr(const LinExpr& e, std::span<const double> x) const;

  /// Full feasibility check of a candidate point (bounds, integrality and
  /// every constraint). Used by heuristics and as an independent verifier.
  [[nodiscard]] bool isFeasible(std::span<const double> x, double tol = 1e-6) const;

  /// Human-readable dump (for debugging small models in tests).
  [[nodiscard]] std::string toString() const;

 private:
  struct RowInfo {
    Sense sense = Sense::kLessEqual;
    double rhs = 0.0;
  };

  std::vector<VarInfo> vars_;
  // Rows in flat (CSR) arrays: row i's terms are term_var_/term_coef_ over
  // [row_start_[i], row_start_[i + 1]), its name name_chars_ over
  // [name_start_[i], name_start_[i + 1]). At SDR scale (59k rows, 963k
  // nonzeros) this is 12 bytes per nonzero and ~30 per row, against 16 and
  // ~100 for a vector (and a name string) per row.
  std::vector<int> row_start_{0};
  std::vector<int> term_var_;
  std::vector<double> term_coef_;
  std::vector<RowInfo> rows_;
  std::vector<int> name_start_{0};
  std::string name_chars_;
  LinExpr objective_;
  ObjSense obj_sense_ = ObjSense::kMinimize;
};

}  // namespace rfp::lp
