// Sparse revised simplex for LPs with bounded variables.
//
// The primal engine behind `LpSolver` (every relaxation on the solve path):
// where the dense reference solver (lp/simplex.hpp) materializes an
// (m+1) x (n+2m) tableau — ~25 GiB on an SDR2 floorplanning formulation —
// this one keeps the constraint matrix in CSC form and works with a
// Markowitz-factorized basis (lp/sparse/lu.hpp), so the same formulation
// fits in tens of MB.
//
// Algorithm notes:
//  * standard form Ax + s = b with one slack per row; slack bounds encode
//    the row sense ([0,inf) for <=, (-inf,0] for >=, fixed 0 for =);
//  * bounded-variable primal simplex working in the original bounds (no
//    shifting): nonbasic variables rest at either bound and may "bound
//    flip" without a basis change, matching the dense solver's semantics;
//  * phase 1 minimizes the total bound violation of the basic variables
//    (no artificial columns — the slack basis is always available);
//  * projected steepest-edge pricing (Forrest–Goldfarb reference weights
//    updated each pivot through the same FTRAN/BTRAN machinery), with
//    Bland's rule after a run of degenerate pivots (anti-cycling);
//  * FTRAN/BTRAN through the LU factors with Forrest–Tomlin updates per
//    basis change; refactorization is stability- and fill-triggered (plus a
//    recovery refactorization whenever the entering column's pivot
//    disagrees between its FTRAN and BTRAN computations);
//  * warm start from a `Basis` (typically the parent node's optimal basis in
//    branch & bound): the basis is adopted, repaired if singular, and the
//    solve resumes from there — usually a handful of pivots instead of a
//    cold two-phase run. (For pure bound-change reoptimization the dual
//    simplex, lp/sparse/dual_simplex.hpp, is usually faster still.)
#pragma once

#include <span>

#include "lp/simplex.hpp"
#include "lp/sparse/basis.hpp"
#include "lp/sparse/csc.hpp"
#include "lp/sparse/lu.hpp"

namespace rfp::lp::sparse {

class RevisedSimplexSolver {
 public:
  struct Options {
    /// Shared tolerances and limits, interpreted exactly as the dense
    /// solver does (feas/cost/pivot tolerances, iteration and time limits,
    /// Bland's-rule switch).
    SimplexSolver::Options core;
    /// Hard cap on Forrest–Tomlin updates between refactorizations, on top
    /// of the stability and fill-growth triggers; <= 0 disables the cap.
    /// Warm reoptimizations finish long before hitting it (so the B&B hot
    /// path runs refactorization-free); on paper-scale *cold* solves a
    /// periodic refresh measurably beats unbounded update chains, whose
    /// accumulated drift degrades pricing quality.
    int refactor_interval = 100;
    BasisLu::Options lu;
  };

  RevisedSimplexSolver() = default;
  explicit RevisedSimplexSolver(Options options) : options_(options) {}

  /// Solves the continuous relaxation of `model` (integrality ignored).
  [[nodiscard]] LpResult solve(const Model& model) const;

  /// Solves with per-variable bound overrides; `warm`, when non-null and
  /// shape-compatible, seeds the starting basis (`LpResult::warm_started`
  /// reports whether it was adopted). `csc`, when non-null, must be the CSC
  /// form of `model`'s constraint matrix — branch & bound builds it once
  /// per tree and shares it across every node solve.
  [[nodiscard]] LpResult solve(const Model& model, std::span<const double> lb,
                               std::span<const double> ub, const Basis* warm = nullptr,
                               const CscMatrix* csc = nullptr) const;

  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  Options options_;
};

}  // namespace rfp::lp::sparse
