#include "lp/sparse/csc.hpp"

#include <atomic>

namespace rfp::lp::sparse {

namespace {
std::atomic<long> g_build_count{0};
}  // namespace

long CscMatrix::buildCount() noexcept { return g_build_count.load(std::memory_order_relaxed); }

CscMatrix CscMatrix::fromModel(const Model& model) {
  g_build_count.fetch_add(1, std::memory_order_relaxed);
  CscMatrix a;
  a.rows = model.numConstrs();
  a.cols = model.numVars();
  a.ptr.assign(static_cast<std::size_t>(a.cols) + 1, 0);

  // Count entries per column, then prefix-sum into ptr.
  for (int i = 0; i < a.rows; ++i)
    for (const auto& [v, coef] : model.rowTerms(i))
      if (coef != 0.0) ++a.ptr[static_cast<std::size_t>(v) + 1];
  for (int j = 0; j < a.cols; ++j) a.ptr[static_cast<std::size_t>(j) + 1] += a.ptr[static_cast<std::size_t>(j)];

  a.idx.resize(static_cast<std::size_t>(a.ptr[static_cast<std::size_t>(a.cols)]));
  a.val.resize(a.idx.size());
  std::vector<int> cursor(a.ptr.begin(), a.ptr.end() - 1);
  // Row-major scan writes each column's rows in ascending order (constraints
  // are visited in index order), so no per-column sort is needed. Model rows
  // arrive with duplicate variables already merged (LinExpr::normalize), so
  // each (row, col) pair appears at most once.
  for (int i = 0; i < a.rows; ++i) {
    for (const auto& [v, coef] : model.rowTerms(i)) {
      if (coef == 0.0) continue;
      const int at = cursor[static_cast<std::size_t>(v)]++;
      a.idx[static_cast<std::size_t>(at)] = i;
      a.val[static_cast<std::size_t>(at)] = coef;
    }
  }
  return a;
}

long countNonzeros(const Model& model) noexcept { return model.numNonzeros(); }

}  // namespace rfp::lp::sparse
