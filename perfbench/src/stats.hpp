// Order statistics the benchmark reports: medians, the tail rule and the
// time-to-proof convention for unproved requests.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty input.
[[nodiscard]] double median(std::vector<double> values);

/// The tail statistic: the highest percentile that still has at least
/// `beyond` samples strictly above it in sorted order. With n samples it is
/// the sorted value at index n - beyond - 1, reported as percentile
/// 100 * (n - beyond) / n. `valid` is false when n <= beyond.
struct Tail {
  bool valid = false;
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
[[nodiscard]] Tail tail(std::vector<double> values, std::size_t beyond = 10);

/// A request's time to proof: its wall time when it was answered with a
/// proof (optimality or infeasibility), else its full budget.
[[nodiscard]] double timeToProof(bool proved, double wall_seconds, double budget_seconds);

/// Sum of `values`.
[[nodiscard]] double sum(const std::vector<double>& values);

}  // namespace perfbench
