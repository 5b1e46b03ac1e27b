#include "stats.hpp"

#include <algorithm>
#include <numeric>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tail(std::vector<double> values, std::size_t beyond) {
  Tail t;
  t.samples = values.size();
  t.beyond = beyond;
  if (values.size() <= beyond) return t;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  t.valid = true;
  t.value = values[n - beyond - 1];
  t.percentile = 100.0 * static_cast<double>(n - beyond) / static_cast<double>(n);
  return t;
}

double timeToProof(bool proved, double wall_seconds, double budget_seconds) {
  return proved ? wall_seconds : budget_seconds;
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

}  // namespace perfbench
