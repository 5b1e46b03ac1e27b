// The benchmark's workloads: each is a fixed pool of instances in generator
// seed order, a request policy (engine, threads, budget), and a rule for
// turning `--seed` into the request list the client sends.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "device/device.hpp"
#include "model/problem.hpp"

namespace perfbench {

enum class Mode {
  kPortfolio,  ///< Driver::solvePortfolio, default members
  kSearch,     ///< Driver::solve with the exact search
  kMilpO,      ///< Driver::solve with MILP-O
};

struct WorkloadSpec {
  std::string name;
  Mode mode = Mode::kSearch;
  int in_solve_threads = 1;     ///< per solve (portfolio: per member)
  double budget_seconds = 0;    ///< request deadline
  std::size_t pool_size = 0;    ///< instances in the pool
  int rounds = 1;               ///< passes over the pool per run, each with a cold cache
  double resend_share = 0;      ///< share of requests re-sending an earlier instance
  double record_milp_budget = 0;  ///< MILP-O cross-check budget when recording

  /// Threads a request of this workload keeps busy.
  [[nodiscard]] int busyThreads() const;
};

[[nodiscard]] const std::vector<WorkloadSpec>& workloads();
/// nullptr for an unknown name.
[[nodiscard]] const WorkloadSpec* findWorkload(const std::string& name);

/// Members of a portfolio request (the driver's default composition).
inline constexpr int kPortfolioMembers = 4;

struct Instance {
  std::uint64_t seed = 0;  ///< generator seed (sdr-portfolio: FC areas per region)
  rfp::model::FloorplanProblem problem;
  std::string text;        ///< canonical problem text
  std::uint64_t hash = 0;  ///< FNV-1a of `text`
};

/// A workload's device and its instance pool. The device is heap-held so
/// the problems' device pointers survive moves of the pool.
struct Pool {
  std::unique_ptr<rfp::device::Device> dev;
  std::vector<Instance> instances;
};

[[nodiscard]] Pool buildPool(const WorkloadSpec& spec);

struct Request {
  int round = 0;             ///< pass over the pool; each round has its own Driver
  std::size_t instance = 0;  ///< pool index
  std::string text;          ///< the problem text the program receives
  bool resend = false;       ///< re-sends an instance already sent in this run
  bool permuted = false;     ///< regions reordered (same optimum)
};

/// The request list of one run: `rounds` rounds, each sending every pool
/// instance once in seed order from a `seed`-chosen offset, with
/// `resend_share` of the round's requests re-sending a `seed`-chosen
/// instance among the last 64 sent earlier in the round (about half of them
/// with their regions permuted). Same seed, same list.
[[nodiscard]] std::vector<Request> buildRequests(const WorkloadSpec& spec, const Pool& pool,
                                                 std::uint64_t seed);

/// `problem` with its regions in the order `order` (order[i] = old index of
/// new region i); nets and relocation requests are remapped.
[[nodiscard]] rfp::model::FloorplanProblem permuteRegions(
    const rfp::model::FloorplanProblem& problem, const std::vector<int>& order);

}  // namespace perfbench
