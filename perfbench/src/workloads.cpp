#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "device/builders.hpp"
#include "io/problem_text.hpp"
#include "model/generator.hpp"
#include "reference.hpp"
#include "support/rng.hpp"

namespace perfbench {

using rfp::model::FloorplanProblem;

int WorkloadSpec::busyThreads() const {
  return mode == Mode::kPortfolio ? kPortfolioMembers * in_solve_threads : in_solve_threads;
}

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> v;
    WorkloadSpec sdr;
    sdr.name = "sdr-portfolio";
    sdr.mode = Mode::kPortfolio;
    sdr.in_solve_threads = 1;
    sdr.budget_seconds = 6.0;  // requests take 0.6-1.2 s, most of it stage 1
    sdr.pool_size = 4;
    sdr.rounds = 10;
    sdr.record_milp_budget = 10.0;
    v.push_back(sdr);

    WorkloadSpec search;
    search.name = "gen-search";
    search.mode = Mode::kSearch;
    search.in_solve_threads = 2;
    // One-thread proofs of the 20 instances take 0.1 ms to 1 s (the family's
    // first instance after seed 93 runs for over five minutes). 24 rounds
    // repeat every instance, so its timing noise averages out; the tail then
    // sits among the 24 samples of the hardest instance, near their median.
    search.budget_seconds = 10.0;
    search.pool_size = 20;
    search.rounds = 24;
    search.resend_share = 0.25;
    search.record_milp_budget = 0.5;
    v.push_back(search);

    WorkloadSpec milp;
    milp.name = "gen-milp";
    milp.mode = Mode::kMilpO;
    milp.in_solve_threads = 1;
    milp.budget_seconds = 3.0;  // plain proofs take 0.01-1.2 s
    milp.pool_size = 48;
    milp.record_milp_budget = 20.0;
    v.push_back(milp);
    return v;
  }();
  return specs;
}

const WorkloadSpec* findWorkload(const std::string& name) {
  for (const WorkloadSpec& s : workloads())
    if (s.name == name) return &s;
  return nullptr;
}

namespace {

/// Re-sends pick among this many most recent first sends. It is well under
/// the driver's default cache capacity (128), so a re-send is never a miss
/// caused by eviction.
constexpr std::size_t kResendWindow = 64;

void addInstance(Pool& pool, std::uint64_t seed, FloorplanProblem problem) {
  std::string text = rfp::io::formatProblem(problem);
  const std::uint64_t hash = fnv1a(text);
  pool.instances.push_back(Instance{seed, std::move(problem), std::move(text), hash});
}

/// Generated pool: instance j uses the first unused generator seed at which
/// `options_for(j)` packs (failed packings are skipped, never hard cases).
template <typename OptionsFor>
void generatePool(Pool& pool, std::size_t size, OptionsFor options_for) {
  std::uint64_t seed = 1;
  while (pool.instances.size() < size) {
    rfp::model::GeneratorOptions opt = options_for(pool.instances.size());
    opt.seed = seed;
    if (auto p = rfp::model::generateProblem(*pool.dev, opt)) addInstance(pool, seed, std::move(*p));
    ++seed;
  }
}

}  // namespace

Pool buildPool(const WorkloadSpec& spec) {
  Pool pool;
  if (spec.mode == Mode::kPortfolio) {
    pool.dev = std::make_unique<rfp::device::Device>(rfp::device::virtex5FX70T());
    for (std::uint64_t fc = 0; fc < spec.pool_size; ++fc) {
      FloorplanProblem p = rfp::model::makeSdrProblem(*pool.dev);
      if (fc > 0) rfp::model::addSdrRelocations(p, static_cast<int>(fc));
      addInstance(pool, fc, std::move(p));
    }
  } else if (spec.mode == Mode::kSearch) {
    pool.dev = std::make_unique<rfp::device::Device>(
        rfp::device::columnarFromPattern("gen-search", "CCBCCDCCCCBCCCBC", 6));
    generatePool(pool, spec.pool_size, [](std::size_t) {
      rfp::model::GeneratorOptions opt;
      opt.num_regions = 4;
      opt.max_region_width = 5;
      opt.max_region_height = 4;
      opt.num_nets = 4;
      opt.fc_per_region = 1;
      return opt;
    });
  } else {
    pool.dev = std::make_unique<rfp::device::Device>(
        rfp::device::columnarFromPattern("gen-milp", "CCBCCDCC", 3));
    generatePool(pool, spec.pool_size, [](std::size_t j) {
      rfp::model::GeneratorOptions opt;
      opt.num_regions = 2;
      opt.num_nets = 2;
      opt.fc_per_region = j % 16 == 15 ? 1 : 0;  // every sixteenth carries relocation
      return opt;
    });
  }
  return pool;
}

FloorplanProblem permuteRegions(const FloorplanProblem& problem, const std::vector<int>& order) {
  std::vector<int> new_index(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) new_index[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  FloorplanProblem out(&problem.dev());
  for (const int old : order) out.addRegion(problem.region(old));
  for (rfp::model::Net net : problem.nets()) {
    for (int& r : net.regions) r = new_index[static_cast<std::size_t>(r)];
    out.addNet(std::move(net));
  }
  for (rfp::model::RelocationRequest req : problem.relocations()) {
    req.region = new_index[static_cast<std::size_t>(req.region)];
    out.addRelocation(req);
  }
  out.setWeights(problem.weights());
  out.setLexicographic(problem.lexicographic());
  return out;
}

std::vector<Request> buildRequests(const WorkloadSpec& spec, const Pool& pool,
                                   std::uint64_t seed) {
  rfp::Rng rng(seed);
  const std::size_t n_pool = pool.instances.size();
  // Re-sends make up resend_share of each round; a round's first slot is
  // always a first send.
  const auto n_resend = static_cast<std::size_t>(std::lround(
      static_cast<double>(n_pool) * spec.resend_share / (1.0 - spec.resend_share)));
  const std::size_t per_round = n_pool + n_resend;
  std::vector<Request> list;
  for (int round = 0; round < spec.rounds; ++round) {
    std::vector<bool> resend_slot(per_round, false);
    std::vector<std::size_t> slots(per_round - 1);
    std::iota(slots.begin(), slots.end(), std::size_t{1});
    for (std::size_t i = 0; i < n_resend; ++i) {
      const std::size_t j = i + rng.nextBelow(slots.size() - i);
      std::swap(slots[i], slots[j]);
      resend_slot[slots[i]] = true;
    }
    const std::size_t offset = rng.nextBelow(n_pool);
    std::size_t sent = 0;  // first sends so far in this round
    for (std::size_t slot = 0; slot < per_round; ++slot) {
      Request r;
      r.round = round;
      if (!resend_slot[slot]) {
        r.instance = (offset + sent++) % n_pool;
        r.text = pool.instances[r.instance].text;
      } else {
        r.resend = true;
        const std::size_t back = rng.nextBelow(std::min(sent, kResendWindow));
        r.instance = (offset + sent - 1 - back) % n_pool;
        const Instance& inst = pool.instances[r.instance];
        const int n = inst.problem.numRegions();
        r.permuted = n > 1 && rng.nextBelow(2) == 1;
        if (!r.permuted) {
          r.text = inst.text;
        } else {
          std::vector<int> order(static_cast<std::size_t>(n));
          std::iota(order.begin(), order.end(), 0);
          while (std::is_sorted(order.begin(), order.end()))
            for (std::size_t i = order.size() - 1; i > 0; --i)
              std::swap(order[i], order[rng.nextBelow(i + 1)]);
          r.text = rfp::io::formatProblem(permuteRegions(inst.problem, order));
        }
      }
      list.push_back(std::move(r));
    }
  }
  return list;
}

}  // namespace perfbench
