// Incumbent-exchange bench: does seeding the provers with an annealer
// incumbent actually pay, and what do the portfolio's race policies cost?
//
// Two experiments per instance:
//
//  * cutoff — run the annealer briefly, publish its best floorplan into a
//    SharedIncumbent channel, then solve the same instance with the exact
//    search (single thread, deterministic exploration order) blind vs
//    seeded. The seeded run's cutoff starts at the annealer's cost instead
//    of +inf, so it must explore a subset of the blind run's nodes — the
//    node ratio and nodes/second quantify the pruning win. The MILP-O
//    floorplanner is measured the same way (informationally: its pseudo-cost
//    branching state diverges once pruning differs, so a strict subset is
//    not guaranteed there).
//
//  * races — the full portfolio under three policies: the blind flat race
//    (no exchange), the cooperative flat race the driver ships (exchange on,
//    every member at once) and the opt-in staged race (incomplete engines
//    first). Each leg records final costs, wall clock and the live-heap
//    peak (mallinfo2, sampled every half millisecond).
//
// Usage: bench_portfolio_incumbent [--smoke]
//   --smoke  generated instances plus SDR3 (seconds, for CI) and no JSON
//            file.
//   full     adds the paper's SDR2 relocation workload and writes
//            BENCH_portfolio_incumbent.json into the current directory.
// Both modes exit non-zero when the seeded exact search explores more
// nodes than the blind one on any instance (a deterministic subset
// property), when the cooperative race returns a worse floorplan than the
// blind race, or when the cooperative race's live-heap peak on SDR3
// exceeds the budget below. The staged-vs-blind comparison only warns:
// both are wall-clock races on different schedules.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_meta.hpp"
#include "baseline/annealer.hpp"
#include "device/builders.hpp"
#include "driver/driver.hpp"
#include "driver/incumbent.hpp"
#include "fp/milp_floorplanner.hpp"
#include "io/json.hpp"
#include "model/generator.hpp"
#include "model/problem.hpp"
#include "search/solver.hpp"
#include "support/timer.hpp"

using namespace rfp;

namespace {

struct SolveFigures {
  long nodes = 0;
  double seconds = 0.0;
  std::string status;
  long adopted = 0;
  long external_prunes = 0;

  [[nodiscard]] double nodesPerSec() const { return seconds > 0 ? nodes / seconds : 0.0; }
};

struct PortfolioFigures {
  std::string status;
  std::string winner;
  long waste = -1;
  double wire_length = -1.0;
  double seconds = 0.0;
  double stage1_seconds = 0.0;
  long adoptions = 0;
  long cutoff_prunes = 0;
  double peak_live_mib = 0.0;  ///< live-heap peak above the pre-race level
};

/// The cooperative race's SDR3 live-heap budget: the staged race's peak at
/// the commit before the race went flat (86.9-87.3 MiB over repeated runs
/// on a 4-vCPU x86 VM). Flat, both MILP members hold their root LPs at
/// once, so the race fits only while one member costs about half of what
/// it did then. The staged race shrinks by the same per-member savings, so
/// comparing against its current peak would ask two members to cost less
/// than one.
constexpr double kCoopPeakBudgetMib = 87.3;

/// Live heap (mallinfo2: in-use arena chunks plus mmapped blocks), MiB.
double liveHeapMib() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

/// Samples the live heap every half millisecond on a side thread while
/// `run` executes; returns the peak above the level before `run` started.
template <typename Fn>
double livePeakMib(Fn&& run) {
  const double base = liveHeapMib();
  std::atomic<bool> done{false};
  double peak = base;
  std::thread sampler([&] {
    while (!done.load(std::memory_order_relaxed)) {
      peak = std::max(peak, liveHeapMib());
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  run();
  done.store(true, std::memory_order_relaxed);
  sampler.join();
  return std::max(peak, liveHeapMib()) - base;
}

struct Record {
  std::string name;
  model::FloorplanCosts annealer_costs;
  double annealer_seconds = 0.0;
  SolveFigures search_blind, search_seeded;
  SolveFigures milp_blind, milp_seeded;
  bool milp_measured = false;
  PortfolioFigures blind, coop, staged;
  bool coop_not_worse = false;
  bool staged_not_worse = false;

  [[nodiscard]] double searchNodeRatio() const {
    return search_blind.nodes > 0
               ? static_cast<double>(search_seeded.nodes) / static_cast<double>(search_blind.nodes)
               : 1.0;
  }
};

SolveFigures searchFigures(const search::SearchResult& res) {
  SolveFigures f;
  f.nodes = res.nodes;
  f.seconds = res.seconds;
  f.status = search::toString(res.status);
  f.adopted = res.adopted;
  f.external_prunes = res.external_prunes;
  return f;
}

/// The annealer incumbent every seeded run is given (fixed seed/iterations:
/// the comparison needs both runs to see the identical cutoff).
std::optional<baseline::AnnealResult> annealerIncumbent(const model::FloorplanProblem& problem,
                                                        long iterations) {
  baseline::AnnealerOptions opt;
  opt.seed = 7;
  opt.iterations = iterations;
  return baseline::annealFloorplan(problem, opt);
}

Record runInstance(const std::string& name, const model::FloorplanProblem& problem,
                   long annealer_iterations, bool measure_milp, double milp_budget,
                   double portfolio_deadline) {
  Record rec;
  rec.name = name;

  // ---- cutoff experiment: exact search, blind vs annealer-seeded ----------
  Stopwatch anneal_watch;
  const auto incumbent = annealerIncumbent(problem, annealer_iterations);
  rec.annealer_seconds = anneal_watch.seconds();
  if (!incumbent) {
    std::fprintf(stderr, "%s: annealer found no incumbent; skipping\n", name.c_str());
    return rec;
  }
  rec.annealer_costs = incumbent->costs;

  search::SearchOptions sopt;  // single thread: deterministic exploration
  const search::SearchResult blind = search::ColumnarSearchSolver(sopt).solve(problem);
  rec.search_blind = searchFigures(blind);

  driver::SharedIncumbent channel(problem);
  channel.publish(incumbent->plan, incumbent->costs, "annealer");
  sopt.incumbent = &channel;
  const search::SearchResult seeded = search::ColumnarSearchSolver(sopt).solve(problem);
  rec.search_seeded = searchFigures(seeded);

  if (measure_milp) {
    rec.milp_measured = true;
    const auto milpRun = [&](driver::SharedIncumbent* chan) {
      fp::MilpFloorplannerOptions mopt;
      mopt.algorithm = fp::Algorithm::kO;
      mopt.lexicographic = problem.lexicographic();
      mopt.time_limit_seconds = milp_budget;
      mopt.incumbent = chan;
      const fp::FpResult res = fp::MilpFloorplanner(mopt).solve(problem);
      SolveFigures f;
      f.nodes = res.nodes;
      f.seconds = res.seconds;
      f.status = fp::toString(res.status);
      f.adopted = res.adopted;
      f.external_prunes = res.external_prunes;
      return f;
    };
    rec.milp_blind = milpRun(nullptr);
    driver::SharedIncumbent milp_channel(problem);
    milp_channel.publish(incumbent->plan, incumbent->costs, "annealer");
    rec.milp_seeded = milpRun(&milp_channel);
  }

  // ---- race experiment: blind flat vs cooperative flat vs staged ---------
  const driver::Driver drv;
  const auto race = [&](bool exchange, bool staged, PortfolioFigures* f) {
    driver::SolveRequest req;
    req.deadline_seconds = portfolio_deadline;
    req.annealer.iterations = annealer_iterations;
    req.incumbent_exchange = exchange;
    req.staged_deadlines = staged;
    driver::SolveResponse res;
    f->peak_live_mib = livePeakMib([&] { res = drv.solvePortfolio(problem, req); });
    f->status = driver::toString(res.status);
    f->winner = res.hasSolution() || res.status == driver::SolveStatus::kInfeasible
                    ? driver::toString(res.backend)
                    : "-";
    if (res.hasSolution()) {
      f->waste = res.costs.wasted_frames;
      f->wire_length = res.costs.wire_length;
    }
    f->seconds = res.seconds;
    f->stage1_seconds = res.incumbent.stage1_seconds;
    f->adoptions = res.incumbent.adoptions;
    f->cutoff_prunes = res.incumbent.cutoff_prunes;
    return res;
  };
  const driver::SolveResponse blind_race = race(false, false, &rec.blind);
  const auto notWorse = [&](const driver::SolveResponse& r) {
    return r.hasSolution() && (!blind_race.hasSolution() ||
                               !model::strictlyBetter(problem, blind_race.costs, r.costs));
  };
  rec.coop_not_worse = notWorse(race(true, false, &rec.coop));
  rec.staged_not_worse = notWorse(race(true, true, &rec.staged));

  return rec;
}

void printRecord(const Record& rec) {
  std::printf("%s: annealer incumbent waste=%ld wl=%.1f (%.2fs)\n", rec.name.c_str(),
              rec.annealer_costs.wasted_frames, rec.annealer_costs.wire_length,
              rec.annealer_seconds);
  std::printf("  search blind : %-10s nodes=%-10ld %8.2fs %12.0f nodes/s\n",
              rec.search_blind.status.c_str(), rec.search_blind.nodes, rec.search_blind.seconds,
              rec.search_blind.nodesPerSec());
  std::printf("  search seeded: %-10s nodes=%-10ld %8.2fs %12.0f nodes/s  "
              "(%.2fx nodes, cutoff-prunes=%ld)\n",
              rec.search_seeded.status.c_str(), rec.search_seeded.nodes,
              rec.search_seeded.seconds, rec.search_seeded.nodesPerSec(), rec.searchNodeRatio(),
              rec.search_seeded.external_prunes);
  if (rec.milp_measured) {
    std::printf("  milp-o blind : %-10s nodes=%-10ld %8.2fs\n", rec.milp_blind.status.c_str(),
                rec.milp_blind.nodes, rec.milp_blind.seconds);
    std::printf("  milp-o seeded: %-10s nodes=%-10ld %8.2fs  (adopted=%ld cutoff-prunes=%ld)\n",
                rec.milp_seeded.status.c_str(), rec.milp_seeded.nodes, rec.milp_seeded.seconds,
                rec.milp_seeded.adopted, rec.milp_seeded.external_prunes);
  }
  const auto race = [](const char* label, const PortfolioFigures& f) {
    std::printf("  %-13s: %-10s winner=%-9s waste=%-6ld %8.2fs live-peak=%6.1f MiB "
                "(stage1=%.2fs adoptions=%ld cutoff-prunes=%ld)\n",
                label, f.status.c_str(), f.winner.c_str(), f.waste, f.seconds, f.peak_live_mib,
                f.stage1_seconds, f.adoptions, f.cutoff_prunes);
  };
  race("race blind", rec.blind);
  race("race coop", rec.coop);
  race("race staged", rec.staged);
  std::printf("  vs blind: coop %s, staged %s\n\n", rec.coop_not_worse ? "not worse" : "WORSE",
              rec.staged_not_worse ? "not worse" : "WORSE");
}

/// `path == nullptr` prints the JSON to stdout only (smoke runs must not
/// overwrite the tracked full-run snapshot at the repo root).
void writeJson(const std::vector<Record>& records, const char* path) {
  io::JsonWriter w;
  w.beginObject();
  bench::writeBenchMeta(w);
  w.key("bench").value("portfolio_incumbent");
  w.key("runs").beginArray();
  for (const Record& rec : records) {
    w.beginObject();
    w.key("name").value(rec.name);
    w.key("annealer_incumbent").beginObject();
    w.key("waste").value(rec.annealer_costs.wasted_frames);
    w.key("wire_length").value(rec.annealer_costs.wire_length);
    w.key("seconds").value(rec.annealer_seconds);
    w.endObject();
    const auto solve_obj = [&w](const char* key, const SolveFigures& f) {
      w.key(key).beginObject();
      w.key("status").value(f.status);
      w.key("nodes").value(f.nodes);
      w.key("seconds").value(f.seconds);
      w.key("nodes_per_sec").value(f.nodesPerSec());
      w.key("adopted").value(f.adopted);
      w.key("cutoff_prunes").value(f.external_prunes);
      w.endObject();
    };
    solve_obj("search_blind", rec.search_blind);
    solve_obj("search_seeded", rec.search_seeded);
    w.key("search_node_ratio").value(rec.searchNodeRatio());
    if (rec.milp_measured) {
      solve_obj("milp_o_blind", rec.milp_blind);
      solve_obj("milp_o_seeded", rec.milp_seeded);
    }
    const auto port_obj = [&w](const char* key, const PortfolioFigures& f) {
      w.key(key).beginObject();
      w.key("status").value(f.status);
      w.key("winner").value(f.winner);
      w.key("waste").value(f.waste);
      w.key("wire_length").value(f.wire_length);
      w.key("seconds").value(f.seconds);
      w.key("stage1_seconds").value(f.stage1_seconds);
      w.key("adoptions").value(f.adoptions);
      w.key("cutoff_prunes").value(f.cutoff_prunes);
      w.key("peak_live_mib").value(f.peak_live_mib);
      w.endObject();
    };
    port_obj("portfolio_blind", rec.blind);
    port_obj("portfolio_coop", rec.coop);
    port_obj("portfolio_staged", rec.staged);
    w.key("coop_not_worse").value(rec.coop_not_worse);
    w.key("staged_not_worse").value(rec.staged_not_worse);
    w.endObject();
  }
  w.endArray();
  w.endObject();
  if (path) {
    std::ofstream out(path);
    out << w.str() << "\n";
    std::printf("wrote %s\n", path);
  } else {
    std::printf("%s\n", w.str().c_str());
  }
}

std::vector<model::FloorplanProblem> generatedInstances() {
  // Mid-size feasible-by-construction instances with hard relocation
  // requests: big enough that the blind search explores a real tree, small
  // enough for CI seconds. The device must outlive the problems, which only
  // hold a pointer to it.
  static const device::Device dev =
      device::columnarFromPattern("gen", "CCBCCDCCCCBCCCBCCDCC", 8);
  model::GeneratorOptions gopt;
  gopt.num_regions = 5;
  gopt.max_region_width = 5;
  gopt.max_region_height = 4;
  gopt.num_nets = 4;
  gopt.fc_per_region = 1;
  std::vector<model::FloorplanProblem> problems;
  for (std::uint64_t seed = 1; problems.size() < 3 && seed < 60; ++seed) {
    gopt.seed = seed;
    if (auto p = model::generateProblem(dev, gopt)) problems.push_back(std::move(*p));
  }
  return problems;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  std::printf("PORTFOLIO INCUMBENT: annealer-seeded cutoffs and the portfolio's race policies\n\n");

  std::vector<Record> records;
  const std::vector<model::FloorplanProblem> generated = generatedInstances();
  for (std::size_t i = 0; i < generated.size(); ++i) {
    records.push_back(runInstance("gen-" + std::to_string(i + 1), generated[i],
                                  /*annealer_iterations=*/20000, /*measure_milp=*/true,
                                  /*milp_budget=*/smoke ? 5.0 : 30.0,
                                  /*portfolio_deadline=*/smoke ? 8.0 : 20.0));
    printRecord(records.back());
  }

  // The paper's SDR relocation workloads (Sec. VI) on the XC5VFX70T: the
  // annealer incumbent seeds the exact search's cutoff on a paper-scale
  // tree, and SDR3 carries the races' memory gate — its MILP formulation
  // (2.8k variables, 59k rows, 963k nonzeros) is the largest the portfolio
  // meets, so that is where two concurrent MILP members peak.
  const device::Device dev = device::virtex5FX70T();
  if (!smoke) {
    model::FloorplanProblem sdr2 = model::makeSdrProblem(dev);
    model::addSdrRelocations(sdr2, 2);
    records.push_back(runInstance("SDR2", sdr2, /*annealer_iterations=*/200000,
                                  /*measure_milp=*/false, /*milp_budget=*/0.0,
                                  /*portfolio_deadline=*/60.0));
    printRecord(records.back());
  }
  model::FloorplanProblem sdr3 = model::makeSdrProblem(dev);
  model::addSdrRelocations(sdr3, 3);
  records.push_back(runInstance("SDR3", sdr3, /*annealer_iterations=*/200000,
                                /*measure_milp=*/false, /*milp_budget=*/0.0,
                                /*portfolio_deadline=*/6.0));
  printRecord(records.back());

  writeJson(records, smoke ? nullptr : "BENCH_portfolio_incumbent.json");

  // Gates. The single-threaded seeded search explores a subset of the blind
  // run's tree by construction — more nodes means the cutoff plumbing
  // regressed. The cooperative race runs the blind race's schedule with the
  // exchange on, so it must never return a worse floorplan. The staged race
  // runs a different schedule, so on a loaded runner the blind race can
  // luck into a better plan without any code regression: that only warns.
  bool ok = true;
  for (const Record& rec : records) {
    if (rec.search_seeded.nodes > rec.search_blind.nodes) {
      std::fprintf(stderr, "FAIL %s: seeded search explored %ld nodes > blind %ld\n",
                   rec.name.c_str(), rec.search_seeded.nodes, rec.search_blind.nodes);
      ok = false;
    }
    if (!rec.coop_not_worse) {
      std::fprintf(stderr, "FAIL %s: the cooperative race returned a worse floorplan than "
                   "the blind race\n", rec.name.c_str());
      ok = false;
    }
    if (!rec.staged_not_worse)
      std::fprintf(stderr, "WARN %s: the staged race returned a worse floorplan than the "
                   "blind race this run\n", rec.name.c_str());
    if (rec.name == "SDR3") {
      std::printf("SDR3 live-heap peaks: blind %.1f MiB, coop %.1f MiB, staged %.1f MiB "
                  "(coop budget %.1f MiB)\n", rec.blind.peak_live_mib, rec.coop.peak_live_mib,
                  rec.staged.peak_live_mib, kCoopPeakBudgetMib);
      if (rec.coop.peak_live_mib > kCoopPeakBudgetMib) {
        std::fprintf(stderr, "FAIL SDR3: cooperative race live-heap peak %.1f MiB > budget "
                     "%.1f MiB\n", rec.coop.peak_live_mib, kCoopPeakBudgetMib);
        ok = false;
      }
    }
  }
  return ok ? 0 : 1;
}
