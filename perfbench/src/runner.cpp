#include "runner.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "baseline/annealer.hpp"
#include "classify.hpp"
#include "driver/cache.hpp"
#include "driver/driver.hpp"
#include "fp/formulation.hpp"
#include "fp/heuristic.hpp"
#include "fp/milp_floorplanner.hpp"
#include "io/problem_text.hpp"
#include "lp/lp_solver.hpp"
#include "milp/presolve.hpp"
#include "model/floorplan.hpp"
#include "partition/columnar.hpp"
#include "reference.hpp"
#include "search/solver.hpp"
#include "stats.hpp"
#include "support/timer.hpp"
#include "trace.hpp"

namespace perfbench {

using rfp::driver::Driver;
using rfp::driver::SolveRequest;
using rfp::driver::SolveResponse;
using rfp::model::FloorplanProblem;

int availableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

namespace {

/// Set-up is repeated and its median reported. The first set-up is the one
/// the run uses; the repeats are spread over the untraced pass, so setup_s
/// samples the machine across the run like the request times do.
constexpr std::size_t kSetupRepeats = 15;
/// Engines are replayed on the first round only, which holds every pool
/// instance once; later rounds repeat the same instances. Layers a
/// workload's request path bypasses are replayed on this many leading
/// requests only, each engine capped at kProbeBudget seconds, so every
/// per-layer metric is measured on every workload at bounded cost.
constexpr std::size_t kProbeRequests = 2;
constexpr double kProbeBudget = 1.0;

// ---- set-up ----------------------------------------------------------------

struct Setup {
  Pool pool;
  rfp::partition::ColumnarPartition partition;
  std::vector<Request> requests;
  std::vector<Reference> refs;  ///< by pool index
  std::vector<std::unique_ptr<Driver>> drivers;  ///< one per round: each starts cold
};

std::vector<std::unique_ptr<Driver>> makeDrivers(const WorkloadSpec& spec) {
  std::vector<std::unique_ptr<Driver>> drivers;
  for (int round = 0; round < spec.rounds; ++round) drivers.push_back(std::make_unique<Driver>());
  return drivers;
}

std::string refsPath(const std::string& dir, const WorkloadSpec& spec) {
  return dir + "/" + spec.name + ".tsv";
}

void checkReferences(const WorkloadSpec& spec, const Pool& pool,
                     const std::vector<Reference>& refs, const std::string& path) {
  const std::string rerecord =
      "; re-record it with `python3 perfbench/run.py --record " + spec.name + "`";
  if (refs.size() != pool.instances.size())
    throw std::runtime_error("stale reference file " + path + ": " +
                             std::to_string(refs.size()) + " rows for " +
                             std::to_string(pool.instances.size()) + " instances" + rerecord);
  for (std::size_t i = 0; i < refs.size(); ++i) {
    const Instance& inst = pool.instances[i];
    if (refs[i].seed != inst.seed || refs[i].hash != inst.hash) {
      char buf[200];
      std::snprintf(buf, sizeof buf, "row %zu (seed %llu) has hash %016llx, instance is %016llx",
                    i, static_cast<unsigned long long>(refs[i].seed),
                    static_cast<unsigned long long>(refs[i].hash),
                    static_cast<unsigned long long>(inst.hash));
      throw std::runtime_error("stale reference file " + path + ": " + buf + rerecord);
    }
  }
}

Setup setUp(const RunOptions& o) {
  Setup s;
  s.pool = buildPool(*o.spec);
  auto part = rfp::partition::columnarPartition(*s.pool.dev);
  if (!part) throw std::runtime_error("device of " + o.spec->name + " is not columnar");
  s.partition = std::move(*part);
  s.requests = buildRequests(*o.spec, s.pool, o.seed);
  const std::string path = refsPath(o.refs_dir, *o.spec);
  s.refs = loadReferences(path);
  checkReferences(*o.spec, s.pool, s.refs, path);
  s.drivers = makeDrivers(*o.spec);
  return s;
}

// ---- requests --------------------------------------------------------------

rfp::driver::Backend backendOf(const WorkloadSpec& spec) {
  return spec.mode == Mode::kMilpO ? rfp::driver::Backend::kMilpO
                                   : rfp::driver::Backend::kSearch;
}

SolveRequest solveRequest(const WorkloadSpec& spec) {
  SolveRequest req;
  req.backend = backendOf(spec);
  req.deadline_seconds = spec.budget_seconds;
  req.num_threads = spec.in_solve_threads;
  return req;
}

SolveResponse dispatch(const Driver& drv, const WorkloadSpec& spec, const FloorplanProblem& p,
                       const SolveRequest& req) {
  return spec.mode == Mode::kPortfolio ? drv.solvePortfolio(p, req) : drv.solve(p, req);
}

struct Answer {
  Verdict verdict = Verdict::kThrew;
  double wall = 0.0;  ///< parse + driver call
  std::string error;
  SolveResponse response;
};

/// End-to-end tallies over the requests of one pass.
struct Tally {
  std::vector<double> time_to_proof;
  double wall_sum = 0.0;
  long attempted = 0, failed = 0, completed = 0, proved = 0, optimal = 0;

  void add(const Answer& a, const Reference& ref, double budget) {
    ++attempted;
    wall_sum += a.wall;
    const bool fail = isFailure(a.verdict);
    failed += fail ? 1 : 0;
    completed += a.verdict != Verdict::kThrew ? 1 : 0;
    const bool proof = !fail && isProof(a.verdict);
    proved += proof ? 1 : 0;
    const bool at_optimum =
        !fail && (a.verdict == Verdict::kProvedInfeasible ||
                  (a.response.hasSolution() && matchesReference(a.response.costs, ref)));
    optimal += at_optimum ? 1 : 0;
    time_to_proof.push_back(timeToProof(proof, a.wall, budget));
  }
};

void reportFailure(const Setup& s, std::size_t i, const Answer& a) {
  const Request& r = s.requests[i];
  std::fprintf(stderr, "perfbench: request %zu (instance seed %llu%s) FAILED: %s %s\n", i,
               static_cast<unsigned long long>(s.pool.instances[r.instance].seed),
               r.permuted ? ", permuted" : "", toString(a.verdict), a.error.c_str());
}

/// The untraced pass: one client, closed loop, each request timed from
/// parse to response; classification happens outside the timed window.
/// `between` runs, untimed, after every `stride`-th request (stride 0: never).
Tally untracedPass(const Setup& s, const WorkloadSpec& spec, std::size_t stride = 0,
                   const std::function<void()>& between = {}) {
  const SolveRequest req = solveRequest(spec);
  Tally tally;
  for (std::size_t i = 0; i < s.requests.size(); ++i) {
    const Request& r = s.requests[i];
    const Driver& drv = *s.drivers[static_cast<std::size_t>(r.round)];
    Answer a;
    rfp::Stopwatch watch;
    try {
      const FloorplanProblem problem = rfp::io::parseProblem(r.text, *s.pool.dev);
      a.response = dispatch(drv, spec, problem, req);
      a.wall = watch.seconds();
      a.verdict = classify(problem, a.response, s.refs[r.instance]);
    } catch (const std::exception& e) {
      a.wall = watch.seconds();
      a.verdict = Verdict::kThrew;
      a.error = e.what();
    }
    if (isFailure(a.verdict)) reportFailure(s, i, a);
    tally.add(a, s.refs[r.instance], spec.budget_seconds);
    if (stride > 0 && (i + 1) % stride == 0) between();
  }
  return tally;
}

// ---- metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

std::string resultJson(bool correct, long attempted, long failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (!std::isfinite(metrics[i].value))
      throw std::runtime_error("metric " + metrics[i].name + " is not finite");
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    out += buf;
  }
  return out + "}}";
}

double peakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---- the traced pass -------------------------------------------------------

/// Per-layer observations of one traced pass. Times are per call; counts
/// are totals over the pass.
struct LayerData {
  std::vector<double> parse_us, check_us, overhead_s, fingerprint_us, lookup_us, partition_s;
  long requests = 0, cache_hits = 0;
  // Portfolio requests (sdr-portfolio) or portfolio probes (other workloads).
  std::vector<double> stage1_s, winner_s;
  double portfolio_s = 0.0, stage1_sum = 0.0;
  long adoptions = 0;
  // Exact search.
  std::vector<double> search_s;
  double search_sum = 0.0, search_thread_s = 0.0, search_idle = 0.0;
  long search_nodes = 0, search_steals = 0;
  // MILP chain.
  std::vector<double> formulation_s, formulation_nnz, presolve_s, root_s, cuts_s, milp_s;
  double milp_sum = 0.0;
  long milp_runs = 0, milp_nodes = 0, lp_dense_runs = 0, lp_iterations = 0, lp_solves = 0,
       lp_warm = 0, lp_dual = 0, lp_refactor = 0, ftran_sparse = 0, ftran_dense = 0,
       btran_sparse = 0, btran_dense = 0;
  // Incomplete engines.
  std::vector<double> heuristic_s, anneal_s;
  double anneal_sum = 0.0;
  long anneal_iterations = 0;
};

/// The layer replays of one request, each a public entry point of the
/// library called on the request's problem.
class Replayer {
 public:
  Replayer(const Setup& s, const WorkloadSpec& spec, const Driver& drv, Tracer& tracer,
           LayerData& d)
      : s_(s), spec_(spec), drv_(drv), tracer_(tracer), d_(d) {}

  double search(long i, const FloorplanProblem& p, int threads, double cap) {
    rfp::search::SearchOptions so;
    so.mode = p.lexicographic() ? rfp::search::ObjectiveMode::kLexicographic
                                : rfp::search::ObjectiveMode::kWeighted;
    so.num_threads = threads;
    so.time_limit_seconds = cap;
    Span span(tracer_, "search.solve", i);
    const rfp::search::SearchResult r = rfp::search::ColumnarSearchSolver(so).solve(p);
    const double sec = span.end();
    d_.search_s.push_back(sec);
    d_.search_sum += sec;
    d_.search_thread_s += sec * threads;
    d_.search_nodes += r.nodes;
    d_.search_steals += r.steals;
    for (const auto& w : r.workers) d_.search_idle += w.idle_seconds;
    return sec;
  }

  /// The MILP layers in solve order: formulation, presolve, root LP, cuts,
  /// then MILP-O as the driver configures it. Returns the MILP-O time.
  double milp(long i, const FloorplanProblem& p, int threads, double cap) {
    {
      rfp::fp::FormulationOptions fo;
      fo.objective = rfp::fp::ObjectiveKind::kWastedFrames;  // lexicographic stage 1
      Span fspan(tracer_, "fp.formulation", i);
      const rfp::fp::MilpFormulation form(p, s_.partition, fo);
      d_.formulation_s.push_back(fspan.end());
      const rfp::lp::Model& model = form.model();
      double nnz = 0;
      for (const auto& c : model.constrs()) nnz += static_cast<double>(c.terms.size());
      d_.formulation_nnz.push_back(nnz);

      std::vector<double> lb, ub;
      for (const auto& v : model.vars()) {
        lb.push_back(v.lb);
        ub.push_back(v.ub);
      }
      {
        Span span(tracer_, "milp.presolve", i);
        (void)rfp::milp::tightenBounds(model, lb, ub);
        d_.presolve_s.push_back(span.end());
      }
      rfp::lp::LpSolver::Options lo;
      lo.core.time_limit_seconds = cap;
      rfp::lp::LpResult root;
      {
        Span span(tracer_, "lp.root", i);
        root = rfp::lp::LpSolver(lo).solve(model);
        d_.root_s.push_back(span.end());
      }
      // Separate at the root optimum; a capped root that stopped early has
      // no point, so the bound midpoint stands in.
      std::vector<double> point = root.x;
      if (point.size() != model.vars().size()) {
        point.clear();
        for (const auto& v : model.vars())
          point.push_back(0.5 * (v.lb + std::min(v.ub, v.lb + 1.0)));
      }
      Span span(tracer_, "milp.cuts", i);
      (void)rfp::milp::separateCoverCuts(model, point);
      d_.cuts_s.push_back(span.end());
    }
    rfp::fp::MilpFloorplannerOptions mo;
    mo.algorithm = rfp::fp::Algorithm::kO;
    mo.lexicographic = p.lexicographic();
    mo.milp.threads = threads;
    mo.time_limit_seconds = cap;
    Span span(tracer_, "milp.solve", i);
    const rfp::fp::FpResult r = rfp::fp::MilpFloorplanner(mo).solve(p);
    const double sec = span.end();
    d_.milp_s.push_back(sec);
    d_.milp_sum += sec;
    ++d_.milp_runs;
    d_.milp_nodes += r.nodes;
    d_.lp_dense_runs += r.lp_engine == rfp::lp::LpEngine::kDense ? 1 : 0;
    d_.lp_iterations += r.lp_iterations;
    d_.lp_solves += r.lp_solves;
    d_.lp_warm += r.lp_warm_hits;
    d_.lp_dual += r.lp_dual_reopts;
    d_.lp_refactor += r.lp_refactorizations;
    d_.ftran_sparse += r.lp_ftran_sparse;
    d_.ftran_dense += r.lp_ftran_dense;
    d_.btran_sparse += r.lp_btran_sparse;
    d_.btran_dense += r.lp_btran_dense;
    return sec;
  }

  void incomplete(long i, const FloorplanProblem& p, double cap) {
    rfp::fp::HeuristicOptions ho;
    ho.time_limit_seconds = cap;
    {
      Span span(tracer_, "fp.heuristic", i);
      (void)rfp::fp::constructiveFloorplan(p, ho);
      d_.heuristic_s.push_back(span.end());
    }
    rfp::baseline::AnnealerOptions ao;
    ao.time_limit_seconds = cap;
    Span span(tracer_, "baseline.anneal", i);
    const auto r = rfp::baseline::annealFloorplan(p, ao);
    const double sec = span.end();
    d_.anneal_s.push_back(sec);
    d_.anneal_sum += sec;
    d_.anneal_iterations += r ? r->iterations : 0;
  }

  void portfolioFigures(const SolveResponse& r, double request_s) {
    d_.stage1_s.push_back(r.incumbent.stage1_seconds);
    d_.stage1_sum += r.incumbent.stage1_seconds;
    d_.portfolio_s += request_s;
    d_.adoptions += r.incumbent.adoptions;
    for (const auto& m : r.members)
      if (m.backend == r.backend && r.hasSolution()) d_.winner_s.push_back(m.seconds);
  }

  void portfolioProbe(long i, const FloorplanProblem& p) {
    SolveRequest req;
    req.deadline_seconds = kProbeBudget;
    Span span(tracer_, "driver.portfolio", i);
    const SolveResponse r = drv_.solvePortfolio(p, req);
    portfolioFigures(r, span.end());
  }

  void cache(long i, const FloorplanProblem& p) {
    const SolveRequest req = solveRequest(spec_);
    rfp::driver::Fingerprint fp;
    {
      Span span(tracer_, "driver.cache.fingerprint", i);
      fp = rfp::driver::fingerprintProblem(p, req, backendOf(spec_));
      d_.fingerprint_us.push_back(span.end() * 1e6);
    }
    if (rfp::driver::ResultCache* cache = drv_.cache()) {
      Span span(tracer_, "driver.cache.lookup", i);
      (void)cache->lookup(fp, p);
      d_.lookup_us.push_back(span.end() * 1e6);
    }
  }

  void partition(long i) {
    Span span(tracer_, "partition.columnar", i);
    (void)rfp::partition::columnarPartition(*s_.pool.dev);
    d_.partition_s.push_back(span.end());
  }

 private:
  const Setup& s_;
  const WorkloadSpec& spec_;
  const Driver& drv_;
  Tracer& tracer_;
  LayerData& d_;
};

/// Stage-1 slice the staged portfolio grants its incomplete members.
double stage1Slice(const WorkloadSpec& spec) {
  const SolveRequest defaults;
  return std::min(defaults.stage1_fraction * spec.budget_seconds, defaults.stage1_max_seconds);
}

/// The traced pass: the same requests as the untraced pass inside spans,
/// each followed (outside its request span) by the check and the replays.
Tally tracedPass(const Setup& s, const WorkloadSpec& spec, Tracer& tracer, LayerData& d) {
  const auto drivers = makeDrivers(spec);  // cold caches, like the untraced pass's
  const SolveRequest req = solveRequest(spec);
  Tally tally;
  Span root(tracer, "bench.traced_pass");
  for (std::size_t idx = 0; idx < s.requests.size(); ++idx) {
    const auto i = static_cast<long>(idx);
    const Request& r = s.requests[idx];
    const Reference& ref = s.refs[r.instance];
    const Driver& drv = *drivers[static_cast<std::size_t>(r.round)];
    Answer a;
    std::optional<FloorplanProblem> problem;
    double driver_s = 0.0;
    {
      Span request(tracer, "request", i);
      try {
        {
          Span span(tracer, "io.parse", i);
          problem.emplace(rfp::io::parseProblem(r.text, *s.pool.dev));
          d.parse_us.push_back(span.end() * 1e6);
        }
        Span span(tracer, "driver.solve", i);
        a.response = dispatch(drv, spec, *problem, req);
        driver_s = span.end();
      } catch (const std::exception& e) {
        a.error = e.what();
      }
      a.wall = request.end();
    }
    if (a.error.empty()) {
      Span span(tracer, "model.check", i);
      a.verdict = classify(*problem, a.response, ref);
      d.check_us.push_back(span.end() * 1e6);
    }
    if (isFailure(a.verdict)) reportFailure(s, idx, a);
    tally.add(a, ref, spec.budget_seconds);
    if (!problem) continue;

    ++d.requests;
    d.cache_hits += a.response.cache_hit ? 1 : 0;
    Span replays(tracer, "replay", i);
    Replayer replay(s, spec, drv, tracer, d);
    replay.partition(i);
    replay.cache(i, *problem);
    if (spec.mode == Mode::kPortfolio) replay.portfolioFigures(a.response, a.wall);
    if (r.round > 0) continue;
    const bool probe = idx < kProbeRequests;
    const int threads = spec.in_solve_threads;
    double engine_s = 0.0;
    switch (spec.mode) {
      case Mode::kPortfolio:
        engine_s = replay.search(i, *problem, threads, spec.budget_seconds);
        // The incomplete engines get the time stage 1 gave them in the race.
        replay.incomplete(i, *problem,
                          a.response.incumbent.stage1_seconds > 0
                              ? a.response.incumbent.stage1_seconds
                              : stage1Slice(spec));
        if (probe) (void)replay.milp(i, *problem, threads, kProbeBudget);
        break;
      case Mode::kSearch:
        // A cache hit ran no engine; its instance's search was replayed at
        // its first send.
        if (!a.response.cache_hit)
          engine_s = replay.search(i, *problem, threads, spec.budget_seconds);
        if (probe) {
          (void)replay.milp(i, *problem, threads, kProbeBudget);
          replay.incomplete(i, *problem, kProbeBudget);
          replay.portfolioProbe(i, *problem);
        }
        break;
      case Mode::kMilpO:
        engine_s = replay.milp(i, *problem, threads, spec.budget_seconds);
        if (probe) {
          (void)replay.search(i, *problem, threads, kProbeBudget);
          replay.incomplete(i, *problem, kProbeBudget);
          replay.portfolioProbe(i, *problem);
        }
        break;
    }
    if (!a.response.cache_hit) d.overhead_s.push_back(driver_s - engine_s);
  }
  return tally;
}

std::vector<Metric> layerMetrics(const LayerData& d, double untraced_wall, double traced_wall) {
  const auto med = [](const std::vector<double>& v) { return median(v); };
  return {
      {"driver.overhead_s", med(d.overhead_s), "s"},
      {"driver.cache.hit_rate", ratio(static_cast<double>(d.cache_hits), static_cast<double>(d.requests)), "ratio"},
      {"driver.cache.fingerprint_us", med(d.fingerprint_us), "us"},
      {"driver.cache.lookup_us", med(d.lookup_us), "us"},
      {"driver.portfolio.stage1_s", med(d.stage1_s), "s"},
      {"driver.portfolio.stage1_share", ratio(d.stage1_sum, d.portfolio_s), "ratio"},
      {"driver.portfolio.winner_s", med(d.winner_s), "s"},
      {"driver.portfolio.adoptions", static_cast<double>(d.adoptions), "count"},
      {"search.solve_s", med(d.search_s), "s"},
      {"search.nodes", static_cast<double>(d.search_nodes), "count"},
      {"search.nodes_per_s", ratio(static_cast<double>(d.search_nodes), d.search_sum), "1/s"},
      {"search.steals", static_cast<double>(d.search_steals), "count"},
      {"search.idle_share", ratio(d.search_idle, d.search_thread_s), "ratio"},
      {"fp.formulation_s", med(d.formulation_s), "s"},
      {"fp.formulation_nnz", med(d.formulation_nnz), "count"},
      {"milp.presolve_s", med(d.presolve_s), "s"},
      {"milp.cuts_s", med(d.cuts_s), "s"},
      {"milp.solve_s", med(d.milp_s), "s"},
      {"milp.nodes", static_cast<double>(d.milp_nodes), "count"},
      {"milp.nodes_per_s", ratio(static_cast<double>(d.milp_nodes), d.milp_sum), "1/s"},
      {"lp.root_s", med(d.root_s), "s"},
      {"lp.iterations", static_cast<double>(d.lp_iterations), "count"},
      {"lp.dense_share", ratio(static_cast<double>(d.lp_dense_runs), static_cast<double>(d.milp_runs)), "ratio"},
      {"lp.warm_start_hit_rate", ratio(static_cast<double>(d.lp_warm), static_cast<double>(d.lp_solves)), "ratio"},
      {"lp.dual_reopt_rate", ratio(static_cast<double>(d.lp_dual), static_cast<double>(d.lp_solves)), "ratio"},
      {"lp.refactorizations", static_cast<double>(d.lp_refactor), "count"},
      {"lp.ftran_sparse_share", ratio(static_cast<double>(d.ftran_sparse), static_cast<double>(d.ftran_sparse + d.ftran_dense)), "ratio"},
      {"lp.btran_sparse_share", ratio(static_cast<double>(d.btran_sparse), static_cast<double>(d.btran_sparse + d.btran_dense)), "ratio"},
      {"fp.heuristic_s", med(d.heuristic_s), "s"},
      {"baseline.anneal_s", med(d.anneal_s), "s"},
      {"baseline.iterations_per_s", ratio(static_cast<double>(d.anneal_iterations), d.anneal_sum), "1/s"},
      {"io.parse_us", med(d.parse_us), "us"},
      {"partition.columnar_s", med(d.partition_s), "s"},
      {"model.check_us", med(d.check_us), "us"},
      {"bench.trace_overhead_share", ratio(traced_wall - untraced_wall, untraced_wall), "ratio"},
  };
}

void printSelfTime(const Tracer& tracer) {
  const std::vector<SelfTimeRow> table = selfTimeTable(tracer.events());
  double wall = 0.0, self = 0.0;
  for (const SpanEvent& e : tracer.events())
    if (e.parent < 0) wall += e.dur_us * 1e-6;
  std::printf("self time by span (traced pass):\n  %-28s %7s %12s %12s %7s\n", "span", "count",
              "total_s", "self_s", "share");
  for (const SelfTimeRow& row : table) {
    self += row.self_s;
    std::printf("  %-28s %7ld %12.6f %12.6f %6.2f%%\n", row.name.c_str(), row.count,
                row.total_s, row.self_s, 100.0 * ratio(row.self_s, wall));
  }
  std::printf("  self times sum to %.6f s of %.6f s traced wall (%.4f%%)\n", self, wall,
              100.0 * ratio(self, wall));
}

}  // namespace

int runWorkload(const RunOptions& o) {
  const WorkloadSpec& spec = *o.spec;
  const int cpus = availableCpus();
  const int busy = std::max(spec.busyThreads(), o.trace ? kPortfolioMembers : 0);
  if (busy > cpus)
    throw std::runtime_error("thread guard: workload " + spec.name + " keeps " +
                             std::to_string(busy) + " threads busy but only " +
                             std::to_string(cpus) + " CPUs are available");

  std::vector<double> setup_s;
  const auto timedSetUp = [&] {
    rfp::Stopwatch watch;
    Setup fresh = setUp(o);
    setup_s.push_back(watch.seconds());
    return fresh;
  };
  const Setup s = timedSetUp();

  std::size_t resends = 0;
  for (const Request& r : s.requests) resends += r.resend ? 1 : 0;
  std::printf("perfbench %s: seed %llu, %zu requests (%zu pool instances x %d, %zu re-sent), "
              "budget %.1f s, one client, closed loop\n",
              spec.name.c_str(), static_cast<unsigned long long>(o.seed), s.requests.size(),
              s.pool.instances.size(), spec.rounds, resends, spec.budget_seconds);
  std::printf("threads busy: %d (nproc %d); nominal run length %.0f s; %s run\n", busy, cpus,
              o.seconds, o.trace ? "traced" : "untraced");
  std::fflush(stdout);

  const std::size_t stride = std::max<std::size_t>(1, s.requests.size() / kSetupRepeats);
  const Tally plain = untracedPass(s, spec, stride, [&] {
    if (setup_s.size() < kSetupRepeats) (void)timedSetUp();
  });
  while (setup_s.size() < kSetupRepeats) (void)timedSetUp();
  std::vector<Metric> metrics;
  long attempted = plain.attempted, failed = plain.failed;
  if (!o.trace) {
    const Tail t = tail(plain.time_to_proof);
    if (!t.valid) throw std::runtime_error("request list too short for the tail rule");
    std::printf("time to proof: p50 %.6f s, p%.1f %.6f s (%zu samples, %zu beyond)\n",
                median(plain.time_to_proof), t.percentile, t.value, t.samples, t.beyond);
    const double n = static_cast<double>(plain.attempted);
    metrics = {
        {"time_to_proof_p50_s", median(plain.time_to_proof), "s"},
        {"time_to_proof_tail_s", t.value, "s"},
        {"solves_per_s", ratio(static_cast<double>(plain.completed), plain.wall_sum), "1/s"},
        {"proved_frac", ratio(static_cast<double>(plain.proved), n), "ratio"},
        {"optimal_frac", ratio(static_cast<double>(plain.optimal), n), "ratio"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mib", peakRssMib(), "MiB"},
    };
  } else {
    Tracer tracer;
    LayerData d;
    const Tally traced = tracedPass(s, spec, tracer, d);
    attempted += traced.attempted;
    failed += traced.failed;
    printSelfTime(tracer);
    if (!o.trace_out.empty()) {
      std::ofstream out(o.trace_out);
      out << tracer.toChromeJson();
      if (!out) throw std::runtime_error("cannot write trace " + o.trace_out);
      std::printf("trace written to %s\n", o.trace_out.c_str());
    }
    metrics = layerMetrics(d, plain.wall_sum, traced.wall_sum);
  }
  for (const Metric& m : metrics) std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("%s\n", resultJson(failed == 0, attempted, failed, metrics).c_str());
  return 0;
}

int recordReferences(const WorkloadSpec& spec, const std::string& refs_dir) {
  const Pool pool = buildPool(spec);
  std::vector<Reference> rows;
  int disagreements = 0;
  for (const Instance& inst : pool.instances) {
    Reference ref;
    ref.seed = inst.seed;
    ref.hash = inst.hash;
    rfp::search::SearchOptions so;  // one thread, no deadline
    so.mode = inst.problem.lexicographic() ? rfp::search::ObjectiveMode::kLexicographic
                                           : rfp::search::ObjectiveMode::kWeighted;
    const rfp::search::SearchResult sr = rfp::search::ColumnarSearchSolver(so).solve(inst.problem);
    if (sr.status != rfp::search::SearchStatus::kOptimal &&
        sr.status != rfp::search::SearchStatus::kInfeasible)
      throw std::runtime_error("search without a deadline ended unproved");
    ref.feasible = sr.status == rfp::search::SearchStatus::kOptimal;
    ref.waste = ref.feasible ? sr.costs.wasted_frames : 0;
    ref.wire_length = ref.feasible ? sr.costs.wire_length : 0.0;
    ref.nodes = sr.nodes;
    ref.seconds = sr.seconds;

    rfp::fp::MilpFloorplannerOptions mo;
    mo.algorithm = rfp::fp::Algorithm::kO;
    mo.lexicographic = inst.problem.lexicographic();
    mo.time_limit_seconds = spec.record_milp_budget;
    const rfp::fp::FpResult mr = rfp::fp::MilpFloorplanner(mo).solve(inst.problem);
    ref.milp_check = "unproved";
    bool agree = true;
    if (mr.status == rfp::fp::FpStatus::kOptimal) {
      agree = matchesReference(mr.costs, ref);
      ref.milp_check = "agree";
    } else if (mr.status == rfp::fp::FpStatus::kInfeasible) {
      agree = !ref.feasible;
      ref.milp_check = "agree";
    }
    std::fprintf(stderr, "%s seed %llu: %s waste=%ld wl=%.1f search %ld nodes %.3f s; "
                 "milp-o %s %.3f s%s\n",
                 spec.name.c_str(), static_cast<unsigned long long>(inst.seed),
                 ref.feasible ? "optimal" : "infeasible", ref.waste, ref.wire_length, ref.nodes,
                 ref.seconds, rfp::fp::toString(mr.status), mr.seconds,
                 agree ? "" : "  DISAGREES");
    if (!agree) {
      ++disagreements;
      ref.milp_check = "DISAGREES";
    }
    rows.push_back(ref);
  }
  if (disagreements > 0) {
    std::fprintf(stderr, "record: MILP-O disagrees with the search on %d instance(s); "
                 "nothing written\n", disagreements);
    return 1;
  }
  writeReferences(refsPath(refs_dir, spec), spec.name, rows);
  std::fprintf(stderr, "wrote %s (%zu rows)\n", refsPath(refs_dir, spec).c_str(), rows.size());
  return 0;
}

}  // namespace perfbench
