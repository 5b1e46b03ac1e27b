// `rfp_perfbench self-test`: checks the benchmark's own arithmetic (tail
// rule, medians, time to proof), every classifier verdict, the self-time
// subtraction and the request-list rules, without timing anything.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "classify.hpp"
#include "device/builders.hpp"
#include "io/problem_text.hpp"
#include "model/floorplan.hpp"
#include "search/solver.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

int g_checks = 0;
int g_failures = 0;

void expect(bool ok, const std::string& what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "self-test FAILED: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void testStats() {
  expect(median({}) == 0.0, "median of nothing is 0");
  expect(median({3, 1, 2}) == 2.0, "odd median");
  expect(median({4, 1, 3, 2}) == 2.5, "even median averages the middle pair");

  std::vector<double> v;
  for (int i = 30; i >= 1; --i) v.push_back(i);  // unsorted input
  const Tail t = tail(v);
  expect(t.valid && t.value == 20.0, "tail of 1..30 is the 20th value (10 beyond it)");
  expect(near(t.percentile, 100.0 * 20 / 30), "tail of 30 samples is p66.7");
  expect(t.samples == 30 && t.beyond == 10, "tail states its sample count");
  expect(!tail(std::vector<double>(10, 1.0)).valid, "10 samples have no tail");
  const Tail t11 = tail({5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11});
  expect(t11.valid && t11.value == 1.0, "11 samples: the tail is the minimum");

  expect(timeToProof(true, 0.25, 4.0) == 0.25, "a proved request counts its wall time");
  expect(timeToProof(false, 0.25, 4.0) == 4.0, "an unproved request counts its budget");
  expect(timeToProof(false, 4.01, 4.0) == 4.0, "an overrun unproved request counts its budget");
}

void testSelfTime() {
  // root [0,100) > a [10,40) > a.child [20,30); root > b [50,90)
  std::vector<SpanEvent> ev = {
      {"root", -1, -1, 0, 100}, {"a", 0, 0, 10, 30}, {"a.child", 0, 1, 20, 10}, {"b", 1, 0, 50, 40}};
  double sum = 0;
  for (const SelfTimeRow& row : selfTimeTable(ev)) {
    sum += row.self_s;
    if (row.name == "root") expect(near(row.self_s, 30e-6), "root self = 100 - 30 - 40");
    if (row.name == "a") expect(near(row.self_s, 20e-6), "a self = 30 - 10");
    if (row.name == "a.child") expect(near(row.self_s, 10e-6), "leaf self = duration");
    if (row.name == "b") expect(near(row.total_s, 40e-6), "b total = duration");
  }
  expect(near(sum, 100e-6), "self times sum to the root's duration");

  Tracer tracer;
  {
    Span outer(tracer, "outer");
    Span inner(tracer, "inner", 7);
  }
  expect(tracer.events().size() == 2 && tracer.events()[1].parent == 0 &&
             tracer.events()[1].request == 7,
         "spans nest and carry their request");
  expect(tracer.toChromeJson().find("\"ph\":\"X\"") != std::string::npos,
         "chrome trace has complete events");
}

void testClassifier() {
  const rfp::device::Device dev = rfp::device::columnarFromPattern("t", "CCBCCDCC", 4);
  const rfp::model::FloorplanProblem problem =
      rfp::io::parseProblem("region a CLB=4 BRAM=1\nregion b CLB=3 DSP=1\nnet 8 a b\n", dev);
  const rfp::search::SearchResult best = rfp::search::ColumnarSearchSolver().solve(problem);
  expect(best.status == rfp::search::SearchStatus::kOptimal, "fixture solves");

  Reference ref;
  ref.waste = best.costs.wasted_frames;
  ref.wire_length = best.costs.wire_length;
  using rfp::driver::SolveStatus;
  rfp::driver::SolveResponse ok;
  ok.status = SolveStatus::kOptimal;
  ok.plan = best.plan;
  ok.costs = best.costs;
  expect(classify(problem, ok, ref) == Verdict::kProvedOptimal, "proved optimum");

  rfp::driver::SolveResponse r = ok;
  r.status = SolveStatus::kFeasible;
  expect(classify(problem, r, ref) == Verdict::kUnprovedPlan, "unproved plan");
  expect(!isFailure(Verdict::kUnprovedPlan) && !isProof(Verdict::kUnprovedPlan),
         "budget exhaustion is not a failure and not a proof");

  r = rfp::driver::SolveResponse{};
  expect(classify(problem, r, ref) == Verdict::kNoAnswer, "no answer");
  expect(!isFailure(Verdict::kNoAnswer), "no answer is not a failure");

  r.status = SolveStatus::kInfeasible;
  expect(classify(problem, r, ref) == Verdict::kWrongInfeasible, "infeasible on a feasible ref");
  Reference infeasible;
  infeasible.feasible = false;
  expect(classify(problem, r, infeasible) == Verdict::kProvedInfeasible, "proved infeasible");
  expect(classify(problem, ok, infeasible) == Verdict::kBeatsReference,
         "a plan for a reference-infeasible instance contradicts the reference");

  r = ok;
  r.plan.regions[1] = r.plan.regions[0];  // overlap
  expect(classify(problem, r, ref) == Verdict::kPlanRejected, "checker-rejected plan");

  r = ok;
  r.costs.wasted_frames += 1;
  expect(classify(problem, r, ref) == Verdict::kCostsMismatch, "misreported costs");

  Reference better = ref;
  better.wire_length -= 1.0;
  expect(classify(problem, ok, better) == Verdict::kWrongOptimum, "proof of a worse optimum");
  r = ok;
  r.status = SolveStatus::kFeasible;
  expect(classify(problem, r, better) == Verdict::kUnprovedPlan,
         "an unproved worse plan is not a failure");

  Reference worse = ref;
  worse.waste += 1;
  expect(classify(problem, ok, worse) == Verdict::kBeatsReference, "plan beats the reference");

  expect(matchesReference(ok.costs, ref) && !matchesReference(ok.costs, better),
         "optimum match compares waste and wire length");
  for (const Verdict v : {Verdict::kThrew, Verdict::kPlanRejected, Verdict::kCostsMismatch,
                          Verdict::kWrongOptimum, Verdict::kWrongInfeasible,
                          Verdict::kBeatsReference})
    expect(isFailure(v), std::string("failure verdict ") + toString(v));
}

void testRequests() {
  const WorkloadSpec& spec = *findWorkload("gen-search");
  const Pool pool = buildPool(spec);
  const std::vector<Request> a = buildRequests(spec, pool, 3);
  const std::vector<Request> b = buildRequests(spec, pool, 3);
  const std::vector<Request> c = buildRequests(spec, pool, 4);
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) same = a[i].text == b[i].text;
  expect(same, "same seed, same request list");
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) differs = a[i].text != c[i].text;
  expect(differs, "another seed, another request list");

  std::size_t resends = 0, permuted = 0;
  std::vector<int> first_sends(pool.instances.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    resends += a[i].resend ? 1 : 0;
    permuted += a[i].permuted ? 1 : 0;
    if (!a[i].resend) ++first_sends[a[i].instance];
    else expect(first_sends[a[i].instance] > 0, "a re-send follows its first send");
  }
  expect(std::fabs(static_cast<double>(resends) / static_cast<double>(a.size()) -
                   spec.resend_share) < 0.01,
         "re-sends make up the workload's share");
  expect(permuted > 0 && permuted < resends, "some re-sends are permuted");
  bool once = true;
  for (const int n : first_sends) once = once && n == spec.rounds;
  expect(once, "every pool instance is sent once per round");

  // A permuted instance keeps its optimum.
  const Instance& inst = pool.instances[0];
  std::vector<int> order;
  for (int i = inst.problem.numRegions() - 1; i >= 0; --i) order.push_back(i);
  const auto p2 = permuteRegions(inst.problem, order);
  const auto s1 = rfp::search::ColumnarSearchSolver().solve(inst.problem);
  const auto s2 = rfp::search::ColumnarSearchSolver().solve(p2);
  expect(s1.costs.wasted_frames == s2.costs.wasted_frames &&
             std::fabs(s1.costs.wire_length - s2.costs.wire_length) < 1e-9,
         "region permutation keeps the optimum");
}

}  // namespace

int selfTest() {
  testStats();
  testSelfTime();
  testClassifier();
  testRequests();
  std::printf("self-test: %d checks, %d failed\n", g_checks, g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
