// Problem text format: parsing, round-trips, and line-numbered diagnostics.
#include <gtest/gtest.h>

#include <cmath>

#include "device/builders.hpp"
#include "io/problem_text.hpp"
#include "search/solver.hpp"
#include "support/check.hpp"

namespace rfp::io {
namespace {

const char* kSdrText = R"(
# the paper's SDR design (Table I)
problem sdr
region matched_filter  CLB=25 DSP=5
region carrier_recovery CLB=7 DSP=1
region demodulator     CLB=5 BRAM=2
region signal_decoder  CLB=12 BRAM=1
region video_decoder   CLB=55 BRAM=2 DSP=5
net 64 matched_filter carrier_recovery
net 64 carrier_recovery demodulator
net 64 demodulator signal_decoder
net 64 signal_decoder video_decoder
relocate carrier_recovery count=2
relocate demodulator count=2
relocate signal_decoder count=2
objective lexicographic
)";

TEST(ProblemText, ParsesTheSdrDesign) {
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem p = parseProblem(kSdrText, dev);
  ASSERT_EQ(p.numRegions(), 5);
  EXPECT_EQ(p.region(0).name, "matched_filter");
  EXPECT_EQ(p.region(0).required(dev.tileTypeId("CLB")), 25);
  EXPECT_EQ(p.region(0).required(dev.tileTypeId("DSP")), 5);
  EXPECT_EQ(p.region(0).required(dev.tileTypeId("BRAM")), 0);
  EXPECT_EQ(p.nets().size(), 4u);
  EXPECT_DOUBLE_EQ(p.nets()[0].weight, 64.0);
  EXPECT_EQ(p.totalFcAreas(), 6);
  EXPECT_TRUE(p.lexicographic());
  EXPECT_EQ(p.minFrames(0), 1040);  // Table I's frame column
}

TEST(ProblemText, MatchesTheBuiltInSdrProblem) {
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem parsed = parseProblem(kSdrText, dev);
  model::FloorplanProblem built = model::makeSdrProblem(dev);
  model::addSdrRelocations(built, 2);
  ASSERT_EQ(parsed.numRegions(), built.numRegions());
  for (int n = 0; n < built.numRegions(); ++n)
    for (int t = 0; t < dev.numTileTypes(); ++t)
      EXPECT_EQ(parsed.region(n).required(t), built.region(n).required(t)) << n << "," << t;
}

TEST(ProblemText, RoundTripsThroughFormat) {
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem a = parseProblem(kSdrText, dev);
  const model::FloorplanProblem b = parseProblem(formatProblem(a), dev);
  ASSERT_EQ(a.numRegions(), b.numRegions());
  for (int n = 0; n < a.numRegions(); ++n) {
    EXPECT_EQ(a.region(n).name, b.region(n).name);
    for (int t = 0; t < dev.numTileTypes(); ++t)
      EXPECT_EQ(a.region(n).required(t), b.region(n).required(t));
  }
  ASSERT_EQ(a.nets().size(), b.nets().size());
  for (std::size_t i = 0; i < a.nets().size(); ++i) {
    EXPECT_EQ(a.nets()[i].regions, b.nets()[i].regions);
    EXPECT_DOUBLE_EQ(a.nets()[i].weight, b.nets()[i].weight);
  }
  ASSERT_EQ(a.relocations().size(), b.relocations().size());
  EXPECT_EQ(a.lexicographic(), b.lexicographic());
}

TEST(ProblemText, ParsesWeightedObjectiveAndSoftRelocation) {
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem p = parseProblem(R"(
region a CLB=4
relocate a count=3 soft weight=2.5
objective weighted q1=1 q2=0.5 q3=2 q4=0.25
)",
                                                 dev);
  ASSERT_EQ(p.relocations().size(), 1u);
  EXPECT_FALSE(p.relocations()[0].hard);
  EXPECT_DOUBLE_EQ(p.relocations()[0].weight, 2.5);
  EXPECT_EQ(p.relocations()[0].count, 3);
  EXPECT_FALSE(p.lexicographic());
  EXPECT_DOUBLE_EQ(p.weights().q1_wirelength, 1.0);
  EXPECT_DOUBLE_EQ(p.weights().q2_perimeter, 0.5);
  EXPECT_DOUBLE_EQ(p.weights().q3_wasted, 2.0);
  EXPECT_DOUBLE_EQ(p.weights().q4_relocation, 0.25);

  const model::FloorplanProblem round = parseProblem(formatProblem(p), dev);
  EXPECT_FALSE(round.lexicographic());
  EXPECT_DOUBLE_EQ(round.weights().q4_relocation, 0.25);
  EXPECT_FALSE(round.relocations()[0].hard);
}

struct BadInput {
  const char* name;
  const char* text;
  const char* what_contains;
};

class ProblemTextErrors : public ::testing::TestWithParam<BadInput> {};

TEST_P(ProblemTextErrors, RejectsWithLineNumberedMessage) {
  const device::Device dev = device::virtex5FX70T();
  try {
    (void)parseProblem(GetParam().text, dev);
    FAIL() << "expected CheckError";
  } catch (const rfp::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(GetParam().what_contains), std::string::npos)
        << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ProblemTextErrors,
    ::testing::Values(
        BadInput{"unknown_keyword", "frobnicate x\n", "unknown keyword"},
        BadInput{"unknown_tile_type", "region a FOO=3\n", "unknown tile type"},
        BadInput{"unknown_region_in_net", "region a CLB=2\nnet 1 a ghost\n",
                 "unknown region"},
        BadInput{"duplicate_region", "region a CLB=2\nregion a CLB=3\n", "duplicate"},
        BadInput{"relocate_without_count", "region a CLB=2\nrelocate a weight=1\n",
                 "count"},
        BadInput{"bad_objective", "region a CLB=2\nobjective fastest\n", "objective"},
        BadInput{"net_single_pin", "region a CLB=2\nnet 1 a\n", "net"},
        BadInput{"empty_region", "region a\n", "region"},
        BadInput{"nan_net_weight", "region a CLB=2\nregion b CLB=2\nnet nan a b\n",
                 "line 3: net weight 'nan'"},
        BadInput{"negative_net_weight", "region a CLB=2\nregion b CLB=2\nnet -5 a b\n",
                 "line 3: net weight '-5'"},
        BadInput{"infinite_net_weight", "region a CLB=2\nregion b CLB=2\nnet inf a b\n",
                 "line 3: net weight 'inf'"},
        BadInput{"region_in_weight_slot", "region a CLB=2\nregion b CLB=2\nnet a a b\n",
                 "line 3: net weight 'a'"},
        BadInput{"negative_relocation_weight",
                 "region a CLB=2\nrelocate a count=1 soft weight=-1\n",
                 "line 2: relocation weight '-1'"}),
    [](const ::testing::TestParamInfo<BadInput>& info) { return info.param.name; });

TEST(ProblemText, ValidationRejectsBadWeightsFromAnySource) {
  // Problems built in code skip the parser; the search's wire-length bound
  // assumes weights >= 0, so validation itself must refuse NaN, infinity
  // and negatives, and the search must not turn them into a "proof".
  const device::Device dev = device::virtex5FX70T();
  for (const double w : {std::nan(""), -5.0, HUGE_VAL}) {
    model::FloorplanProblem net_weight = parseProblem("region a CLB=2\nregion b CLB=2\n", dev);
    net_weight.addNet(model::Net{{0, 1}, w, "n"});
    EXPECT_NE(net_weight.validateStructure().find("net 'n' has weight"), std::string::npos) << w;
    EXPECT_THROW((void)search::ColumnarSearchSolver().solve(net_weight), rfp::CheckError) << w;

    model::FloorplanProblem reloc_weight = parseProblem("region a CLB=2\n", dev);
    reloc_weight.addRelocation(model::RelocationRequest{0, 1, /*hard=*/false, w});
    EXPECT_NE(reloc_weight.validateStructure().find("has weight"), std::string::npos) << w;
  }
}

TEST(ProblemText, CommentsAndBlankLinesAreIgnored)
{
  const device::Device dev = device::virtex5FX70T();
  const model::FloorplanProblem p = parseProblem(
      "# leading comment\n\nregion a CLB=2   # trailing comment\n\n", dev);
  EXPECT_EQ(p.numRegions(), 1);
}

}  // namespace
}  // namespace rfp::io
