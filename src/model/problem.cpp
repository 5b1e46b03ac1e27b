#include "model/problem.hpp"

#include <cmath>
#include <sstream>

#include "support/check.hpp"

namespace rfp::model {

int FloorplanProblem::addRegion(RegionSpec spec) {
  RFP_CHECK_MSG(!spec.tiles.empty(), "region '" << spec.name << "' requires no tiles");
  regions_.push_back(std::move(spec));
  return numRegions() - 1;
}

int FloorplanProblem::addNet(Net net) {
  RFP_CHECK_MSG(net.regions.size() >= 2, "net '" << net.name << "' needs >= 2 pins");
  for (const int r : net.regions)
    RFP_CHECK_MSG(r >= 0 && r < numRegions(), "net '" << net.name << "' pin out of range");
  nets_.push_back(std::move(net));
  return static_cast<int>(nets_.size()) - 1;
}

void FloorplanProblem::addRelocation(RelocationRequest req) {
  RFP_CHECK_MSG(req.region >= 0 && req.region < numRegions(),
                "relocation request region out of range");
  RFP_CHECK_MSG(req.count >= 1, "relocation request count must be >= 1");
  relocations_.push_back(req);
}

int FloorplanProblem::totalFcAreas() const noexcept {
  int total = 0;
  for (const RelocationRequest& r : relocations_) total += r.count;
  return total;
}

long FloorplanProblem::minFrames(int n) const {
  const RegionSpec& spec = region(n);
  long frames = 0;
  for (int t = 0; t < dev().numTileTypes(); ++t)
    frames += static_cast<long>(spec.required(t)) * dev().tileType(t).frames;
  return frames;
}

namespace {

/// Net and relocation weights scale cost terms whose lower bounds assume a
/// non-negative weight; NaN or infinity would make every cost meaningless.
bool validWeight(double w) { return std::isfinite(w) && w >= 0.0; }

}  // namespace

std::string FloorplanProblem::validateStructure() const {
  for (int n = 0; n < numRegions(); ++n) {
    const RegionSpec& spec = region(n);
    if (static_cast<int>(spec.tiles.size()) > dev().numTileTypes())
      return "region '" + spec.name + "' references unknown tile types";
    long total = 0;
    for (int t = 0; t < dev().numTileTypes(); ++t) {
      if (spec.required(t) < 0) return "region '" + spec.name + "' has negative requirement";
      total += spec.required(t);
    }
    if (total == 0) return "region '" + spec.name + "' requires no tiles";
  }
  for (const Net& net : nets_)
    if (!validWeight(net.weight)) {
      std::ostringstream os;
      os << "net '" << net.name << "' has weight " << net.weight
         << " (must be finite and >= 0)";
      return os.str();
    }
  for (const RelocationRequest& r : relocations_) {
    if (r.region < 0 || r.region >= numRegions()) return "relocation request region out of range";
    if (!validWeight(r.weight)) {
      std::ostringstream os;
      os << "relocation request for region '" << region(r.region).name << "' has weight "
         << r.weight << " (must be finite and >= 0)";
      return os.str();
    }
  }
  return "";
}

std::string FloorplanProblem::supplyShortfall() const {
  const std::vector<int> avail = dev().totalTiles(/*usable_only=*/true);
  std::vector<long> need(avail.size(), 0);
  for (int n = 0; n < numRegions(); ++n)
    for (int t = 0; t < dev().numTileTypes(); ++t)
      need[static_cast<std::size_t>(t)] += region(n).required(t);
  for (std::size_t t = 0; t < avail.size(); ++t)
    if (need[t] > avail[t]) {
      std::ostringstream os;
      os << "total demand for tile type '" << dev().tileType(static_cast<int>(t)).name
         << "' (" << need[t] << ") exceeds usable device supply (" << avail[t] << ")";
      return os.str();
    }
  return "";
}

std::string FloorplanProblem::validate() const {
  const std::string structural = validateStructure();
  if (!structural.empty()) return structural;
  return supplyShortfall();
}

FloorplanProblem makeSdrProblem(const device::Device& dev) {
  const int clb = dev.tileTypeId("CLB");
  const int bram = dev.tileTypeId("BRAM");
  const int dsp = dev.tileTypeId("DSP");
  RFP_CHECK_MSG(clb >= 0 && bram >= 0 && dsp >= 0,
                "SDR problem needs CLB/BRAM/DSP tile types on device '" << dev.name() << "'");

  FloorplanProblem problem(&dev);
  const auto spec = [&](std::string name, int c, int b, int d) {
    std::vector<int> tiles(static_cast<std::size_t>(dev.numTileTypes()), 0);
    tiles[static_cast<std::size_t>(clb)] = c;
    tiles[static_cast<std::size_t>(bram)] = b;
    tiles[static_cast<std::size_t>(dsp)] = d;
    return RegionSpec{std::move(name), std::move(tiles)};
  };
  // Table I: resource requirements for the SDR design.
  problem.addRegion(spec("matched_filter", 25, 0, 5));
  problem.addRegion(spec("carrier_recovery", 7, 0, 1));
  problem.addRegion(spec("demodulator", 5, 2, 0));
  problem.addRegion(spec("signal_decoder", 12, 1, 0));
  problem.addRegion(spec("video_decoder", 55, 2, 5));

  // All modules are connected in sequential order with a 64-bit wide bus.
  const double bus = 64.0;
  problem.addNet(Net{{kMatchedFilter, kCarrierRecovery}, bus, "mf-cr"});
  problem.addNet(Net{{kCarrierRecovery, kDemodulator}, bus, "cr-dem"});
  problem.addNet(Net{{kDemodulator, kSignalDecoder}, bus, "dem-sd"});
  problem.addNet(Net{{kSignalDecoder, kVideoDecoder}, bus, "sd-vd"});

  problem.setLexicographic(true);  // the evaluation's objective (Sec. VI)
  return problem;
}

void addSdrRelocations(FloorplanProblem& problem, int fc_per_region, bool hard,
                       double weight) {
  for (const int region : {kCarrierRecovery, kDemodulator, kSignalDecoder})
    problem.addRelocation(RelocationRequest{region, fc_per_region, hard, weight});
}

}  // namespace rfp::model
