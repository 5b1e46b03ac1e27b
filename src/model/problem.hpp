// Floorplanning problem description (Sections II, IV, V).
//
// A problem instance is a device plus:
//  * reconfigurable regions N with per-tile-type requirements c(n,t),
//  * a netlist over region centers (wire-length metric of [10]),
//  * relocation requests: for region n, a number of free-compatible areas,
//    either *hard* (relocation as a constraint, Sec. IV) or *soft* with a
//    weight cw_c (relocation as a metrics, Sec. V),
//  * objective weights q1..q4 of Eq. 14, or the lexicographic mode used in
//    the experimental evaluation (wasted frames first, then wire length).
#pragma once

#include <string>
#include <vector>

#include "device/device.hpp"

namespace rfp::model {

/// Resource requirement of one reconfigurable region, in tiles per tile type
/// (Table I's unit). `tiles[t]` indexes the device tile types.
struct RegionSpec {
  std::string name;
  std::vector<int> tiles;  ///< required tiles per type id; may be shorter than
                           ///< the device type count (missing entries = 0)

  [[nodiscard]] int required(int type_id) const noexcept {
    return type_id < static_cast<int>(tiles.size()) ? tiles[static_cast<std::size_t>(type_id)] : 0;
  }
};

/// A net connecting two or more regions (by index); wire length is the
/// weighted half-perimeter of the bounding box of the region centers.
struct Net {
  std::vector<int> regions;
  double weight = 1.0;
  std::string name;
};

/// A request for free-compatible areas for one region.
struct RelocationRequest {
  int region = -1;   ///< region index
  int count = 1;     ///< number of FC areas requested for this region
  bool hard = true;  ///< true: Sec. IV constraint; false: Sec. V metric
  double weight = 1.0;  ///< cw_c, used when !hard (Eq. 13)
};

/// Objective weights of Eq. 14 (normalized internally by WLmax etc.).
struct ObjectiveWeights {
  double q1_wirelength = 1.0;
  double q2_perimeter = 0.0;
  double q3_wasted = 1.0;
  double q4_relocation = 0.0;
};

class FloorplanProblem {
 public:
  explicit FloorplanProblem(const device::Device* dev) : dev_(dev) {}

  // ---- construction ------------------------------------------------------
  int addRegion(RegionSpec spec);
  int addNet(Net net);
  void addRelocation(RelocationRequest req);
  void setWeights(ObjectiveWeights w) { weights_ = w; }
  /// Lexicographic evaluation mode of Sec. VI: minimize wasted frames first,
  /// then wire length (weights are ignored for ordering, still reported).
  void setLexicographic(bool lex) { lexicographic_ = lex; }

  // ---- accessors ----------------------------------------------------------
  [[nodiscard]] const device::Device& dev() const noexcept { return *dev_; }
  [[nodiscard]] int numRegions() const noexcept { return static_cast<int>(regions_.size()); }
  [[nodiscard]] const RegionSpec& region(int n) const { return regions_.at(static_cast<std::size_t>(n)); }
  [[nodiscard]] const std::vector<RegionSpec>& regions() const noexcept { return regions_; }
  [[nodiscard]] const std::vector<Net>& nets() const noexcept { return nets_; }
  [[nodiscard]] const std::vector<RelocationRequest>& relocations() const noexcept {
    return relocations_;
  }
  [[nodiscard]] const ObjectiveWeights& weights() const noexcept { return weights_; }
  [[nodiscard]] bool lexicographic() const noexcept { return lexicographic_; }

  /// Total number of FC areas requested (hard + soft).
  [[nodiscard]] int totalFcAreas() const noexcept;

  /// Least frames region n must cover: Σ_t c(n,t)·frames(t) (Table I's last
  /// column).
  [[nodiscard]] long minFrames(int n) const;

  /// Structural validation only: region indices in range, non-negative and
  /// non-empty requirements, nets well-formed, net and relocation weights
  /// finite and non-negative. Returns "" or a violation
  /// description. A structurally valid problem may still be infeasible.
  [[nodiscard]] std::string validateStructure() const;

  /// Aggregate supply test: "" when the device's usable tiles cover the sum
  /// of all region requirements, else a description of the shortfall. A
  /// shortfall makes the problem *infeasible*, not malformed — solvers
  /// report it as an infeasibility verdict rather than an error.
  [[nodiscard]] std::string supplyShortfall() const;

  /// validateStructure() plus supplyShortfall(): any reason this problem
  /// cannot have a solution that is known without search.
  [[nodiscard]] std::string validate() const;

 private:
  const device::Device* dev_;
  std::vector<RegionSpec> regions_;
  std::vector<Net> nets_;
  std::vector<RelocationRequest> relocations_;
  ObjectiveWeights weights_;
  bool lexicographic_ = true;
};

// ---- SDR case study (Section VI) -----------------------------------------

/// Region indices of the software-defined-radio design of [8] (Table I).
enum SdrRegion : int {
  kMatchedFilter = 0,
  kCarrierRecovery = 1,
  kDemodulator = 2,
  kSignalDecoder = 3,
  kVideoDecoder = 4,
};

/// Builds the SDR problem on `dev` (which must use the CLB/BRAM/DSP type
/// set): 5 regions with Table I requirements, chained by a 64-bit bus.
FloorplanProblem makeSdrProblem(const device::Device& dev);

/// Adds the SDR2 / SDR3 relocation requests: `fc_per_region` free-compatible
/// areas for each of the relocatable regions (carrier recovery, demodulator,
/// signal decoder), as hard constraints (Sec. VI).
void addSdrRelocations(FloorplanProblem& problem, int fc_per_region, bool hard = true,
                       double weight = 1.0);

}  // namespace rfp::model
