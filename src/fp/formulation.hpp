// MILP formulation of the relocation-aware floorplanning problem.
//
// This is the paper's core contribution, built on the FCCM'14 base model
// ([10]) restricted to columnar-partitioned devices (Sec. III-A):
//
//  base model      x_n, w_n (integer), row-occupancy binaries a_{n,r},
//                  height h_n = Σ_r a_{n,r} (real, Sec. III), row-contiguity,
//                  per-portion intersection widths and the paper's l_{n,p,r}
//                  intersection variables, resource coverage, pairwise
//                  non-overlap, forbidden areas (Eqs. 1–2);
//  relocation as   free-compatible areas as pseudo-regions (FC ⊂ N, Sec. IV-A)
//  a constraint    with offset variables o_{n,p} (Eqs. 4–5), equal heights
//                  (Eq. 6), equal portion counts (Eq. 7), type matching in
//                  the tightened form (Eq. 10; the untightened Eq. 8 is
//                  available for the equivalence ablation), and equal
//                  per-portion tile counts (Eq. 9);
//  relocation as   violation binaries v_c turning Eq. 9/10 and the
//  a metrics       non-overlap rows into soft constraints (Eqs. 11–12) and
//                  the RLcost objective term (Eq. 13, Eq. 14).
//
// Offset-variable encodings:
//  * kPaper — o_{n,p} are real variables constrained by Eqs. 4–5, exactly as
//    published (their integrality is implied, see the paper's discussion);
//  * kChain — o and k are derived from two monotone binary chains
//    g_{n,p} = [x_n ≥ px1_p] and e_{n,p} = [x_n + w_n − 1 ≥ px1_p]; tighter
//    LP relaxation, used as the default. Tests assert both encodings agree.
#pragma once

#include <array>
#include <atomic>
#include <string>
#include <vector>

#include "lp/model.hpp"
#include "model/floorplan.hpp"
#include "model/problem.hpp"
#include "partition/columnar.hpp"

namespace rfp::fp {

enum class OffsetEncoding { kChain, kPaper };
enum class TypeMatchEncoding { kTightened /*Eq. 10*/, kBigM /*Eq. 8*/ };

/// Which objective the model minimizes.
enum class ObjectiveKind {
  kWeighted,    ///< Eq. 14 (normalized weighted sum; soft FCs allowed)
  kWastedFrames,///< Rcost only (stage 1 of the Sec. VI lexicographic mode)
  kWireLength,  ///< WLcost only (stage 2; combine with addWasteCap)
};

struct FormulationOptions {
  OffsetEncoding offset = OffsetEncoding::kChain;
  TypeMatchEncoding type_match = TypeMatchEncoding::kTightened;
  ObjectiveKind objective = ObjectiveKind::kWeighted;
  /// Cooperative cancellation of the build itself (tens of milliseconds at
  /// SDR scale, nearly all in the relocation rows): when non-null and set,
  /// construction stops at the next relocation slot and `cancelled()`
  /// reports an incomplete model that must not be solved. The pointee must
  /// outlive the constructor.
  const std::atomic<bool>* stop = nullptr;
};

/// Builds and owns the lp::Model for one problem instance, and maps between
/// model variables and Floorplan structures.
class MilpFormulation {
 public:
  MilpFormulation(const model::FloorplanProblem& problem,
                  const partition::ColumnarPartition& part, FormulationOptions options = {});

  [[nodiscard]] const lp::Model& model() const noexcept { return model_; }
  [[nodiscard]] lp::Model& mutableModel() noexcept { return model_; }
  [[nodiscard]] int numAreas() const noexcept { return num_areas_; }
  /// The build saw FormulationOptions::stop raised and ended early.
  [[nodiscard]] bool cancelled() const noexcept { return cancelled_; }

  /// Decodes a solver point into a floorplan (rounding integer variables).
  [[nodiscard]] model::Floorplan extract(const std::vector<double>& x) const;

  /// Encodes a concrete floorplan as a full variable assignment (every
  /// auxiliary variable included) — used for HO warm starts and for the
  /// model-consistency property tests.
  [[nodiscard]] std::vector<double> encode(const model::Floorplan& fp) const;

  /// Constrains total wasted frames to at most `cap` (lexicographic stage 2).
  void addWasteCap(long cap);

  /// Adds sequence-pair ordering constraints (the HO search-space reduction,
  /// Sec. II-A extended to free-compatible areas): for every area pair, the
  /// relative order implied by the pair replaces the non-overlap disjunction.
  /// `s1`/`s2` hold area indices (regions then FC slots).
  void addSequencePairConstraints(const std::vector<int>& s1, const std::vector<int>& s2);

  // ---- introspection for tests -------------------------------------------
  [[nodiscard]] lp::Var varX(int area) const { return x_.at(static_cast<std::size_t>(area)); }
  [[nodiscard]] lp::Var varW(int area) const { return w_.at(static_cast<std::size_t>(area)); }
  [[nodiscard]] lp::Var varH(int area) const { return h_.at(static_cast<std::size_t>(area)); }
  [[nodiscard]] lp::Var varV(int slot) const { return v_.at(static_cast<std::size_t>(slot)); }
  [[nodiscard]] bool hasSoftSlots() const noexcept;

 private:
  struct Slot {  // one requested FC area
    int region = -1;
    bool hard = true;
    double weight = 1.0;
  };

  void buildAreas();
  void buildPortionLinkage();
  void buildCoverageAndWaste();
  void buildNonOverlap();
  void buildForbidden();
  void buildRelocation();
  void buildObjective();

  [[nodiscard]] bool stopRequested() const noexcept {
    return opt_.stop && opt_.stop->load(std::memory_order_relaxed);
  }

  [[nodiscard]] lp::LinExpr kExpr(int area, int p) const;  ///< intersection indicator
  [[nodiscard]] lp::LinExpr oExpr(int area, int p) const;  ///< first-portion offset
  /// Σ_r l_{area,p,r} — tiles of `area` in portion p.
  [[nodiscard]] lp::LinExpr tilesInPortion(int area, int p) const;
  /// Violation binary of a soft FC slot, created on first use (the slot is
  /// referenced by both the non-overlap and the relocation constraints).
  lp::LinExpr v_slotExprHelper(int area);

  const model::FloorplanProblem& problem_;
  const partition::ColumnarPartition& part_;
  FormulationOptions opt_;
  lp::Model model_;

  int num_regions_ = 0;
  int num_areas_ = 0;  ///< regions + FC slots
  bool cancelled_ = false;
  int W_ = 0, R_ = 0, P_ = 0;
  std::vector<Slot> slots_;

  // Per-area variables (index: area).
  std::vector<lp::Var> x_, w_, y_, h_;
  std::vector<std::vector<lp::Var>> a_;     ///< [area][row]
  std::vector<std::vector<lp::Var>> g_, e_; ///< monotone chains [area][portion]
  std::vector<std::vector<lp::Var>> o_;     ///< kPaper offsets [area][portion]
  std::vector<std::vector<lp::Var>> cw_;    ///< intersection width [area][portion]
  std::vector<std::vector<std::vector<lp::Var>>> l_;  ///< [area][portion][row]
  std::vector<std::vector<lp::Var>> lr_;    ///< left-of binaries [area][area]
  std::vector<std::vector<lp::Var>> q_;     ///< Eq. 1 binaries [area][forbidden]
  std::vector<lp::Var> v_;                  ///< violation binaries per slot (soft)
  std::vector<std::array<lp::Var, 4>> net_bbox_;  ///< [net] = {bx1,bx2,by1,by2}
  lp::LinExpr waste_expr_;
  lp::LinExpr wl_expr_;
  lp::LinExpr perimeter_expr_;
  lp::LinExpr rl_expr_;
};

}  // namespace rfp::fp
