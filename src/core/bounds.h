// Look-ahead rank bounds for cells (paper Sec 6).
//
// For a cell c, Rank_lb(c) / Rank_ub(c) bound the rank of the focal record
// anywhere inside c, over the FULL dataset (independent of which records
// have been processed). LP-CTA uses them to prune cells early
// (Rank_lb > k) and to report cells early (Rank_ub <= k).
//
// Three bound tiers, matching the Fig 18 ablation:
//   kRecord : per-record score-interval LPs only (Sec 6.1),
//   kGroup  : + aggregate R-tree group bounds, two LPs per entry (Sec 6.2),
//   kFast   : + O(d) min/max-vector filtering before any group LP (Sec 6.3).
//
// In the original preference space every cell contains the origin, which
// collapses plain score intervals (S_lb = 0 for everything); as in
// Appendix C we switch the LP objective to the score DIFFERENCE
// S(x) - S(p), and fast bounds are unavailable.

#ifndef KSPR_CORE_BOUNDS_H_
#define KSPR_CORE_BOUNDS_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/dataset.h"
#include "common/stats.h"
#include "common/types.h"
#include "common/vec.h"
#include "core/options.h"
#include "index/mbr.h"
#include "index/rtree.h"
#include "lp/feasibility.h"

namespace kspr {

struct RankBounds {
  int lb = 1;
  int ub = 1;
};

/// BoundsContext's pivot slot: null, a borrowed PivotSet, or a PivotSet
/// built from a caller's std::vector<Vec> and owned by the slot (and by
/// its copies).
class PivotSetRef {
 public:
  PivotSetRef() = default;
  PivotSetRef(std::nullptr_t) {}
  PivotSetRef(const PivotSet* set) : set_(set) {}
  PivotSetRef(const std::vector<Vec>* pivots)
      : owned_(pivots == nullptr ? nullptr
                                 : std::make_shared<const PivotSet>(*pivots)),
        set_(owned_.get()) {}

  const PivotSet* get() const { return set_; }

 private:
  std::shared_ptr<const PivotSet> owned_;
  const PivotSet* set_ = nullptr;
};

struct BoundsContext {
  const Dataset* data = nullptr;
  const RTree* tree = nullptr;
  Space space = Space::kTransformed;
  int pref_dim = 0;
  Vec p;  // focal record, full d dimensions
  RecordId focal_id = kInvalidRecord;
  BoundMode mode = BoundMode::kFast;
  KsprStats* stats = nullptr;

  /// Optional: the cell's pivots (records contributing negative halfspaces
  /// to its defining set). Any record weakly dominated by a pivot scores
  /// below the pivot, hence below p, everywhere in the cell (Lemma 5) —
  /// the traversal skips such records and subtrees without any LP.
  PivotSetRef pivots;
};

/// Linear objective of the score S(x, w) over the preference space:
/// transformed space: S = x_d + sum_i (x_i - x_d) w_i (affine),
/// original space:    S = x . w.
/// Returns the coefficient vector; `*constant` receives the affine term.
Vec ScoreObjective(Space space, const Vec& x, double* constant);

/// Computes rank bounds for the cell defined by `cell_cons` (strict path
/// constraints; space bounds implicit). Traversal stops early once
/// lb > `k`, returning the partial (still valid) bounds.
RankBounds ComputeRankBounds(const BoundsContext& ctx,
                             const std::vector<LinIneq>& cell_cons, int k);

}  // namespace kspr

#endif  // KSPR_CORE_BOUNDS_H_
