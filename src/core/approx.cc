#include "core/approx.h"

#include <unordered_set>
#include <vector>

#include "core/bounds.h"
#include "core/brute_force.h"
#include "core/cell_tree.h"
#include "core/cta.h"
#include "geom/volume.h"
#include "index/bbs.h"
#include "index/dominance.h"

namespace kspr {

namespace {

// Upper-bounds the cell volume by its per-axis bounding box (2 d' LPs).
// All objectives range over one cell, so a warm CellBoundSolver builds the
// tableau once and re-optimises per axis.
double CellBoxVolume(Space space, int dim, const std::vector<LinIneq>& cons,
                     KsprStats* stats) {
  thread_local CellBoundSolver solver;
  solver.Reset(space, dim, cons.data(), static_cast<int>(cons.size()));
  double volume = 1.0;
  for (int j = 0; j < dim; ++j) {
    Vec axis(dim);
    axis.v[j] = 1.0;
    BoundResult mn = solver.Minimize(axis, 0.0, stats);
    BoundResult mx = solver.Maximize(axis, 0.0, stats);
    if (!mn.ok || !mx.ok) return SpaceVolume(space, dim);  // conservative
    volume *= std::max(0.0, mx.value - mn.value);
  }
  return volume;
}

class ApproxEngine {
 public:
  ApproxEngine(const Dataset& data, const RTree& tree, const Vec& p,
               RecordId focal_id, const ApproxOptions& options)
      : data_(data),
        rtree_(tree),
        options_(options),
        base_(options.base),
        prep_(PrepareQuery(data, p, focal_id, options.base.k)),
        store_(&data, p, Space::kTransformed),
        tree_(&store_, prep_.k_effective, &base_, &out_.result.stats),
        p_(p),
        focal_id_(focal_id) {
    bounds_ctx_.data = &data_;
    bounds_ctx_.tree = &rtree_;
    bounds_ctx_.space = Space::kTransformed;
    bounds_ctx_.pref_dim = store_.pref_dim();
    bounds_ctx_.p = p;
    bounds_ctx_.focal_id = focal_id;
    bounds_ctx_.mode = options.base.bound_mode;
    bounds_ctx_.stats = &out_.result.stats;
  }

  ApproxResult Run() {
    if (prep_.ResultEmpty()) return std::move(out_);
    const double space_volume =
        SpaceVolume(Space::kTransformed, store_.pref_dim());
    error_budget_ = options_.max_error_fraction * space_volume;
    cell_cutoff_ = options_.cell_volume_fraction * space_volume;

    // Dominance-ordered processing, as in P-CTA: k-skyband records sorted
    // by decreasing coordinate sum (dominators come before dominated).
    std::vector<RecordId> order = KSkyband(data_, rtree_, base_.k);
    DominanceGraph dg(&data_);
    int mark = 0;
    for (RecordId rid : order) {
      if (prep_.skip[rid]) continue;
      dg.Add(rid);
      tree_.InsertHyperplane(rid, &dg.Dominators(rid));
      ++out_.result.stats.processed_records;
      if (tree_.RootDead()) break;
      // Periodic decide-or-approximate pass over new leaves.
      if (out_.result.stats.processed_records % 8 == 0) {
        Sweep(mark);
        mark = tree_.NextNodeId();
        if (tree_.RootDead()) break;
      }
    }
    if (!tree_.RootDead()) Sweep(0);

    HarvestRegions(&tree_, &store_, base_, prep_.num_dominators,
                   &out_.result);
    return std::move(out_);
  }

 private:
  void Sweep(int min_node_id) {
    std::vector<CellTree::LeafInfo> leaves;
    tree_.CollectLiveLeaves(&leaves, min_node_id);
    for (const CellTree::LeafInfo& leaf : leaves) {
      std::vector<LinIneq> cons;
      cons.reserve(leaf.path.size());
      for (const HalfspaceRef& ref : leaf.path) {
        cons.push_back(store_.AsStrictIneq(ref));
      }
      pivots_.Assign(data_, leaf.neg_records);
      bounds_ctx_.pivots = &pivots_;
      RankBounds rb = ComputeRankBounds(bounds_ctx_, cons, base_.k);
      bounds_ctx_.pivots = nullptr;

      if (rb.lb > base_.k) {
        tree_.MarkEliminated(leaf.node_id);
        ++out_.result.stats.lookahead_pruned;
        continue;
      }
      if (rb.ub <= base_.k) {
        Report(leaf, rb.lb, rb.ub, /*approximate=*/false);
        ++out_.result.stats.lookahead_reported;
        continue;
      }
      // Undecided: approximate if the cell is small and budget remains.
      if (out_.error_volume >= error_budget_ || !leaf.has_witness) continue;
      const double box = CellBoxVolume(Space::kTransformed,
                                       store_.pref_dim(), cons,
                                       &out_.result.stats);
      if (box > cell_cutoff_ ||
          out_.error_volume + box > error_budget_) {
        continue;
      }
      const Vec w_full = ExpandWeight(Space::kTransformed, data_.dim(),
                                      leaf.witness);
      const int rank = RankAt(data_, p_, focal_id_, w_full);
      out_.error_volume += box;
      ++out_.approximated_cells;
      if (rank <= base_.k) {
        Report(leaf, rb.lb, rb.ub, /*approximate=*/true);
      } else {
        tree_.MarkEliminated(leaf.node_id);
      }
    }
  }

  void Report(const CellTree::LeafInfo& leaf, int lb, int ub,
              bool approximate) {
    Region region;
    region.space = store_.space();
    region.dim = store_.pref_dim();
    region.constraints.reserve(leaf.path.size());
    for (const HalfspaceRef& ref : leaf.path) {
      region.constraints.push_back(store_.AsStrictIneq(ref));
    }
    region.rank_lb = lb;
    region.rank_ub = ub;
    if (leaf.has_witness) region.witness = leaf.witness;
    if (base_.finalize_geometry && !approximate) {
      FinalizeRegion(&region, base_.compute_volume, base_.volume_samples,
                     &out_.result.stats);
    }
    out_.result.regions.push_back(std::move(region));
    tree_.MarkReported(leaf.node_id);
  }

  const Dataset& data_;
  const RTree& rtree_;
  const ApproxOptions& options_;
  KsprOptions base_;
  QueryPrep prep_;
  HyperplaneStore store_;
  ApproxResult out_;
  CellTree tree_;
  Vec p_;
  RecordId focal_id_;
  BoundsContext bounds_ctx_;
  PivotSet pivots_;  // the swept leaf's pivots, capacity reused per leaf
  double error_budget_ = 0.0;
  double cell_cutoff_ = 0.0;
};

}  // namespace

ApproxResult RunApproxKspr(const Dataset& data, const RTree& tree,
                           const Vec& p, RecordId focal_id,
                           const ApproxOptions& options) {
  ApproxEngine engine(data, tree, p, focal_id, options);
  return engine.Run();
}

}  // namespace kspr
