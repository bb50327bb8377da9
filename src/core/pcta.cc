#include "core/pcta.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/bounds.h"
#include "core/cell_tree.h"
#include "core/lpcta.h"
#include "core/parallel.h"
#include "index/bbs.h"
#include "index/mbr.h"
#include "index/dominance.h"

namespace kspr {

namespace {

// Parallelism inside one progressive query. Four independent task shapes
// ride on the query's executor, each reduced in deterministic order so the
// result is bitwise-identical to the serial run:
//   1. hyperplane insertion over disjoint cell-tree subtrees (CellTree),
//   2. look-ahead rank bounds per live leaf (pure given the leaf snapshot),
//   3. Lemma-5 reportability checks per live leaf (read-only R-tree scans),
//   4. region finalisation (deferred to the end of the query so regions
//      accumulate unfinalised and are then processed as one task list).
class ProgressiveEngine {
 public:
  ProgressiveEngine(const Dataset& data, const RTree& tree, const Vec& p,
                    RecordId focal_id, const KsprOptions& options,
                    Space space, bool lookahead)
      : data_(data),
        rtree_(tree),
        options_(options),
        lookahead_(lookahead),
        executor_(options.executor != nullptr &&
                          options.executor->concurrency() > 1
                      ? options.executor
                      : nullptr),
        prep_(PrepareQuery(data, p, focal_id, options.k)),
        store_(&data, p, space),
        cell_tree_(&store_, prep_.k_effective, &options, &result_.stats),
        dg_(&data),
        processed_(static_cast<size_t>(data.size()), 0),
        np_(static_cast<size_t>(data.size()), 0) {
    traversal_.executor = executor_;
    traversal_.min_cells_per_task = options.parallel.min_cells_per_task;
    defer_finalize_ = executor_ != nullptr && options.finalize_geometry;
    bounds_ctx_.data = &data_;
    bounds_ctx_.tree = &rtree_;
    bounds_ctx_.space = space;
    bounds_ctx_.pref_dim = store_.pref_dim();
    bounds_ctx_.p = p;
    bounds_ctx_.focal_id = focal_id;
    bounds_ctx_.mode = options.bound_mode;
    bounds_ctx_.stats = &result_.stats;
  }

  KsprResult Run() {
    if (prep_.ResultEmpty()) return std::move(result_);

    const TraversalContext* par = executor_ != nullptr ? &traversal_ : nullptr;

    // First batch: the skyline of D (Invariant 1 of Sec 5).
    std::vector<RecordId> batch = FilterBatch(Skyline(data_, rtree_));
    int lookahead_mark = 0;  // root included: the first pass may decide it

    while (!batch.empty()) {
      ++result_.stats.batches;
      int since_pass = 0;
      for (RecordId rid : batch) {
        dg_.Add(rid);
        cell_tree_.InsertHyperplane(rid, &dg_.Dominators(rid), par);
        processed_[rid] = 1;
        ++result_.stats.processed_records;
        if (lookahead_ && options_.lookahead_per_split) {
          LookaheadOnLeaves(cell_tree_.last_new_leaves());
        } else if (lookahead_ && options_.lookahead_stride > 0 &&
                   ++since_pass >= options_.lookahead_stride) {
          // Mid-batch look-ahead: retire decided cells before the rest of
          // the batch splits them further; the query often terminates
          // before the skyline batch is exhausted.
          since_pass = 0;
          LookaheadPass(lookahead_mark);
          lookahead_mark = cell_tree_.NextNodeId();
        }
        if (cell_tree_.RootDead()) break;
      }
      if (cell_tree_.RootDead()) break;

      if (lookahead_ && !options_.lookahead_per_split) {
        LookaheadPass(lookahead_mark);
        if (cell_tree_.RootDead()) break;
      }
      lookahead_mark = cell_tree_.NextNodeId();

      batch = ReportAndPickNextBatch();
    }

    // Normally every leaf has been reported or eliminated by now; harvest
    // picks up stragglers (e.g., when the caller's k exceeds the dataset).
    const size_t reported = result_.regions.size();
    HarvestRegions(&cell_tree_, &store_, options_, prep_.num_dominators,
                   &result_, executor_);
    if (defer_finalize_) {
      // Regions reported during the traversal were left unfinalised;
      // finalise them as one parallel task list (harvested regions were
      // already handled by HarvestRegions).
      FinalizeRegions(&result_, 0, reported, options_, executor_);
    }
    return std::move(result_);
  }

 private:
  std::vector<RecordId> FilterBatch(const std::vector<RecordId>& candidates) {
    std::vector<RecordId> batch;
    for (RecordId rid : candidates) {
      if (!prep_.skip[rid] && !processed_[rid]) batch.push_back(rid);
    }
    return batch;
  }

  // Builds a result region from a live leaf and removes the leaf.
  void ReportLeaf(const CellTree::LeafInfo& leaf, int rank_lb, int rank_ub) {
    Region region;
    region.space = store_.space();
    region.dim = store_.pref_dim();
    region.constraints.reserve(leaf.path.size());
    for (const HalfspaceRef& ref : leaf.path) {
      region.constraints.push_back(store_.AsStrictIneq(ref));
    }
    region.rank_lb = rank_lb;
    region.rank_ub = rank_ub;
    if (leaf.has_witness) region.witness = leaf.witness;
    if (options_.finalize_geometry && !defer_finalize_) {
      FinalizeRegion(&region, options_.compute_volume, options_.volume_samples,
                     &result_.stats);
    }
    result_.regions.push_back(std::move(region));
    cell_tree_.MarkReported(leaf.node_id);
  }

  // Applies one look-ahead verdict (Sec 6): prune when even the lower rank
  // bound exceeds k, report when the upper bound is within k.
  void ApplyLookahead(const CellTree::LeafInfo& leaf, const RankBounds& rb) {
    if (rb.lb > options_.k) {
      cell_tree_.MarkEliminated(leaf.node_id);
      ++result_.stats.lookahead_pruned;
    } else if (rb.ub <= options_.k) {
      ReportLeaf(leaf, rb.lb, rb.ub);
      ++result_.stats.lookahead_reported;
    }
  }

  // Rank bounds for one collected leaf, with the leaf's pivots feeding the
  // Lemma-5 filter. Pure given the leaf snapshot: reads only the dataset,
  // the R-tree and the focal state, never the cell tree — which is what
  // makes the parallel pass below safe and order-free. `stats` receives
  // this computation's LP counters. (The per-split strategy previously
  // computed bounds WITHOUT pivots; it now shares this path, a deliberate
  // unification that can only skip LPs for pivot-dominated records —
  // decisions are unchanged, per-split counters tightened.)
  RankBounds LeafBounds(const CellTree::LeafInfo& leaf, KsprStats* stats) {
    std::vector<LinIneq> cons;
    cons.reserve(leaf.path.size());
    for (const HalfspaceRef& ref : leaf.path) {
      cons.push_back(store_.AsStrictIneq(ref));
    }
    thread_local PivotSet pivots;
    pivots.Assign(data_, leaf.neg_records);
    BoundsContext ctx = bounds_ctx_;
    ctx.stats = stats;
    ctx.pivots = &pivots;
    return ComputeRankBounds(ctx, cons, options_.k);
  }

  // Computes rank bounds for every collected leaf — in parallel when the
  // query has an executor — and returns them in leaf order. Per-leaf LP
  // counters are accumulated into slots and merged in leaf order, so the
  // totals equal the serial pass bitwise.
  std::vector<RankBounds> ComputeAllBounds(
      const std::vector<CellTree::LeafInfo>& leaves) {
    std::vector<RankBounds> bounds(leaves.size());
    const int count = static_cast<int>(leaves.size());
    if (executor_ == nullptr || count <= 1) {
      for (int i = 0; i < count; ++i) {
        bounds[i] = LeafBounds(leaves[i], &result_.stats);
      }
      return bounds;
    }
    std::vector<KsprStats> slots(leaves.size());
    executor_->ParallelFor(count, [&](int i) {
      bounds[i] = LeafBounds(leaves[i], &slots[i]);
    });
    for (const KsprStats& s : slots) result_.stats.Add(s);
    return bounds;
  }

  // Per-split look-ahead (Sec 6.4): bound the leaves created by the most
  // recent insertion. Reporting and pruning happen in creation order, as
  // in the serial strategy.
  void LookaheadOnLeaves(const std::vector<int>& leaf_ids) {
    std::vector<CellTree::LeafInfo> leaves;
    for (int leaf_id : leaf_ids) {
      if (!cell_tree_.IsLiveLeaf(leaf_id)) continue;
      // Splits can only deepen the tree elsewhere; collecting from the
      // leaf's own id yields exactly its LeafInfo.
      std::vector<CellTree::LeafInfo> infos;
      cell_tree_.CollectLiveLeaves(&infos, leaf_id);
      for (CellTree::LeafInfo& info : infos) {
        if (info.node_id == leaf_id) {
          leaves.push_back(std::move(info));
          break;
        }
      }
    }
    const std::vector<RankBounds> bounds = ComputeAllBounds(leaves);
    for (size_t i = 0; i < leaves.size(); ++i) {
      ApplyLookahead(leaves[i], bounds[i]);
    }
  }

  void LookaheadPass(int min_node_id) {
    std::vector<CellTree::LeafInfo> leaves;
    cell_tree_.CollectLiveLeaves(&leaves, min_node_id);
    if (leaves.empty()) return;
    const std::vector<RankBounds> bounds = ComputeAllBounds(leaves);
    for (size_t i = 0; i < leaves.size(); ++i) {
      ApplyLookahead(leaves[i], bounds[i]);
    }
  }

  // Outcome of the Lemma-5 reportability check for one leaf.
  struct Reportability {
    bool reportable = false;
    // When unreportable: the unprocessed record affecting the leaf, and
    // whether it came from the witness cache (which then must be kept).
    RecordId affecting = kInvalidRecord;
    bool from_cache = false;
  };

  // Read-only reportability check for one collected leaf; safe to run for
  // many leaves concurrently (dataset/R-tree scans plus lookups in maps
  // that are not mutated during the pass).
  Reportability CheckReportable(const CellTree::LeafInfo& leaf) {
    Reportability out;
    thread_local PivotSet pivots;
    pivots.Assign(data_, leaf.neg_records);

    // Witness caching: if the affecting record found for this leaf in a
    // previous batch is still unprocessed (pivot sets only grow via
    // paths, and the leaf id is stable), the leaf is still unreportable
    // without re-traversing the data index.
    auto cached = unreportable_witness_.find(leaf.node_id);
    if (cached != unreportable_witness_.end()) {
      const RecordId w = cached->second;
      if (!processed_[w] && !pivots.DominatesPoint(data_.Row(w))) {
        out.affecting = w;
        out.from_cache = true;
        return out;
      }
    }

    RecordId affecting = kInvalidRecord;
    if (!ExistsUnprocessedNotDominated(data_, rtree_, pivots, processed_,
                                       &prep_.skip, &affecting)) {
      out.reportable = true;
    } else {
      out.affecting = affecting;
    }
    return out;
  }

  // Lemma-5 pass: report leaves no unprocessed record can affect, collect
  // the union of non-pivots of the rest, and derive the next batch from the
  // recomputed skyline (Sec 5, Fig 6). The per-leaf checks are read-only
  // and run on the executor; all bookkeeping (np, witness cache, reports)
  // is applied serially in leaf order afterwards, replicating the serial
  // pass exactly.
  std::vector<RecordId> ReportAndPickNextBatch() {
    std::vector<CellTree::LeafInfo> leaves;
    cell_tree_.CollectLiveLeaves(&leaves);
    if (leaves.empty()) return {};

    std::vector<Reportability> checks(leaves.size());
    if (executor_ != nullptr && leaves.size() > 1) {
      executor_->ParallelFor(static_cast<int>(leaves.size()), [&](int i) {
        checks[i] = CheckReportable(leaves[i]);
      });
    } else {
      for (size_t i = 0; i < leaves.size(); ++i) {
        checks[i] = CheckReportable(leaves[i]);
      }
    }

    std::unordered_set<RecordId> fallback;
    for (size_t i = 0; i < leaves.size(); ++i) {
      const CellTree::LeafInfo& leaf = leaves[i];
      const Reportability& check = checks[i];
      if (check.reportable) {
        unreportable_witness_.erase(leaf.node_id);
        // Final rank is the current rank plus the dominators removed in
        // preprocessing.
        ReportLeaf(leaf, leaf.rank + prep_.num_dominators,
                   leaf.rank + prep_.num_dominators);
        continue;
      }
      for (RecordId rid : leaf.pos_records) {
        if (!np_[rid]) {
          np_[rid] = 1;
          np_set_.push_back(rid);
        }
      }
      fallback.insert(check.affecting);
      if (!check.from_cache) {
        unreportable_witness_[leaf.node_id] = check.affecting;
      }
    }

    std::vector<RecordId> batch = FilterBatch(Skyline(data_, rtree_, &np_));
    for (RecordId rid : np_set_) np_[rid] = 0;
    np_set_.clear();
    if (batch.empty()) {
      // The recomputed skyline consists of processed pivots only; fall back
      // to the affecting records found by the reportability checks. This
      // trades Invariant 1 (an efficiency device) for guaranteed progress.
      for (RecordId rid : fallback) {
        if (rid != kInvalidRecord && !processed_[rid] &&
            !prep_.skip[rid]) {
          batch.push_back(rid);
        }
      }
    }
    return batch;
  }

  const Dataset& data_;
  const RTree& rtree_;
  const KsprOptions& options_;
  const bool lookahead_;
  Executor* executor_;  // null in serial mode
  TraversalContext traversal_;
  bool defer_finalize_ = false;
  QueryPrep prep_;
  HyperplaneStore store_;
  KsprResult result_;
  CellTree cell_tree_;
  DominanceGraph dg_;
  BoundsContext bounds_ctx_;
  std::vector<char> processed_;  // by record id: inserted into the tree
  // By record id: a non-pivot of some unreportable leaf in the current
  // round (the Skyline exclusion set). Only the flags listed in np_set_
  // are set, and they are cleared once the round's batch is picked.
  std::vector<char> np_;
  std::vector<RecordId> np_set_;
  // leaf node id -> last known unprocessed record affecting it.
  std::unordered_map<int, RecordId> unreportable_witness_;
};

}  // namespace

KsprResult RunProgressive(const Dataset& data, const RTree& tree,
                          const Vec& p, RecordId focal_id,
                          const KsprOptions& options, Space space,
                          bool lookahead) {
  ProgressiveEngine engine(data, tree, p, focal_id, options, space, lookahead);
  return engine.Run();
}

KsprResult RunLpCta(const Dataset& data, const RTree& tree, const Vec& p,
                    RecordId focal_id, const KsprOptions& options,
                    Space space) {
  return RunProgressive(data, tree, p, focal_id, options, space,
                        /*lookahead=*/true);
}

}  // namespace kspr
