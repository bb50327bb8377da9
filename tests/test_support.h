// Shared fixture helpers for the kspr test suites: seeded synthetic
// instance builders (dataset + bulk-loaded R-tree + solver), skyline
// caching, bitwise result comparison, and the tolerance constants used
// across suites.

#ifndef KSPR_TESTS_TEST_SUPPORT_H_
#define KSPR_TESTS_TEST_SUPPORT_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/dataset.h"
#include "common/stats.h"
#include "core/options.h"
#include "core/solver.h"
#include "datagen/synthetic.h"
#include "index/bbs.h"
#include "index/rtree.h"

namespace kspr {
namespace test {

// Numeric tolerances. kTightTol is for exact geometry (LP pivots, vertex
// coordinates); kLooseTol absorbs accumulated floating-point error in
// volumes and probabilities; kMarginTol is the minimum score margin below
// which an oracle sample sits too close to a rank boundary to be
// informative.
inline constexpr double kTightTol = 1e-9;
inline constexpr double kLooseTol = 1e-6;
inline constexpr double kMarginTol = 1e-7;

// Small R-tree nodes so paper-scale test instances (n in the hundreds)
// still produce multi-level trees.
inline constexpr int kTestLeafCapacity = 16;
inline constexpr int kTestFanout = 16;

/// A self-contained synthetic kSPR instance: deterministic in
/// (dist, n, d, seed). The dataset, index and solver live inside the
/// instance at stable addresses, so the solver's internal pointers remain
/// valid for the instance's lifetime (the class is pinned: neither
/// copyable nor movable).
class SyntheticInstance {
 public:
  SyntheticInstance(Distribution dist, int n, int d, uint64_t seed,
                    int leaf_capacity = kTestLeafCapacity,
                    int fanout = kTestFanout)
      : data_(GenerateSynthetic(dist, n, d, seed)),
        tree_(RTree::BulkLoad(data_, leaf_capacity, fanout)),
        solver_(&data_, &tree_) {}

  SyntheticInstance(const SyntheticInstance&) = delete;
  SyntheticInstance& operator=(const SyntheticInstance&) = delete;

  const Dataset& data() const { return data_; }
  const RTree& tree() const { return tree_; }
  const KsprSolver& solver() const { return solver_; }

  /// For tests that attach a PageTracker or otherwise reconfigure the index.
  RTree& mutable_tree() { return tree_; }

  /// For tests that drive the dynamic update path.
  Dataset& mutable_data() { return data_; }

  /// Skyline ids in BBS pop order; computed once and cached. sky(i) is a
  /// convenience accessor for the i-th skyline record.
  const std::vector<RecordId>& skyline() const {
    if (skyline_.empty()) skyline_ = Skyline(data_, tree_);
    return skyline_;
  }
  RecordId sky(size_t i) const { return skyline()[i % skyline().size()]; }

 private:
  Dataset data_;
  RTree tree_;
  KsprSolver solver_;
  mutable std::vector<RecordId> skyline_;
};

/// The record with the maximum coordinate sum: a skyline record that is
/// top-1 at the centroid weight, so its kSPR result is never empty.
inline RecordId MaxSumRecord(const Dataset& data) {
  RecordId best = 0;
  for (RecordId i = 1; i < data.size(); ++i) {
    if (data.Get(i).Sum() > data.Get(best).Sum()) best = i;
  }
  return best;
}

/// Options preset for correctness tests: raw constraints (no geometry
/// finalisation) so results can be checked against the sampling oracle.
inline KsprOptions OracleOptions(Algorithm algo, int k) {
  KsprOptions options;
  options.algorithm = algo;
  options.k = k;
  options.finalize_geometry = false;
  return options;
}

/// Compacts the live records of `data` into a fresh Dataset (the
/// "from-scratch build on the mutated dataset" of the dynamic-update
/// acceptance criteria). Maps `focal` to its compact id when non-null.
inline Dataset Compact(const Dataset& data, RecordId focal = kInvalidRecord,
                       RecordId* compact_focal = nullptr) {
  Dataset out(data.dim());
  for (RecordId i = 0; i < data.size(); ++i) {
    if (!data.IsLive(i)) continue;
    const RecordId nid = out.Add(data.Get(i));
    if (compact_focal != nullptr && i == focal) *compact_focal = nid;
  }
  return out;
}

/// From-scratch reference: compact dataset, fresh STR bulk load, one query.
inline KsprResult FromScratch(const Dataset& data, RecordId focal,
                              const KsprOptions& options,
                              int leaf_capacity = kTestLeafCapacity,
                              int fanout = kTestFanout) {
  RecordId compact_focal = kInvalidRecord;
  Dataset fresh = Compact(data, focal, &compact_focal);
  RTree tree = RTree::BulkLoad(fresh, leaf_capacity, fanout);
  KsprSolver solver(&fresh, &tree);
  EXPECT_NE(compact_focal, kInvalidRecord) << "focal was deleted";
  return solver.QueryRecord(compact_focal, options);
}

/// Full bitwise equality of two KsprResults: every region field (doubles
/// compared exactly, including order) and every KsprStats counter. Used by
/// the parallel-traversal and dynamic-update suites, whose contracts are
/// "identical to the serial / from-scratch run", not merely equivalent.
/// The per-field EXPECTs give precise failure diagnostics (one per counter,
/// expanded from KSPR_STATS_COUNTERS); the final ResultsBitwiseEqual
/// delegation is the authoritative check.
inline void ExpectBitwiseEqual(const KsprResult& a, const KsprResult& b,
                               const char* what) {
  ASSERT_EQ(a.regions.size(), b.regions.size()) << what;
  for (size_t i = 0; i < a.regions.size(); ++i) {
    const Region& ra = a.regions[i];
    const Region& rb = b.regions[i];
    EXPECT_EQ(ra.space, rb.space) << what << " region " << i;
    EXPECT_EQ(ra.dim, rb.dim) << what << " region " << i;
    EXPECT_EQ(ra.rank_lb, rb.rank_lb) << what << " region " << i;
    EXPECT_EQ(ra.rank_ub, rb.rank_ub) << what << " region " << i;
    EXPECT_TRUE(ra.witness == rb.witness) << what << " region " << i;
    EXPECT_EQ(ra.volume, rb.volume) << what << " region " << i;
    ASSERT_EQ(ra.constraints.size(), rb.constraints.size())
        << what << " region " << i;
    for (size_t c = 0; c < ra.constraints.size(); ++c) {
      EXPECT_EQ(ra.constraints[c].b, rb.constraints[c].b)
          << what << " region " << i << " constraint " << c;
      EXPECT_TRUE(ra.constraints[c].a == rb.constraints[c].a)
          << what << " region " << i << " constraint " << c;
    }
    ASSERT_EQ(ra.vertices.size(), rb.vertices.size())
        << what << " region " << i;
    for (size_t v = 0; v < ra.vertices.size(); ++v) {
      EXPECT_TRUE(ra.vertices[v] == rb.vertices[v])
          << what << " region " << i << " vertex " << v;
    }
  }
  const KsprStats& sa = a.stats;
  const KsprStats& sb = b.stats;
#define KSPR_EXPECT_COUNTER_EQ(name) \
  EXPECT_EQ(sa.name, sb.name) << what << " stats." #name;
  KSPR_STATS_COUNTERS(KSPR_EXPECT_COUNTER_EQ)
#undef KSPR_EXPECT_COUNTER_EQ
  EXPECT_TRUE(ResultsBitwiseEqual(a, b)) << what;
}

}  // namespace test
}  // namespace kspr

#endif  // KSPR_TESTS_TEST_SUPPORT_H_
