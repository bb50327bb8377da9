// Tests for the aggregate R-tree, BBS skyline / k-skyband, dominance graph
// and the page tracker.

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <unordered_set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "datagen/synthetic.h"
#include "index/bbs.h"
#include "index/dominance.h"
#include "index/mbr.h"
#include "index/rtree.h"
#include "io/page_tracker.h"

namespace kspr {
namespace {

// Brute-force skyline for cross-checking.
std::vector<RecordId> BruteSkyline(const Dataset& data,
                                   const std::unordered_set<RecordId>* excl) {
  std::vector<RecordId> sky;
  for (RecordId i = 0; i < data.size(); ++i) {
    if (excl != nullptr && excl->contains(i)) continue;
    bool dominated = false;
    for (RecordId j = 0; j < data.size() && !dominated; ++j) {
      if (j == i) continue;
      if (excl != nullptr && excl->contains(j)) continue;
      if (data.Dominates(j, i)) dominated = true;
    }
    if (!dominated) sky.push_back(i);
  }
  return sky;
}

TEST(Mbr, ExpandAndDominance) {
  Mbr m = Mbr::Empty(2);
  m.ExpandToPoint(Vec{0.2, 0.8});
  m.ExpandToPoint(Vec{0.6, 0.1});
  EXPECT_NEAR(m.lo[0], 0.2, 1e-12);
  EXPECT_NEAR(m.hi[0], 0.6, 1e-12);
  EXPECT_NEAR(m.lo[1], 0.1, 1e-12);
  EXPECT_NEAR(m.hi[1], 0.8, 1e-12);
  EXPECT_NEAR(m.MaxSum(), 1.4, 1e-12);
  EXPECT_TRUE(m.WeaklyDominatedBy(Vec{0.6, 0.8}));
  EXPECT_FALSE(m.WeaklyDominatedBy(Vec{0.5, 0.9}));
}

TEST(RTree, EmptyDataset) {
  Dataset data(2);
  RTree t = RTree::BulkLoad(data);
  EXPECT_TRUE(t.empty());
}

TEST(RTree, SingleRecord) {
  Dataset data(3);
  data.Add(Vec{0.1, 0.2, 0.3});
  RTree t = RTree::BulkLoad(data);
  ASSERT_FALSE(t.empty());
  const RTree::Node& root = t.Fetch(t.root());
  EXPECT_TRUE(root.leaf);
  EXPECT_EQ(root.count, 1);
}

class RTreeStructureTest : public ::testing::TestWithParam<int> {};

TEST_P(RTreeStructureTest, CountsAndMbrsConsistent) {
  const int n = GetParam();
  Dataset data = GenerateIndependent(n, 3, /*seed=*/n);
  RTree t = RTree::BulkLoad(data, /*leaf_capacity=*/8, /*fanout=*/8);

  // Every record appears exactly once; MBRs contain their subtrees;
  // aggregate counts add up.
  std::multiset<RecordId> seen;
  auto check = [&](auto&& self, int nid) -> int {
    const RTree::Node& node = t.Fetch(nid);
    int count = 0;
    if (node.leaf) {
      for (RecordId rid : node.items) {
        seen.insert(rid);
        Vec r = data.Get(rid);
        for (int j = 0; j < data.dim(); ++j) {
          EXPECT_GE(r[j], node.mbr.lo[j] - 1e-12);
          EXPECT_LE(r[j], node.mbr.hi[j] + 1e-12);
        }
        ++count;
      }
    } else {
      for (int c : node.items) {
        const RTree::Node& child = t.Fetch(c);
        for (int j = 0; j < data.dim(); ++j) {
          EXPECT_GE(child.mbr.lo[j], node.mbr.lo[j] - 1e-12);
          EXPECT_LE(child.mbr.hi[j], node.mbr.hi[j] + 1e-12);
        }
        count += self(self, c);
      }
    }
    EXPECT_EQ(count, node.count);
    return count;
  };
  EXPECT_EQ(check(check, t.root()), n);
  EXPECT_EQ(seen.size(), static_cast<size_t>(n));
  for (RecordId i = 0; i < n; ++i) EXPECT_EQ(seen.count(i), 1u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RTreeStructureTest,
                         ::testing::Values(1, 7, 8, 9, 63, 64, 65, 500, 2000));

struct SkylineCase {
  Distribution dist;
  int n;
  int d;
};

class SkylineTest : public ::testing::TestWithParam<SkylineCase> {};

TEST_P(SkylineTest, MatchesBruteForce) {
  const SkylineCase& c = GetParam();
  Dataset data = GenerateSynthetic(c.dist, c.n, c.d, /*seed=*/99);
  RTree t = RTree::BulkLoad(data, 8, 8);
  std::vector<RecordId> bbs = Skyline(data, t);
  std::vector<RecordId> brute = BruteSkyline(data, nullptr);
  std::sort(bbs.begin(), bbs.end());
  std::sort(brute.begin(), brute.end());
  EXPECT_EQ(bbs, brute);
}

TEST_P(SkylineTest, ExclusionRespected) {
  const SkylineCase& c = GetParam();
  Dataset data = GenerateSynthetic(c.dist, c.n, c.d, /*seed=*/123);
  RTree t = RTree::BulkLoad(data, 8, 8);
  // Exclude the plain skyline; recompute.
  std::vector<RecordId> first = Skyline(data, t);
  std::unordered_set<RecordId> excl(first.begin(), first.end());
  std::vector<char> excl_flags(static_cast<size_t>(data.size()), 0);
  for (RecordId rid : excl) excl_flags[rid] = 1;
  std::vector<RecordId> second = Skyline(data, t, &excl_flags);
  std::vector<RecordId> brute = BruteSkyline(data, &excl);
  std::sort(second.begin(), second.end());
  std::sort(brute.begin(), brute.end());
  EXPECT_EQ(second, brute);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, SkylineTest,
    ::testing::Values(SkylineCase{Distribution::kIndependent, 300, 2},
                      SkylineCase{Distribution::kIndependent, 300, 4},
                      SkylineCase{Distribution::kCorrelated, 300, 3},
                      SkylineCase{Distribution::kAntiCorrelated, 300, 3},
                      SkylineCase{Distribution::kIndependent, 50, 5},
                      SkylineCase{Distribution::kAntiCorrelated, 150, 2}));

// Exclusion flags drawn at random (not just the plain skyline): BBS over
// D minus the flagged records equals brute force.
TEST(SkylineExclusion, RandomFlagsMatchBruteForce) {
  for (int seed = 1; seed <= 12; ++seed) {
    const int d = 2 + seed % 4;
    Dataset data = GenerateSynthetic(seed % 3 == 0
                                         ? Distribution::kAntiCorrelated
                                         : Distribution::kIndependent,
                                     200, d, /*seed=*/500 + seed);
    RTree t = RTree::BulkLoad(data, 4 + seed % 5, 4 + seed % 3);
    Rng rng(seed);
    const double rate = 0.1 * (1 + seed % 5);
    std::vector<char> flags(static_cast<size_t>(data.size()), 0);
    std::unordered_set<RecordId> excl;
    for (RecordId i = 0; i < data.size(); ++i) {
      if (rng.Uniform() < rate) {
        flags[i] = 1;
        excl.insert(i);
      }
    }
    std::vector<RecordId> bbs = Skyline(data, t, &flags);
    std::vector<RecordId> brute = BruteSkyline(data, &excl);
    std::sort(bbs.begin(), bbs.end());
    std::sort(brute.begin(), brute.end());
    EXPECT_EQ(bbs, brute) << "seed " << seed;
  }
}

// A dominator whose coordinate sum rounds to the dominated record's sum:
// the heap's tie-break (lexicographic corner order) must still pop the
// dominator first, whichever comes first in the leaf and whatever the
// tree's shape.
TEST(SkylineTies, DominatorWithEqualRoundedSumPopsFirst) {
  const Vec dominated{0.9, 0.9, 0.1};
  const Vec dominator{0.9, 0.9, std::nextafter(0.1, 1.0)};
  ASSERT_TRUE(Dataset::Dominates(dominator, dominated));
  ASSERT_EQ(dominated.Sum(), dominator.Sum());
  for (bool dominated_first : {true, false}) {
    for (int filler : {0, 3, 40}) {
      for (int fanout : {2, 4, 8}) {
        Dataset data(3);
        Rng rng(static_cast<uint64_t>(filler * 10 + fanout));
        for (int i = 0; i < filler / 2; ++i) {
          data.Add(Vec{rng.Uniform(0, 0.5), rng.Uniform(0, 0.5),
                       rng.Uniform(0, 0.5)});
        }
        data.Add(dominated_first ? dominated : dominator);
        data.Add(dominated_first ? dominator : dominated);
        for (int i = filler / 2; i < filler; ++i) {
          data.Add(Vec{rng.Uniform(0, 0.5), rng.Uniform(0, 0.5),
                       rng.Uniform(0, 0.5)});
        }
        RTree t = RTree::BulkLoad(data, fanout, fanout);
        const std::string label = "dominated_first " +
                                  std::to_string(dominated_first) +
                                  " filler " + std::to_string(filler) +
                                  " fanout " + std::to_string(fanout);
        std::vector<RecordId> sky = Skyline(data, t);
        std::vector<RecordId> brute = BruteSkyline(data, nullptr);
        std::sort(sky.begin(), sky.end());
        std::sort(brute.begin(), brute.end());
        EXPECT_EQ(sky, brute) << label;
        for (int k : {1, 2}) {
          std::vector<RecordId> band = KSkyband(data, t, k);
          std::unordered_set<RecordId> in_band(band.begin(), band.end());
          EXPECT_EQ(in_band.size(), band.size()) << label;
          for (RecordId i = 0; i < data.size(); ++i) {
            EXPECT_EQ(in_band.contains(i), CountDominators(data, i) < k)
                << label << " k " << k << " record " << i;
          }
        }
      }
    }
  }
}

class SkybandTest : public ::testing::TestWithParam<int> {};

TEST_P(SkybandTest, MatchesDominatorCountDefinition) {
  const int k = GetParam();
  Dataset data = GenerateIndependent(400, 3, /*seed=*/3 * k);
  RTree t = RTree::BulkLoad(data, 8, 8);
  std::vector<RecordId> band = KSkyband(data, t, k);
  std::unordered_set<RecordId> in_band(band.begin(), band.end());
  for (RecordId i = 0; i < data.size(); ++i) {
    const bool expected = CountDominators(data, i) < k;
    EXPECT_EQ(in_band.contains(i), expected) << "record " << i << " k " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, SkybandTest, ::testing::Values(1, 2, 5, 10, 20));

TEST(Skyband, K1IsSkyline) {
  Dataset data = GenerateAntiCorrelated(300, 3, 11);
  RTree t = RTree::BulkLoad(data, 8, 8);
  std::vector<RecordId> band = KSkyband(data, t, 1);
  std::vector<RecordId> sky = Skyline(data, t);
  std::sort(band.begin(), band.end());
  std::sort(sky.begin(), sky.end());
  EXPECT_EQ(band, sky);
}

TEST(DominanceGraph, TracksDominators) {
  Dataset data(2);
  RecordId a = data.Add(Vec{0.9, 0.9});
  RecordId b = data.Add(Vec{0.5, 0.5});
  RecordId c = data.Add(Vec{0.6, 0.3});
  DominanceGraph dg(&data);
  dg.Add(a);
  dg.Add(b);
  dg.Add(c);
  EXPECT_TRUE(dg.Dominators(a).empty());
  ASSERT_EQ(dg.Dominators(b).size(), 1u);
  EXPECT_EQ(dg.Dominators(b)[0], a);
  ASSERT_EQ(dg.Dominators(c).size(), 1u);
  EXPECT_EQ(dg.Dominators(c)[0], a);
}

TEST(DominanceGraph, LateDominatorBackfills) {
  Dataset data(2);
  RecordId b = data.Add(Vec{0.5, 0.5});
  RecordId a = data.Add(Vec{0.9, 0.9});
  DominanceGraph dg(&data);
  dg.Add(b);
  dg.Add(a);  // added after, dominates b
  ASSERT_EQ(dg.Dominators(b).size(), 1u);
  EXPECT_EQ(dg.Dominators(b)[0], a);
}

TEST(ReportabilityCheck, FindsAffectingRecord) {
  Dataset data(2);
  data.Add(Vec{0.9, 0.1});   // 0: pivot
  data.Add(Vec{0.5, 0.05});  // 1: dominated by pivot
  data.Add(Vec{0.2, 0.8});   // 2: not dominated by pivot
  RTree t = RTree::BulkLoad(data, 4, 4);
  std::vector<char> processed = {1, 0, 0};
  RecordId witness = kInvalidRecord;
  EXPECT_TRUE(ExistsUnprocessedNotDominated(data, t, {data.Get(0)}, processed,
                                            nullptr, &witness));
  EXPECT_EQ(witness, 2);
  processed[2] = 1;
  EXPECT_FALSE(ExistsUnprocessedNotDominated(data, t, {data.Get(0)},
                                             processed, nullptr, &witness));
}

TEST(ReportabilityCheck, SkipFlagsTreatedAsProcessed) {
  Dataset data(2);
  data.Add(Vec{0.9, 0.1});
  data.Add(Vec{0.2, 0.8});
  RTree t = RTree::BulkLoad(data, 4, 4);
  std::vector<char> processed = {1, 0};
  std::vector<char> skip = {0, 1};
  EXPECT_FALSE(ExistsUnprocessedNotDominated(data, t, {data.Get(0)},
                                             processed, &skip, nullptr));
}

TEST(ReportabilityCheck, WeakDominanceCounts) {
  // Record equal to the pivot cannot affect a cell (identical hyperplane).
  Dataset data(2);
  data.Add(Vec{0.5, 0.5});
  data.Add(Vec{0.5, 0.5});
  RTree t = RTree::BulkLoad(data, 4, 4);
  std::vector<char> processed = {1, 0};
  EXPECT_FALSE(ExistsUnprocessedNotDominated(data, t, {data.Get(0)},
                                             processed, nullptr, nullptr));
}

// PivotSet's sum-ordered early exit returns the verdict of a linear scan
// over every pivot, for records and for boxes.
TEST(PivotSetTest, MatchesLinearScan) {
  for (int seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const int d = 2 + seed % 4;
    std::vector<Vec> pivots;
    const int count = static_cast<int>(rng.UniformInt(12));
    for (int i = 0; i < count; ++i) {
      Vec v(d);
      for (int j = 0; j < d; ++j) v.v[j] = rng.Uniform(0.2, 1.0);
      pivots.push_back(v);
      if (rng.Uniform() < 0.3) pivots.push_back(v);  // duplicate
      if (d >= 2 && rng.Uniform() < 0.3) {
        // Swapping the first two coordinates keeps the sum bit for bit.
        std::swap(v.v[0], v.v[1]);
        pivots.push_back(v);
      }
    }
    const PivotSet set(pivots);
    EXPECT_EQ(set.size(), pivots.size());

    std::vector<Vec> queries;
    for (int q = 0; q < 200; ++q) {
      Vec v(d);
      for (int j = 0; j < d; ++j) v.v[j] = rng.Uniform(0.0, 1.0);
      queries.push_back(v);
    }
    for (const Vec& piv : pivots) {
      queries.push_back(piv);  // weakly dominated by itself
      Vec above = piv;
      above.v[d - 1] = std::nextafter(above.v[d - 1], 2.0);
      queries.push_back(above);
      Vec below = piv;
      below.v[0] = std::nextafter(below.v[0], -1.0);
      queries.push_back(below);
    }
    for (const Vec& v : queries) {
      bool linear = false;
      for (const Vec& piv : pivots) linear |= WeaklyDominates(piv, v);
      EXPECT_EQ(set.DominatesPoint(v.v.data()), linear) << "seed " << seed;

      Mbr box = Mbr::OfPoint(v);
      for (int j = 0; j < d; ++j) box.lo.v[j] = v.v[j] * 0.5;
      bool linear_box = false;
      for (const Vec& piv : pivots) linear_box |= box.WeaklyDominatedBy(piv);
      EXPECT_EQ(set.DominatesBox(box), linear_box) << "seed " << seed;
    }
  }
  const PivotSet empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.DominatesPoint(Vec{0.0, 0.0}.v.data()));
}

TEST(PivotSetTest, AssignFromRowsMatchesVecs) {
  Dataset data = GenerateIndependent(60, 3, /*seed=*/8);
  const std::vector<RecordId> ids = {5, 17, 3, 42, 17};
  std::vector<Vec> vecs;
  for (RecordId id : ids) vecs.push_back(data.Get(id));
  PivotSet from_rows;
  from_rows.Assign(data, ids);
  const PivotSet from_vecs(vecs);
  ASSERT_EQ(from_rows.size(), ids.size());
  for (RecordId i = 0; i < data.size(); ++i) {
    EXPECT_EQ(from_rows.DominatesPoint(data.Row(i)),
              from_vecs.DominatesPoint(data.Row(i)))
        << "record " << i;
  }
}

// The reportability scan as it was before PivotSet: the same depth-first
// order with a linear pivot scan per record and per box.
bool LinearExistsUnprocessedNotDominated(const Dataset& data,
                                         const RTree& tree,
                                         const std::vector<Vec>& pivots,
                                         const std::vector<char>& processed,
                                         const std::vector<char>* skip,
                                         RecordId* witness) {
  if (tree.empty()) return false;
  std::vector<int> stack = {tree.root()};
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    bool pruned = false;
    for (const Vec& piv : pivots) {
      pruned |= tree.EntryMbr(id).WeaklyDominatedBy(piv);
    }
    if (pruned) continue;
    const RTree::Node& node = tree.Fetch(id);
    if (node.leaf) {
      for (RecordId rid : node.items) {
        if (processed[rid]) continue;
        if (skip != nullptr && (*skip)[rid]) continue;
        bool dom = false;
        for (const Vec& piv : pivots) {
          dom |= WeaklyDominates(piv, data.Row(rid));
        }
        if (!dom) {
          *witness = rid;
          return true;
        }
      }
    } else {
      for (int c : node.items) stack.push_back(c);
    }
  }
  return false;
}

TEST(ReportabilityCheck, MatchesLinearScanReference) {
  for (int seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    const int d = 2 + seed % 3;
    Dataset data = GenerateIndependent(150, d, /*seed=*/700 + seed);
    RTree t = RTree::BulkLoad(data, 4 + seed % 4, 4 + seed % 3);
    std::vector<char> processed(static_cast<size_t>(data.size()), 0);
    std::vector<char> skip(static_cast<size_t>(data.size()), 0);
    for (RecordId i = 0; i < data.size(); ++i) {
      processed[i] = rng.Uniform() < 0.5;
      skip[i] = rng.Uniform() < 0.1;
    }
    std::vector<Vec> pivots;
    const int count = static_cast<int>(rng.UniformInt(20));
    for (int i = 0; i < count; ++i) {
      pivots.push_back(data.Get(
          static_cast<RecordId>(rng.UniformInt(data.size()))));
    }
    const std::vector<char>* skips[] = {&skip, nullptr};
    for (const std::vector<char>* sk : skips) {
      RecordId got_witness = kInvalidRecord;
      RecordId want_witness = kInvalidRecord;
      const bool got = ExistsUnprocessedNotDominated(
          data, t, pivots, processed, sk, &got_witness);
      const bool want = LinearExistsUnprocessedNotDominated(
          data, t, pivots, processed, sk, &want_witness);
      EXPECT_EQ(got, want) << "seed " << seed;
      EXPECT_EQ(got_witness, want_witness) << "seed " << seed;
    }
  }
}

TEST(PageTracker, CountsWithoutBuffer) {
  PageTracker tracker(0);
  tracker.Access(1);
  tracker.Access(1);
  tracker.Access(2);
  EXPECT_EQ(tracker.reads(), 3);
  EXPECT_EQ(tracker.accesses(), 3);
}

TEST(PageTracker, LruBufferAbsorbsRepeats) {
  PageTracker tracker(2);
  tracker.Access(1);
  tracker.Access(2);
  tracker.Access(1);  // hit
  EXPECT_EQ(tracker.reads(), 2);
  tracker.Access(3);  // evicts 2 (LRU)
  tracker.Access(2);  // miss again
  EXPECT_EQ(tracker.reads(), 4);
  tracker.Access(3);  // hit: 3 is resident
  EXPECT_EQ(tracker.reads(), 4);
  EXPECT_NEAR(tracker.io_millis(), 4 * 0.2, 1e-12);
}

TEST(PageTracker, AttachedToRTree) {
  Dataset data = GenerateIndependent(500, 2, 5);
  RTree t = RTree::BulkLoad(data, 8, 8);
  PageTracker tracker(0);
  t.SetTracker(&tracker);
  Skyline(data, t);
  EXPECT_GT(tracker.reads(), 0);
  t.SetTracker(nullptr);
  const int64_t frozen = tracker.reads();
  Skyline(data, t);
  EXPECT_EQ(tracker.reads(), frozen);
}

}  // namespace
}  // namespace kspr
