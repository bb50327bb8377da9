// Tests for the aggregate R-tree, BBS skyline / k-skyband, dominance graph
// and the page tracker.

#include <algorithm>
#include <set>
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
  std::vector<RecordId> second = Skyline(data, t, &excl);
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
