// Sharded serving tier: bitwise identity across shard counts.
//
// The contract under test (src/shard/shard_router.h, core/candidates.h):
// a ShardRouter's query results — regions AND every KsprStats counter —
// are bitwise-identical for every shard count, for every algorithm,
// before and after update batches, and a subscriber's event stream
// replays to the same state on every partitioning. The suites here gate
// N in {1, 2, 4, 8} against each other and cross-check CTA against
// RunCtaOnSubset over the unsharded dataset.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "common/dataset.h"
#include "common/rng.h"
#include "common/shard_map.h"
#include "core/candidates.h"
#include "core/cta.h"
#include "core/region.h"
#include "datagen/synthetic.h"
#include "index/bbs.h"
#include "index/rtree.h"
#include "net/fault_schedule.h"
#include "shard/fault_transport.h"
#include "shard/local_transport.h"
#include "shard/shard_router.h"
#include "shard/shard_server.h"
#include "shard/shard_worker.h"
#include "storage/shard_paths.h"
#include "storage/storage_engine.h"
#include "test_support.h"

namespace kspr {
namespace {

using test::ExpectBitwiseEqual;
using test::kTestFanout;
using test::kTestLeafCapacity;
using test::MaxSumRecord;

constexpr size_t kShardCounts[] = {1, 2, 4, 8};

RouterOptions TestRouterOptions(size_t num_shards) {
  RouterOptions options;
  options.num_shards = num_shards;
  options.worker.leaf_capacity = kTestLeafCapacity;
  options.worker.fanout = kTestFanout;
  options.solve_leaf_capacity = kTestLeafCapacity;
  options.solve_fanout = kTestFanout;
  return options;
}

KsprOptions QueryOptions(Algorithm algo, int k) {
  KsprOptions options;
  options.algorithm = algo;
  options.k = k;
  return options;
}

constexpr Algorithm kAlgorithms[] = {Algorithm::kCta, Algorithm::kPcta,
                                     Algorithm::kLpCta};

TEST(ShardMapTest, ClosedFormRoundTrip) {
  for (size_t n : kShardCounts) {
    ShardMap map(n);
    for (RecordId g = 0; g < 100; ++g) {
      const size_t shard = map.ShardOf(g);
      const RecordId local = map.LocalOf(g);
      EXPECT_LT(shard, n);
      EXPECT_EQ(map.GlobalOf(shard, local), g);
    }
    // Locals within one shard are dense and ordered: the i-th global id
    // routed to a shard gets local id i.
    for (size_t s = 0; s < n; ++s) {
      RecordId expected_local = 0;
      for (RecordId g = static_cast<RecordId>(s); g < 64;
           g += static_cast<RecordId>(n)) {
        EXPECT_EQ(map.LocalOf(g), expected_local++);
      }
    }
  }
}

TEST(ShardPartitionTest, PreservesValuesAndTombstones) {
  Dataset data = GenerateIndependent(50, 3, 7);
  ASSERT_TRUE(data.Delete(4));
  ASSERT_TRUE(data.Delete(17));
  for (size_t n : {size_t{2}, size_t{4}}) {
    ShardMap map(n);
    std::vector<Dataset> slices = ShardRouter::PartitionDataset(data, map);
    ASSERT_EQ(slices.size(), n);
    RecordId total = 0;
    for (size_t s = 0; s < n; ++s) {
      for (RecordId local = 0; local < slices[s].size(); ++local) {
        const RecordId g = map.GlobalOf(s, local);
        ASSERT_LT(g, data.size());
        EXPECT_TRUE(slices[s].Get(local) == data.Get(g));
        EXPECT_EQ(slices[s].IsLive(local), data.IsLive(g));
        ++total;
      }
    }
    EXPECT_EQ(total, data.size());
  }
}

TEST(ShardPathsTest, NamesEncodeShardAndCount) {
  EXPECT_EQ(ShardSnapshotPath("/tmp/base", 0, 4), "/tmp/base.shard0-of-4");
  EXPECT_EQ(ShardSnapshotPath("x", 3, 8), "x.shard3-of-8");
}

// The tentpole gate: the same query against the same data returns a
// bitwise-identical KsprResult (regions and stats) at 1, 2, 4 and 8
// shards, for CTA, P-CTA and LP-CTA, for dataset focals and hypothetical
// focals.
TEST(ShardingBitwiseTest, IdenticalAcrossShardCounts) {
  const Dataset data = GenerateAntiCorrelated(160, 3, 11);
  const RecordId focal = MaxSumRecord(data);
  const Vec hypothetical{0.7, 0.65, 0.72};

  for (int k : {1, 3}) {
    for (Algorithm algo : kAlgorithms) {
      const KsprOptions options = QueryOptions(algo, k);
      std::shared_ptr<const KsprResult> reference;
      std::shared_ptr<const KsprResult> hypo_reference;
      for (size_t n : kShardCounts) {
        auto router = ShardRouter::CreateLocal(data, TestRouterOptions(n));
        RouterQueryResult got = router->Query(focal, options);
        ASSERT_TRUE(got.focal_live);
        EXPECT_EQ(got.scatter.shards_queried, n);
        RouterQueryResult hypo = router->Query(hypothetical, options);
        if (n == 1) {
          reference = got.result;
          hypo_reference = hypo.result;
          EXPECT_GT(reference->regions.size(), 0u)
              << "degenerate fixture: k=" << k;
        } else {
          ExpectBitwiseEqual(*reference, *got.result, "dataset focal");
          ExpectBitwiseEqual(*hypo_reference, *hypo.result,
                             "hypothetical focal");
        }
      }
    }
  }
}

// Cross-check against the unsharded solver: the router's CTA result must
// equal RunCtaOnSubset over the full dataset restricted to the canonical
// candidate set (the k-skyband baseline's own subset, filtered and sorted
// the same way). This ties the scatter-gather pipeline to the existing
// single-engine code path rather than only to itself.
TEST(ShardingBitwiseTest, CtaMatchesSubsetRunOnFullData) {
  const Dataset data = GenerateIndependent(140, 3, 23);
  const RTree tree = RTree::BulkLoad(data, kTestLeafCapacity, kTestFanout);
  const RecordId focal = MaxSumRecord(data);
  const Vec p = data.Get(focal);
  const int k = 2;
  const KsprOptions options = QueryOptions(Algorithm::kCta, k);

  // The canonical candidate set, built directly on the full dataset: the
  // global k-skyband (KSkyband of an unsharded dataset IS the global
  // skyband, so ReduceToGlobalSkyband is a no-op on it), focal-covered
  // records dropped, sorted by id.
  std::vector<Candidate> candidates;
  for (RecordId id : KSkyband(data, tree, k)) {
    candidates.push_back({id, data.Get(id)});
  }
  ReduceToGlobalSkyband(&candidates, k);
  FilterFocalCovered(&candidates, p);
  SortCandidates(&candidates);
  std::vector<RecordId> subset;
  for (const Candidate& c : candidates) subset.push_back(c.global_id);
  const KsprResult expected =
      RunCtaOnSubset(data, p, kInvalidRecord, subset, options,
                     Space::kTransformed);

  auto router = ShardRouter::CreateLocal(data, TestRouterOptions(4));
  RouterQueryResult got = router->Query(focal, options);
  ASSERT_TRUE(got.focal_live);
  EXPECT_EQ(got.scatter.candidates_solved, subset.size());
  ExpectBitwiseEqual(expected, *got.result, "subset cross-check");
}

TEST(ShardingQueryTest, DeadOrUnknownFocal) {
  Dataset data = GenerateIndependent(60, 2, 5);
  const RecordId focal = MaxSumRecord(data);
  auto router = ShardRouter::CreateLocal(data, TestRouterOptions(4));
  const KsprOptions options = QueryOptions(Algorithm::kCta, 2);

  EXPECT_FALSE(router->Query(RecordId{1000}, options).focal_live);
  EXPECT_FALSE(router->Query(RecordId{-3}, options).focal_live);

  RouterUpdateBatch batch;
  batch.deletes.push_back(focal);
  RouterUpdateResult u = router->ApplyUpdates(batch);
  EXPECT_EQ(u.deletes_applied, 1u);
  RouterQueryResult got = router->Query(focal, options);
  EXPECT_FALSE(got.focal_live);
  EXPECT_TRUE(got.result->regions.empty());
}

// Mirrors one mutation stream into routers at every shard count AND into
// a plain Dataset; after every batch all routers agree bitwise with each
// other and with a fresh single-shard router over the mirrored dataset
// (proving the delta path equals a cold rebuild of the global state).
TEST(ShardingUpdateTest, BitwiseIdenticalAfterUpdateBatches) {
  const Dataset initial = GenerateAntiCorrelated(120, 3, 31);
  const RecordId focal = MaxSumRecord(initial);
  const int k = 2;

  // Shards maintaining their R-trees by STR rebuild must answer exactly
  // like the kIncremental ones: the candidate pipeline sorts canonically,
  // so the shard tree shape never reaches the solver.
  std::vector<std::unique_ptr<ShardRouter>> routers;
  for (IndexUpdatePolicy policy :
       {IndexUpdatePolicy::kIncremental, IndexUpdatePolicy::kRebuild}) {
    for (size_t n : kShardCounts) {
      RouterOptions options = TestRouterOptions(n);
      options.worker.engine.update_policy = policy;
      routers.push_back(ShardRouter::CreateLocal(initial, options));
    }
  }
  Dataset mirror = initial;

  // Batch 1: inserts near the top (skyband-relevant) plus interior noise.
  // Batch 2: delete two current skyband records and the strongest insert.
  // Batch 3: mixed insert + delete in one batch.
  std::vector<RouterUpdateBatch> batches(3);
  batches[0].inserts = {Vec{0.95, 0.9, 0.93}, Vec{0.2, 0.3, 0.25},
                        Vec{0.88, 0.97, 0.9}};
  {
    const RTree tree =
        RTree::BulkLoad(initial, kTestLeafCapacity, kTestFanout);
    std::vector<RecordId> band = KSkyband(initial, tree, k);
    ASSERT_GE(band.size(), 2u);
    RecordId d0 = band[0] == focal ? band[band.size() - 1] : band[0];
    RecordId d1 = band[1] == focal ? band[band.size() - 2] : band[1];
    if (d0 == focal || d1 == focal || d0 == d1) {
      d0 = band[band.size() - 1];
      d1 = band[band.size() - 2];
    }
    ASSERT_NE(d0, focal);
    ASSERT_NE(d1, focal);
    batches[1].deletes = {d0, d1, initial.size()};  // insert #0 of batch 1
  }
  batches[2].inserts = {Vec{0.99, 0.4, 0.85}};
  batches[2].deletes = {RecordId{3}};

  const KsprOptions cta = QueryOptions(Algorithm::kCta, k);
  for (const RouterUpdateBatch& batch : batches) {
    for (const Vec& v : batch.inserts) mirror.Insert(v);
    for (RecordId id : batch.deletes) mirror.Delete(id);

    std::map<Algorithm, std::shared_ptr<const KsprResult>> reference;
    for (size_t i = 0; i < routers.size(); ++i) {
      RouterUpdateResult u = routers[i]->ApplyUpdates(batch);
      EXPECT_EQ(u.inserted_global_ids.size(), batch.inserts.size());
      for (Algorithm algo : kAlgorithms) {
        RouterQueryResult got =
            routers[i]->Query(focal, QueryOptions(algo, k));
        ASSERT_TRUE(got.focal_live);
        if (i == 0) {
          reference[algo] = got.result;
        } else {
          ExpectBitwiseEqual(*reference[algo], *got.result,
                             "post-update shard-count identity");
        }
      }
    }

    // Cold rebuild over the mirrored global dataset.
    auto fresh = ShardRouter::CreateLocal(mirror, TestRouterOptions(1));
    RouterQueryResult cold = fresh->Query(focal, cta);
    ASSERT_TRUE(cold.focal_live);
    ExpectBitwiseEqual(*reference[Algorithm::kCta], *cold.result,
                       "delta path vs cold rebuild");
  }
}

TEST(ShardingUpdateTest, NoOpBatchKeepsVersionAndCache) {
  const Dataset data = GenerateIndependent(80, 3, 13);
  const RecordId focal = MaxSumRecord(data);
  auto router = ShardRouter::CreateLocal(data, TestRouterOptions(4));
  const KsprOptions options = QueryOptions(Algorithm::kLpCta, 2);

  RouterQueryResult first = router->Query(focal, options);
  ASSERT_TRUE(first.focal_live);
  const uint64_t v0 = router->version();

  RouterUpdateBatch noop;
  noop.deletes = {RecordId{5000}, RecordId{-1}};  // never assigned
  RouterUpdateResult u = router->ApplyUpdates(noop);
  EXPECT_EQ(u.deletes_applied, 0u);
  EXPECT_EQ(u.version, v0);
  EXPECT_EQ(router->version(), v0);

  RouterQueryResult again = router->Query(focal, options);
  EXPECT_TRUE(again.cache_hit);
  ExpectBitwiseEqual(*first.result, *again.result, "no-op batch");
}

TEST(ShardingUpdateTest, CacheRetainedWhenFocalDominatesDelta) {
  const Dataset data = GenerateIndependent(100, 3, 17);
  const RecordId focal = MaxSumRecord(data);
  const Vec p = data.Get(focal);
  auto router = ShardRouter::CreateLocal(data, TestRouterOptions(4));
  const KsprOptions options = QueryOptions(Algorithm::kCta, 2);

  RouterQueryResult first = router->Query(focal, options);
  ASSERT_TRUE(first.focal_live);
  ASSERT_FALSE(first.cache_hit);

  // A record strictly inside the focal's dominance cone: whatever shard
  // skybands it perturbs, the focal weakly dominates every change, so the
  // cached entry must be retained and restamped.
  Vec covered(p.dim);
  for (int i = 0; i < p.dim; ++i) covered.v[i] = p.v[i] * 0.5;
  RouterUpdateBatch irrelevant;
  irrelevant.inserts.push_back(covered);
  RouterUpdateResult u1 = router->ApplyUpdates(irrelevant);
  EXPECT_GE(u1.cache_retained, 1u);
  EXPECT_EQ(u1.cache_dropped, 0u);

  RouterQueryResult hit = router->Query(focal, options);
  EXPECT_TRUE(hit.cache_hit);
  ExpectBitwiseEqual(*first.result, *hit.result, "retained entry");

  // A record dominating the focal flips k_effective: the entry must drop
  // and the recomputed result must match a cold rebuild.
  Vec above(p.dim);
  for (int i = 0; i < p.dim; ++i) above.v[i] = p.v[i] * 1.05 + 0.01;
  RouterUpdateBatch relevant;
  relevant.inserts.push_back(above);
  RouterUpdateResult u2 = router->ApplyUpdates(relevant);
  EXPECT_GE(u2.cache_dropped, 1u);

  RouterQueryResult recomputed = router->Query(focal, options);
  EXPECT_FALSE(recomputed.cache_hit);
  Dataset mutated = data;
  mutated.Insert(covered);
  mutated.Insert(above);
  auto fresh = ShardRouter::CreateLocal(mutated, TestRouterOptions(1));
  ExpectBitwiseEqual(*fresh->Query(focal, options).result,
                     *recomputed.result, "post-invalidation recompute");
}

// Satellite edge case: delete every record owned by one shard; the shard
// serves an empty slice (empty skyband, empty tree) and results stay
// bitwise-identical to the single-shard deployment. A later insert lands
// on the emptied shard again (empty-tree bootstrap of the shard's
// R-tree).
TEST(ShardingEdgeTest, EmptyShardAfterHeavyDeletion) {
  const Dataset data = GenerateAntiCorrelated(48, 3, 41);
  const size_t n = 4;
  const ShardMap map(n);
  RecordId focal = MaxSumRecord(data);
  if (map.ShardOf(focal) == 1) {
    // The test empties shard 1 — pick the strongest focal elsewhere.
    focal = kInvalidRecord;
    for (RecordId g = 0; g < data.size(); ++g) {
      if (map.ShardOf(g) == 1) continue;
      if (focal == kInvalidRecord ||
          data.Get(g).Sum() > data.Get(focal).Sum()) {
        focal = g;
      }
    }
  }
  ASSERT_NE(focal, kInvalidRecord);

  RouterUpdateBatch wipe;
  for (RecordId g = 0; g < data.size(); ++g) {
    if (map.ShardOf(g) == 1) wipe.deletes.push_back(g);
  }
  ASSERT_FALSE(wipe.deletes.empty());

  auto sharded = ShardRouter::CreateLocal(data, TestRouterOptions(n));
  auto single = ShardRouter::CreateLocal(data, TestRouterOptions(1));
  sharded->ApplyUpdates(wipe);
  single->ApplyUpdates(wipe);

  std::vector<ShardInfo> infos = sharded->Info();
  ASSERT_EQ(infos.size(), n);
  EXPECT_EQ(infos[1].records_live, 0);

  for (Algorithm algo : kAlgorithms) {
    const KsprOptions options = QueryOptions(algo, 2);
    ExpectBitwiseEqual(*single->Query(focal, options).result,
                       *sharded->Query(focal, options).result,
                       "empty shard");
  }

  // Refill the emptied shard: the next inserts rotate across shards and
  // one lands on shard 1's empty tree.
  RouterUpdateBatch refill;
  refill.inserts = {Vec{0.9, 0.8, 0.7}, Vec{0.6, 0.9, 0.8},
                    Vec{0.8, 0.7, 0.95}, Vec{0.75, 0.85, 0.8}};
  sharded->ApplyUpdates(refill);
  single->ApplyUpdates(refill);
  for (Algorithm algo : kAlgorithms) {
    const KsprOptions options = QueryOptions(algo, 2);
    ExpectBitwiseEqual(*single->Query(focal, options).result,
                       *sharded->Query(focal, options).result,
                       "refilled shard");
  }
}

// Satellite edge case: the focal lives on one shard while every top
// candidate lives on others — the scatter must reach past the focal's own
// shard for the answer to be right.
TEST(ShardingEdgeTest, FocalOnDifferentShardThanTopCandidates) {
  const size_t n = 4;
  Dataset data(3);
  // Global id 0 -> shard 0: the focal, mid-strength.
  data.Add(Vec{0.6, 0.6, 0.6});
  // Ids 1..3 -> shards 1..3: the strong records that shape the regions.
  data.Add(Vec{0.95, 0.7, 0.5});
  data.Add(Vec{0.5, 0.95, 0.7});
  data.Add(Vec{0.7, 0.5, 0.95});
  // Filler on every shard so no slice is trivial.
  for (int i = 0; i < 28; ++i) {
    const double t = 0.05 + 0.01 * static_cast<double>(i);
    data.Add(Vec{t, 0.4 - 0.01 * i < 0 ? 0.05 : 0.4 - 0.01 * i, t});
  }
  const RecordId focal = 0;
  const ShardMap map(n);
  ASSERT_EQ(map.ShardOf(focal), 0u);
  for (RecordId g : {RecordId{1}, RecordId{2}, RecordId{3}}) {
    ASSERT_NE(map.ShardOf(g), map.ShardOf(focal));
  }

  auto sharded = ShardRouter::CreateLocal(data, TestRouterOptions(n));
  auto single = ShardRouter::CreateLocal(data, TestRouterOptions(1));
  for (Algorithm algo : kAlgorithms) {
    const KsprOptions options = QueryOptions(algo, 2);
    RouterQueryResult got = sharded->Query(focal, options);
    ASSERT_TRUE(got.focal_live);
    // The candidates actually solved must include the off-shard records.
    EXPECT_GE(got.scatter.candidates_solved, 3u);
    ExpectBitwiseEqual(*single->Query(focal, options).result, *got.result,
                       "cross-shard candidates");
  }
}

// Satellite edge case: a delete batch whose ids all map to one shard —
// only that shard is scattered to, and results still match the
// single-shard deployment bitwise.
TEST(ShardingEdgeTest, DeleteBatchLandsEntirelyOnOneShard) {
  const Dataset data = GenerateIndependent(96, 3, 53);
  const size_t n = 4;
  const ShardMap map(n);
  RecordId focal = MaxSumRecord(data);
  RouterUpdateBatch batch;
  for (RecordId g = 0; g < data.size() && batch.deletes.size() < 8; ++g) {
    if (map.ShardOf(g) == 2 && g != focal) batch.deletes.push_back(g);
  }
  ASSERT_EQ(batch.deletes.size(), 8u);

  auto sharded = ShardRouter::CreateLocal(data, TestRouterOptions(n));
  auto single = ShardRouter::CreateLocal(data, TestRouterOptions(1));
  RouterUpdateResult u = sharded->ApplyUpdates(batch);
  EXPECT_EQ(u.shards_touched, 1u);
  EXPECT_EQ(u.deletes_applied, 8u);
  single->ApplyUpdates(batch);
  for (Algorithm algo : kAlgorithms) {
    const KsprOptions options = QueryOptions(algo, 2);
    ExpectBitwiseEqual(*single->Query(focal, options).result,
                       *sharded->Query(focal, options).result,
                       "single-shard delete batch");
  }
}

// Subscriptions: identical event streams at every shard count, and the
// replayed diff stream reproduces the live query result bitwise after
// every batch. Also exercises a non-CTA subscriber (the router recomputes
// rather than maintaining an amortized context, so LP-CTA is legal here
// unlike QueryEngine::Subscribe).
TEST(ShardingSubscriptionTest, DiffReplayIdenticalAcrossShardCounts) {
  const Dataset data = GenerateAntiCorrelated(100, 3, 61);
  const RecordId focal = MaxSumRecord(data);
  const int k = 2;

  struct Stream {
    std::vector<SubscriptionEventKind> kinds;
    KsprResult replayed;  // running ApplyResultDiff state
  };

  std::vector<RouterUpdateBatch> batches(3);
  // Irrelevant to the focal (deep interior), relevant (near-top inserts +
  // a skyband delete), then the focal's own deletion.
  batches[0].inserts = {Vec{0.1, 0.12, 0.08}};
  batches[1].inserts = {Vec{0.93, 0.9, 0.94}, Vec{0.96, 0.88, 0.9}};
  batches[2].deletes = {focal};

  for (Algorithm algo : {Algorithm::kCta, Algorithm::kLpCta}) {
    const KsprOptions options = QueryOptions(algo, k);
    std::vector<Stream> streams;
    for (size_t n : {size_t{1}, size_t{4}}) {
      auto router = ShardRouter::CreateLocal(data, TestRouterOptions(n));
      Stream stream;
      const SubscriptionId id = router->Subscribe(
          focal, options, [&stream](const SubscriptionEvent& event) {
            stream.kinds.push_back(event.kind);
            if (event.kind == SubscriptionEventKind::kFocalGone) {
              // Terminal event: diff is empty by contract; the subscriber
              // drops its state rather than splicing.
              stream.replayed = KsprResult{};
            } else {
              ApplyResultDiff(event.diff, &stream.replayed);
            }
            EXPECT_EQ(stream.replayed.regions.size(), event.num_regions);
          });
      ASSERT_NE(id, kInvalidSubscription);
      ASSERT_EQ(stream.kinds.size(), 1u);
      EXPECT_EQ(stream.kinds[0], SubscriptionEventKind::kInitial);
      EXPECT_EQ(router->num_subscriptions(), 1u);

      for (size_t b = 0; b < batches.size(); ++b) {
        router->ApplyUpdates(batches[b]);
        if (b + 1 < batches.size()) {
          // Focal still live: the replayed state must equal the live
          // query answer bitwise.
          RouterQueryResult now = router->Query(focal, options);
          ASSERT_TRUE(now.focal_live);
          ExpectBitwiseEqual(*now.result, stream.replayed,
                             "diff replay vs live query");
        }
      }
      EXPECT_EQ(router->num_subscriptions(), 0u);  // kFocalGone removed it
      ASSERT_FALSE(stream.kinds.empty());
      EXPECT_EQ(stream.kinds.back(), SubscriptionEventKind::kFocalGone);
      streams.push_back(std::move(stream));
    }
    // The event streams — kinds and replayed end state — agree across
    // shard counts.
    ASSERT_EQ(streams.size(), 2u);
    EXPECT_EQ(streams[0].kinds, streams[1].kinds);
    ExpectBitwiseEqual(streams[0].replayed, streams[1].replayed,
                       "replayed stream across shard counts");
  }
}

TEST(ShardingSubscriptionTest, IrrelevantBatchEmitsNothing) {
  const Dataset data = GenerateIndependent(80, 3, 71);
  const RecordId focal = MaxSumRecord(data);
  const Vec p = data.Get(focal);
  auto router = ShardRouter::CreateLocal(data, TestRouterOptions(4));
  size_t events = 0;
  const SubscriptionId id =
      router->Subscribe(focal, QueryOptions(Algorithm::kCta, 2),
                        [&events](const SubscriptionEvent&) { ++events; });
  ASSERT_NE(id, kInvalidSubscription);
  EXPECT_EQ(events, 1u);  // kInitial

  Vec covered(p.dim);
  for (int i = 0; i < p.dim; ++i) covered.v[i] = p.v[i] * 0.4;
  RouterUpdateBatch batch;
  batch.inserts.push_back(covered);
  RouterUpdateResult u = router->ApplyUpdates(batch);
  EXPECT_EQ(u.subscribers_examined, 1u);
  EXPECT_EQ(u.subscribers_irrelevant, 1u);
  EXPECT_EQ(u.subscribers_notified, 0u);
  EXPECT_EQ(events, 1u);  // nothing new

  EXPECT_TRUE(router->Unsubscribe(id));
  EXPECT_FALSE(router->Unsubscribe(id));
}

// The fields of an update outcome that must not depend on the shard
// count: the classification verdicts and the version.
struct Classification {
  uint64_t version = 0;
  size_t cache_dropped = 0;
  size_t cache_retained = 0;
  size_t subscribers_irrelevant = 0;
  size_t subscribers_notified = 0;

  explicit Classification(const RouterUpdateResult& u)
      : version(u.version),
        cache_dropped(u.cache_dropped),
        cache_retained(u.cache_retained),
        subscribers_irrelevant(u.subscribers_irrelevant),
        subscribers_notified(u.subscribers_notified) {}
  bool operator==(const Classification&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Classification& c) {
  return os << "version=" << c.version << " dropped=" << c.cache_dropped
            << " retained=" << c.cache_retained
            << " irrelevant=" << c.subscribers_irrelevant
            << " notified=" << c.subscribers_notified;
}

// The router classifies a batch by the change of the GLOBAL k-skyband, so
// the cache drops and restamps and the subscriber outcomes are the same at
// every shard count, over sockets too. A random insert that k records
// dominate overall often has fewer than k dominators on its own shard and
// enters that shard's local skyband; it must still touch nothing.
TEST(ShardingUpdateTest, ClassificationIndependentOfShardCount) {
  const Dataset data = GenerateIndependent(200, 3, 131);
  const int k = 3;
  const KsprOptions options = QueryOptions(Algorithm::kCta, k);
  const RTree tree = RTree::BulkLoad(data, kTestLeafCapacity, kTestFanout);
  const std::vector<RecordId> skyline = KSkyband(data, tree, 1);
  ASSERT_GE(skyline.size(), 4u);

  std::vector<std::unique_ptr<ShardRouter>> routers;
  for (size_t n : kShardCounts) {
    routers.push_back(ShardRouter::CreateLocal(data, TestRouterOptions(n)));
  }
  RouterOptions socket = TestRouterOptions(4);
  socket.transport = TransportKind::kSocket;
  routers.push_back(ShardRouter::Create(data, socket));
  for (auto& router : routers) {
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_NE(router->Subscribe(skyline[i], options,
                                  [](const SubscriptionEvent&) {}),
                kInvalidSubscription);
    }
  }

  Rng rng(137);
  size_t touched_batches = 0;
  for (int round = 0; round < 20; ++round) {
    const RecordId focal = skyline[rng.UniformInt(skyline.size())];
    Vec what_if = data.Get(skyline[rng.UniformInt(skyline.size())]);
    for (int j = 0; j < what_if.dim; ++j) what_if.v[j] *= 0.97;
    RouterUpdateBatch batch;
    for (int i = 0; i < 3; ++i) {
      Vec v(3);
      for (int j = 0; j < 3; ++j) v.v[j] = rng.Uniform();
      batch.inserts.push_back(v);
    }

    std::vector<std::shared_ptr<const KsprResult>> answers;
    std::vector<Classification> outcomes;
    for (auto& router : routers) {
      RouterQueryResult by_id = router->Query(focal, options);
      RouterQueryResult by_value = router->Query(what_if, options);
      ASSERT_EQ(by_id.status, RouterStatus::kOk);
      ASSERT_EQ(by_value.status, RouterStatus::kOk);
      answers.push_back(by_id.result);
      answers.push_back(by_value.result);
      const RouterUpdateResult u = router->ApplyUpdates(batch);
      ASSERT_EQ(u.status, RouterStatus::kOk);
      EXPECT_LE(u.subscribers_notified, u.subscribers_recomputed);
      outcomes.emplace_back(u);
    }
    for (size_t r = 1; r < routers.size(); ++r) {
      ExpectBitwiseEqual(*answers[0], *answers[2 * r], "record focal");
      ExpectBitwiseEqual(*answers[1], *answers[2 * r + 1], "what-if focal");
      EXPECT_EQ(outcomes[0], outcomes[r])
          << "round " << round << ", router " << r;
    }
    if (outcomes[0].cache_dropped > 0) ++touched_batches;
  }
  // The sequence exercises both verdicts.
  EXPECT_GT(touched_batches, 0u);
  EXPECT_LT(touched_batches, 20u);
}

// Per-shard snapshots: SaveSnapshots writes one paged snapshot per shard;
// reopening them disk-backed reconstitutes a router whose answers are
// bitwise-identical to the original in-memory deployment.
TEST(ShardingStorageTest, SnapshotRoundTripServesIdentically) {
  const Dataset data = GenerateAntiCorrelated(90, 3, 83);
  const RecordId focal = MaxSumRecord(data);
  const size_t n = 2;
  RouterOptions router_options = TestRouterOptions(n);
  auto original = ShardRouter::CreateLocal(data, router_options);

  const std::string base =
      ::testing::TempDir() + "/kspr_shard_roundtrip";
  const SnapshotSaveResult saved = original->SaveSnapshots(base);
  ASSERT_TRUE(saved.ok);
  const std::vector<std::string>& paths = saved.paths;
  ASSERT_EQ(paths.size(), n);

  std::vector<std::unique_ptr<ShardWorker>> workers;
  const ShardMap map(n);
  for (size_t s = 0; s < n; ++s) {
    auto storage = StorageEngine::Open(paths[s]);
    ASSERT_NE(storage, nullptr);
    workers.push_back(std::make_unique<ShardWorker>(
        s, map, std::move(storage), router_options.worker));
  }
  ShardRouter reopened(
      std::make_unique<LocalShardTransport>(std::move(workers)),
      data.size(), router_options);

  for (Algorithm algo : kAlgorithms) {
    const KsprOptions options = QueryOptions(algo, 2);
    ExpectBitwiseEqual(*original->Query(focal, options).result,
                       *reopened.Query(focal, options).result,
                       "snapshot round trip");
  }

  // The reopened deployment accepts updates (PrepareForUpdates path, then
  // Delete on the materialised tree). Batch 1 deletes on every shard,
  // including a 2-skyband record; batch 2 mixes inserts and deletes again.
  const RTree tree = RTree::BulkLoad(data, kTestLeafCapacity, kTestFanout);
  const std::vector<RecordId> band = KSkyband(data, tree, 2);
  const RecordId band_record = band[0] == focal ? band[1] : band[0];
  // The first live non-focal record of shard `s` not yet picked.
  std::vector<RecordId> picked = {focal, band_record};
  const auto pick_on = [&](size_t s) {
    for (RecordId id = 0; id < data.size(); ++id) {
      if (map.ShardOf(id) == s && data.IsLive(id) &&
          std::find(picked.begin(), picked.end(), id) == picked.end()) {
        picked.push_back(id);
        return id;
      }
    }
    return kInvalidRecord;
  };
  std::vector<RouterUpdateBatch> batches(2);
  batches[0].inserts = {Vec{0.9, 0.92, 0.88}};
  batches[0].deletes = {band_record};
  for (size_t s = 0; s < n; ++s) batches[0].deletes.push_back(pick_on(s));
  batches[1].inserts = {Vec{0.95, 0.4, 0.91}, Vec{0.3, 0.2, 0.35}};
  batches[1].deletes = {data.size(), pick_on(0)};
  for (const RouterUpdateBatch& batch : batches) {
    const RouterUpdateResult want = original->ApplyUpdates(batch);
    const RouterUpdateResult got = reopened.ApplyUpdates(batch);
    EXPECT_EQ(got.deletes_applied, batch.deletes.size());
    EXPECT_EQ(got.deletes_applied, want.deletes_applied);
    for (Algorithm algo : kAlgorithms) {
      const KsprOptions options = QueryOptions(algo, 2);
      ExpectBitwiseEqual(*original->Query(focal, options).result,
                         *reopened.Query(focal, options).result,
                         "post-update round trip");
    }
  }

  // Save the updated disk-backed shards and reopen them once more.
  const SnapshotSaveResult resaved =
      reopened.SaveSnapshots(base + "_updated");
  ASSERT_TRUE(resaved.ok);
  std::vector<std::unique_ptr<ShardWorker>> reloaded;
  for (size_t s = 0; s < n; ++s) {
    reloaded.push_back(std::make_unique<ShardWorker>(
        s, map, StorageEngine::Open(resaved.paths[s]),
        router_options.worker));
  }
  ShardRouter twice(
      std::make_unique<LocalShardTransport>(std::move(reloaded)),
      original->next_global_id(), router_options);
  for (Algorithm algo : kAlgorithms) {
    const KsprOptions options = QueryOptions(algo, 2);
    ExpectBitwiseEqual(*original->Query(focal, options).result,
                       *twice.Query(focal, options).result,
                       "updated snapshot round trip");
  }
  for (const std::string& path : paths) std::remove(path.c_str());
  for (const std::string& path : resaved.paths) std::remove(path.c_str());
}

// Threads of this process, or -1 where /proc/self/task is unreadable.
int ThreadCount() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  int count = 0;
  for (; it != std::filesystem::directory_iterator(); it.increment(ec)) {
    if (ec) return -1;
    ++count;
  }
  return count;
}

// ThreadCount once two reads 1 ms apart agree: a thread an earlier test
// joined can stay listed for a moment after the join returns.
int SettledThreadCount() {
  int last = ThreadCount();
  for (int attempt = 0; attempt < 1000; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const int now = ThreadCount();
    if (now == last) return now;
    last = now;
  }
  return last;
}

// A shard is a dataset slice, a tree and a skyband cache; the only
// threads a local deployment needs are the transport's one queue thread
// per shard.
TEST(ShardThreadTest, LocalRouterAddsOneThreadPerShard) {
  const int before = SettledThreadCount();
  if (before < 0) GTEST_SKIP() << "/proc/self/task is unreadable";
  const Dataset data = GenerateIndependent(80, 3, 19);
  auto router = ShardRouter::CreateLocal(data, TestRouterOptions(4));
  EXPECT_EQ(SettledThreadCount() - before, 4);
  RouterUpdateBatch batch;
  batch.inserts = {Vec{0.9, 0.8, 0.95}};
  batch.deletes = {RecordId{1}, RecordId{2}};
  router->ApplyUpdates(batch);
  EXPECT_EQ(SettledThreadCount() - before, 4);
}

// Workers opened from snapshots with default ShardWorkerOptions start no
// threads of their own, neither when opened nor when updated.
TEST(ShardThreadTest, DiskBackedWorkersAddNoThreads) {
  if (ThreadCount() < 0) GTEST_SKIP() << "/proc/self/task is unreadable";
  const Dataset data = GenerateIndependent(80, 3, 23);
  const size_t n = 4;
  const std::string base = ::testing::TempDir() + "/kspr_shard_threads";
  SnapshotSaveResult saved =
      ShardRouter::CreateLocal(data, TestRouterOptions(n))
          ->SaveSnapshots(base);
  ASSERT_TRUE(saved.ok);

  const int before = SettledThreadCount();
  const ShardMap map(n);
  std::vector<std::unique_ptr<ShardWorker>> workers;
  for (size_t s = 0; s < n; ++s) {
    workers.push_back(std::make_unique<ShardWorker>(
        s, map, StorageEngine::Open(saved.paths[s]), ShardWorkerOptions{}));
  }
  EXPECT_EQ(SettledThreadCount(), before);
  RouterOptions options;
  options.num_shards = n;
  ShardRouter router(std::make_unique<LocalShardTransport>(std::move(workers)),
                     data.size(), options);
  EXPECT_EQ(SettledThreadCount() - before, static_cast<int>(n));
  RouterUpdateBatch batch;
  batch.inserts = {Vec{0.9, 0.8, 0.95}};
  batch.deletes = {RecordId{1}, RecordId{2}};
  router.ApplyUpdates(batch);
  EXPECT_EQ(SettledThreadCount() - before, static_cast<int>(n));
  for (const std::string& path : saved.paths) std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Fault-tolerant transport: sockets, failure injection, degraded serving
// ---------------------------------------------------------------------------

// A router over a FaultInjectingTransport-wrapped local transport: the
// decorator manufactures post-retry-budget outcomes (timeouts, dead
// connections, poisoned frames) deterministically, which is what the
// degraded-mode tests below program against.
std::unique_ptr<ShardRouter> FaultyLocalRouter(const Dataset& data,
                                               const std::string& spec,
                                               RouterOptions options) {
  const ShardMap map(options.num_shards);
  if (!options.stats) options.stats = std::make_shared<TransportStats>();
  std::vector<Dataset> slices = ShardRouter::PartitionDataset(data, map);
  std::vector<std::unique_ptr<ShardWorker>> workers;
  for (size_t s = 0; s < slices.size(); ++s) {
    workers.push_back(std::make_unique<ShardWorker>(
        s, map, std::move(slices[s]), options.worker));
  }
  net::FaultSchedule schedule;
  std::string error;
  EXPECT_TRUE(net::FaultSchedule::Parse(spec, &schedule, &error)) << error;
  auto faulty = std::make_unique<FaultInjectingTransport>(
      std::make_unique<LocalShardTransport>(std::move(workers)),
      std::move(schedule), options.stats);
  return std::make_unique<ShardRouter>(std::move(faulty), data.size(),
                                       std::move(options));
}

// The tentpole gate over real sockets: a Create(kSocket) deployment —
// frames, checksums, supervisor threads and all — answers bitwise-
// identically to the single-shard local deployment at every shard count,
// before and after an update batch.
TEST(SocketTransportTest, BitwiseIdenticalToLocalAcrossShardCounts) {
  const Dataset data = GenerateAntiCorrelated(120, 3, 97);
  const RecordId focal = MaxSumRecord(data);
  const Vec hypothetical{0.7, 0.65, 0.72};
  constexpr Algorithm kAlgos[] = {Algorithm::kCta, Algorithm::kLpCta};

  RouterUpdateBatch batch;
  batch.inserts = {Vec{0.94, 0.91, 0.9}, Vec{0.25, 0.3, 0.2}};
  batch.deletes = {RecordId{5}};

  auto reference = ShardRouter::CreateLocal(data, TestRouterOptions(1));
  std::map<Algorithm, std::shared_ptr<const KsprResult>> pre, pre_hypo, post;
  for (Algorithm algo : kAlgos) {
    pre[algo] = reference->Query(focal, QueryOptions(algo, 2)).result;
    pre_hypo[algo] = reference->Query(hypothetical, QueryOptions(algo, 2)).result;
  }
  reference->ApplyUpdates(batch);
  for (Algorithm algo : kAlgos) {
    post[algo] = reference->Query(focal, QueryOptions(algo, 2)).result;
  }

  for (size_t n : kShardCounts) {
    RouterOptions options = TestRouterOptions(n);
    options.transport = TransportKind::kSocket;
    auto router = ShardRouter::Create(data, options);
    for (Algorithm algo : kAlgos) {
      RouterQueryResult got = router->Query(focal, QueryOptions(algo, 2));
      ASSERT_EQ(got.status, RouterStatus::kOk);
      ASSERT_TRUE(got.focal_live);
      ExpectBitwiseEqual(*pre[algo], *got.result, "socket pre-update");
      RouterQueryResult hypo =
          router->Query(hypothetical, QueryOptions(algo, 2));
      ExpectBitwiseEqual(*pre_hypo[algo], *hypo.result,
                         "socket hypothetical");
    }
    RouterUpdateResult u = router->ApplyUpdates(batch);
    EXPECT_EQ(u.status, RouterStatus::kOk);
    for (Algorithm algo : kAlgos) {
      RouterQueryResult got = router->Query(focal, QueryOptions(algo, 2));
      ASSERT_EQ(got.status, RouterStatus::kOk);
      ExpectBitwiseEqual(*post[algo], *got.result, "socket post-update");
    }
    // A clean run never retries, fails or reconnects.
    const TransportStats::Snapshot s = router->transport_stats()->Get();
    EXPECT_GT(s.requests, 0);
    EXPECT_EQ(s.retries, 0);
    EXPECT_EQ(s.failures, 0);
    EXPECT_EQ(s.reconnects, 0);
    for (size_t shard = 0; shard < n; ++shard) {
      EXPECT_EQ(router->shard_health(shard), ShardHealth::kUp);
    }
  }
}

// The acceptance fault run: a socket deployment under an injected frame
// fault schedule (drops -> timeout/retry, duplicates -> stale-seq
// discard + worker dedupe, disconnects -> reconnect) still answers
// bitwise-identically to a clean single-shard deployment, and the
// TransportStats counters prove at least one retry and one reconnect
// actually happened.
TEST(SocketTransportTest, FaultScheduleForcesRetryAndReconnect) {
  const Dataset data = GenerateAntiCorrelated(80, 3, 101);
  const RecordId focal = MaxSumRecord(data);
  const Vec hypothetical{0.72, 0.68, 0.7};
  const size_t n = 4;

  net::FaultSchedule faults;
  std::string parse_error;
  ASSERT_TRUE(net::FaultSchedule::Parse("drop@5,disconnect@7,dup@9", &faults,
                                        &parse_error))
      << parse_error;

  RouterOptions options = TestRouterOptions(n);
  options.transport = TransportKind::kSocket;
  options.socket.request_timeout_ms = 200;  // dropped frames time out fast
  options.socket.max_retries = 6;
  options.socket.faults = &faults;  // must outlive the router
  auto router = ShardRouter::Create(data, options);
  auto clean = ShardRouter::CreateLocal(data, TestRouterOptions(1));

  RouterUpdateBatch batch;
  batch.inserts = {Vec{0.9, 0.85, 0.92}, Vec{0.3, 0.4, 0.35},
                   Vec{0.88, 0.9, 0.8}, Vec{0.2, 0.25, 0.3}};

  // Enough traffic that every shard's request counter passes the fault
  // periods: 6 scatters + the update delta = 7+ requests per shard.
  for (int k : {1, 2, 3}) {
    const KsprOptions q = QueryOptions(Algorithm::kCta, k);
    RouterQueryResult got = router->Query(focal, q);
    ASSERT_EQ(got.status, RouterStatus::kOk) << got.error;
    ExpectBitwiseEqual(*clean->Query(focal, q).result, *got.result,
                       "faulted socket query");
  }
  RouterUpdateResult u = router->ApplyUpdates(batch);
  ASSERT_EQ(u.status, RouterStatus::kOk) << u.error;
  clean->ApplyUpdates(batch);
  for (int k : {1, 2, 3}) {
    const KsprOptions q = QueryOptions(Algorithm::kCta, k);
    RouterQueryResult got = router->Query(hypothetical, q);
    ASSERT_EQ(got.status, RouterStatus::kOk) << got.error;
    ExpectBitwiseEqual(*clean->Query(hypothetical, q).result, *got.result,
                       "faulted socket post-update query");
  }

  const TransportStats::Snapshot s = router->transport_stats()->Get();
  EXPECT_GE(s.faults_injected, 1);
  EXPECT_GE(s.timeouts, 1);    // every drop burns one attempt deadline
  EXPECT_GE(s.retries, 1);     // the acceptance gate: >= 1 forced retry
  EXPECT_GE(s.reconnects, 1);  // and >= 1 reconnect
  EXPECT_EQ(s.failures, 0);    // the budget absorbed every fault
  for (size_t shard = 0; shard < n; ++shard) {
    EXPECT_EQ(router->shard_health(shard), ShardHealth::kUp);
  }
}

// Two clients on one ShardServer: the server's worker mutex is all that
// serialises the worker, which has no lock of its own. One client loops
// Candidates while the other sends 20 sequenced ApplyDelta batches; the
// reads must see non-decreasing versions, and the final skyband must be
// the k-skyband of a Dataset that mirrors the batches. Under TSan this
// also proves the two connection threads never touch the worker at once.
TEST(ShardServerTest, TwoClientsAreSerialised) {
  const Dataset data = GenerateAntiCorrelated(100, 3, 59);
  const Dataset pool = GenerateIndependent(40, 3, 61);
  const int k = 2;
  ShardWorkerOptions worker_options;
  worker_options.leaf_capacity = kTestLeafCapacity;
  worker_options.fanout = kTestFanout;
  ShardWorker worker(0, ShardMap(1), data, worker_options);
  ShardServer server(&worker);
  SocketTransportOptions socket;
  socket.request_timeout_ms = 30000;  // generous under sanitizers
  SocketShardTransport reader({server.port()}, socket);
  SocketShardTransport writer({server.port()}, socket);

  std::atomic<bool> done{false};
  std::atomic<int> reads{0};
  std::atomic<bool> reader_stopped{false};
  bool versions_monotonic = true;
  std::string reader_error;
  std::thread reader_thread([&] {
    try {
      uint64_t last_version = 0;
      while (!done.load()) {
        const CandidateResponse response =
            reader.Candidates(0, CandidateRequest{k}).get();
        if (response.shard_version < last_version) versions_monotonic = false;
        last_version = response.shard_version;
        ++reads;
      }
    } catch (const std::exception& e) {
      reader_error = e.what();
    }
    reader_stopped.store(true);
  });

  // The writes start once the reader has been served, so the two clients'
  // requests overlap; on a loaded host the 20 batches can otherwise finish
  // before the reader's first request lands.
  while (reads.load() == 0 && !reader_stopped.load()) {
    std::this_thread::yield();
  }
  Dataset mirror = data;
  std::string writer_error;
  try {
    for (int b = 0; b < 20; ++b) {
      ShardUpdateRequest request;
      request.batch_seq = static_cast<uint64_t>(b) + 1;
      request.skyband_ks = {k};
      const RecordId victim = static_cast<RecordId>(b * 7) % mirror.size();
      if (mirror.IsLive(victim)) {
        request.delete_global_ids.push_back(victim);
        mirror.Delete(victim);
      }
      for (RecordId p : {RecordId{2} * b, RecordId{2} * b + 1}) {
        request.inserts.push_back({mirror.size(), pool.Get(p)});
        mirror.Insert(pool.Get(p));
      }
      const ShardUpdateResponse response =
          writer.ApplyDelta(0, std::move(request)).get();
      EXPECT_EQ(response.shard_version, mirror.version());
    }
  } catch (const std::exception& e) {
    writer_error = e.what();
  }
  done.store(true);
  reader_thread.join();
  ASSERT_EQ(writer_error, "");
  ASSERT_EQ(reader_error, "");
  EXPECT_GT(reads.load(), 0);
  EXPECT_TRUE(versions_monotonic);

  const CandidateResponse final_band =
      reader.Candidates(0, CandidateRequest{k}).get();
  EXPECT_EQ(final_band.shard_version, mirror.version());
  std::vector<RecordId> got;
  for (const Candidate& c : final_band.candidates) {
    got.push_back(c.global_id);
    EXPECT_EQ(c.value, mirror.Get(c.global_id));
  }
  const RTree tree = RTree::BulkLoad(mirror, kTestLeafCapacity, kTestFanout);
  std::vector<RecordId> want = KSkyband(mirror, tree, k);
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

// VmSize of this process in MiB, or -1 where /proc/self/status is
// unreadable.
int64_t VmSizeMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::stoll(line.substr(7)) / 1024;  // reported in kB
    }
  }
  return -1;
}

// Every client connection gets its own handler thread on the server. A
// handler whose client has gone is joined while the server runs, not kept
// until Stop: reconnects (fault-schedule disconnects, retries after
// timeouts) would otherwise pin one exited thread's stack apiece, and a
// long fault run would grow without bound. After a warm-up, 128 more
// sequential clients must not add 128 thread stacks (8 MiB each under the
// usual default) to the process.
TEST(ShardServerTest, ClosedConnectionsReleaseTheirThreads) {
  if (VmSizeMiB() < 0) GTEST_SKIP() << "/proc/self/status is unreadable";
  const Dataset data = GenerateIndependent(40, 3, 67);
  ShardWorker worker(0, ShardMap(1), data, ShardWorkerOptions{});
  ShardServer server(&worker);
  SocketTransportOptions socket;
  socket.request_timeout_ms = 30000;  // generous under sanitizers
  const auto one_client = [&] {
    SocketShardTransport client({server.port()}, socket);
    EXPECT_EQ(client.Info(0).get().records_live, data.size());
  };
  for (int i = 0; i < 64; ++i) one_client();
  const int64_t before = VmSizeMiB();
  for (int i = 0; i < 128; ++i) one_client();
  EXPECT_LT(VmSizeMiB() - before, 64)
      << "closed connections keep their handler threads";
}

// Default policy: a query that cannot cover every shard fails fast with
// kUnavailable and an empty placeholder — no silently wrong answers.
TEST(DegradedModeTest, FailFastQueryIsUnavailable) {
  const Dataset data = GenerateIndependent(80, 3, 103);
  const size_t n = 4;
  auto router = FaultyLocalRouter(data, "drop@1#2", TestRouterOptions(n));
  const KsprOptions options = QueryOptions(Algorithm::kCta, 2);

  RouterQueryResult got = router->Query(Vec{0.7, 0.65, 0.72}, options);
  EXPECT_EQ(got.status, RouterStatus::kUnavailable);
  EXPECT_EQ(got.missing_shards, std::vector<size_t>{2});
  EXPECT_TRUE(got.result->regions.empty());
  EXPECT_FALSE(got.error.empty());
  EXPECT_EQ(router->shard_health(2), ShardHealth::kDown);

  // A record focal owned by the dead shard fails at resolution; one owned
  // by a live shard fails at the scatter. Both surface kUnavailable.
  const ShardMap map(n);
  RecordId on_dead = kInvalidRecord, on_live = kInvalidRecord;
  for (RecordId g = 0; g < data.size(); ++g) {
    if (map.ShardOf(g) == 2 && on_dead == kInvalidRecord) on_dead = g;
    if (map.ShardOf(g) == 0 && on_live == kInvalidRecord) on_live = g;
  }
  EXPECT_EQ(router->Query(on_dead, options).status,
            RouterStatus::kUnavailable);
  EXPECT_EQ(router->Query(on_live, options).status,
            RouterStatus::kUnavailable);

  // A standing query must start from a complete state.
  EXPECT_EQ(router->Subscribe(on_live, options,
                              [](const SubscriptionEvent&) {}),
            kInvalidSubscription);
}

// Opt-in partial serving: the merged result of the reachable shards,
// flagged kPartial with the missing shard set, bitwise-equal to a clean
// deployment over the dataset minus the dead shard's records — and never
// cached.
TEST(DegradedModeTest, PartialQueryCoversReachableShards) {
  const Dataset data = GenerateAntiCorrelated(96, 3, 107);
  const size_t n = 4;
  const Vec hypothetical{0.7, 0.68, 0.66};
  RouterOptions options = TestRouterOptions(n);
  options.allow_partial = true;
  auto router = FaultyLocalRouter(data, "drop@1#2", options);
  const KsprOptions q = QueryOptions(Algorithm::kCta, 2);

  RouterQueryResult got = router->Query(hypothetical, q);
  ASSERT_EQ(got.status, RouterStatus::kPartial);
  EXPECT_EQ(got.missing_shards, std::vector<size_t>{2});
  EXPECT_FALSE(got.error.empty());

  // The partial answer IS the right answer for the reachable subset.
  const ShardMap map(n);
  Dataset reachable = data;
  for (RecordId g = 0; g < data.size(); ++g) {
    if (map.ShardOf(g) == 2) reachable.Delete(g);
  }
  auto clean = ShardRouter::CreateLocal(reachable, TestRouterOptions(1));
  ExpectBitwiseEqual(*clean->Query(hypothetical, q).result, *got.result,
                     "partial vs reachable-subset rebuild");

  // Partial results are never cached: the repeat is a fresh scatter.
  RouterQueryResult again = router->Query(hypothetical, q);
  EXPECT_EQ(again.status, RouterStatus::kPartial);
  EXPECT_FALSE(again.cache_hit);
  EXPECT_EQ(router->cache_size(), 0u);
}

// Update slices that fail after the retry budget are queued and replayed
// in order with their original batch_seq; the shard serves stale state
// (and is excluded from scatters) until the backlog drains, then the
// deployment converges bitwise with a clean mirror.
TEST(DegradedModeTest, UpdateBacklogReplaysInOrder) {
  const Dataset data = GenerateIndependent(40, 3, 109);
  ASSERT_EQ(data.size() % 2, 0);  // insert ids alternate shards below
  RouterOptions options = TestRouterOptions(2);
  options.stats = std::make_shared<TransportStats>();
  // Shard 1's 4th request fails: batches A..C land, D's slice is queued.
  auto router = FaultyLocalRouter(data, "drop@4#1", options);
  const KsprOptions q = QueryOptions(Algorithm::kCta, 2);

  // Four batches of two inserts each: ids (even, odd) touch both shards,
  // so shard 1 sees exactly one ApplyDelta per batch.
  Dataset mirror = data;
  std::vector<RouterUpdateBatch> batches(4);
  batches[0].inserts = {Vec{0.9, 0.8, 0.85}, Vec{0.82, 0.9, 0.8}};
  batches[1].inserts = {Vec{0.3, 0.4, 0.35}, Vec{0.88, 0.86, 0.9}};
  batches[2].inserts = {Vec{0.7, 0.75, 0.72}, Vec{0.2, 0.3, 0.25}};
  batches[3].inserts = {Vec{0.92, 0.87, 0.89}, Vec{0.84, 0.91, 0.86}};
  for (const RouterUpdateBatch& b : batches) {
    for (const Vec& v : b.inserts) mirror.Insert(v);
  }

  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(router->ApplyUpdates(batches[i]).status, RouterStatus::kOk);
  }
  RouterUpdateResult failed = router->ApplyUpdates(batches[3]);
  EXPECT_EQ(failed.status, RouterStatus::kPartial);
  EXPECT_EQ(failed.failed_shards, std::vector<size_t>{1});
  EXPECT_FALSE(failed.error.empty());
  EXPECT_EQ(router->shard_health(1), ShardHealth::kDown);

  // While the backlog is pending: shard 1 is excluded from scatters
  // (fail-fast -> kUnavailable) and record resolution there refuses to
  // serve stale state. Neither consumes a shard-1 request.
  RouterQueryResult unavailable = router->Query(Vec{0.7, 0.7, 0.7}, q);
  EXPECT_EQ(unavailable.status, RouterStatus::kUnavailable);
  EXPECT_EQ(unavailable.missing_shards, std::vector<size_t>{1});
  EXPECT_EQ(router->Query(RecordId{1}, q).status, RouterStatus::kUnavailable);

  // The next update replays the queued slice first (shard 1 request #5),
  // then delivers its own slice (shard 0 only: one even-id insert).
  RouterUpdateBatch recovery;
  recovery.inserts = {Vec{0.5, 0.55, 0.5}};
  mirror.Insert(recovery.inserts[0]);
  RouterUpdateResult recovered = router->ApplyUpdates(recovery);
  EXPECT_EQ(recovered.status, RouterStatus::kOk);
  EXPECT_EQ(recovered.batches_replayed, 1u);
  EXPECT_EQ(router->shard_health(1), ShardHealth::kUp);
  EXPECT_EQ(options.stats->Get().replays, 1);

  // Converged: bitwise-identical to a clean rebuild of the mirror.
  auto clean = ShardRouter::CreateLocal(mirror, TestRouterOptions(1));
  const RecordId focal = MaxSumRecord(data);
  RouterQueryResult got = router->Query(focal, q);
  ASSERT_EQ(got.status, RouterStatus::kOk) << got.error;
  ExpectBitwiseEqual(*clean->Query(focal, q).result, *got.result,
                     "post-replay convergence");
}

// A failed batch leaves the router's global k-skyband bands out of step
// with the shards, so it drops them; a replay drops them again, and the
// next full scatter at each k rebuilds them. A 2-shard router whose
// `schedule` fails one batch's slice on shard 1 runs beside a clean
// 1-shard reference. With `replay_fails_again`, the next batch leaves
// shard 1 alone and its replay fails again, so it returns kOk with
// `error` set while no band exists: the one window where a tracked k
// has none. Once a later batch drains the backlog, the subscriber's
// replayed diffs and clean queries equal a cold single-shard router, and
// batches classify as on the reference again.
void CheckRecoveryAfterFailedBatch(const std::string& schedule,
                                   bool replay_fails_again) {
  const Dataset data = GenerateIndependent(60, 3, 139);
  ASSERT_EQ(data.size() % 2, 0);  // insert ids alternate shards below
  const KsprOptions q = QueryOptions(Algorithm::kCta, 2);
  const RecordId focal = MaxSumRecord(data);
  const Vec what_if{0.8, 0.75, 0.8};

  auto faulty = FaultyLocalRouter(data, schedule, TestRouterOptions(2));
  auto reference = ShardRouter::CreateLocal(data, TestRouterOptions(1));
  KsprResult replayed;  // the faulty router's subscriber, diff by diff
  ASSERT_NE(faulty->Subscribe(focal, q,
                              [&replayed](const SubscriptionEvent& event) {
                                ApplyResultDiff(event.diff, &replayed);
                              }),
            kInvalidSubscription);
  ASSERT_NE(reference->Subscribe(focal, q, [](const SubscriptionEvent&) {}),
            kInvalidSubscription);
  for (ShardRouter* router : {faulty.get(), reference.get()}) {
    ASSERT_EQ(router->Query(what_if, q).status, RouterStatus::kOk);
  }

  // Two inserts per batch (one per shard): a deep record and one near
  // the top, so batches both restamp and drop.
  Rng rng(149);
  const auto next_batch = [&rng] {
    RouterUpdateBatch batch;
    Vec deep(3), high(3);
    for (int j = 0; j < 3; ++j) {
      deep.v[j] = rng.Uniform(0.2, 0.7);
      high.v[j] = rng.Uniform(0.75, 1.0);
    }
    batch.inserts = {deep, high};
    return batch;
  };
  Dataset mirror = data;
  const auto apply_both = [&](const RouterUpdateBatch& batch) {
    for (const Vec& v : batch.inserts) mirror.Insert(v);
    return std::make_pair(reference->ApplyUpdates(batch),
                          faulty->ApplyUpdates(batch));
  };

  size_t failed_at = 0;
  for (;; ++failed_at) {
    ASSERT_LT(failed_at, 8u) << "the scheduled drop never hit a batch";
    const auto [want, got] = apply_both(next_batch());
    if (got.status == RouterStatus::kPartial) break;
    ASSERT_EQ(got.status, RouterStatus::kOk) << got.error;
    EXPECT_EQ(Classification(want), Classification(got))
        << "clean batch " << failed_at;
  }
  EXPECT_GT(failed_at, 0u);

  if (replay_fails_again) {
    // One insert with an even global id touches shard 0 only. The failed
    // batch emptied the cache, so nothing can be retained.
    ASSERT_EQ(faulty->next_global_id() % 2, 0);
    RouterUpdateBatch shard0_only;
    shard0_only.inserts = {Vec{0.85, 0.8, 0.9}};
    const auto [want, got] = apply_both(shard0_only);
    EXPECT_EQ(got.status, RouterStatus::kOk);
    EXPECT_FALSE(got.error.empty());
    EXPECT_TRUE(got.failed_shards.empty());
    EXPECT_EQ(got.shards_touched, 1u);
    EXPECT_EQ(got.batches_replayed, 0u);
    EXPECT_EQ(got.cache_retained, 0u);
    EXPECT_EQ(got.version, want.version);
    EXPECT_EQ(faulty->shard_health(1), ShardHealth::kDown);
    // Shard 1 still serves stale state: queries cannot complete.
    EXPECT_EQ(faulty->Query(what_if, q).status, RouterStatus::kUnavailable);
  }

  // The next batch replays the failed slice first; its full subscriber
  // sweep recomputes from a clean scatter.
  const auto [want_replay, replay] = apply_both(next_batch());
  ASSERT_EQ(replay.status, RouterStatus::kOk) << replay.error;
  EXPECT_TRUE(replay.error.empty()) << replay.error;
  EXPECT_EQ(replay.batches_replayed, 1u);
  EXPECT_EQ(replay.subscribers_recomputed, 1u);
  EXPECT_EQ(replay.version, want_replay.version);
  EXPECT_EQ(faulty->shard_health(1), ShardHealth::kUp);

  // The replayed subscription and clean queries equal a cold
  // single-shard router over the mirrored data. Both routers now cache
  // the same two entries.
  auto cold = ShardRouter::CreateLocal(mirror, TestRouterOptions(1));
  ExpectBitwiseEqual(*cold->Query(focal, q).result, replayed,
                     "replayed subscription vs cold");
  const auto check = [&](auto&& query) {
    RouterQueryResult got = query(*faulty);
    ASSERT_EQ(got.status, RouterStatus::kOk) << got.error;
    ExpectBitwiseEqual(*query(*cold).result, *got.result,
                       "after replay vs cold");
    ExpectBitwiseEqual(*query(*reference).result, *got.result,
                       "after replay vs reference");
  };
  check([&](ShardRouter& r) { return r.Query(focal, q); });
  check([&](ShardRouter& r) { return r.Query(what_if, q); });

  for (int b = 0; b < 3; ++b) {
    const auto [want, got] = apply_both(next_batch());
    ASSERT_EQ(got.status, RouterStatus::kOk) << got.error;
    EXPECT_EQ(Classification(want), Classification(got))
        << "batch " << b << " after recovery";
  }
  ExpectBitwiseEqual(*reference->Query(focal, q).result, replayed,
                     "replayed subscription after recovery");
}

// Shard 1's 13th request is a batch's slice: after the two set-up
// scatters, each clean batch sends shard 1 its slice and, when it
// touches the subscriber, a recompute scatter.
TEST(DegradedModeTest, ClassificationRecoversAfterFailedBatch) {
  CheckRecoveryAfterFailedBatch("drop@13#1", false);
}

// Shard 1's 13th request fails a batch's slice as above, and its 14th,
// the next batch's replay of that slice; neither rule fires again
// before the last shard-1 request.
TEST(DegradedModeTest, ReplayFailingAgainOnUntouchedShard) {
  CheckRecoveryAfterFailedBatch("drop@13#1,drop@14#1", true);
}

// RouterOptions::shard_timeout_ms bounds every shard wait — including
// over the local transport, through the AwaitShard deadline helper. The
// same injected delay that breaks a 50 ms budget passes a generous one.
TEST(DegradedModeTest, RouterTimeoutBudgetIsHonored) {
  const Dataset data = GenerateIndependent(60, 3, 113);
  const Vec hypothetical{0.7, 0.65, 0.6};
  const KsprOptions q = QueryOptions(Algorithm::kCta, 2);

  RouterOptions tight = TestRouterOptions(2);
  tight.shard_timeout_ms = 50;
  auto slow = FaultyLocalRouter(data, "delay@1:300", tight);
  RouterQueryResult got = slow->Query(hypothetical, q);
  EXPECT_EQ(got.status, RouterStatus::kUnavailable);
  EXPECT_NE(got.error.find("wait budget"), std::string::npos) << got.error;

  RouterOptions generous = TestRouterOptions(2);
  generous.shard_timeout_ms = 5000;
  auto patient = FaultyLocalRouter(data, "delay@1:300", generous);
  RouterQueryResult ok = patient->Query(hypothetical, q);
  ASSERT_EQ(ok.status, RouterStatus::kOk) << ok.error;
  auto clean = ShardRouter::CreateLocal(data, TestRouterOptions(1));
  ExpectBitwiseEqual(*clean->Query(hypothetical, q).result, *ok.result,
                     "delayed but complete");
}

// Satellite regression: a shard snapshot that cannot be written is
// reported per shard (ok=false, failed_shards + errors), never silently
// swallowed into a missing file.
TEST(ShardingStorageTest, SnapshotSaveFailureIsReported) {
  const Dataset data = GenerateIndependent(50, 3, 127);
  auto router = ShardRouter::CreateLocal(data, TestRouterOptions(2));

  // /dev/null is not a directory: every per-shard open must fail.
  const SnapshotSaveResult bad = router->SaveSnapshots("/dev/null/kspr_snap");
  EXPECT_FALSE(bad.ok);
  ASSERT_EQ(bad.paths.size(), 2u);
  EXPECT_EQ(bad.failed_shards, (std::vector<size_t>{0, 1}));
  ASSERT_EQ(bad.errors.size(), 2u);
  for (const std::string& error : bad.errors) {
    EXPECT_NE(error.find("snapshot save failed"), std::string::npos) << error;
  }

  // The same router still saves cleanly to a writable target.
  const std::string base = ::testing::TempDir() + "/kspr_snap_ok";
  const SnapshotSaveResult good = router->SaveSnapshots(base);
  EXPECT_TRUE(good.ok);
  EXPECT_TRUE(good.failed_shards.empty());
  for (const std::string& path : good.paths) std::remove(path.c_str());
}

}  // namespace
}  // namespace kspr
