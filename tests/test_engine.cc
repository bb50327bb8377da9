// Concurrent batch query engine tests: thread-pool and LRU-cache units,
// the counter field lists of KsprStats / EngineStats / TransportStats,
// bitwise identity of parallel batch results against serial KsprSolver
// runs, cache-hit accounting, and drain-on-shutdown with queued work.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <set>
#include <vector>

#include "common/stats.h"
#include "core/region.h"
#include "engine/engine_stats.h"
#include "engine/query_engine.h"
#include "engine/result_cache.h"
#include "engine/thread_pool.h"
#include "test_support.h"

namespace kspr {
namespace {

using test::SyntheticInstance;

// --------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, RunsEveryTaskOnValidWorkers) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> ran{0};
  std::atomic<bool> bad_worker{false};
  for (int i = 0; i < 64; ++i) {
    pool.Post([&](int worker) {
      if (worker < 0 || worker >= 4) bad_worker = true;
      ran.fetch_add(1);
    });
  }
  pool.Shutdown();
  EXPECT_EQ(ran.load(), 64);
  EXPECT_FALSE(bad_worker.load());
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);  // one worker so tasks genuinely queue up
    for (int i = 0; i < 32; ++i) {
      pool.Post([&](int) { ran.fetch_add(1); });
    }
  }  // destructor must run all 32 without deadlocking
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.Post([](int) {});
  pool.Shutdown();
  pool.Shutdown();  // second call is a no-op
}

// --------------------------------------------------------------------------
// ResultCache

CacheKey KeyFor(RecordId id, int k) {
  KsprOptions options;
  options.k = k;
  Vec focal{0.5, 0.5};
  return CacheKey::Make(focal, id, options);
}

std::shared_ptr<const KsprResult> DummyResult(int64_t regions) {
  auto r = std::make_shared<KsprResult>();
  r->stats.result_regions = regions;
  return r;
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  cache.Put(KeyFor(1, 5), DummyResult(1));
  cache.Put(KeyFor(2, 5), DummyResult(2));
  ASSERT_NE(cache.Get(KeyFor(1, 5)), nullptr);  // promotes key 1
  cache.Put(KeyFor(3, 5), DummyResult(3));      // evicts key 2
  EXPECT_EQ(cache.Get(KeyFor(2, 5)), nullptr);
  EXPECT_NE(cache.Get(KeyFor(1, 5)), nullptr);
  EXPECT_NE(cache.Get(KeyFor(3, 5)), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCache, ZeroCapacityDisables) {
  ResultCache cache(0);
  cache.Put(KeyFor(1, 5), DummyResult(1));
  EXPECT_EQ(cache.Get(KeyFor(1, 5)), nullptr);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCache, KeyDistinguishesOptions) {
  ResultCache cache(8);
  cache.Put(KeyFor(1, 5), DummyResult(1));
  EXPECT_EQ(cache.Get(KeyFor(1, 6)), nullptr);  // different k
  KsprOptions options;
  options.k = 5;
  KsprOptions other = options;
  other.bound_mode = BoundMode::kRecord;
  Vec focal{0.5, 0.5};
  cache.Put(CacheKey::Make(focal, 1, options), DummyResult(1));
  EXPECT_EQ(cache.Get(CacheKey::Make(focal, 1, other)), nullptr);
  EXPECT_NE(cache.Get(CacheKey::Make(focal, 1, options)), nullptr);
}

// --------------------------------------------------------------------------
// Counter field lists: every counter named in a list is compared, summed,
// read and reset.

TEST(StatsFieldLists, EachKsprStatsCounterIsComparedAndSummed) {
  KsprStats base;
  int64_t value = 1;
#define KSPR_TEST_SET(name) base.name = value++;
  KSPR_STATS_COUNTERS(KSPR_TEST_SET)
#undef KSPR_TEST_SET
  ASSERT_TRUE(StatsBitwiseEqual(base, base));

  int counters = 0;
#define KSPR_TEST_COUNTER(name)                                        \
  {                                                                    \
    ++counters;                                                        \
    KsprStats perturbed = base;                                        \
    ++perturbed.name;                                                  \
    EXPECT_FALSE(StatsBitwiseEqual(base, perturbed)) << #name;         \
    EXPECT_FALSE(StatsBitwiseEqual(perturbed, base)) << #name;         \
    KsprStats only;                                                    \
    only.name = 1000;                                                  \
    KsprStats sum = base;                                              \
    sum.Add(only);                                                     \
    KsprStats expected = base;                                         \
    expected.name += 1000;                                             \
    EXPECT_EQ(std::memcmp(&sum, &expected, sizeof(KsprStats)), 0)      \
        << #name;                                                      \
  }
  KSPR_STATS_COUNTERS(KSPR_TEST_COUNTER)
#undef KSPR_TEST_COUNTER
  EXPECT_EQ(static_cast<size_t>(counters) * sizeof(int64_t),
            sizeof(KsprStats));
}

TEST(StatsFieldLists, EngineStatsRecordsReachEveryCounterAndResetZeroes) {
  EngineStats stats;
  KsprStats solver;
  solver.feasibility_lps = 3;
  solver.bound_lps = 2;
  solver.finalize_lps = 1;
  stats.RecordQuery(&solver, 4, 1.5);  // miss
  stats.RecordQuery(nullptr, 4, 0.5);  // hit
  stats.RecordUpdate(1, 2, 3, 4);
  stats.RecordAmortizedBuild();
  stats.RecordAmortizedReuse();
  stats.RecordSubscriptionRegistered();
  stats.RecordSubscriptionSweep(1, 2, 3, 4, 5);
  stats.RecordSubscriptionEvent();

  const EngineStats::Snapshot s = stats.Get();
#define KSPR_TEST_NONZERO(name) EXPECT_NE(s.name, 0) << #name;
  KSPR_ENGINE_STATS_COUNTERS(KSPR_TEST_NONZERO)
  EXPECT_EQ(s.lp_calls, 6);
  EXPECT_EQ(s.sub_events, 6);
  EXPECT_DOUBLE_EQ(s.total_latency_ms, 2.0);
  EXPECT_DOUBLE_EQ(s.max_latency_ms, 1.5);

  stats.Reset();
  const EngineStats::Snapshot z = stats.Get();
#define KSPR_TEST_ZERO(name) EXPECT_EQ(z.name, 0) << #name;
  KSPR_ENGINE_STATS_COUNTERS(KSPR_TEST_ZERO)
  EXPECT_EQ(z.total_latency_ms, 0.0);
  EXPECT_EQ(z.max_latency_ms, 0.0);
}

TEST(StatsFieldLists, TransportStatsRecordsReachEveryCounterAndResetZeroes) {
  TransportStats stats;
  stats.RecordRequest();
  stats.RecordRetry();
  stats.RecordTimeout();
  stats.RecordConnect(/*is_reconnect=*/false);
  stats.RecordConnect(/*is_reconnect=*/true);
  stats.RecordFrameError();
  stats.RecordFailure();
  stats.RecordFaultInjected();
  stats.RecordReplay();

  const TransportStats::Snapshot s = stats.Get();
  KSPR_TRANSPORT_STATS_COUNTERS(KSPR_TEST_NONZERO)
  EXPECT_EQ(s.connects, 2);
  EXPECT_EQ(s.reconnects, 1);

  stats.Reset();
  const TransportStats::Snapshot z = stats.Get();
  KSPR_TRANSPORT_STATS_COUNTERS(KSPR_TEST_ZERO)
}
#undef KSPR_TEST_NONZERO
#undef KSPR_TEST_ZERO

// --------------------------------------------------------------------------
// QueryEngine

TEST(QueryEngine, ParallelBatchMatchesSerialSolverBitwise) {
  SyntheticInstance inst(Distribution::kIndependent, 300, 3, 2026);
  const std::vector<Algorithm> algos = {Algorithm::kCta, Algorithm::kPcta,
                                        Algorithm::kLpCta,
                                        Algorithm::kSkybandCta};
  std::vector<QueryRequest> requests;
  for (Algorithm algo : algos) {
    for (int f = 0; f < 4; ++f) {
      QueryRequest request;
      request.focal_id = inst.sky(f);
      request.options.k = 5;
      request.options.algorithm = algo;  // finalize_geometry stays on
      requests.push_back(request);
    }
  }

  EngineOptions opts;
  opts.workers = 4;
  opts.cache_capacity = 0;  // every query runs the solver
  QueryEngine engine(&inst.data(), &inst.tree(), opts);
  std::vector<QueryResponse> responses = engine.RunAll(requests);

  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ASSERT_NE(responses[i].result, nullptr);
    EXPECT_FALSE(responses[i].cache_hit);
    KsprResult serial = inst.solver().QueryRecord(requests[i].focal_id,
                                                  requests[i].options);
    EXPECT_TRUE(ResultsBitwiseEqual(*responses[i].result, serial))
        << "request " << i << " diverged from the serial solver";
  }
  EngineStats::Snapshot stats = engine.stats();
  EXPECT_EQ(stats.queries, static_cast<int64_t>(requests.size()));
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_misses, static_cast<int64_t>(requests.size()));
  EXPECT_GT(stats.lp_calls, 0);
}

TEST(QueryEngine, HypotheticalFocalMatchesSolverQuery) {
  SyntheticInstance inst(Distribution::kIndependent, 200, 3, 7);
  QueryRequest request;
  request.focal = inst.data().Get(inst.sky(0));  // by value, no id
  request.options.k = 4;
  QueryEngine engine(&inst.data(), &inst.tree(), {.workers = 2});
  QueryResponse response = engine.Submit(request).get();
  ASSERT_NE(response.result, nullptr);
  KsprResult serial = inst.solver().Query(request.focal, request.options);
  EXPECT_TRUE(ResultsBitwiseEqual(*response.result, serial));
}

TEST(QueryEngine, CacheHitsReturnIdenticalResultsAndAreCounted) {
  SyntheticInstance inst(Distribution::kIndependent, 250, 3, 11);
  KsprOptions options;
  options.k = 5;
  EngineOptions opts;
  opts.workers = 2;
  opts.cache_capacity = 16;
  QueryEngine engine(&inst.data(), &inst.tree(), opts);

  QueryResponse first = engine.SubmitRecord(inst.sky(0), options).get();
  QueryResponse second = engine.SubmitRecord(inst.sky(0), options).get();
  ASSERT_NE(first.result, nullptr);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  // A hit shares the exact cached object — identical by construction.
  EXPECT_EQ(second.result.get(), first.result.get());

  // A different k is a different key, not a hit.
  KsprOptions other = options;
  other.k = 6;
  QueryResponse third = engine.SubmitRecord(inst.sky(0), other).get();
  EXPECT_FALSE(third.cache_hit);

  EngineStats::Snapshot stats = engine.stats();
  EXPECT_EQ(stats.queries, 3);
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 2);
  EXPECT_EQ(engine.cache_size(), 2u);

  engine.ClearCache();
  EXPECT_EQ(engine.cache_size(), 0u);
  QueryResponse fourth = engine.SubmitRecord(inst.sky(0), options).get();
  EXPECT_FALSE(fourth.cache_hit);
  EXPECT_TRUE(ResultsBitwiseEqual(*fourth.result, *first.result));
}

TEST(QueryEngine, ShutdownWithQueuedWorkFulfillsEveryFuture) {
  SyntheticInstance inst(Distribution::kIndependent, 250, 3, 5);
  std::vector<std::future<QueryResponse>> futures;
  {
    EngineOptions opts;
    opts.workers = 1;  // force a deep queue
    opts.cache_capacity = 0;
    QueryEngine engine(&inst.data(), &inst.tree(), opts);
    std::vector<QueryRequest> requests;
    for (int i = 0; i < 12; ++i) {
      QueryRequest request;
      request.focal_id = inst.sky(i);
      request.options.k = 4;
      requests.push_back(request);
    }
    futures = engine.SubmitBatch(std::move(requests));
  }  // engine destroyed with most queries still queued
  for (std::future<QueryResponse>& future : futures) {
    ASSERT_TRUE(future.valid());
    QueryResponse response = future.get();  // must not throw broken_promise
    EXPECT_NE(response.result, nullptr);
  }
}

TEST(QueryEngine, RunAllUsesMultipleWorkers) {
  SyntheticInstance inst(Distribution::kIndependent, 300, 3, 13);
  std::vector<QueryRequest> requests;
  for (int i = 0; i < 16; ++i) {
    QueryRequest request;
    request.focal_id = inst.sky(i);
    request.options.k = 5;
    requests.push_back(request);
  }
  QueryEngine engine(&inst.data(), &inst.tree(), {.workers = 4});
  std::vector<QueryResponse> responses = engine.RunAll(requests);
  std::set<int> workers;
  for (const QueryResponse& response : responses) {
    ASSERT_GE(response.worker, 0);
    ASSERT_LT(response.worker, 4);
    ASSERT_GE(response.latency_ms, 0.0);
    workers.insert(response.worker);
  }
  // With 16 queries claimed from a shared index, at least one worker ran;
  // on a multicore machine typically several did. (Exact distribution is
  // scheduling-dependent, so only sanity-check the ids.)
  EXPECT_GE(workers.size(), 1u);
}

}  // namespace
}  // namespace kspr
