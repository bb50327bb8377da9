// Intra-query parallel traversal tests: the parallel cell-tree descent,
// look-ahead and finalisation passes must return results that are
// BITWISE-identical to the serial path — regions in the same order with
// identical doubles, and identical instrumentation counters — for every
// thread count, every algorithm, and even under adversarially tiny task
// granularity (maximal stealing). Plus ThreadTeam executor units and the
// QueryEngine parallel_intra_query mode.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "core/parallel.h"
#include "core/solver.h"
#include "engine/query_engine.h"
#include "test_support.h"

namespace kspr {
namespace {

using test::ExpectBitwiseEqual;
using test::SyntheticInstance;

// --------------------------------------------------------------------------
// ThreadTeam executor units.

TEST(ThreadTeam, RunsEveryIndexExactlyOnce) {
  ThreadTeam team(4);
  EXPECT_EQ(team.concurrency(), 4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  team.ParallelFor(257, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < 257; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadTeam, ReusableAcrossCallsAndShapes) {
  ThreadTeam team(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> sum{0};
    const int n = 1 + round * 10;  // includes n < concurrency
    team.ParallelFor(n, [&](int i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "round " << round;
  }
  team.ParallelFor(0, [&](int) { FAIL() << "n=0 must not invoke"; });
}

TEST(ThreadTeam, SingleThreadTeamRunsInline) {
  ThreadTeam team(1);
  EXPECT_EQ(team.concurrency(), 1);
  int calls = 0;
  team.ParallelFor(8, [&](int) { ++calls; });
  EXPECT_EQ(calls, 8);
}

// --------------------------------------------------------------------------
// Bitwise identity: parallel traversal vs the serial path.

struct Workload {
  Algorithm algorithm;
  int n;
  int d;
  uint64_t seed;
  int k;
};

class ParallelIdentityTest : public ::testing::TestWithParam<Workload> {};

TEST_P(ParallelIdentityTest, BitwiseIdenticalForEveryThreadCount) {
  const Workload& w = GetParam();
  SyntheticInstance inst(Distribution::kIndependent, w.n, w.d, w.seed);
  KsprOptions options;
  options.algorithm = w.algorithm;
  options.k = w.k;  // finalize_geometry stays on: the full answer
  const RecordId focal = inst.sky(0);

  const KsprResult serial = inst.solver().QueryRecord(focal, options);
  for (int threads : {1, 2, 4, 8}) {
    ThreadTeam team(threads);
    KsprOptions parallel = options;
    parallel.executor = &team;
    const KsprResult result = inst.solver().QueryRecord(focal, parallel);
    ExpectBitwiseEqual(serial, result,
                       threads == 1 ? "1-thread team" : "n-thread team");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgosSeedsDims, ParallelIdentityTest,
    ::testing::Values(Workload{Algorithm::kCta, 350, 2, 7, 6},
                      Workload{Algorithm::kCta, 400, 3, 2026, 8},
                      Workload{Algorithm::kPcta, 400, 2, 11, 6},
                      Workload{Algorithm::kPcta, 500, 3, 2026, 8},
                      Workload{Algorithm::kPcta, 300, 4, 99, 8},
                      Workload{Algorithm::kLpCta, 500, 3, 2026, 8},
                      Workload{Algorithm::kLpCta, 300, 4, 99, 8},
                      Workload{Algorithm::kOlpCta, 250, 3, 17, 6}));

// The warm-LP kernel's fork snapshots must keep the identity in BOTH ball
// filter modes: with the filter on (default — exercises zero-LP case-III
// verdicts and cap-ball child seeding inside forked tasks) and off (every
// undecided side test runs a warm LP from the snapshotted tableau).

TEST(ParallelTraversal, BitwiseIdenticalWithBallFilterOff) {
  SyntheticInstance inst(Distribution::kIndependent, 450, 3, 515);
  for (bool ball : {true, false}) {
    KsprOptions options;
    options.algorithm = Algorithm::kLpCta;
    options.k = 8;
    options.use_ball_filter = ball;
    const RecordId focal = inst.sky(0);
    const KsprResult serial = inst.solver().QueryRecord(focal, options);
    ThreadTeam team(6);
    KsprOptions parallel = options;
    parallel.executor = &team;
    parallel.parallel.min_cells_per_task = 2;
    const KsprResult result = inst.solver().QueryRecord(focal, parallel);
    ExpectBitwiseEqual(serial, result,
                       ball ? "ball filter on" : "ball filter off");
    if (ball) {
      EXPECT_GT(serial.stats.lp_skipped_by_ball, 0);
    } else {
      EXPECT_EQ(serial.stats.lp_skipped_by_ball, 0);
    }
  }
}

// The num_threads option (no explicit executor): the solver spins up a
// transient team and the answer stays bitwise-identical.

TEST(ParallelTraversal, TransientTeamViaNumThreadsOption) {
  SyntheticInstance inst(Distribution::kIndependent, 400, 3, 321);
  KsprOptions options;
  options.algorithm = Algorithm::kLpCta;
  options.k = 7;
  const RecordId focal = inst.sky(1);
  const KsprResult serial = inst.solver().QueryRecord(focal, options);
  KsprOptions parallel = options;
  parallel.parallel.num_threads = 3;
  const KsprResult result = inst.solver().QueryRecord(focal, parallel);
  ExpectBitwiseEqual(serial, result, "transient team");
}

// Stress: min_cells_per_task = 1 makes every subtree — down to single
// leaves — its own task, maximising stealing and reduction pressure.

TEST(ParallelTraversal, MaximalStealingWithTinyTasks) {
  SyntheticInstance inst(Distribution::kAntiCorrelated, 450, 3, 888);
  for (Algorithm algorithm :
       {Algorithm::kCta, Algorithm::kPcta, Algorithm::kLpCta}) {
    KsprOptions options;
    options.algorithm = algorithm;
    options.k = 9;
    const RecordId focal = inst.sky(0);
    const KsprResult serial = inst.solver().QueryRecord(focal, options);
    ThreadTeam team(8);
    KsprOptions parallel = options;
    parallel.executor = &team;
    parallel.parallel.min_cells_per_task = 1;
    const KsprResult result = inst.solver().QueryRecord(focal, parallel);
    ExpectBitwiseEqual(serial, result, "tiny tasks");
  }
}

// Per-split look-ahead exercises the ordered new-leaf reduction (report
// order must follow the serial split order); volume estimation exercises
// deterministic per-region Monte-Carlo inside the parallel finaliser.

TEST(ParallelTraversal, PerSplitLookaheadAndVolumes) {
  SyntheticInstance inst(Distribution::kIndependent, 350, 3, 4242);
  KsprOptions options;
  options.algorithm = Algorithm::kLpCta;
  options.k = 6;
  options.lookahead_per_split = true;
  options.compute_volume = true;
  options.volume_samples = 2000;
  const RecordId focal = inst.sky(2);
  const KsprResult serial = inst.solver().QueryRecord(focal, options);
  ThreadTeam team(4);
  KsprOptions parallel = options;
  parallel.executor = &team;
  const KsprResult result = inst.solver().QueryRecord(focal, parallel);
  ExpectBitwiseEqual(serial, result, "per-split + volume");
}

// --------------------------------------------------------------------------
// QueryEngine parallel_intra_query mode.

TEST(EngineIntraQuery, SplitsPoolAndMatchesSerialBitwise) {
  SyntheticInstance inst(Distribution::kIndependent, 400, 3, 1212);
  EngineOptions engine_options;
  engine_options.workers = 4;
  engine_options.intra_threads = 2;
  engine_options.cache_capacity = 16;
  QueryEngine engine(&inst.data(), &inst.tree(), engine_options);
  EXPECT_EQ(engine.workers(), 2);        // 4-thread budget split 2x2
  EXPECT_EQ(engine.intra_threads(), 2);

  std::vector<QueryRequest> requests;
  for (int q = 0; q < 6; ++q) {
    QueryRequest request;
    request.focal_id = inst.sky(static_cast<size_t>(q));
    request.options.k = 5 + q % 3;
    request.options.algorithm =
        q % 2 == 0 ? Algorithm::kLpCta : Algorithm::kPcta;
    requests.push_back(request);
  }
  const std::vector<QueryResponse> responses = engine.RunAll(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t q = 0; q < requests.size(); ++q) {
    const KsprResult serial = inst.solver().QueryRecord(
        requests[q].focal_id, requests[q].options);
    ExpectBitwiseEqual(serial, *responses[q].result, "engine intra");
  }

  // Identical results mean serial and intra-parallel runs share cache
  // entries: replaying the batch is all hits.
  const std::vector<QueryResponse> replay = engine.RunAll(requests);
  for (const QueryResponse& response : replay) {
    EXPECT_TRUE(response.cache_hit);
  }
}

TEST(EngineIntraQuery, BudgetSmallerThanIntraStillServes) {
  SyntheticInstance inst(Distribution::kIndependent, 200, 3, 5);
  EngineOptions engine_options;
  engine_options.workers = 2;
  engine_options.intra_threads = 4;
  QueryEngine engine(&inst.data(), &inst.tree(), engine_options);
  EXPECT_EQ(engine.workers(), 1);
  // The 2-thread budget caps the traversal team below intra_threads.
  EXPECT_EQ(engine.intra_threads(), 2);
  KsprOptions options;
  options.k = 5;
  const KsprResult serial = inst.solver().QueryRecord(inst.sky(0), options);
  QueryResponse response =
      engine.SubmitRecord(inst.sky(0), options).get();
  ExpectBitwiseEqual(serial, *response.result, "1-worker intra engine");
}

}  // namespace
}  // namespace kspr
