// Concurrent batch query engine: the serving layer above KsprSolver.
//
// A QueryEngine owns a fixed-size thread pool and an LRU result cache and
// answers kSPR queries against one (Dataset, RTree) pair. The dataset and
// index are shared read-only across workers — the library's read path is
// audited for this (the LP layer keeps its scratch tableaux in
// thread_local storage, so the per-query hot path performs no engine-side
// allocation beyond the result object itself; RTree/PageTracker serialise
// their only mutable state internally).
//
// Dynamic datasets: constructed over MUTABLE data/index pointers, the
// engine additionally serves ApplyUpdates — a batch of inserts and
// deletes applied under a writer lock that quiesces all in-flight
// queries. Each batch bumps the dataset version, which is folded into
// every result-cache key, so a result computed against an older live set
// can never be served for a newer one. Cached entries provably unaffected
// by the batch (their focal dominates every delta record, so no delta
// hyperplane intersects a region) are retained and restamped instead of
// dropped. Optionally the engine keeps amortized CTA contexts per focal:
// after an insert-only batch a re-submitted focal reuses its cached
// CellTree skeleton and only inserts the delta hyperplanes — regions and
// stats stay bitwise-identical to a from-scratch run (core/amortized.h).
//
// Scaling beyond one engine: the sharded tier (shard/shard_router.h)
// keeps no engine per shard — each worker applies its slice of a batch
// through ApplyMutationBatch below, the mutation half of ApplyUpdates,
// and the router runs its own cache and subscription sweeps.
//
// Usage:
//   kspr::QueryEngine engine(&data, &index, {.workers = 4});
//   std::future<kspr::QueryResponse> f = engine.SubmitRecord(42, options);
//   ... or ...
//   std::vector<kspr::QueryResponse> out = engine.RunAll(requests);
//   kspr::UpdateResult u = engine.ApplyUpdates(batch);   // mutable ctor
//   kspr::EngineStats::Snapshot s = engine.stats();

#ifndef KSPR_ENGINE_QUERY_ENGINE_H_
#define KSPR_ENGINE_QUERY_ENGINE_H_

#include <future>
#include <memory>
#include <vector>

#include "common/dataset.h"
#include "common/sync.h"
#include "core/parallel.h"
#include "common/types.h"
#include "common/vec.h"
#include "core/amortized.h"
#include "core/options.h"
#include "core/region.h"
#include "core/solver.h"
#include "engine/engine_stats.h"
#include "engine/result_cache.h"
#include "engine/subscription.h"
#include "engine/thread_pool.h"
#include "index/rtree.h"

namespace kspr {

class StorageEngine;  // storage/storage_engine.h

/// How ApplyUpdates maintains the R-tree.
enum class IndexUpdatePolicy {
  /// Dynamic insert/delete on the existing tree (Guttman maintenance).
  /// Fast per batch; the tree shape diverges from what a fresh BulkLoad
  /// would produce, so index-driven algorithms (P-CTA/LP-CTA) return the
  /// same region set as a from-scratch build but may traverse differently
  /// (counters, region order). CTA results are index-independent and stay
  /// bitwise-identical.
  kIncremental,
  /// STR BulkLoad over the live set after every batch. Costs O(n log n)
  /// per batch but reproduces the from-scratch tree exactly, making every
  /// algorithm's post-update results bitwise-identical to a clean rebuild.
  kRebuild,
};

struct EngineOptions {
  /// Total thread budget; <= 0 means std::thread::hardware_concurrency().
  int workers = 0;

  /// Result-cache entries; 0 disables caching entirely.
  size_t cache_capacity = 1024;

  /// Intra-query parallelism (> 1 enables it): the engine SPLITS its
  /// thread budget between queries and subtrees — `workers /
  /// intra_threads` pool workers answer queries concurrently, and each
  /// drives a private ThreadTeam of `intra_threads` traversal threads for
  /// the query it is running. Results are bitwise-identical to serial
  /// execution (see core/parallel.h), so the result cache is shared
  /// between both modes. Prefer inter-query parallelism (intra_threads =
  /// 1) for throughput on many small queries, and intra-query parallelism
  /// for tail latency on few heavy ones.
  int intra_threads = 1;

  /// R-tree maintenance policy for ApplyUpdates.
  IndexUpdatePolicy update_policy = IndexUpdatePolicy::kIncremental;

  /// Cached amortized CTA contexts (0 disables the amortized query mode).
  /// Each context pins a CellTree for one (focal, options) pair; see
  /// QueryRequest::amortized.
  size_t amortized_contexts = 0;
};

/// One kSPR query. For a focal record that is part of the dataset set
/// `focal_id` (the focal vector is filled in by the engine); for a
/// hypothetical focal leave it at kInvalidRecord and set `focal`.
struct QueryRequest {
  Vec focal;
  RecordId focal_id = kInvalidRecord;
  KsprOptions options;

  /// Serve through an amortized CTA context (requires
  /// EngineOptions::amortized_contexts > 0 and algorithm == kCta; other
  /// algorithms fall back to the normal path). The first query builds the
  /// context; after update batches a re-query only inserts the delta.
  bool amortized = false;
};

struct QueryResponse {
  /// Immutable, possibly shared with the cache and other responses.
  std::shared_ptr<const KsprResult> result;
  bool cache_hit = false;
  bool amortized = false;   // served via an amortized CTA context
  /// False when the requested focal record was deleted before the query
  /// ran: `result` is then a non-null empty placeholder that was neither
  /// computed nor cached. Callers racing ApplyUpdates should check this
  /// instead of treating the empty region set as an answer.
  bool focal_live = true;
  double latency_ms = 0.0;  // wall time inside the worker
  int worker = -1;          // pool worker that served the query
};

/// A batch of dataset mutations for ApplyUpdates.
struct UpdateBatch {
  std::vector<Vec> inserts;        // records to append
  std::vector<RecordId> deletes;   // live ids to tombstone
};

struct UpdateResult {
  bool applied = false;            // false: engine was constructed read-only
  uint64_t version = 0;            // dataset version after the batch
  std::vector<RecordId> inserted_ids;  // aligned with UpdateBatch::inserts
  size_t deletes_applied = 0;      // ids that were live and got removed
  size_t cache_dropped = 0;
  size_t cache_retained = 0;
  bool index_rebuilt = false;      // kRebuild (or empty-tree bootstrap)
  // Standing-subscription sweep of this batch (engine/subscription.h).
  size_t subscribers_examined = 0;
  size_t subscribers_irrelevant = 0;  // proven untouched, nothing emitted
  size_t subscribers_notified = 0;    // diff events delivered
  size_t subscribers_terminated = 0;  // focal record deleted by this batch
};

/// The mutation half of an update batch, shared by QueryEngine::ApplyUpdates
/// and ShardWorker::ApplyDelta: tombstones the live ids of `batch.deletes`,
/// appends `batch.inserts`, maintains `index` per `policy` and fills the
/// non-sweep fields of the result. Optional outputs: `delta` gets the value
/// of every record entering or leaving the live set (deletes captured
/// pre-tombstone), `deleted_ids` the tombstoned ids. The caller keeps
/// readers out and materialises a disk-backed tree first.
UpdateResult ApplyMutationBatch(Dataset* data, RTree* index,
                                IndexUpdatePolicy policy,
                                const UpdateBatch& batch,
                                std::vector<Vec>* delta = nullptr,
                                std::vector<RecordId>* deleted_ids = nullptr);

class QueryEngine {
 public:
  /// Read-only serving: `data` and `index` must outlive the engine; the
  /// index must have been built over exactly `data`. No other thread may
  /// mutate either (e.g. RTree::SetTracker) while the engine is serving.
  /// ApplyUpdates is unavailable (returns applied = false).
  QueryEngine(const Dataset* data, const RTree* index,
              EngineOptions options = {});

  /// Dynamic serving: same contract, but the engine may mutate dataset and
  /// index through ApplyUpdates. Callers must not mutate either themselves
  /// while the engine exists.
  QueryEngine(Dataset* data, RTree* index, EngineOptions options = {});

  /// Disk-backed serving over an opened snapshot (storage/StorageEngine):
  /// queries fault R-tree node pages through the storage buffer pool and
  /// return results bitwise-identical to an in-memory engine over the
  /// same data. ApplyUpdates works — the engine materialises the tree
  /// through StorageEngine::PrepareForUpdates under its writer lock
  /// first, which marks the snapshot stale (StorageEngine::Resave
  /// persists the new state). `storage` must outlive the engine.
  explicit QueryEngine(StorageEngine* storage, EngineOptions options = {});

  /// Drains queued work (every submitted future is fulfilled) and joins
  /// the workers.
  ~QueryEngine() = default;

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Pool workers answering queries concurrently (after the intra split).
  int workers() const { return pool_.size(); }

  /// Traversal threads each worker drives per query (1 = serial queries).
  int intra_threads() const {
    return intra_teams_.empty()
               ? 1
               : intra_teams_.front()->concurrency();
  }

  /// Asynchronous single query.
  std::future<QueryResponse> Submit(QueryRequest request);

  /// Convenience: query for dataset record `focal_id`.
  std::future<QueryResponse> SubmitRecord(RecordId focal_id,
                                          const KsprOptions& options);

  /// Asynchronous batch; futures align with `requests`.
  std::vector<std::future<QueryResponse>> SubmitBatch(
      std::vector<QueryRequest> requests);

  /// Synchronous batch: executes all requests on the pool and blocks until
  /// done; responses align with `requests`. This is the throughput path —
  /// one shared job with an atomic claim index, no per-query task or
  /// future allocation. Must not be called from a pool worker.
  std::vector<QueryResponse> RunAll(
      const std::vector<QueryRequest>& requests);

  /// Applies a mutation batch: quiesces in-flight queries (writer lock),
  /// tombstones deletes + appends inserts, maintains the R-tree per the
  /// configured policy, bumps the dataset version, and sweeps the result
  /// cache — dropping every entry a delta record could affect and
  /// restamping the provably untouched rest. Amortized contexts whose
  /// already-processed prefix is invalidated by a delete are discarded.
  /// Blocks until all running queries finish; must not be called from a
  /// pool worker (deadlock). Thread-safe against Submit/RunAll.
  UpdateResult ApplyUpdates(const UpdateBatch& batch);

  /// Registers dataset record `focal_id` as a standing kSPR query: the
  /// initial region set is computed immediately (the kInitial event fires
  /// before this returns) and every subsequent ApplyUpdates batch pushes a
  /// region diff to `callback` — or nothing at all when the batch provably
  /// cannot touch the subscriber (see engine/subscription.h for the
  /// classification rules and the diff-replay contract).
  /// REENTRANCY: the callback runs under the engine's update lock — keep
  /// it quick and never call back into the engine from it.
  /// Requires options.algorithm == kCta and a live focal record; returns
  /// kInvalidSubscription otherwise.
  SubscriptionId Subscribe(RecordId focal_id, const KsprOptions& options,
                           SubscriptionCallback callback);

  /// Cancels a standing query (no terminal event). False for unknown ids
  /// and for subscriptions already terminated by a focal deletion.
  bool Unsubscribe(SubscriptionId id);

  size_t num_subscriptions() const { return subscriptions_.size(); }

  /// Dataset version the next query will be keyed under.
  uint64_t dataset_version() const;

  EngineStats::Snapshot stats() const { return stats_.Get(); }
  void ResetStats() { stats_.Reset(); }

  size_t cache_size() const { return cache_.size(); }
  void ClearCache() { cache_.Clear(); }

 private:
  /// One cached amortized CTA context. `mu` serialises queries that share
  /// the context; the slot list itself is guarded by amortized_mu_. `key`
  /// is written once at slot creation (under amortized_mu_) and immutable
  /// afterwards.
  struct AmortizedSlot {
    CacheKey key;  // dataset_version zeroed: identity across versions
    Mutex mu;
    std::unique_ptr<AmortizedCta> ctx KSPR_GUARDED_BY(mu);
  };

  /// Runs one query on worker `worker`: cache lookup, solver call on miss,
  /// stats recording.
  QueryResponse Execute(const QueryRequest& request, int worker);

  /// The amortized-context path of Execute (returns false when the request
  /// cannot be served amortized and must fall through to the solver).
  /// Caller holds the quiesce lock shared, like every query path.
  bool ExecuteAmortized(const QueryRequest& request, QueryResponse* response)
      KSPR_REQUIRES_SHARED(update_mu_);

  /// Fills in `focal` from the dataset when only `focal_id` was given.
  void Canonicalize(QueryRequest* request) const;

  /// The quiesce: queries hold shared, ApplyUpdates holds exclusive.
  mutable SharedMutex update_mu_;

  const Dataset* data_ KSPR_PT_GUARDED_BY(update_mu_);
  // non-null for the dynamic ctor
  Dataset* mutable_data_ KSPR_PT_GUARDED_BY(update_mu_) = nullptr;
  RTree* mutable_index_ KSPR_PT_GUARDED_BY(update_mu_) = nullptr;
  // non-null for the disk-backed ctor
  StorageEngine* storage_ KSPR_PT_GUARDED_BY(update_mu_) = nullptr;
  KsprSolver solver_;
  ResultCache cache_;
  EngineStats stats_;
  IndexUpdatePolicy update_policy_ = IndexUpdatePolicy::kIncremental;
  size_t amortized_capacity_ = 0;

  Mutex amortized_mu_;
  std::vector<std::shared_ptr<AmortizedSlot>> amortized_
      KSPR_GUARDED_BY(amortized_mu_);  // MRU front

  /// Standing subscriptions; swept by ApplyUpdates under the writer lock.
  SubscriptionManager subscriptions_;

  // One traversal team per pool worker (parallel_intra_query mode only);
  // declared before the pool so in-flight queries outlive their teams.
  std::vector<std::unique_ptr<ThreadTeam>> intra_teams_;
  ThreadPool pool_;  // last member: destroyed (joined) before the state
                     // above disappears
};

}  // namespace kspr

#endif  // KSPR_ENGINE_QUERY_ENGINE_H_
