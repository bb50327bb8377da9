// Scatter-gather front-end of the sharded serving tier.
//
// A ShardRouter partitions the live record set across N shard workers
// (common/shard_map.h fixes the global<->(shard, local) id mapping in
// closed form) and serves the same operations a single QueryEngine does —
// queries, update batches, standing subscriptions — against the union of
// the shards:
//
//  * Query:   scatter CandidateRequest(k) to every shard; each shard
//    answers its LOCAL k-skyband in parallel (from its per-k cache when
//    its slice is unchanged). The router merges the per-shard skybands
//    and runs the canonical candidate pipeline of core/candidates.h —
//    reduce to the GLOBAL k-skyband, drop focal-covered records, sort by
//    global id, solve the cell-tree arrangement over the mini dataset.
//    The reduction is read off a MergedSkyband the router keeps per k
//    when the scattered union has the band's id set, and rebuilds the
//    band from the scatter when not; the scatter is never skipped, so a
//    band that drifted costs one rebuild and never a wrong answer.
//    The distributed-skyband theorem (candidates.h) makes the candidate
//    set — and therefore the returned regions AND KsprStats — independent
//    of the shard count: results are bitwise-identical across N = 1, 2,
//    4, 8, ... (gated by tests/test_sharding.cc and bench_sharding).
//  * ApplyUpdates: the batch is split into per-shard versioned deltas;
//    each shard applies its slice through ApplyMutationBatch (the
//    mutation half of QueryEngine::ApplyUpdates, engine/query_engine.h;
//    the transport serialises it per shard) and reports, for every
//    tracked k — each k with a band, which every full scatter builds —
//    the records that entered or left its local k-skyband. Passed
//    through the k's MergedSkyband, the merged local changes become the
//    GLOBAL k-skyband diff G_pre Δ G_post, which drives the
//    router-level classification: a cached result or
//    subscriber is untouched when its focal weakly dominates every record
//    of that diff at its k. This is exact — the focal's candidate list
//    sort(filter_f(G)) is the same list before and after, so the result
//    is bitwise the same — and it does not depend on the shard count: at
//    one shard the global diff is the local diff. Untouched cache entries
//    are restamped to the new router version (engine/result_cache.h),
//    untouched subscribers get no event. A degraded batch or a replay
//    drops every band; a k without a band has no proof, so its cache
//    entries drop and its subscribers are recomputed.
//  * Subscribe: standing queries in the engine/subscription.h event
//    vocabulary (kInitial/kRebuild/kFocalGone); touched subscribers are
//    recomputed through the same scatter-gather pipeline and receive a
//    splice diff (core/region.h DiffResults) only when the result
//    actually changed. Unlike QueryEngine::Subscribe (which maintains an
//    amortized CTA context and is therefore kCta-only), the router
//    recomputes from scratch and supports every algorithm.
//
// Shards are reached only through the narrow ShardTransport interface
// (in-process LocalShardTransport or SocketShardTransport).
//
// Thread-safety: Query may be called concurrently from any thread.
// ApplyUpdates/Subscribe/Unsubscribe take the router's writer lock (the
// same quiesce discipline as QueryEngine). Subscription callbacks run
// under that writer lock — keep them quick and never call back into the
// router.

#ifndef KSPR_SHARD_SHARD_ROUTER_H_
#define KSPR_SHARD_SHARD_ROUTER_H_

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "common/sync.h"
#include "common/shard_map.h"
#include "core/candidates.h"
#include "core/options.h"
#include "core/region.h"
#include "engine/engine_stats.h"
#include "engine/result_cache.h"
#include "engine/subscription.h"
#include "net/transport_error.h"
#include "shard/shard_transport.h"
#include "shard/shard_worker.h"
#include "shard/socket_transport.h"

namespace kspr {

class ShardServer;  // shard/shard_server.h

/// Which ShardTransport implementation ShardRouter::Create stands up.
enum class TransportKind { kLocal, kSocket };

/// Outcome class of a router operation under the failure model.
///   kOk           every shard answered
///   kPartial      some shards missing; the result covers the rest
///                 (queries: only with RouterOptions::allow_partial;
///                 updates: failed shard slices are queued for replay)
///   kUnavailable  shards missing and partial serving not allowed — the
///                 result is an empty placeholder
enum class RouterStatus : uint8_t { kOk, kPartial, kUnavailable };

const char* ToString(RouterStatus status);

struct RouterOptions {
  size_t num_shards = 1;

  /// Per-shard worker configuration (shard R-tree geometry and index
  /// update policy).
  ShardWorkerOptions worker;

  /// Front-end result cache entries (0 disables).
  size_t cache_capacity = 1024;

  /// R-tree geometry of the mini candidate dataset the arrangement runs
  /// over. Part of the bitwise contract: results are shard-count-
  /// independent only when these are held constant across deployments.
  int solve_leaf_capacity = 64;
  int solve_fanout = 64;

  /// Transport Create() stands up. kSocket starts one ShardServer per
  /// worker on an ephemeral loopback port and a SocketShardTransport over
  /// them — same data flow, real frames on real sockets.
  TransportKind transport = TransportKind::kLocal;

  /// Router-side wait budget per shard response, in ms; 0 waits forever.
  /// Applies to EVERY transport — even the local one honors deadlines
  /// through the AwaitShard helper. For sockets, set it at or above the
  /// transport's full retry budget or the router will give up while the
  /// supervisor is still retrying.
  int shard_timeout_ms = 0;

  /// Graceful degradation policy: false (default) fails a query fast with
  /// RouterStatus::kUnavailable the moment a shard is missing; true
  /// returns the reachable shards' merged result flagged kPartial with
  /// the missing shard set. Partial results are never cached.
  bool allow_partial = false;

  /// Socket supervisor tuning (Create with kSocket); `socket.stats` is
  /// defaulted to `stats` when unset.
  SocketTransportOptions socket;

  /// Fault-tolerance counters shared by the router and its transport;
  /// created by the constructor when null.
  std::shared_ptr<TransportStats> stats;
};

/// N-dependent scatter telemetry for one query. Deliberately SEPARATE
/// from KsprResult/KsprStats (which stay bitwise-identical across shard
/// counts): everything here legitimately varies with N.
struct ShardQueryStats {
  size_t shards_queried = 0;
  size_t shard_cache_hits = 0;    // shards that served a cached skyband
  size_t candidates_merged = 0;   // union of per-shard skybands
  size_t candidates_solved = 0;   // after global reduce + focal filter
};

struct RouterQueryResult {
  /// Immutable, possibly shared with the router cache. The regions and
  /// stats inside are those of the canonical candidate-pipeline run —
  /// bitwise-identical for every shard count.
  std::shared_ptr<const KsprResult> result;
  bool cache_hit = false;
  /// False when the requested focal record is unknown or tombstoned;
  /// `result` is then an empty placeholder.
  bool focal_live = true;
  ShardQueryStats scatter;
  /// Failure-model verdict. kOk results are complete and cacheable;
  /// kPartial results (opt-in) cover every shard EXCEPT `missing_shards`;
  /// kUnavailable results are empty placeholders.
  RouterStatus status = RouterStatus::kOk;
  std::vector<size_t> missing_shards;
  /// First shard failure, human-readable; empty when status is kOk.
  std::string error;
};

/// A batch of global mutations: values to insert (the router assigns
/// global ids) and global record ids to delete.
struct RouterUpdateBatch {
  std::vector<Vec> inserts;
  std::vector<RecordId> deletes;
};

struct RouterUpdateResult {
  /// Router version after the batch. A batch with no effective change
  /// (all deletes already dead, no inserts) does NOT bump the version.
  uint64_t version = 0;
  std::vector<RecordId> inserted_global_ids;  // aligned with inserts
  size_t deletes_applied = 0;
  size_t shards_touched = 0;
  size_t cache_dropped = 0;
  size_t cache_retained = 0;
  size_t subscribers_examined = 0;
  /// Nothing emitted: proven untouched, or recomputed and unchanged.
  size_t subscribers_irrelevant = 0;
  /// Re-solved through scatter-gather, changed or not (the unchanged ones
  /// are also counted irrelevant).
  size_t subscribers_recomputed = 0;
  size_t subscribers_notified = 0;    // diff events delivered
  size_t subscribers_terminated = 0;  // focal deleted by this batch
  /// kOk: every touched shard applied its slice. kPartial: the slices for
  /// `failed_shards` are queued and will be replayed (in order, with their
  /// original batch_seq) at the start of the next ApplyUpdates call; until
  /// then those shards are excluded from query scatters.
  RouterStatus status = RouterStatus::kOk;
  std::vector<size_t> failed_shards;
  size_t batches_replayed = 0;  // backlog batches that landed this call
  std::string error;
};

/// Per-shard outcome of ShardRouter::SaveSnapshots. `paths` always lists
/// every shard's target path; `failed_shards`/`errors` (aligned) name the
/// shards whose save did not complete.
struct SnapshotSaveResult {
  bool ok = true;
  std::vector<std::string> paths;
  std::vector<size_t> failed_shards;
  std::vector<std::string> errors;
};

class ShardRouter {
 public:
  /// Builds the in-process deployment: partitions `data` across
  /// `options.num_shards` workers by ShardMap residue class (tombstones
  /// preserved so global ids stay stable) and stands up a
  /// LocalShardTransport over them.
  static std::unique_ptr<ShardRouter> CreateLocal(const Dataset& data,
                                                  RouterOptions options);

  /// Transport-registry factory: builds the deployment selected by
  /// `options.transport`. kLocal is CreateLocal; kSocket partitions the
  /// same way, then runs every worker behind its own ShardServer on an
  /// ephemeral loopback port with a SocketShardTransport in front — the
  /// router owns servers and workers, so teardown order is safe.
  static std::unique_ptr<ShardRouter> Create(const Dataset& data,
                                             RouterOptions options);

  /// Fronts an existing transport (e.g. workers opened from per-shard
  /// disk snapshots). `next_global_id` must be one past the largest
  /// global id any shard holds; `transport->num_shards()` must equal
  /// options.num_shards.
  ShardRouter(std::unique_ptr<ShardTransport> transport,
              RecordId next_global_id, RouterOptions options);

  /// Out of line: tears the transport down before any owned servers and
  /// workers (ShardServer is only forward-declared here).
  ~ShardRouter();
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  size_t num_shards() const { return map_.num_shards(); }
  const ShardMap& shard_map() const { return map_; }
  uint64_t version() const;
  size_t cache_size() const { return cache_.size(); }
  size_t num_subscriptions() const;

  /// One past the largest global id ever assigned.
  RecordId next_global_id() const;

  /// Router-level serving state of one shard: kUp after a clean response,
  /// kDegraded while update batches are queued for replay, kDown after a
  /// failure that exhausted the transport's budget.
  ShardHealth shard_health(size_t shard) const;
  std::vector<ShardHealth> ShardHealths() const;

  /// Shared fault-tolerance counters (never null after construction).
  const std::shared_ptr<TransportStats>& transport_stats() const {
    return options_.stats;
  }

  /// kSPR query for dataset record `focal_id` (global id).
  RouterQueryResult Query(RecordId focal_id, const KsprOptions& options);

  /// kSPR query for a hypothetical focal vector (not part of the data).
  RouterQueryResult Query(const Vec& focal, const KsprOptions& options);

  /// Applies a global mutation batch: routes per-shard deltas, gathers
  /// the merged per-k local skyband changes, turns them into each k's
  /// global k-skyband diff through the router's bands, sweeps the
  /// front-end cache (drop vs restamp) and classifies every subscriber
  /// against that diff: untouched iff the focal weakly dominates every
  /// record that entered or left the global k-skyband.
  RouterUpdateResult ApplyUpdates(const RouterUpdateBatch& batch);

  /// Registers global record `focal_id` as a standing query; the kInitial
  /// event fires before this returns. Any algorithm is accepted. Returns
  /// kInvalidSubscription when the focal is unknown or dead.
  /// REENTRANCY: `callback` runs under the router's writer lock — keep it
  /// quick and never call back into the router from it.
  SubscriptionId Subscribe(RecordId focal_id, const KsprOptions& options,
                           SubscriptionCallback callback);

  /// Cancels a standing query (no terminal event). False for unknown ids
  /// and for subscriptions already terminated by a focal deletion.
  bool Unsubscribe(SubscriptionId id);

  /// Per-shard liveness/version summaries, in shard order.
  std::vector<ShardInfo> Info();

  /// Persists every shard as its own paged snapshot under
  /// storage/shard_paths.h naming. Per-shard failures are reported, not
  /// swallowed: check `.ok` before trusting the snapshot set.
  SnapshotSaveResult SaveSnapshots(const std::string& base_path);

  /// Splits `data` into per-shard slices by residue class (exposed for
  /// tests and for building disk-backed deployments shard by shard).
  static std::vector<Dataset> PartitionDataset(const Dataset& data,
                                               const ShardMap& map);

 private:
  /// Shards a scatter could not cover: excluded up front (replay backlog
  /// pending) or failed after the transport's full retry budget.
  struct ScatterFailure {
    std::vector<size_t> missing_shards;
    std::string error;  // first failure, human-readable
  };

  /// The scatter-gather pipeline: per-shard skybands -> merge -> global
  /// reduce (off the k's band after a full scatter) -> focal filter ->
  /// sort -> mini arrangement. Shard failures land in `failure`; returns
  /// null when shards are missing and partial serving is off.
  std::shared_ptr<const KsprResult> ComputeLocked(
      const Vec& focal, RecordId focal_id, const KsprOptions& options,
      ShardQueryStats* scatter, ScatterFailure* failure)
      KSPR_REQUIRES_SHARED(update_mu_);

  RouterQueryResult QueryLocked(const Vec& focal, RecordId focal_id,
                                const KsprOptions& options)
      KSPR_REQUIRES_SHARED(update_mu_);

  /// Resolves a global id on its owning shard. Throws TransportError when
  /// the shard is unreachable or serving stale state (pending replay).
  RecordResponse ResolveRecord(RecordId global_id)
      KSPR_REQUIRES_SHARED(update_mu_);

  /// Deadline-aware future wait: every transport response funnels through
  /// here so even LocalShardTransport honors shard_timeout_ms. Converts
  /// any non-transport exception (a worker throw surfacing through a
  /// local future) into TransportError{kRemote}.
  template <typename T>
  T AwaitShard(std::future<T>& future, size_t shard);

  void SetHealth(size_t shard, ShardHealth health);

  ShardMap map_;
  RouterOptions options_;
  /// Socket deployments (Create with kSocket): the router owns the
  /// worker + server pairs. Declared BEFORE transport_ so the client
  /// transport (and its supervisor threads) is destroyed first.
  std::vector<std::unique_ptr<ShardWorker>> owned_workers_;
  std::vector<std::unique_ptr<ShardServer>> owned_servers_;
  std::unique_ptr<ShardTransport> transport_;

  /// Readers (Query) hold shared; ApplyUpdates/Subscribe hold unique.
  mutable SharedMutex update_mu_;

  RecordId next_global_ KSPR_GUARDED_BY(update_mu_) = 0;
  uint64_t router_version_ KSPR_GUARDED_BY(update_mu_) = 0;

  /// Update slices that failed after the transport's retry budget, in
  /// arrival order with their original batch_seq — replayed at the start
  /// of the next ApplyUpdates. A shard with a backlog serves stale state
  /// and is excluded from query scatters (queries only read emptiness,
  /// under the shared lock).
  std::vector<std::deque<ShardUpdateRequest>> pending_replay_
      KSPR_GUARDED_BY(update_mu_);
  /// Next ApplyDelta sequence per shard, starting at 1 (0 = unsequenced).
  std::vector<uint64_t> next_batch_seq_ KSPR_GUARDED_BY(update_mu_);
  /// Set when a failed batch forced a blind cache drop; the next fully
  /// successful update sweep recomputes EVERY subscriber (the untouched
  /// proof needs the failed shards' skyband diffs, which are gone).
  bool subs_full_sweep_ KSPR_GUARDED_BY(update_mu_) = false;

  mutable Mutex health_mu_;
  std::vector<ShardHealth> health_ KSPR_GUARDED_BY(health_mu_);

  /// Front-end result cache, keyed on (focal, options, router_version_).
  /// Internally locked; entries restamped across no-op-for-them batches.
  ResultCache cache_;

  /// The global k-skyband per k, kept from the last full scatter through
  /// every clean batch's changes since (core/candidates.h). Its keys are
  /// the tracked ks, the ones update batches ask shards to report
  /// changes for: a full scatter builds its k's band, and a degraded
  /// batch or a replay drops them all. Queries read and rebuild bands
  /// under update_mu_ shared, hence their own mutex; the subscriber sweep
  /// takes it under subs_mu_, never the other way.
  Mutex bands_mu_;
  std::map<int, MergedSkyband> bands_ KSPR_GUARDED_BY(bands_mu_);

  mutable Mutex subs_mu_;
  SubscriptionId next_subscription_ KSPR_GUARDED_BY(subs_mu_) = 0;
  std::vector<std::unique_ptr<StandingQuery>> subs_
      KSPR_GUARDED_BY(subs_mu_);
};

}  // namespace kspr

#endif  // KSPR_SHARD_SHARD_ROUTER_H_
