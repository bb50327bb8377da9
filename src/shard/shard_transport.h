// The wire boundary between the ShardRouter front-end and its shard
// workers.
//
// ShardTransport is deliberately NARROW and message-shaped: every method
// takes a plain-data request, returns a std::future of a plain-data
// response, and carries no pointers into router or worker state — the
// requests and responses below are exactly what a socket transport would
// serialise. Three implementations exist: LocalShardTransport
// (local_transport.h) runs each shard in-process behind a local queue,
// SocketShardTransport (socket_transport.h) ships the same messages over
// loopback TCP to ShardServers, and FaultInjectingTransport
// (fault_transport.h) decorates either with deterministic failures.
//
// Thread-safety contract: every method may be called concurrently from
// any number of router threads for any mix of shards. Implementations
// must serialise the requests DELIVERED TO ONE SHARD (the local and
// socket transports do this with a per-shard FIFO queue drained by that
// shard's own thread); requests to different shards proceed in parallel.
// The router relies on per-shard FIFO order for update/read consistency:
// an ApplyDelta followed by a Candidates call on the same shard must
// observe the delta.

#ifndef KSPR_SHARD_SHARD_TRANSPORT_H_
#define KSPR_SHARD_SHARD_TRANSPORT_H_

#include <cstdint>
#include <future>
#include <string>
#include <vector>

#include "common/types.h"
#include "common/vec.h"
#include "core/candidates.h"

namespace kspr {

/// Scatter side of a query: ask one shard for its local k-skyband.
struct CandidateRequest {
  int k = 0;
};

/// A shard's candidate extraction result. `candidates` is the shard's
/// local k-skyband as (global id, value) pairs — value travels with the
/// id because the router holds no record storage.
struct CandidateResponse {
  uint64_t shard_version = 0;   // shard dataset version answered under
  bool from_cache = false;      // served from the shard's skyband cache
  std::vector<Candidate> candidates;
};

/// One record routed to a shard by ShardRouter::ApplyUpdates. The global
/// id is assigned by the router; ShardMap fixes the local id.
struct ShardInsert {
  RecordId global_id = kInvalidRecord;
  Vec value;
};

/// A shard's slice of an update batch, plus the set of skyband cardinals
/// (distinct subscriber / cached-query k values) the shard must report
/// skyband changes for.
struct ShardUpdateRequest {
  /// Router-assigned, per-shard monotonically increasing batch number
  /// (starting at 1; 0 means "unsequenced — always apply"). Workers apply
  /// a given batch_seq at most once and replay the cached response on a
  /// duplicate, which is what makes transport-level retries of ApplyDelta
  /// safe (exactly-once apply under at-least-once delivery).
  uint64_t batch_seq = 0;
  std::vector<ShardInsert> inserts;
  std::vector<RecordId> delete_global_ids;
  std::vector<int> skyband_ks;
};

/// Records that entered or left the shard's k-skyband because of one
/// update batch — the router's classification currency: a cached result
/// or subscriber is provably untouched by the batch iff its focal weakly
/// dominates every changed record at its k (core/candidates.h).
struct SkybandChange {
  int k = 0;
  std::vector<Candidate> changed;  // symmetric difference, entered + left
};

struct ShardUpdateResponse {
  uint64_t shard_version = 0;      // post-batch shard dataset version
  size_t inserts_applied = 0;
  size_t deletes_applied = 0;      // ids that were live on this shard
  std::vector<SkybandChange> skyband_changes;  // aligned with skyband_ks
};

/// Point lookup of one record by global id (focal resolution).
struct RecordResponse {
  bool known = false;  // global id maps to a slot on this shard
  bool live = false;   // known and not tombstoned
  Vec value;           // valid when known (tombstoned values included)
};

/// Shard liveness/version summary (CLI display, tests, save paths).
struct ShardInfo {
  uint64_t shard_version = 0;
  RecordId records_total = 0;  // slots including tombstones
  RecordId records_live = 0;
  /// Router-side only (never on the wire): false when the shard could not
  /// be reached and the counters above are meaningless zeros.
  bool reachable = true;
};

class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  virtual size_t num_shards() const = 0;

  /// Local k-skyband of shard `shard` (served from its skyband cache when
  /// the shard version is unchanged).
  virtual std::future<CandidateResponse> Candidates(
      size_t shard, CandidateRequest request) = 0;

  /// Applies one shard-slice of an update batch (ApplyMutationBatch,
  /// engine/query_engine.h) and reports per-k skyband changes.
  virtual std::future<ShardUpdateResponse> ApplyDelta(
      size_t shard, ShardUpdateRequest request) = 0;

  /// Resolves one global record id on its owning shard.
  virtual std::future<RecordResponse> GetRecord(size_t shard,
                                                RecordId global_id) = 0;

  virtual std::future<ShardInfo> Info(size_t shard) = 0;

  /// Persists the shard's current (dataset, R-tree) as a paged snapshot
  /// at `path` (storage/shard_paths.h names the per-shard files).
  virtual std::future<bool> SaveSnapshot(size_t shard, std::string path) = 0;
};

}  // namespace kspr

#endif  // KSPR_SHARD_SHARD_TRANSPORT_H_
