// One shard of the scatter-gather serving tier: a Dataset slice, its own
// R-tree and a skyband candidate cache.
//
// A ShardWorker owns the records of one ShardMap residue class. Its two
// serving operations are
//
//   * Candidates(k)  — the local k-skyband of the slice, as (global id,
//     value) pairs, served from a per-k cache keyed on the shard dataset
//     version, and
//   * ApplyDelta(..) — one shard-slice of an update batch, applied
//     through ApplyMutationBatch (engine/query_engine.h, the mutation
//     half of QueryEngine::ApplyUpdates), which also reports, per
//     requested k, the records that entered or left the local k-skyband —
//     the router's classification currency. Caches and subscriptions
//     live in the router; a shard runs no serving engine of its own.
//
// Thread-safety: ShardWorker is NOT internally synchronised; the
// transport in front of it serialises every call (LocalShardTransport's
// per-shard queue thread, ShardServer's worker_mu_), which also gives
// cross-method happens-before.

#ifndef KSPR_SHARD_SHARD_WORKER_H_
#define KSPR_SHARD_SHARD_WORKER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "common/shard_map.h"
#include "engine/query_engine.h"
#include "index/rtree.h"
#include "shard/shard_transport.h"

namespace kspr {

class StorageEngine;  // storage/storage_engine.h

struct ShardWorkerOptions {
  int leaf_capacity = 64;  // R-tree geometry of the shard's own tree
  int fanout = 64;
  /// Only `engine.update_policy` is read: it picks how ApplyDelta
  /// maintains the shard's R-tree. The other fields are ignored.
  EngineOptions engine;
};

class ShardWorker {
 public:
  /// In-memory shard: adopts `slice` (local ids must already follow
  /// `map`'s residue-class layout — ShardRouter builds slices that way)
  /// and bulk-loads the shard R-tree over its live records.
  ShardWorker(size_t shard_index, const ShardMap& map, Dataset slice,
              ShardWorkerOptions options);

  /// Disk-backed shard: serves from an opened per-shard snapshot; node
  /// pages fault through the storage buffer pool until the first update
  /// batch materialises the tree (StorageEngine::PrepareForUpdates).
  ShardWorker(size_t shard_index, const ShardMap& map,
              std::unique_ptr<StorageEngine> storage,
              ShardWorkerOptions options);

  /// Out of line: StorageEngine is only forward-declared here.
  ~ShardWorker();

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  size_t shard_index() const { return shard_index_; }

  CandidateResponse Candidates(const CandidateRequest& request);
  ShardUpdateResponse ApplyDelta(const ShardUpdateRequest& request);
  RecordResponse GetRecord(RecordId global_id) const;
  ShardInfo Info() const;

  /// Persists the current (dataset, tree) as a paged snapshot. A still-
  /// hollow disk-backed shard materialises its tree first.
  bool SaveSnapshot(const std::string& path);

 private:
  /// Local k-skyband at the current version, through the cache.
  const std::vector<RecordId>& Skyband(int k);

  const Dataset& data() const { return *data_; }

  size_t shard_index_;
  ShardMap map_;
  IndexUpdatePolicy update_policy_;
  /// In-memory ownership (null for the disk-backed constructor, where the
  /// StorageEngine owns the pair).
  std::unique_ptr<Dataset> owned_data_;
  std::unique_ptr<RTree> owned_tree_;
  std::unique_ptr<StorageEngine> storage_;
  Dataset* data_ = nullptr;
  RTree* tree_ = nullptr;

  struct CachedBand {
    uint64_t version = 0;
    std::vector<RecordId> local_ids;  // BBS pop order
  };
  std::map<int, CachedBand> skyband_cache_;  // keyed by k

  /// Exactly-once update ledger: last applied router batch_seq and its
  /// response, replayed verbatim on duplicate delivery (shard_transport.h
  /// documents the sequencing contract).
  uint64_t last_batch_seq_ = 0;
  ShardUpdateResponse last_batch_response_;
};

}  // namespace kspr

#endif  // KSPR_SHARD_SHARD_WORKER_H_
