#include "shard/shard_worker.h"

#include <cassert>
#include <unordered_set>
#include <utility>

#include "index/bbs.h"
#include "storage/storage_engine.h"

namespace kspr {

ShardWorker::ShardWorker(size_t shard_index, const ShardMap& map,
                         Dataset slice, ShardWorkerOptions options)
    : shard_index_(shard_index),
      map_(map),
      update_policy_(options.engine.update_policy),
      owned_data_(std::make_unique<Dataset>(std::move(slice))),
      owned_tree_(std::make_unique<RTree>(RTree::BulkLoad(
          *owned_data_, options.leaf_capacity, options.fanout))) {
  data_ = owned_data_.get();
  tree_ = owned_tree_.get();
}

ShardWorker::ShardWorker(size_t shard_index, const ShardMap& map,
                         std::unique_ptr<StorageEngine> storage,
                         ShardWorkerOptions options)
    : shard_index_(shard_index),
      map_(map),
      update_policy_(options.engine.update_policy),
      storage_(std::move(storage)) {
  data_ = storage_->dataset();
  tree_ = storage_->tree();
}

ShardWorker::~ShardWorker() = default;

const std::vector<RecordId>& ShardWorker::Skyband(int k) {
  CachedBand& band = skyband_cache_[k];
  const uint64_t version = data().version();
  // A fresh entry and a stale entry look the same to this test only when
  // the dataset version is 0, i.e. the shard is empty — where the correct
  // skyband is empty as well, so serving the default-constructed entry is
  // exact.
  if (band.version != version || (band.version == 0 && version == 0)) {
    band.local_ids = KSkyband(data(), *tree_, k);
    band.version = version;
  }
  return band.local_ids;
}

CandidateResponse ShardWorker::Candidates(const CandidateRequest& request) {
  CandidateResponse response;
  response.shard_version = data().version();
  auto cached = skyband_cache_.find(request.k);
  response.from_cache =
      cached != skyband_cache_.end() &&
      cached->second.version == response.shard_version &&
      response.shard_version != 0;
  const std::vector<RecordId>& band = Skyband(request.k);
  response.candidates.reserve(band.size());
  for (RecordId local : band) {
    response.candidates.push_back(
        {map_.GlobalOf(shard_index_, local), data().Get(local)});
  }
  return response;
}

ShardUpdateResponse ShardWorker::ApplyDelta(
    const ShardUpdateRequest& request) {
  // Exactly-once apply under at-least-once delivery: the router's
  // sequenced batches (batch_seq > 0) are idempotent here. A duplicate of
  // the last applied batch — a transport retry whose first attempt did
  // land, or an injected duplicate frame — replays the cached response
  // instead of double-applying. Per-shard FIFO delivery plus the router's
  // one-outstanding-batch-per-shard discipline mean a stale seq can only
  // ever equal the last one.
  if (request.batch_seq != 0 && request.batch_seq <= last_batch_seq_) {
    return last_batch_response_;
  }
  ShardUpdateResponse response;

  // Pre-batch skybands for every k the router tracks: computed against the
  // current live set BEFORE the delta lands (cache hit when unchanged).
  std::vector<std::vector<RecordId>> pre_bands;
  pre_bands.reserve(request.skyband_ks.size());
  for (int k : request.skyband_ks) pre_bands.push_back(Skyband(k));

  UpdateBatch batch;
  batch.inserts.reserve(request.inserts.size());
  for (const ShardInsert& ins : request.inserts) {
    assert(map_.ShardOf(ins.global_id) == shard_index_);
    // The router assigns global ids monotonically, so the dataset's append
    // order reproduces ShardMap's local ids exactly.
    assert(map_.LocalOf(ins.global_id) ==
           data().size() + static_cast<RecordId>(batch.inserts.size()));
    batch.inserts.push_back(ins.value);
  }
  batch.deletes.reserve(request.delete_global_ids.size());
  for (RecordId global : request.delete_global_ids) {
    assert(map_.ShardOf(global) == shard_index_);
    batch.deletes.push_back(map_.LocalOf(global));
  }

  // The engine's mutation half. The transport serialises this against
  // every other worker method, so no quiesce is needed; a disk-backed tree
  // is materialised first (no-op after the first batch).
  if (storage_ != nullptr) storage_->PrepareForUpdates();
  const UpdateResult applied =
      ApplyMutationBatch(data_, tree_, update_policy_, batch);
  response.shard_version = applied.version;
  response.inserts_applied = applied.inserted_ids.size();
  response.deletes_applied = applied.deletes_applied;

  // Post-batch skybands and the per-k symmetric difference. Values of
  // departed records stay addressable through their tombstoned rows.
  response.skyband_changes.reserve(request.skyband_ks.size());
  for (size_t i = 0; i < request.skyband_ks.size(); ++i) {
    SkybandChange change;
    change.k = request.skyband_ks[i];
    const std::vector<RecordId>& post = Skyband(change.k);
    std::unordered_set<RecordId> pre_set(pre_bands[i].begin(),
                                         pre_bands[i].end());
    std::unordered_set<RecordId> post_set(post.begin(), post.end());
    for (RecordId local : post) {
      if (!pre_set.contains(local)) {
        change.changed.push_back(
            {map_.GlobalOf(shard_index_, local), data().Get(local)});
      }
    }
    for (RecordId local : pre_bands[i]) {
      if (!post_set.contains(local)) {
        change.changed.push_back(
            {map_.GlobalOf(shard_index_, local), data().Get(local)});
      }
    }
    response.skyband_changes.push_back(std::move(change));
  }
  if (request.batch_seq != 0) {
    last_batch_seq_ = request.batch_seq;
    last_batch_response_ = response;
  }
  return response;
}

RecordResponse ShardWorker::GetRecord(RecordId global_id) const {
  RecordResponse response;
  if (global_id < 0 || map_.ShardOf(global_id) != shard_index_) {
    return response;
  }
  const RecordId local = map_.LocalOf(global_id);
  if (local >= data().size()) return response;
  response.known = true;
  response.live = data().IsLive(local);
  response.value = data().Get(local);
  return response;
}

ShardInfo ShardWorker::Info() const {
  ShardInfo info;
  info.shard_version = data().version();
  info.records_total = data().size();
  info.records_live = data().num_live();
  return info;
}

bool ShardWorker::SaveSnapshot(const std::string& path) {
  // A failed save (unwritable path, full disk) must degrade to a reported
  // per-shard failure, not tear down the serving worker — and over a
  // socket an exception would otherwise kill the whole connection.
  try {
    if (storage_ != nullptr) {
      // Resave materialises a still-hollow tree before serialising.
      storage_->Resave(path);
    } else {
      StorageEngine::Save(path, *data_, *tree_);
    }
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

}  // namespace kspr
