#include "engine/query_engine.h"

#include <atomic>
#include <cassert>
#include <thread>
#include <tuple>
#include <utility>

#include "common/timer.h"
#include "storage/storage_engine.h"

namespace kspr {

namespace {

// Update batches with at most this many delta records get the targeted
// cache sweep (per-entry dominance test against each delta); larger
// batches drop the whole cache, as the sweep cost approaches a rebuild.
constexpr size_t kTargetedInvalidationMaxDelta = 16;

// The engine's thread budget shares the core resolution policy (<= 0
// means hardware concurrency).
int ResolveWorkers(int requested) { return ResolveIntraThreads(requested); }

// Splits the total thread budget: with intra_threads = t, every pool
// worker drives t traversal threads, so only budget / t workers run
// queries concurrently (at least one).
int PoolWorkers(const EngineOptions& options) {
  const int budget = ResolveWorkers(options.workers);
  if (options.intra_threads <= 1) return budget;
  const int outer = budget / options.intra_threads;
  return outer > 0 ? outer : 1;
}

}  // namespace

QueryEngine::QueryEngine(const Dataset* data, const RTree* index,
                         EngineOptions options)
    : data_(data),
      solver_(data, index),
      cache_(options.cache_capacity),
      update_policy_(options.update_policy),
      amortized_capacity_(options.amortized_contexts),
      subscriptions_(data, &stats_),
      pool_(PoolWorkers(options)) {
  if (options.intra_threads > 1) {
    // Honour the total budget even when it is smaller than intra_threads
    // (e.g. workers=2, intra_threads=8 -> one worker with a 2-thread
    // team, not an 8-thread one).
    const int budget = ResolveWorkers(options.workers);
    const int team = options.intra_threads < budget ? options.intra_threads
                                                    : budget;
    intra_teams_.reserve(static_cast<size_t>(pool_.size()));
    for (int w = 0; w < pool_.size(); ++w) {
      intra_teams_.push_back(std::make_unique<ThreadTeam>(team));
    }
  }
}

QueryEngine::QueryEngine(Dataset* data, RTree* index, EngineOptions options)
    : QueryEngine(static_cast<const Dataset*>(data),
                  static_cast<const RTree*>(index), options) {
  mutable_data_ = data;
  mutable_index_ = index;
}

QueryEngine::QueryEngine(StorageEngine* storage, EngineOptions options)
    : QueryEngine(storage->dataset(), storage->tree(), options) {
  storage_ = storage;
}

void QueryEngine::Canonicalize(QueryRequest* request) const {
  ReaderLock lock(&update_mu_);
  if (request->focal_id != kInvalidRecord) {
    assert(request->focal_id >= 0 && request->focal_id < data_->size());
    request->focal = data_->Get(request->focal_id);
  } else {
    assert(request->focal.dim == data_->dim());
  }
}

uint64_t QueryEngine::dataset_version() const {
  ReaderLock lock(&update_mu_);
  return data_->version();
}

bool QueryEngine::ExecuteAmortized(const QueryRequest& request,
                                   QueryResponse* response) {
  if (amortized_capacity_ == 0 ||
      request.options.algorithm != Algorithm::kCta) {
    return false;
  }

  // Context identity: same key as the result cache, minus the version (a
  // context survives versions — that is the point).
  const CacheKey key =
      CacheKey::Make(request.focal, request.focal_id, request.options,
                     /*dataset_version=*/0);

  std::shared_ptr<AmortizedSlot> slot;
  {
    MutexLock lock(&amortized_mu_);
    for (auto it = amortized_.begin(); it != amortized_.end(); ++it) {
      if ((*it)->key == key) {
        slot = *it;
        amortized_.erase(it);
        break;
      }
    }
    if (slot == nullptr) {
      slot = std::make_shared<AmortizedSlot>();
      slot->key = key;
    }
    amortized_.insert(amortized_.begin(), slot);  // MRU
    if (amortized_.size() > amortized_capacity_) {
      // The evicted slot may still be driving an in-flight query; the
      // shared_ptr keeps it alive until that query finishes.
      amortized_.pop_back();
    }
  }

  MutexLock slot_lock(&slot->mu);
  bool built = false;
  if (slot->ctx == nullptr) {
    slot->ctx = std::make_unique<AmortizedCta>(data_, request.focal,
                                               request.focal_id,
                                               request.options);
    built = true;
  } else if (!slot->ctx->Advance()) {
    // A delta record dominates the focal: the skeleton cannot mirror a
    // from-scratch run any more — rebuild it.
    slot->ctx = std::make_unique<AmortizedCta>(data_, request.focal,
                                               request.focal_id,
                                               request.options);
    built = true;
  }
  if (built) {
    stats_.RecordAmortizedBuild();
  } else {
    stats_.RecordAmortizedReuse();
  }
  response->result = std::make_shared<KsprResult>(slot->ctx->Collect());
  response->amortized = true;
  return true;
}

QueryResponse QueryEngine::Execute(const QueryRequest& request, int worker) {
  Timer timer;
  QueryResponse response;
  response.worker = worker;

  // Shared-side of the update quiesce: ApplyUpdates blocks until every
  // in-flight Execute has released this lock.
  ReaderLock lock(&update_mu_);

  // A record focal may have been deleted between Canonicalize (or the
  // caller's own validation) and this point. Its tombstoned values are
  // still addressable, so without this guard the query would compute — and
  // cache under the CURRENT version — an answer for a record that is no
  // longer in the live set.
  if (request.focal_id != kInvalidRecord &&
      !data_->IsLive(request.focal_id)) {
    response.focal_live = false;
    response.result = std::make_shared<KsprResult>();
    response.latency_ms = timer.Millis();
    stats_.RecordQuery(&response.result->stats, /*regions=*/0,
                       response.latency_ms);
    return response;
  }

  const CacheKey key = CacheKey::Make(request.focal, request.focal_id,
                                      request.options, data_->version());
  if (std::shared_ptr<const KsprResult> hit = cache_.Get(key)) {
    response.result = std::move(hit);
    response.cache_hit = true;
    response.latency_ms = timer.Millis();
    stats_.RecordQuery(/*solver_stats=*/nullptr,
                       static_cast<int64_t>(response.result->regions.size()),
                       response.latency_ms);
    return response;
  }

  if (request.amortized && ExecuteAmortized(request, &response)) {
    cache_.Put(key, response.result);
    response.latency_ms = timer.Millis();
    stats_.RecordQuery(&response.result->stats,
                       static_cast<int64_t>(response.result->regions.size()),
                       response.latency_ms);
    return response;
  }

  // parallel_intra_query mode: run the miss on this worker's traversal
  // team. The executor does not affect the result (bitwise-identical to
  // serial), so the cache key above deliberately ignores it.
  KsprOptions options = request.options;
  if (!intra_teams_.empty() && options.executor == nullptr) {
    options.executor = intra_teams_[static_cast<size_t>(worker)].get();
  }
  auto result = std::make_shared<KsprResult>(
      request.focal_id != kInvalidRecord
          ? solver_.QueryRecord(request.focal_id, options)
          : solver_.Query(request.focal, options));
  cache_.Put(key, result);
  response.result = std::move(result);
  response.latency_ms = timer.Millis();
  stats_.RecordQuery(&response.result->stats,
                     static_cast<int64_t>(response.result->regions.size()),
                     response.latency_ms);
  return response;
}

UpdateResult ApplyMutationBatch(Dataset* data, RTree* index,
                                IndexUpdatePolicy policy,
                                const UpdateBatch& batch,
                                std::vector<Vec>* delta,
                                std::vector<RecordId>* deleted_ids) {
  UpdateResult out;
  out.applied = true;
  const bool incremental = policy == IndexUpdatePolicy::kIncremental;
  for (RecordId id : batch.deletes) {
    if (!data->IsLive(id)) continue;  // unknown or already-deleted id: no-op
    if (delta != nullptr) delta->push_back(data->Get(id));
    if (incremental) index->Delete(*data, id);
    data->Delete(id);
    if (deleted_ids != nullptr) deleted_ids->push_back(id);
    ++out.deletes_applied;
  }
  out.inserted_ids.reserve(batch.inserts.size());
  for (const Vec& v : batch.inserts) {
    assert(v.dim == data->dim());
    const RecordId id = data->Insert(v);
    out.inserted_ids.push_back(id);
    if (incremental) index->Insert(*data, id);
    if (delta != nullptr) delta->push_back(v);
  }
  if (!incremental) {
    PageTracker* tracker = index->tracker();
    *index = RTree::BulkLoad(*data, index->leaf_capacity(), index->fanout());
    if (tracker != nullptr) {
      // Every node page of the discarded tree is gone, and the rebuilt
      // tree recycles the same ids — flush the residency so stale pages
      // cannot serve phantom buffer hits.
      tracker->RetireAll();
      index->SetTracker(tracker);
    }
    out.index_rebuilt = true;
  }
  out.version = data->version();
  return out;
}

UpdateResult QueryEngine::ApplyUpdates(const UpdateBatch& batch) {
  if (mutable_data_ == nullptr) return UpdateResult{};  // read-only engine

  // Writer side of the quiesce: waits for all in-flight queries, blocks
  // new ones until the batch (and the cache sweep) is done.
  WriterLock lock(&update_mu_);

  // A disk-backed tree cannot be mutated page-by-page: pull every node
  // into memory first (and mark the snapshot stale). The quiesce makes
  // this the one safe point; no-op after the first batch.
  if (storage_ != nullptr) storage_->PrepareForUpdates();

  // Values of every record entering or leaving the live set — the inputs
  // of the targeted cache sweep (delete values captured pre-tombstone).
  std::vector<Vec> delta;
  delta.reserve(batch.inserts.size() + batch.deletes.size());
  std::vector<RecordId> deleted_ids;
  UpdateResult out = ApplyMutationBatch(mutable_data_, mutable_index_,
                                        update_policy_, batch, &delta,
                                        &deleted_ids);
  const Dataset& data = *mutable_data_;

  // A batch with no effective mutation (empty, or deletes of unknown /
  // already-dead ids) leaves the version unchanged; running the sweeps
  // anyway would restamp every cache entry to its own version and count
  // the whole cache as retained again — back-to-back no-op batches would
  // inflate cache_retained without a single record changing.
  if (delta.empty()) {
    stats_.RecordUpdate(0, 0, 0, 0);
    return out;
  }

  // Result-cache sweep. An entry may be RETAINED only when its focal
  // dominates every delta record: such records never outscore the focal
  // anywhere in preference space, so the query preprocessing drops them
  // and the region set is provably unchanged. Everything else (including
  // entries whose focal record was itself deleted) is dropped.
  if (delta.size() <= kTargetedInvalidationMaxDelta) {
    auto drop = [&](const CacheKey& cached) {
      if (cached.focal_id != kInvalidRecord &&
          !data.IsLive(cached.focal_id)) {
        return true;
      }
      for (const Vec& r : delta) {
        if (!Dataset::Dominates(cached.focal, r)) return true;
      }
      return false;
    };
    std::tie(out.cache_dropped, out.cache_retained) =
        cache_.OnDatasetUpdate(out.version, drop);
  } else {
    out.cache_dropped = cache_.size();
    out.cache_retained = 0;
    cache_.Clear();
  }

  // Amortized contexts. A slot whose focal record was deleted is evicted
  // outright — slot and context, not just the context: the slot is keyed
  // on a version-zeroed copy, so it would otherwise match a later query
  // for the dead focal and resurrect a context (and, through the cache
  // Put, an entry stamped with the current version) for a record that no
  // longer exists. For live focals, a delete that removes state already
  // folded into the context (a hyperplane below the cursor, or a
  // dominator that shaped k_effective) discards the context; deletes of
  // records the preprocessing skips are provably invisible and the
  // context is kept (AmortizedCta::InvalidatedByDelete). Inserts are
  // handled lazily by AmortizedCta::Advance.
  {
    MutexLock alock(&amortized_mu_);
    for (auto it = amortized_.begin(); it != amortized_.end();) {
      AmortizedSlot& slot = **it;
      if (slot.key.focal_id != kInvalidRecord &&
          !data.IsLive(slot.key.focal_id)) {
        // An in-flight query may still hold the slot's shared_ptr; erasing
        // only drops the list's reference.
        it = amortized_.erase(it);
        continue;
      }
      // The context is guarded by the slot mutex, not the list mutex. The
      // writer quiesce means no query can hold it here today, but the
      // sweep must not rely on that outer invariant — an evicted slot
      // already outlives the list, and future callers could reach a
      // context without the quiesce. Lock order: update_mu_ ->
      // amortized_mu_ -> slot.mu.
      MutexLock slot_lock(&slot.mu);
      if (slot.ctx != nullptr) {
        for (RecordId id : deleted_ids) {
          if (slot.ctx->InvalidatedByDelete(id)) {
            slot.ctx.reset();
            break;
          }
        }
      }
      ++it;
    }
  }

  // Standing subscriptions: classify every subscriber against this batch
  // and push diffs (engine/subscription.h). Runs under the writer lock so
  // subscribers observe atomic batch transitions.
  const SubscriptionManager::SweepStats sweep =
      subscriptions_.OnUpdates(delta, deleted_ids, out.version);
  out.subscribers_examined = sweep.examined;
  out.subscribers_irrelevant = sweep.irrelevant;
  out.subscribers_notified = sweep.events;
  out.subscribers_terminated = sweep.focal_gone;

  stats_.RecordUpdate(static_cast<int64_t>(out.inserted_ids.size()),
                      static_cast<int64_t>(out.deletes_applied),
                      static_cast<int64_t>(out.cache_dropped),
                      static_cast<int64_t>(out.cache_retained));
  return out;
}

SubscriptionId QueryEngine::Subscribe(RecordId focal_id,
                                      const KsprOptions& options,
                                      SubscriptionCallback callback) {
  if (options.algorithm != Algorithm::kCta) return kInvalidSubscription;
  // Shared side of the quiesce: the initial build reads the dataset and
  // must not interleave with ApplyUpdates (which also sweeps the
  // subscriber list under the writer lock).
  ReaderLock lock(&update_mu_);
  if (focal_id == kInvalidRecord || focal_id < 0 ||
      focal_id >= data_->size() || !data_->IsLive(focal_id)) {
    return kInvalidSubscription;
  }
  return subscriptions_.Subscribe(data_->Get(focal_id), focal_id, options,
                                  std::move(callback));
}

bool QueryEngine::Unsubscribe(SubscriptionId id) {
  ReaderLock lock(&update_mu_);
  return subscriptions_.Unsubscribe(id);
}

std::future<QueryResponse> QueryEngine::Submit(QueryRequest request) {
  Canonicalize(&request);
  auto promise = std::make_shared<std::promise<QueryResponse>>();
  std::future<QueryResponse> future = promise->get_future();
  pool_.Post([this, request = std::move(request),
              promise = std::move(promise)](int worker) {
    promise->set_value(Execute(request, worker));
  });
  return future;
}

std::future<QueryResponse> QueryEngine::SubmitRecord(
    RecordId focal_id, const KsprOptions& options) {
  QueryRequest request;
  request.focal_id = focal_id;
  request.options = options;
  return Submit(std::move(request));
}

std::vector<std::future<QueryResponse>> QueryEngine::SubmitBatch(
    std::vector<QueryRequest> requests) {
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(requests.size());
  for (QueryRequest& request : requests) {
    futures.push_back(Submit(std::move(request)));
  }
  return futures;
}

std::vector<QueryResponse> QueryEngine::RunAll(
    const std::vector<QueryRequest>& requests) {
  std::vector<QueryResponse> responses(requests.size());
  if (requests.empty()) return responses;

  // Canonicalised copies so workers never touch caller-owned state.
  std::vector<QueryRequest> batch(requests);
  for (QueryRequest& request : batch) Canonicalize(&request);

  struct Job {
    std::atomic<size_t> next{0};
    std::atomic<int> active;
    Mutex mu;
    CondVar cv;
    bool done KSPR_GUARDED_BY(mu) = false;
  } job;
  const int fanout = pool_.size();
  job.active.store(fanout, std::memory_order_relaxed);

  for (int t = 0; t < fanout; ++t) {
    pool_.Post([this, &batch, &responses, &job](int worker) {
      for (size_t i;
           (i = job.next.fetch_add(1, std::memory_order_relaxed)) <
           batch.size();) {
        responses[i] = Execute(batch[i], worker);
      }
      if (job.active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        MutexLock lock(&job.mu);
        job.done = true;
        job.cv.NotifyOne();
      }
    });
  }
  MutexLock lock(&job.mu);
  while (!job.done) job.cv.Wait(job.mu);
  return responses;
}

}  // namespace kspr
