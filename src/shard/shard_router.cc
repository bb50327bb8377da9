#include "shard/shard_router.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <unordered_set>
#include <utility>

#include "shard/local_transport.h"
#include "shard/shard_server.h"
#include "storage/shard_paths.h"

namespace kspr {

const char* ToString(RouterStatus status) {
  switch (status) {
    case RouterStatus::kOk:
      return "ok";
    case RouterStatus::kPartial:
      return "partial";
    case RouterStatus::kUnavailable:
      return "unavailable";
  }
  return "?";
}

std::vector<Dataset> ShardRouter::PartitionDataset(const Dataset& data,
                                                   const ShardMap& map) {
  std::vector<Dataset> slices;
  slices.reserve(map.num_shards());
  for (size_t s = 0; s < map.num_shards(); ++s) {
    slices.emplace_back(data.dim());
  }
  for (size_t s = 0; s < map.num_shards(); ++s) {
    const RecordId total = data.size();
    RecordId count = 0;
    for (RecordId g = static_cast<RecordId>(s); g < total;
         g += static_cast<RecordId>(map.num_shards())) {
      ++count;
    }
    slices[s].Reserve(count);
  }
  for (RecordId g = 0; g < data.size(); ++g) {
    Dataset& slice = slices[map.ShardOf(g)];
    const RecordId local = slice.Add(data.Get(g));
    assert(local == map.LocalOf(g));
    // Tombstones are preserved so shard-local ids stay aligned with the
    // closed-form mapping.
    if (!data.IsLive(g)) slice.Delete(local);
  }
  return slices;
}

std::unique_ptr<ShardRouter> ShardRouter::CreateLocal(const Dataset& data,
                                                      RouterOptions options) {
  options.transport = TransportKind::kLocal;
  return Create(data, std::move(options));
}

std::unique_ptr<ShardRouter> ShardRouter::Create(const Dataset& data,
                                                 RouterOptions options) {
  ShardMap map(options.num_shards);
  if (!options.stats) options.stats = std::make_shared<TransportStats>();
  std::vector<Dataset> slices = PartitionDataset(data, map);
  std::vector<std::unique_ptr<ShardWorker>> workers;
  workers.reserve(slices.size());
  for (size_t s = 0; s < slices.size(); ++s) {
    workers.push_back(std::make_unique<ShardWorker>(
        s, map, std::move(slices[s]), options.worker));
  }

  if (options.transport == TransportKind::kLocal) {
    auto transport = std::make_unique<LocalShardTransport>(std::move(workers));
    return std::make_unique<ShardRouter>(std::move(transport), data.size(),
                                         std::move(options));
  }

  // Socket deployment: one frame server per worker on an ephemeral
  // loopback port, a supervisor-per-shard client in front.
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::vector<uint16_t> ports;
  servers.reserve(workers.size());
  ports.reserve(workers.size());
  for (std::unique_ptr<ShardWorker>& worker : workers) {
    servers.push_back(std::make_unique<ShardServer>(worker.get()));
    ports.push_back(servers.back()->port());
  }
  SocketTransportOptions socket = options.socket;
  if (!socket.stats) socket.stats = options.stats;
  auto transport =
      std::make_unique<SocketShardTransport>(std::move(ports), socket);
  auto router = std::make_unique<ShardRouter>(std::move(transport),
                                              data.size(), std::move(options));
  router->owned_workers_ = std::move(workers);
  router->owned_servers_ = std::move(servers);
  return router;
}

ShardRouter::ShardRouter(std::unique_ptr<ShardTransport> transport,
                         RecordId next_global_id, RouterOptions options)
    : map_(options.num_shards),
      options_(std::move(options)),
      transport_(std::move(transport)),
      next_global_(next_global_id),
      pending_replay_(map_.num_shards()),
      next_batch_seq_(map_.num_shards(), 1),
      health_(map_.num_shards(), ShardHealth::kUp),
      cache_(options_.cache_capacity) {
  assert(transport_ != nullptr);
  assert(transport_->num_shards() == map_.num_shards());
  assert(next_global_ >= 0);
  if (!options_.stats) options_.stats = std::make_shared<TransportStats>();
}

ShardRouter::~ShardRouter() {
  // The client transport goes down first (its supervisor threads hold
  // raw sockets into the servers), then servers, then workers — member
  // declaration order takes care of it; this dtor only exists out of line
  // because ShardServer is forward-declared in the header.
  transport_.reset();
  owned_servers_.clear();
  owned_workers_.clear();
}

uint64_t ShardRouter::version() const {
  ReaderLock lock(&update_mu_);
  return router_version_;
}

RecordId ShardRouter::next_global_id() const {
  ReaderLock lock(&update_mu_);
  return next_global_;
}

size_t ShardRouter::num_subscriptions() const {
  MutexLock lock(&subs_mu_);
  return subs_.size();
}

ShardHealth ShardRouter::shard_health(size_t shard) const {
  MutexLock lock(&health_mu_);
  return health_[shard];
}

std::vector<ShardHealth> ShardRouter::ShardHealths() const {
  MutexLock lock(&health_mu_);
  return health_;
}

void ShardRouter::SetHealth(size_t shard, ShardHealth health) {
  MutexLock lock(&health_mu_);
  health_[shard] = health;
}

template <typename T>
T ShardRouter::AwaitShard(std::future<T>& future, size_t shard) {
  if (options_.shard_timeout_ms > 0) {
    // lint:allow(bare-future-wait) AwaitShard IS the sanctioned funnel.
    const auto status = future.wait_for(
        std::chrono::milliseconds(options_.shard_timeout_ms));
    if (status != std::future_status::ready) {
      // The transport may still fulfil this future later; abandoning it
      // is safe — reads are idempotent and updates are sequenced.
      throw TransportError(TransportErrorKind::kTimeout, shard,
                           "router wait budget of " +
                               std::to_string(options_.shard_timeout_ms) +
                               " ms exceeded");
    }
  }
  try {
    return future.get();  // lint:allow(bare-future-wait) the funnel itself
  } catch (const TransportError&) {
    throw;
  } catch (const std::exception& e) {
    // A local-transport future rethrows worker exceptions verbatim; over
    // a socket the server would have answered a kError frame => kRemote.
    throw TransportError(TransportErrorKind::kRemote, shard, e.what());
  }
}

RecordResponse ShardRouter::ResolveRecord(RecordId global_id) {
  if (global_id < 0 || global_id >= next_global_) return RecordResponse{};
  const size_t shard = map_.ShardOf(global_id);
  if (!pending_replay_[shard].empty()) {
    // The shard is serving pre-backlog state; a lookup there could
    // resurrect a deleted record or miss a queued insert.
    throw TransportError(TransportErrorKind::kShardDown, shard,
                         "shard has unreplayed update batches");
  }
  std::future<RecordResponse> future = transport_->GetRecord(shard, global_id);
  return AwaitShard(future, shard);
}

std::shared_ptr<const KsprResult> ShardRouter::ComputeLocked(
    const Vec& focal, RecordId focal_id, const KsprOptions& options,
    ShardQueryStats* scatter, ScatterFailure* failure) {
  (void)focal_id;  // identity lives in the cache key; the pipeline only
                   // needs the value (the focal's own record, if any, is
                   // removed by the focal filter like any covered record)
  assert(failure != nullptr);

  // Scatter: every reachable shard extracts its local k-skyband in
  // parallel. Shards with a replay backlog are stale by definition and
  // are counted missing without being asked.
  std::vector<std::pair<size_t, std::future<CandidateResponse>>> futures;
  futures.reserve(map_.num_shards());
  for (size_t s = 0; s < map_.num_shards(); ++s) {
    if (!pending_replay_[s].empty()) {
      failure->missing_shards.push_back(s);
      if (failure->error.empty()) {
        failure->error = "shard " + std::to_string(s) +
                         ": unreplayed update batches (degraded)";
      }
      continue;
    }
    futures.emplace_back(s,
                         transport_->Candidates(s, CandidateRequest{options.k}));
  }

  // Gather + the canonical pipeline (core/candidates.h) — each step is
  // load-bearing for shard-count independence.
  std::vector<Candidate> candidates;
  for (auto& [s, f] : futures) {
    try {
      CandidateResponse response = AwaitShard(f, s);
      if (scatter != nullptr) {
        ++scatter->shards_queried;
        if (response.from_cache) ++scatter->shard_cache_hits;
      }
      candidates.insert(candidates.end(), response.candidates.begin(),
                        response.candidates.end());
      SetHealth(s, ShardHealth::kUp);
    } catch (const TransportError& e) {
      failure->missing_shards.push_back(s);
      if (failure->error.empty()) failure->error = e.what();
      SetHealth(s, ShardHealth::kDown);
    }
  }
  std::sort(failure->missing_shards.begin(), failure->missing_shards.end());

  if (!failure->missing_shards.empty() && !options_.allow_partial) {
    // Fail fast: without every shard the merged skyband is not the global
    // one, and silently serving it would break the bitwise contract.
    return nullptr;
  }
  if (scatter != nullptr) scatter->candidates_merged = candidates.size();

  if (failure->missing_shards.empty()) {
    // A full scatter is the whole union U: read the global k-skyband off
    // the kept band when U's id set is unchanged (equal ids mean equal
    // values, ids are never reused), and rebuild the band from U when not.
    MutexLock bands_lock(&bands_mu_);
    MergedSkyband& band =
        bands_.try_emplace(options.k, options.k).first->second;
    if (!band.SameMembers(candidates)) band.Assign(candidates);
    candidates = band.GlobalSkyband();
  } else {
    // Partial union (opt-in): reduce it on its own, band left alone.
    ReduceToGlobalSkyband(&candidates, options.k);
  }
  FilterFocalCovered(&candidates, focal);
  SortCandidates(&candidates);
  if (scatter != nullptr) scatter->candidates_solved = candidates.size();

  return std::make_shared<KsprResult>(
      SolveOnCandidates(candidates, focal, options,
                        options_.solve_leaf_capacity, options_.solve_fanout));
}

RouterQueryResult ShardRouter::QueryLocked(const Vec& focal,
                                           RecordId focal_id,
                                           const KsprOptions& options) {
  RouterQueryResult out;
  const CacheKey key =
      CacheKey::Make(focal, focal_id, options, router_version_);
  if (std::shared_ptr<const KsprResult> hit = cache_.Get(key)) {
    out.result = std::move(hit);
    out.cache_hit = true;
    return out;
  }
  ScatterFailure failure;
  out.result = ComputeLocked(focal, focal_id, options, &out.scatter, &failure);
  out.missing_shards = std::move(failure.missing_shards);
  out.error = std::move(failure.error);
  if (!out.missing_shards.empty()) {
    // Degraded outcome: flagged, and never cached — a later query must
    // re-try the missing shards rather than resurface the gap.
    out.status = out.result != nullptr ? RouterStatus::kPartial
                                       : RouterStatus::kUnavailable;
    if (out.result == nullptr) out.result = std::make_shared<KsprResult>();
    return out;
  }
  cache_.Put(key, out.result);
  return out;
}

RouterQueryResult ShardRouter::Query(RecordId focal_id,
                                     const KsprOptions& options) {
  ReaderLock lock(&update_mu_);
  RouterQueryResult out;
  RecordResponse record;
  try {
    record = ResolveRecord(focal_id);
  } catch (const TransportError& e) {
    out.result = std::make_shared<KsprResult>();
    out.status = RouterStatus::kUnavailable;
    out.missing_shards.push_back(e.shard());
    out.error = e.what();
    return out;
  }
  if (!record.known || !record.live) {
    out.result = std::make_shared<KsprResult>();
    out.focal_live = false;
    return out;
  }
  return QueryLocked(record.value, focal_id, options);
}

RouterQueryResult ShardRouter::Query(const Vec& focal,
                                     const KsprOptions& options) {
  ReaderLock lock(&update_mu_);
  return QueryLocked(focal, kInvalidRecord, options);
}

RouterUpdateResult ShardRouter::ApplyUpdates(const RouterUpdateBatch& batch) {
  WriterLock lock(&update_mu_);
  RouterUpdateResult out;

  // Phase 0 — replay: drain each shard's backlog in arrival order before
  // its slice of THIS batch may be delivered (per-shard FIFO is the
  // consistency contract). A batch that fails again stays queued.
  for (size_t s = 0; s < map_.num_shards(); ++s) {
    while (!pending_replay_[s].empty()) {
      // The request is kept until the shard acknowledges: re-sending the
      // same batch_seq is idempotent on the worker.
      std::future<ShardUpdateResponse> future =
          transport_->ApplyDelta(s, pending_replay_[s].front());
      try {
        (void)AwaitShard(future, s);
      } catch (const TransportError& e) {
        if (out.error.empty()) out.error = e.what();
        SetHealth(s, ShardHealth::kDown);
        break;
      }
      // The skyband changes of a replayed batch are stale news: the
      // cache was already dropped wholesale when the batch first failed.
      pending_replay_[s].pop_front();
      ++out.batches_replayed;
      if (options_.stats) options_.stats->RecordReplay();
      SetHealth(s, pending_replay_[s].empty() ? ShardHealth::kUp
                                              : ShardHealth::kDegraded);
    }
  }

  // The tracked ks are the banded ones: the full scatter that cached an
  // entry or started a subscriber built its k's band.
  std::vector<int> ks;
  {
    MutexLock bands_lock(&bands_mu_);
    for (const auto& [k, band] : bands_) ks.push_back(k);
  }

  // Phase 1 — route the batch into per-shard deltas; the router assigns
  // global ids monotonically so ShardMap's closed form stays exact.
  std::vector<ShardUpdateRequest> requests(map_.num_shards());
  out.inserted_global_ids.reserve(batch.inserts.size());
  for (const Vec& v : batch.inserts) {
    const RecordId g =
        next_global_ + static_cast<RecordId>(out.inserted_global_ids.size());
    requests[map_.ShardOf(g)].inserts.push_back({g, v});
    out.inserted_global_ids.push_back(g);
  }
  std::unordered_set<RecordId> delete_set;
  for (RecordId g : batch.deletes) {
    if (g < 0 || g >= next_global_) continue;  // never assigned: no-op
    requests[map_.ShardOf(g)].delete_global_ids.push_back(g);
    delete_set.insert(g);
  }
  next_global_ += static_cast<RecordId>(batch.inserts.size());

  // Phase 2 — scatter deltas to the touched shards only (an untouched
  // shard's skyband cannot change). Shards still holding a backlog get
  // their slice QUEUED, not sent: delivering batch N+1 before batch N
  // would violate the order the batch_seq ledger assumes.
  std::vector<std::pair<size_t, std::future<ShardUpdateResponse>>> futures;
  for (size_t s = 0; s < requests.size(); ++s) {
    if (requests[s].inserts.empty() && requests[s].delete_global_ids.empty()) {
      continue;
    }
    requests[s].skyband_ks = ks;
    requests[s].batch_seq = next_batch_seq_[s]++;
    ++out.shards_touched;
    if (!pending_replay_[s].empty()) {
      pending_replay_[s].push_back(std::move(requests[s]));
      out.failed_shards.push_back(s);
      continue;
    }
    // The request stays owned by `requests` (sent as a copy) so a failed
    // shard's slice can move into the replay queue afterwards.
    futures.emplace_back(s, transport_->ApplyDelta(s, requests[s]));
  }

  // Phase 3 — gather. A shard that fails after the transport's full
  // retry budget gets its slice queued for replay; the batch is
  // all-or-nothing per shard (one ApplyDelta call worker-side).
  size_t effective = 0;
  std::map<int, std::vector<Candidate>> local;  // merged U_pre Δ U_post
  for (auto& [s, future] : futures) {
    try {
      ShardUpdateResponse response = AwaitShard(future, s);
      effective += response.inserts_applied + response.deletes_applied;
      out.deletes_applied += response.deletes_applied;
      for (SkybandChange& change : response.skyband_changes) {
        std::vector<Candidate>& merged = local[change.k];
        merged.insert(merged.end(), change.changed.begin(),
                      change.changed.end());
      }
      SetHealth(s, ShardHealth::kUp);
    } catch (const TransportError& e) {
      pending_replay_[s].push_back(std::move(requests[s]));
      out.failed_shards.push_back(s);
      if (out.error.empty()) out.error = e.what();
      SetHealth(s, ShardHealth::kDown);
    }
  }
  std::sort(out.failed_shards.begin(), out.failed_shards.end());
  const bool degraded = !out.failed_shards.empty();
  out.status = degraded ? RouterStatus::kPartial : RouterStatus::kOk;

  // Turn each band's merged local diff into the global k-skyband diff.
  // A degraded batch or a replayed backlog leaves no band in step with
  // the shards: drop them all, and the next full scatter at each k
  // rebuilds its band. A k without a band has no diff, hence no proof.
  std::map<int, std::vector<Candidate>> changed;  // G_pre Δ G_post per k
  {
    MutexLock bands_lock(&bands_mu_);
    if (degraded || out.batches_replayed > 0) bands_.clear();
    for (auto& [k, band] : bands_) changed.emplace(k, band.Apply(local[k]));
  }

  if (!degraded && effective == 0) {
    // Nothing changed anywhere: the version does not move and every
    // cached result and subscriber stays valid as-is.
    out.version = router_version_;
    return out;
  }
  ++router_version_;
  out.version = router_version_;

  // Phase 4 — front-end cache sweep. Normally: drop an entry unless its
  // focal weakly dominates every record of its k's global k-skyband
  // diff. Then its candidate set — hence regions AND stats — is provably
  // unchanged (see core/candidates.h); survivors are restamped to the
  // new version.
  // Degraded: the failed shards' skyband diffs never arrived, so no entry
  // can be proven untouched — drop everything.
  const auto untouched = [&changed](const Vec& focal, int k) {
    auto it = changed.find(k);
    if (it == changed.end()) return false;  // no band: no proof
    for (const Candidate& c : it->second) {
      if (!WeaklyDominates(focal, c.value)) return false;
    }
    return true;
  };
  const auto [dropped, retained] = cache_.OnDatasetUpdate(
      router_version_, [&](const CacheKey& key) {
        if (degraded) return true;  // conservative total drop
        if (key.focal_id != kInvalidRecord &&
            delete_set.contains(key.focal_id)) {
          return true;
        }
        return !untouched(key.focal, key.k);
      });
  out.cache_dropped = dropped;
  out.cache_retained = retained;

  // Phase 5 — subscriber sweep: same classification, but touched
  // subscribers are recomputed through the scatter-gather pipeline and
  // receive a splice diff only when the result actually changed. While
  // degraded the recompute would be partial, so subscribers are left on
  // their last state and the NEXT clean sweep recomputes all of them
  // (diffs are taken against sub.current, so nothing is lost).
  const bool full_sweep = subs_full_sweep_;
  bool sweep_clean = !degraded;
  MutexLock subs_lock(&subs_mu_);
  for (size_t i = 0; i < subs_.size();) {
    StandingQuery& sub = *subs_[i];
    ++out.subscribers_examined;
    if (delete_set.contains(sub.focal_id)) {
      // The focal's tombstone may still be queued behind a failed shard,
      // but it is logically deleted as of this batch: terminate now.
      sub.current = KsprResult{};
      EmitSubscriptionEvent(sub, SubscriptionEventKind::kFocalGone,
                            router_version_, ResultDiff{});
      ++out.subscribers_terminated;
      subs_.erase(subs_.begin() + static_cast<ptrdiff_t>(i));
      continue;
    }
    if (degraded) {
      ++i;
      continue;
    }
    if (!full_sweep && untouched(sub.focal, sub.options.k)) {
      ++out.subscribers_irrelevant;
      ++i;
      continue;
    }
    ScatterFailure failure;
    std::shared_ptr<const KsprResult> result =
        ComputeLocked(sub.focal, sub.focal_id, sub.options, nullptr, &failure);
    if (!failure.missing_shards.empty() || result == nullptr) {
      // Transient scatter failure mid-sweep: leave the subscriber on its
      // last state and force the next clean sweep to revisit everyone.
      sweep_clean = false;
      ++i;
      continue;
    }
    ++out.subscribers_recomputed;
    ResultDiff diff = DiffResults(sub.current, *result);
    if (diff.Empty()) {
      // The skyband moved but this focal's candidate set did not.
      ++out.subscribers_irrelevant;
    } else {
      sub.current = *result;
      EmitSubscriptionEvent(sub, SubscriptionEventKind::kRebuild,
                            router_version_, std::move(diff));
      ++out.subscribers_notified;
    }
    ++i;
  }
  subs_full_sweep_ = !sweep_clean;
  return out;
}

SubscriptionId ShardRouter::Subscribe(RecordId focal_id,
                                      const KsprOptions& options,
                                      SubscriptionCallback callback) {
  WriterLock lock(&update_mu_);
  if (options.k < 1) return kInvalidSubscription;
  RecordResponse record;
  try {
    record = ResolveRecord(focal_id);
  } catch (const TransportError&) {
    return kInvalidSubscription;  // owning shard unreachable right now
  }
  if (!record.known || !record.live) return kInvalidSubscription;

  RouterQueryResult initial = QueryLocked(record.value, focal_id, options);
  if (initial.status != RouterStatus::kOk) {
    // A standing query must start from a complete state — a partial
    // baseline would make every later diff wrong.
    return kInvalidSubscription;
  }

  auto sub = std::make_unique<StandingQuery>();
  sub->focal = record.value;
  sub->focal_id = focal_id;
  sub->options = options;
  sub->current = *initial.result;
  sub->callback = std::move(callback);

  MutexLock subs_lock(&subs_mu_);
  sub->id = next_subscription_++;

  EmitSubscriptionEvent(*sub, SubscriptionEventKind::kInitial,
                        router_version_,
                        DiffResults(KsprResult{}, sub->current));

  const SubscriptionId id = sub->id;
  subs_.push_back(std::move(sub));
  return id;
}

bool ShardRouter::Unsubscribe(SubscriptionId id) {
  MutexLock lock(&subs_mu_);
  for (size_t i = 0; i < subs_.size(); ++i) {
    if (subs_[i]->id == id) {
      subs_.erase(subs_.begin() + static_cast<ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

std::vector<ShardInfo> ShardRouter::Info() {
  ReaderLock lock(&update_mu_);
  std::vector<std::future<ShardInfo>> futures;
  futures.reserve(map_.num_shards());
  for (size_t s = 0; s < map_.num_shards(); ++s) {
    futures.push_back(transport_->Info(s));
  }
  std::vector<ShardInfo> infos;
  infos.reserve(futures.size());
  for (size_t s = 0; s < futures.size(); ++s) {
    try {
      infos.push_back(AwaitShard(futures[s], s));
    } catch (const TransportError&) {
      ShardInfo down;
      down.reachable = false;
      infos.push_back(down);
      SetHealth(s, ShardHealth::kDown);
    }
  }
  return infos;
}

SnapshotSaveResult ShardRouter::SaveSnapshots(const std::string& base_path) {
  // The shared lock excludes ApplyUpdates, so the N snapshots form one
  // consistent cut of the global record set.
  ReaderLock lock(&update_mu_);
  SnapshotSaveResult out;
  std::vector<std::future<bool>> futures;
  out.paths.reserve(map_.num_shards());
  futures.reserve(map_.num_shards());
  for (size_t s = 0; s < map_.num_shards(); ++s) {
    out.paths.push_back(ShardSnapshotPath(base_path, s, map_.num_shards()));
    futures.push_back(transport_->SaveSnapshot(s, out.paths.back()));
  }
  for (size_t s = 0; s < futures.size(); ++s) {
    std::string error;
    try {
      if (!AwaitShard(futures[s], s)) {
        error = "shard " + std::to_string(s) + ": snapshot save failed at " +
                out.paths[s];
      }
    } catch (const TransportError& e) {
      error = e.what();
    }
    if (!error.empty()) {
      out.ok = false;
      out.failed_shards.push_back(s);
      out.errors.push_back(std::move(error));
    }
  }
  // A snapshot set with holes must never be mistaken for a complete cut.
  return out;
}

}  // namespace kspr
