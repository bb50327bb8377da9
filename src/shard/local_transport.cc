#include "shard/local_transport.h"

#include <cassert>
#include <utility>

namespace kspr {

LocalShardTransport::LocalShardTransport(
    std::vector<std::unique_ptr<ShardWorker>> workers) {
  assert(!workers.empty());
  shards_.reserve(workers.size());
  for (std::unique_ptr<ShardWorker>& worker : workers) {
    shards_.push_back(std::make_unique<Shard>(std::move(worker)));
  }
}

template <typename Fn>
auto LocalShardTransport::Enqueue(size_t shard_index, Fn fn)
    -> std::future<decltype(fn(std::declval<ShardWorker&>()))> {
  using Result = decltype(fn(std::declval<ShardWorker&>()));
  assert(shard_index < shards_.size());
  Shard* shard = shards_[shard_index].get();
  auto task = std::make_shared<std::packaged_task<Result(ShardWorker&)>>(
      std::move(fn));
  std::future<Result> future = task->get_future();
  shard->queue.Post([task, shard](int) { (*task)(*shard->worker); });
  return future;
}

std::future<CandidateResponse> LocalShardTransport::Candidates(
    size_t shard, CandidateRequest request) {
  return Enqueue(shard, [request = std::move(request)](ShardWorker& worker) {
    return worker.Candidates(request);
  });
}

std::future<ShardUpdateResponse> LocalShardTransport::ApplyDelta(
    size_t shard, ShardUpdateRequest request) {
  return Enqueue(shard, [request = std::move(request)](ShardWorker& worker) {
    return worker.ApplyDelta(request);
  });
}

std::future<RecordResponse> LocalShardTransport::GetRecord(
    size_t shard, RecordId global_id) {
  return Enqueue(shard, [global_id](ShardWorker& worker) {
    return worker.GetRecord(global_id);
  });
}

std::future<ShardInfo> LocalShardTransport::Info(size_t shard) {
  return Enqueue(shard,
                 [](ShardWorker& worker) { return worker.Info(); });
}

std::future<bool> LocalShardTransport::SaveSnapshot(size_t shard,
                                                    std::string path) {
  return Enqueue(shard, [path = std::move(path)](ShardWorker& worker) {
    return worker.SaveSnapshot(path);
  });
}

}  // namespace kspr
