// In-process ShardTransport: each shard is a worker behind a local FIFO
// queue.
//
// LocalShardTransport owns N ShardWorkers and N one-thread ThreadPools,
// one per shard. Every transport call enqueues a closure on the target
// shard's pool and returns a future; the pool's thread drains it in FIFO
// order, so all operations delivered to one shard are serialised with
// happens-before between consecutive operations (the update/read
// consistency the router depends on: a Candidates call enqueued after an
// ApplyDelta observes the post-delta shard). Different shards run their
// queues concurrently — a scatter to all shards executes genuinely in
// parallel.
//
// The socket transport (socket_transport.h) implements the same
// message-shaped interface (shard_transport.h) over loopback TCP, and
// FaultInjectingTransport (fault_transport.h) decorates either; router and
// worker code are the same for all of them.

#ifndef KSPR_SHARD_LOCAL_TRANSPORT_H_
#define KSPR_SHARD_LOCAL_TRANSPORT_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/thread_pool.h"
#include "shard/shard_transport.h"
#include "shard/shard_worker.h"

namespace kspr {

class LocalShardTransport : public ShardTransport {
 public:
  /// Takes ownership of `workers` (one per shard, already loaded) and
  /// starts one queue thread per shard.
  explicit LocalShardTransport(
      std::vector<std::unique_ptr<ShardWorker>> workers);

  /// Drains every queue (all issued futures are fulfilled) and joins the
  /// shard threads.
  ~LocalShardTransport() override = default;

  size_t num_shards() const override { return shards_.size(); }

  std::future<CandidateResponse> Candidates(size_t shard,
                                            CandidateRequest request) override;
  std::future<ShardUpdateResponse> ApplyDelta(
      size_t shard, ShardUpdateRequest request) override;
  std::future<RecordResponse> GetRecord(size_t shard,
                                        RecordId global_id) override;
  std::future<ShardInfo> Info(size_t shard) override;
  std::future<bool> SaveSnapshot(size_t shard, std::string path) override;

 private:
  /// One shard's worker + queue. The worker is only ever touched from
  /// the queue's single thread, which is what makes ShardWorker's
  /// no-internal-locking contract sound. `queue` is declared last so it
  /// drains and joins before the worker is destroyed.
  struct Shard {
    explicit Shard(std::unique_ptr<ShardWorker> w) : worker(std::move(w)) {}
    std::unique_ptr<ShardWorker> worker;
    ThreadPool queue{1};
  };

  /// Enqueues `fn(worker)` on shard `shard` and returns a future for its
  /// result.
  template <typename Fn>
  auto Enqueue(size_t shard, Fn fn)
      -> std::future<decltype(fn(std::declval<ShardWorker&>()))>;

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace kspr

#endif  // KSPR_SHARD_LOCAL_TRANSPORT_H_
