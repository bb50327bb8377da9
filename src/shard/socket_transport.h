// Socket implementation of ShardTransport: one TCP connection supervisor
// per shard.
//
// Every transport call enqueues a job on the target shard's supervisor
// thread (a one-thread ThreadPool) and returns a future — the same
// per-shard FIFO queue LocalShardTransport uses, which is what preserves the per-shard ordering
// contract (an ApplyDelta enqueued before a Candidates call reaches the
// wire, and therefore the worker, first). What the supervisor adds is the
// failure model:
//
//   * lazy connect + reconnect with exponential backoff and deterministic
//     jitter (seeded per shard),
//   * a deadline per attempt (SocketTransportOptions::request_timeout_ms),
//   * bounded retries — safe because reads are idempotent and ApplyDelta
//     carries the router's batch_seq for exactly-once apply on the worker,
//   * stale-response discard: every attempt gets a fresh monotonically
//     increasing wire seq, and any inbound frame with a smaller seq is a
//     duplicate from an earlier (injected-duplicate) delivery and is
//     skipped,
//   * optional frame-level fault injection (net::FaultSchedule) applied on
//     the CLIENT side so drops / corruption / disconnects exercise the
//     real timeout, checksum and reconnect paths,
//   * shared TransportStats counters; the router keeps per-shard health.
//
// Remote worker errors (kError frames) are NOT retried: the request
// reached the worker and failed deterministically; retrying would just
// fail again. They surface as TransportError{kRemote}.

#ifndef KSPR_SHARD_SOCKET_TRANSPORT_H_
#define KSPR_SHARD_SOCKET_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "engine/engine_stats.h"
#include "engine/thread_pool.h"
#include "net/fault_schedule.h"
#include "net/socket.h"
#include "net/transport_error.h"
#include "net/wire.h"
#include "shard/shard_transport.h"

namespace kspr {

struct SocketTransportOptions {
  int connect_timeout_ms = 1000;
  /// Per-attempt deadline for one request/response round trip; 0 means
  /// no deadline (block forever — only sane in tests).
  int request_timeout_ms = 2000;
  /// Extra attempts after the first failed one. Total attempts = 1 + this.
  int max_retries = 3;
  int backoff_base_ms = 10;   // doubles per consecutive failure
  int backoff_max_ms = 500;
  uint64_t jitter_seed = 42;  // per-shard deterministic backoff jitter
  /// Client-side frame fault injection; empty = faults disabled.
  net::FaultSchedule* faults = nullptr;
  /// Shared counters; may be null.
  std::shared_ptr<TransportStats> stats;
};

class SocketShardTransport : public ShardTransport {
 public:
  /// Connects lazily to `ports[i]` on 127.0.0.1 for shard i.
  SocketShardTransport(std::vector<uint16_t> ports,
                       SocketTransportOptions options);

  /// Drains every queue (all issued futures are fulfilled, possibly with
  /// TransportError) and joins the supervisors.
  ~SocketShardTransport() override = default;

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
  struct Shard {
    Shard(size_t i, uint16_t p, uint64_t jitter_seed)
        : index(i), port(p), jitter(jitter_seed) {}

    const size_t index;
    const uint16_t port;
    // Thread-confined supervisor state: conn, ever_connected, next_seq and
    // jitter are touched only from the queue's thread (inside queued
    // jobs), so they need no mutex — the queue handoff provides the
    // happens-before.
    net::Socket conn;
    bool ever_connected = false; // distinguishes connect from reconnect
    uint64_t next_seq = 1;       // wire seq
    Rng jitter;
    // Declared last: drains and joins before the state its jobs touch.
    ThreadPool queue{1};
  };

  /// Every transport call: queues `request` on the shard's supervisor,
  /// round-trips it, decodes the reply as Reply and fulfils the future
  /// with `finish(reply)`.
  template <class Reply, class Request, class Finish = std::identity>
  auto Call(size_t shard, Request request, Finish finish = {})
      -> std::future<std::decay_t<std::invoke_result_t<Finish, Reply>>>;

  /// One logical operation's payload exchange: attempt up to
  /// 1 + max_retries round trips. Throws TransportError after the budget
  /// is exhausted.
  std::vector<uint8_t> RoundTrip(Shard& shard, net::MessageType request_type,
                                 const std::vector<uint8_t>& request_payload,
                                 net::MessageType expected_response);

  /// Single attempt: ensure connected, apply any injected fault, send,
  /// read (discarding stale-seq frames) until `seq` answers. Throws
  /// net::SocketTimeout / net::SocketError / net::WireError.
  std::vector<uint8_t> Attempt(Shard& shard, net::MessageType request_type,
                               const std::vector<uint8_t>& request_payload,
                               net::MessageType expected_response,
                               uint64_t seq, net::MessageType* actual_type);

  void EnsureConnected(Shard& shard);
  void BackoffSleep(Shard& shard, int consecutive_failures);

  // options_ precedes shards_ so queued jobs, which read it, drain first.
  SocketTransportOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace kspr

#endif  // KSPR_SHARD_SOCKET_TRANSPORT_H_
