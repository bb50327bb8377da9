// A TCP frame server exposing one ShardWorker to SocketShardTransport.
//
// One ShardServer wraps one worker: an accept loop hands each connection
// to its own handler thread, and joins that thread once its client has
// gone (a reconnect costs no lingering thread); handlers read request
// frames, dispatch to
// the worker under a per-worker mutex (the socket equivalent of
// LocalShardTransport's per-shard FIFO queue — the worker itself is not
// internally synchronised), and write back a response frame echoing the
// request's sequence number.
//
// Failure semantics, per connection:
//   * a malformed frame (bad magic / version / checksum / truncated or
//     trailing payload) poisons the byte stream — the handler drops the
//     connection; the client reconnects and retries.
//   * a worker exception is answered with a kError frame carrying the
//     exception text; the connection stays up (the request was parsed, so
//     the stream is still aligned).
//   * duplicate ApplyDelta deliveries after a retry are absorbed by the
//     worker's batch_seq ledger (exactly-once apply), so the server can
//     stay dumb about retries.

#ifndef KSPR_SHARD_SHARD_SERVER_H_
#define KSPR_SHARD_SHARD_SERVER_H_

#include <atomic>
#include <list>
#include <memory>
#include <thread>

#include "common/sync.h"
#include "net/socket.h"
#include "shard/shard_worker.h"

namespace kspr {

class ShardServer {
 public:
  /// Binds an ephemeral loopback port and starts serving `worker`
  /// immediately. The worker must outlive the server.
  explicit ShardServer(ShardWorker* worker);
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  uint16_t port() const { return listener_.port(); }

  /// Stops accepting, closes the listener and joins every handler.
  /// Idempotent; also run by the destructor.
  void Stop();

 private:
  void AcceptLoop();
  void ServeConnection(net::Socket conn);

  /// Serialises worker access across handler threads (one live client
  /// connection is the common case, but reconnects can overlap briefly).
  Mutex worker_mu_;
  ShardWorker* worker_ KSPR_PT_GUARDED_BY(worker_mu_);
  net::Listener listener_;
  std::atomic<bool> stop_{false};

  /// One connection thread; `done` is set as its last act.
  struct Handler {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  /// Touched by the accept thread only, until Stop has joined it. A list,
  /// so a running handler's `done` never moves; the accept loop joins and
  /// erases finished handlers, Stop joins the rest.
  std::list<Handler> handlers_;
  std::thread accept_thread_;
};

}  // namespace kspr

#endif  // KSPR_SHARD_SHARD_SERVER_H_
