// Typed failure vocabulary of the shard transport layer.
//
// Every transport implementation reports failures as TransportError so the
// router can react by KIND (retry budgets live inside the transport; by the
// time the router sees an error the transport has given up on this request):
//
//   kTimeout     the per-request deadline expired with no response
//   kConnection  connect/send/recv failed (peer gone, reset, refused)
//   kProtocol    a frame arrived but could not be trusted (bad magic /
//                version / checksum / truncated or oversized payload)
//   kRemote      the peer answered with an error frame (handler threw)
//   kShardDown   the transport declared the shard unavailable without
//                issuing the request (e.g. reconnect budget exhausted)
//
// ShardHealth is the router-facing per-shard serving state driven by these
// errors (state machine documented in docs/ARCHITECTURE.md):
//
//   kUp        last operation succeeded, no replay backlog
//   kDegraded  update batches pending replay — the shard serves stale
//              state and is left out of query scatters
//   kDown      last operation failed after the full retry budget

#ifndef KSPR_NET_TRANSPORT_ERROR_H_
#define KSPR_NET_TRANSPORT_ERROR_H_

#include <cstddef>
#include <stdexcept>
#include <string>

namespace kspr {

enum class TransportErrorKind : uint8_t {
  kTimeout,
  kConnection,
  kProtocol,
  kRemote,
  kShardDown,
};

inline const char* ToString(TransportErrorKind kind) {
  switch (kind) {
    case TransportErrorKind::kTimeout:
      return "timeout";
    case TransportErrorKind::kConnection:
      return "connection";
    case TransportErrorKind::kProtocol:
      return "protocol";
    case TransportErrorKind::kRemote:
      return "remote";
    case TransportErrorKind::kShardDown:
      return "shard-down";
  }
  return "?";
}

class TransportError : public std::runtime_error {
 public:
  TransportError(TransportErrorKind kind, size_t shard, const std::string& what)
      : std::runtime_error("shard " + std::to_string(shard) + ": " +
                           std::string(ToString(kind)) + ": " + what),
        kind_(kind),
        shard_(shard) {}

  TransportErrorKind kind() const { return kind_; }
  size_t shard() const { return shard_; }

 private:
  TransportErrorKind kind_;
  size_t shard_;
};

enum class ShardHealth : uint8_t { kUp, kDegraded, kDown };

inline const char* ToString(ShardHealth health) {
  switch (health) {
    case ShardHealth::kUp:
      return "up";
    case ShardHealth::kDegraded:
      return "degraded";
    case ShardHealth::kDown:
      return "down";
  }
  return "?";
}

}  // namespace kspr

#endif  // KSPR_NET_TRANSPORT_ERROR_H_
