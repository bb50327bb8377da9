#include "shard/socket_transport.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <thread>
#include <utility>

namespace kspr {

namespace {

net::Deadline DeadlineIn(int ms) {
  if (ms <= 0) return net::NoDeadline();
  return std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
}

}  // namespace

SocketShardTransport::SocketShardTransport(std::vector<uint16_t> ports,
                                           SocketTransportOptions options)
    : options_(std::move(options)) {
  assert(!ports.empty());
  shards_.reserve(ports.size());
  for (size_t i = 0; i < ports.size(); ++i) {
    // Distinct deterministic jitter stream per shard.
    shards_.push_back(std::make_unique<Shard>(
        i, ports[i], options_.jitter_seed + i * 7919));
  }
}

template <class Reply, class Request, class Finish>
auto SocketShardTransport::Call(size_t shard_index, Request request,
                                Finish finish)
    -> std::future<std::decay_t<std::invoke_result_t<Finish, Reply>>> {
  using Result = std::decay_t<std::invoke_result_t<Finish, Reply>>;
  assert(shard_index < shards_.size());
  Shard* shard = shards_[shard_index].get();
  auto task = std::make_shared<std::packaged_task<Result()>>(
      [this, shard, request = std::move(request),
       finish = std::move(finish)]() -> Result {
        const std::vector<uint8_t> payload = RoundTrip(
            *shard, net::MessageTypeOf<Request>::value, net::Encode(request),
            net::MessageTypeOf<Reply>::value);
        return finish(net::Decode<Reply>(payload.data(), payload.size()));
      });
  std::future<Result> future = task->get_future();
  shard->queue.Post([task](int) { (*task)(); });
  return future;
}

void SocketShardTransport::EnsureConnected(Shard& shard) {
  if (shard.conn.valid()) return;
  shard.conn =
      net::ConnectLoopback(shard.port, DeadlineIn(options_.connect_timeout_ms));
  if (options_.stats) options_.stats->RecordConnect(shard.ever_connected);
  shard.ever_connected = true;
}

void SocketShardTransport::BackoffSleep(Shard& shard,
                                        int consecutive_failures) {
  int64_t ms = options_.backoff_base_ms;
  for (int i = 1; i < consecutive_failures && ms < options_.backoff_max_ms;
       ++i) {
    ms *= 2;
  }
  ms = std::min<int64_t>(ms, options_.backoff_max_ms);
  // Full jitter on top of the exponential base: desynchronises shard
  // supervisors that failed at the same instant.
  ms += static_cast<int64_t>(
      shard.jitter.UniformInt(static_cast<uint64_t>(ms) + 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::vector<uint8_t> SocketShardTransport::Attempt(
    Shard& shard, net::MessageType request_type,
    const std::vector<uint8_t>& request_payload,
    net::MessageType expected_response, uint64_t seq,
    net::MessageType* actual_type) {
  EnsureConnected(shard);

  const net::Deadline deadline = DeadlineIn(options_.request_timeout_ms);
  std::vector<uint8_t> frame =
      net::EncodeFrame(request_type, seq, request_payload);

  net::FaultAction fault;
  if (options_.faults != nullptr) fault = options_.faults->Next(shard.index);
  if (fault.kind != net::FaultKind::kNone && options_.stats) {
    options_.stats->RecordFaultInjected();
  }
  switch (fault.kind) {
    case net::FaultKind::kNone:
      shard.conn.SendAll(frame.data(), frame.size(), deadline);
      break;
    case net::FaultKind::kDrop:
      // Swallow the request: the read below runs into the deadline and
      // the retry path takes over.
      break;
    case net::FaultKind::kDelay:
      std::this_thread::sleep_for(std::chrono::milliseconds(fault.delay_ms));
      shard.conn.SendAll(frame.data(), frame.size(), deadline);
      break;
    case net::FaultKind::kDuplicate:
      // Delivered twice; the worker's batch_seq ledger (updates) and the
      // stale-seq discard below (the echoed duplicate response) absorb it.
      shard.conn.SendAll(frame.data(), frame.size(), deadline);
      shard.conn.SendAll(frame.data(), frame.size(), deadline);
      break;
    case net::FaultKind::kCorrupt:
      // Flip the frame's last byte (payload if any, else checksum): the
      // server's verify fails and it drops the connection.
      frame.back() ^= 0xFF;
      shard.conn.SendAll(frame.data(), frame.size(), deadline);
      break;
    case net::FaultKind::kDisconnect:
      shard.conn.Close();
      throw net::SocketError("injected disconnect");
  }

  // Read until `seq` answers; frames with an older seq are duplicates of
  // already-answered requests and are discarded.
  std::vector<uint8_t> header(net::kFrameHeaderSize);
  std::vector<uint8_t> payload;
  for (;;) {
    shard.conn.RecvAll(header.data(), header.size(), deadline);
    const net::FrameHeader response = net::DecodeFrameHeader(header.data());
    payload.resize(response.payload_size);
    shard.conn.RecvAll(payload.data(), payload.size(), deadline);
    net::VerifyPayload(response, payload.data());
    if (response.seq < seq) continue;
    if (response.seq > seq) {
      throw net::WireError("response seq from the future");
    }
    if (response.type != expected_response &&
        response.type != net::MessageType::kError) {
      throw net::WireError(std::string("unexpected response type ") +
                           net::ToString(response.type));
    }
    *actual_type = response.type;
    return payload;
  }
}

std::vector<uint8_t> SocketShardTransport::RoundTrip(
    Shard& shard, net::MessageType request_type,
    const std::vector<uint8_t>& request_payload,
    net::MessageType expected_response) {
  if (options_.stats) options_.stats->RecordRequest();

  TransportErrorKind last_kind = TransportErrorKind::kConnection;
  std::string last_what = "no attempt made";
  const int attempts = 1 + std::max(0, options_.max_retries);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      if (options_.stats) options_.stats->RecordRetry();
      BackoffSleep(shard, attempt);
    }
    try {
      net::MessageType actual = net::MessageType::kError;
      // Fresh wire seq per attempt: any response to an earlier attempt
      // (e.g. a duplicate) compares below the live seq and is discarded.
      const uint64_t seq = shard.next_seq++;
      std::vector<uint8_t> payload =
          Attempt(shard, request_type, request_payload, expected_response, seq,
                  &actual);
      if (actual == net::MessageType::kError) {
        // The worker received the request and failed deterministically;
        // retrying cannot help. Connection and stream stay healthy.
        const net::ErrorBody err =
            net::Decode<net::ErrorBody>(payload.data(), payload.size());
        if (options_.stats) options_.stats->RecordFailure();
        throw TransportError(TransportErrorKind::kRemote, shard.index,
                             err.message);
      }
      return payload;
    } catch (const net::SocketTimeout& e) {
      if (options_.stats) options_.stats->RecordTimeout();
      last_kind = TransportErrorKind::kTimeout;
      last_what = e.what();
    } catch (const net::WireError& e) {
      if (options_.stats) options_.stats->RecordFrameError();
      last_kind = TransportErrorKind::kProtocol;
      last_what = e.what();
    } catch (const net::SocketError& e) {
      last_kind = TransportErrorKind::kConnection;
      last_what = e.what();
    }
    // Any failed attempt poisons the connection (a late response to this
    // seq must never be read by a later request).
    shard.conn.Close();
  }
  if (options_.stats) options_.stats->RecordFailure();
  throw TransportError(last_kind, shard.index, last_what);
}

std::future<CandidateResponse> SocketShardTransport::Candidates(
    size_t shard, CandidateRequest request) {
  return Call<CandidateResponse>(shard, request);
}

std::future<ShardUpdateResponse> SocketShardTransport::ApplyDelta(
    size_t shard, ShardUpdateRequest request) {
  return Call<ShardUpdateResponse>(shard, std::move(request));
}

std::future<RecordResponse> SocketShardTransport::GetRecord(
    size_t shard, RecordId global_id) {
  return Call<RecordResponse>(shard, net::GetRecordRequest{global_id});
}

std::future<ShardInfo> SocketShardTransport::Info(size_t shard) {
  return Call<ShardInfo>(shard, net::InfoRequest{});
}

std::future<bool> SocketShardTransport::SaveSnapshot(size_t shard,
                                                     std::string path) {
  return Call<net::SaveSnapshotResponse>(
      shard, net::SaveSnapshotRequest{std::move(path)},
      [](const net::SaveSnapshotResponse& response) { return response.ok; });
}

}  // namespace kspr
