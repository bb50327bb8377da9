#include "shard/shard_server.h"

#include <utility>

#include "net/wire.h"

namespace kspr {

namespace {
/// Accept-poll slice; bounds how long Stop() waits on the accept thread.
constexpr int kAcceptPollMs = 50;

// One row per request type: how the worker answers it. The reply's
// payload struct picks the response's MessageType.
CandidateResponse Answer(ShardWorker& worker, const CandidateRequest& request) {
  return worker.Candidates(request);
}
ShardUpdateResponse Answer(ShardWorker& worker,
                           const ShardUpdateRequest& request) {
  return worker.ApplyDelta(request);
}
RecordResponse Answer(ShardWorker& worker,
                      const net::GetRecordRequest& request) {
  return worker.GetRecord(request.global_id);
}
ShardInfo Answer(ShardWorker& worker, const net::InfoRequest&) {
  return worker.Info();
}
net::SaveSnapshotResponse Answer(ShardWorker& worker,
                                 const net::SaveSnapshotRequest& request) {
  net::SaveSnapshotResponse response;
  response.ok = worker.SaveSnapshot(request.path);
  if (!response.ok) response.error = "snapshot save failed at " + request.path;
  return response;
}

struct Reply {
  net::MessageType type = net::MessageType::kError;
  std::vector<uint8_t> payload;
};

template <class M>
Reply ReplyWith(const M& m) {
  return {net::MessageTypeOf<M>::value, net::Encode(m)};
}

}  // namespace

ShardServer::ShardServer(ShardWorker* worker) : worker_(worker) {
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

ShardServer::~ShardServer() { Stop(); }

void ShardServer::Stop() {
  if (stop_.exchange(true)) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  // Handlers notice stop_ at their next poll slice (RecvAll runs under a
  // short deadline loop in ServeConnection).
  for (Handler& handler : handlers_) handler.thread.join();
  handlers_.clear();
}

void ShardServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    handlers_.remove_if([](Handler& handler) {
      if (!handler.done.load(std::memory_order_acquire)) return false;
      handler.thread.join();
      return true;
    });
    net::Socket conn = listener_.Accept(kAcceptPollMs);
    if (!conn.valid()) continue;
    Handler& handler = handlers_.emplace_back();
    handler.thread =
        std::thread([this, &handler, c = std::move(conn)]() mutable {
          ServeConnection(std::move(c));
          handler.done.store(true, std::memory_order_release);
        });
  }
}

void ShardServer::ServeConnection(net::Socket conn) {
  std::vector<uint8_t> header(net::kFrameHeaderSize);
  std::vector<uint8_t> payload;
  while (!stop_.load(std::memory_order_relaxed)) {
    net::FrameHeader request;
    try {
      // Idle-wait for the next request in short slices so Stop() is never
      // blocked behind a quiet client; once the first header byte lands
      // the rest of the frame is read under one generous deadline.
      try {
        conn.RecvAll(header.data(), 1,
                     std::chrono::steady_clock::now() +
                         std::chrono::milliseconds(kAcceptPollMs));
      } catch (const net::SocketTimeout&) {
        continue;
      }
      const net::Deadline deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      conn.RecvAll(header.data() + 1, header.size() - 1, deadline);
      request = net::DecodeFrameHeader(header.data());
      payload.resize(request.payload_size);
      conn.RecvAll(payload.data(), payload.size(), deadline);
      net::VerifyPayload(request, payload.data());
    } catch (const std::exception&) {
      // Dead peer or poisoned stream: either way this connection is done.
      return;
    }

    Reply reply;
    bool answered = true;
    try {
      MutexLock lock(&worker_mu_);
      ShardWorker& worker = *worker_;
      net::VisitPayloadType(request.type, [&](auto payload_type) {
        using Request = typename decltype(payload_type)::type;
        if constexpr (requires(ShardWorker& w, const Request& r) {
                        Answer(w, r);
                      }) {
          reply = ReplyWith(Answer(
              worker, net::Decode<Request>(payload.data(), payload.size())));
        } else {
          answered = false;
        }
      });
    } catch (const net::WireError&) {
      // Structurally valid frame, semantically unreadable payload: the
      // stream alignment is fine but the request is garbage — report it.
      reply = ReplyWith(net::ErrorBody{"malformed request payload"});
    } catch (const std::exception& e) {
      reply = ReplyWith(net::ErrorBody{e.what()});
    }
    // A known frame type that is not a request (a client echoing a
    // response at us) poisons the stream.
    if (!answered) return;

    try {
      const std::vector<uint8_t> frame =
          net::EncodeFrame(reply.type, request.seq, reply.payload);
      conn.SendAll(frame.data(), frame.size(),
                   std::chrono::steady_clock::now() + std::chrono::seconds(30));
    } catch (const std::exception&) {
      return;
    }
  }
}

}  // namespace kspr
