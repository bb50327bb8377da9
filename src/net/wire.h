// Wire format of the socket shard transport.
//
// Every request and response of the ShardTransport interface
// (shard/shard_transport.h) travels as one FRAME:
//
//   offset  size  field
//   0       4     magic      0x4B535052 ("RSPK" on the wire, LE "KSPR")
//   4       2     version    kWireVersion — peers reject other versions
//   6       2     type       MessageType of the payload
//   8       8     seq        request sequence number; the response echoes
//                            it, which is how a client matches responses
//                            after retries and discards stale duplicates
//   16      4     payload_size   <= kMaxFramePayload
//   20      8     checksum   FNV-1a 64 over the payload bytes
//   28      ...   payload    message-specific little-endian encoding
//
// All integers are little-endian; doubles travel as their IEEE-754 bit
// pattern (bit_cast to uint64_t), so values survive the wire BITWISE — the
// sharded tier's bitwise-identity gates hold over real sockets for exactly
// this reason. A frame is rejected (WireError) when the magic, version,
// declared size or checksum does not hold; a rejected frame means the
// stream can no longer be trusted and the connection must be dropped
// (resynchronising inside a byte stream is not attempted).
//
// Each message is declared once: a row of KSPR_WIRE_MESSAGES names its
// type code and payload struct, and one Walk over the payload (wire.cc)
// both encodes it (driven by WireWriter) and decodes it (driven by
// WireReader), so the two directions cannot disagree on field order.
//
// The encoding is deliberately non-extensible per version: decoders check
// that a payload is consumed EXACTLY, so truncated and padded payloads are
// both rejected rather than half-read.

#ifndef KSPR_NET_WIRE_H_
#define KSPR_NET_WIRE_H_

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "common/vec.h"
#include "shard/shard_transport.h"

namespace kspr {
namespace net {

inline constexpr uint32_t kWireMagic = 0x4B535052u;  // "KSPR" (LE bytes RSPK)
inline constexpr uint16_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderSize = 28;
/// Upper bound on a payload: a candidate set of ~1.8M records. Anything
/// larger is a protocol error, not a legitimate message.
inline constexpr uint32_t kMaxFramePayload = 128u << 20;

// Payload structs for the ShardTransport calls whose arguments or result
// are not already one message struct (shard/shard_transport.h), and the
// body of a kError reply.
struct GetRecordRequest {
  RecordId global_id = kInvalidRecord;
};
struct InfoRequest {};
struct SaveSnapshotRequest {
  std::string path;
};
struct SaveSnapshotResponse {
  bool ok = false;
  std::string error;
};
struct ErrorBody {
  std::string message;
};

/// Every message: X(enumerator, type code, name, payload struct). Requests
/// have odd codes and their response the next even one; kError answers a
/// request the server could not serve.
#define KSPR_WIRE_MESSAGES(X)                                               \
  X(kCandidatesRequest, 1, "candidates-request", CandidateRequest)          \
  X(kCandidatesResponse, 2, "candidates-response", CandidateResponse)       \
  X(kApplyDeltaRequest, 3, "apply-delta-request", ShardUpdateRequest)       \
  X(kApplyDeltaResponse, 4, "apply-delta-response", ShardUpdateResponse)    \
  X(kGetRecordRequest, 5, "get-record-request", GetRecordRequest)           \
  X(kGetRecordResponse, 6, "get-record-response", RecordResponse)           \
  X(kInfoRequest, 7, "info-request", InfoRequest)                           \
  X(kInfoResponse, 8, "info-response", ShardInfo)                           \
  X(kSaveSnapshotRequest, 9, "save-snapshot-request", SaveSnapshotRequest)  \
  X(kSaveSnapshotResponse, 10, "save-snapshot-response",                    \
    SaveSnapshotResponse)                                                   \
  X(kError, 100, "error", ErrorBody)

enum class MessageType : uint16_t {
#define KSPR_WIRE_ENUMERATOR(name, code, text, Payload) name = (code),
  KSPR_WIRE_MESSAGES(KSPR_WIRE_ENUMERATOR)
#undef KSPR_WIRE_ENUMERATOR
};

const char* ToString(MessageType type);

/// MessageTypeOf<M>::value is the type code that carries payload M.
template <class M>
struct MessageTypeOf;
#define KSPR_WIRE_TYPE_OF(name, code, text, Payload)      \
  template <>                                             \
  struct MessageTypeOf<Payload> {                         \
    static constexpr MessageType value = MessageType::name; \
  };
KSPR_WIRE_MESSAGES(KSPR_WIRE_TYPE_OF)
#undef KSPR_WIRE_TYPE_OF

/// Calls `visit(std::type_identity<M>{})` with the payload struct M of
/// `type`.
template <class Visit>
void VisitPayloadType(MessageType type, Visit&& visit) {
  switch (type) {
#define KSPR_WIRE_VISIT(name, code, text, Payload) \
  case MessageType::name:                          \
    return visit(std::type_identity<Payload>{});
    KSPR_WIRE_MESSAGES(KSPR_WIRE_VISIT)
#undef KSPR_WIRE_VISIT
  }
}

/// Thrown on any malformed frame or payload. The connection that produced
/// it must be considered poisoned and closed.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// FNV-1a 64-bit over a byte range (the storage layer uses the same family
/// for page checksums; this one is the canonical single-stream variant).
uint64_t Fnv1a64(const uint8_t* data, size_t size);

struct FrameHeader {
  MessageType type = MessageType::kError;
  uint64_t seq = 0;
  uint32_t payload_size = 0;
  uint64_t checksum = 0;
};

/// Serialises header + payload into one contiguous frame.
std::vector<uint8_t> EncodeFrame(MessageType type, uint64_t seq,
                                 const std::vector<uint8_t>& payload);

/// Parses and validates the fixed-size header (`buf` must hold
/// kFrameHeaderSize bytes). Throws WireError on bad magic / version /
/// unknown type / oversized payload declaration.
FrameHeader DecodeFrameHeader(const uint8_t* buf);

/// Validates `header.checksum` against the actual payload bytes.
void VerifyPayload(const FrameHeader& header, const uint8_t* payload);

// ---------------------------------------------------------------------------
// Payload building blocks. A Walk names each field once, as a call on the
// writer or reader that drives it: the writer takes fields by value, the
// reader fills them by reference.
// ---------------------------------------------------------------------------

/// Append-only little-endian encoder.
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v) { AppendLe(v); }
  void U32(uint32_t v) { AppendLe(v); }
  void U64(uint64_t v) { AppendLe(v); }
  void I32(int32_t v) { AppendLe(static_cast<uint32_t>(v)); }
  void Bool(bool v) { U8(v ? 1 : 0); }
  /// IEEE-754 bit pattern — bitwise-exact round trip.
  void F64(double v) { AppendLe(std::bit_cast<uint64_t>(v)); }
  void Str(const std::string& s);
  void VecField(const Vec& v);
  /// Raw bytes, no length prefix (a frame's payload after its header).
  void Bytes(const std::vector<uint8_t>& bytes) {
    buf_.insert(buf_.end(), bytes.begin(), bytes.end());
  }
  /// A repeated section: a U32 count, then each element's Walk.
  /// `min_elem_size` is the reader's bound; the writer ignores it.
  template <class T>
  void Seq(const std::vector<T>& items, size_t min_elem_size);

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  template <typename T>
  void AppendLe(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  std::vector<uint8_t> buf_;
};

/// Bounds-checked little-endian decoder; throws WireError on overrun and
/// on any structurally invalid field (dim out of range, absurd counts).
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  void U8(uint8_t& v) { v = static_cast<uint8_t>(ReadLe(1)); }
  void U16(uint16_t& v) { v = static_cast<uint16_t>(ReadLe(2)); }
  void U32(uint32_t& v) { v = static_cast<uint32_t>(ReadLe(4)); }
  void U64(uint64_t& v) { v = ReadLe(8); }
  void I32(int32_t& v) { v = static_cast<int32_t>(ReadLe(4)); }
  void Bool(bool& v) { v = ReadLe(1) != 0; }
  void F64(double& v) { v = std::bit_cast<double>(ReadLe(8)); }
  void Str(std::string& s);
  void VecField(Vec& v);
  /// A repeated section. Its count is read through Count(min_elem_size):
  /// each element encodes to at least `min_elem_size` bytes, so a count
  /// that could not fit in the remaining payload is rejected before any
  /// allocation (cheap DoS/corruption guard).
  template <class T>
  void Seq(std::vector<T>& items, size_t min_elem_size);

  /// Decoders call this last: trailing bytes are a protocol error.
  void ExpectEnd() const;

 private:
  size_t remaining() const { return size_ - pos_; }
  uint32_t Count(size_t min_elem_size);
  uint64_t ReadLe(size_t n);
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Message payloads: any payload struct of KSPR_WIRE_MESSAGES. Decode
// rejects malformed, truncated and padded payloads with WireError.
// ---------------------------------------------------------------------------

template <class M>
std::vector<uint8_t> Encode(const M& m);
template <class M>
M Decode(const uint8_t* data, size_t size);

/// Decode<CandidateResponse> under the name the benchmark harness calls.
inline CandidateResponse DecodeCandidateResponse(const uint8_t* data,
                                                 size_t size) {
  return Decode<CandidateResponse>(data, size);
}

}  // namespace net
}  // namespace kspr

#endif  // KSPR_NET_WIRE_H_
