#include "net/wire.h"

#include <cstdio>

namespace kspr {
namespace net {

const char* ToString(MessageType type) {
  switch (type) {
#define KSPR_WIRE_NAME(name, code, text, Payload) \
  case MessageType::name:                         \
    return text;
    KSPR_WIRE_MESSAGES(KSPR_WIRE_NAME)
#undef KSPR_WIRE_NAME
  }
  return "?";
}

uint64_t Fnv1a64(const uint8_t* data, size_t size) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

bool KnownType(uint16_t raw) {
  switch (raw) {
#define KSPR_WIRE_CODE(name, code, text, Payload) case code:
    KSPR_WIRE_MESSAGES(KSPR_WIRE_CODE)
#undef KSPR_WIRE_CODE
    return true;
  }
  return false;
}

}  // namespace

std::vector<uint8_t> EncodeFrame(MessageType type, uint64_t seq,
                                 const std::vector<uint8_t>& payload) {
  if (payload.size() > kMaxFramePayload) {
    throw WireError("encode: payload of " + std::to_string(payload.size()) +
                    " bytes exceeds kMaxFramePayload");
  }
  WireWriter w;
  w.U32(kWireMagic);
  w.U16(kWireVersion);
  w.U16(static_cast<uint16_t>(type));
  w.U64(seq);
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U64(Fnv1a64(payload.data(), payload.size()));
  w.Bytes(payload);
  return w.Take();
}

FrameHeader DecodeFrameHeader(const uint8_t* buf) {
  WireReader r(buf, kFrameHeaderSize);
  uint32_t magic = 0;
  r.U32(magic);
  if (magic != kWireMagic) {
    char hex[9];
    std::snprintf(hex, sizeof(hex), "%08x", static_cast<unsigned>(magic));
    throw WireError(std::string("bad frame magic 0x") + hex);
  }
  uint16_t version = 0;
  r.U16(version);
  if (version != kWireVersion) {
    throw WireError("unsupported wire version " + std::to_string(version));
  }
  uint16_t raw_type = 0;
  r.U16(raw_type);
  if (!KnownType(raw_type)) {
    throw WireError("unknown message type " + std::to_string(raw_type));
  }
  FrameHeader header;
  header.type = static_cast<MessageType>(raw_type);
  r.U64(header.seq);
  r.U32(header.payload_size);
  if (header.payload_size > kMaxFramePayload) {
    throw WireError("declared payload of " +
                    std::to_string(header.payload_size) +
                    " bytes exceeds kMaxFramePayload");
  }
  r.U64(header.checksum);
  return header;
}

void VerifyPayload(const FrameHeader& header, const uint8_t* payload) {
  const uint64_t actual = Fnv1a64(payload, header.payload_size);
  if (actual != header.checksum) {
    throw WireError(std::string("payload checksum mismatch on ") +
                    ToString(header.type) + " frame");
  }
}

// ---------------------------------------------------------------------------
// WireWriter / WireReader
// ---------------------------------------------------------------------------

void WireWriter::Str(const std::string& s) {
  if (s.size() > kMaxFramePayload) {
    throw WireError("string field too large to encode");
  }
  U32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void WireWriter::VecField(const Vec& v) {
  U8(static_cast<uint8_t>(v.dim));
  for (int i = 0; i < v.dim; ++i) F64(v.v[i]);
}

uint64_t WireReader::ReadLe(size_t n) {
  if (size_ - pos_ < n) throw WireError("payload truncated");
  uint64_t v = 0;
  for (size_t i = 0; i < n; ++i) {
    v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  }
  pos_ += n;
  return v;
}

void WireReader::Str(std::string& s) {
  uint32_t len = 0;
  U32(len);
  if (remaining() < len) throw WireError("string field truncated");
  s.assign(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
}

void WireReader::VecField(Vec& v) {
  uint8_t dim = 0;
  U8(dim);
  if (dim > kMaxDim) {
    throw WireError("vector dimension " + std::to_string(dim) +
                    " exceeds kMaxDim");
  }
  v = Vec(dim);
  for (int i = 0; i < dim; ++i) F64(v.v[i]);
}

uint32_t WireReader::Count(size_t min_elem_size) {
  uint32_t count = 0;
  U32(count);
  if (min_elem_size > 0 && remaining() / min_elem_size < count) {
    throw WireError("repeated section count " + std::to_string(count) +
                    " cannot fit in remaining payload");
  }
  return count;
}

void WireReader::ExpectEnd() const {
  if (pos_ != size_) {
    throw WireError(std::to_string(size_ - pos_) +
                    " trailing bytes after payload");
  }
}

// ---------------------------------------------------------------------------
// Walks: one per payload and per repeated element, each naming its fields
// in wire order. The same walk encodes (Io = WireWriter, which only reads
// the fields) and decodes (Io = WireReader, which assigns them).
// ---------------------------------------------------------------------------

namespace {

// Encoded element sizes used as Count() lower bounds. A Candidate is an
// I32 id plus a Vec (1 dim byte + dim doubles, dim >= 0).
constexpr size_t kMinCandidateSize = 4 + 1;
constexpr size_t kMinInsertSize = 4 + 1;
constexpr size_t kMinSkybandChangeSize = 4 + 4;  // k + count
constexpr size_t kMinI32Size = 4;

}  // namespace

template <class Io>
void Walk(Io& io, int32_t& v) {  // RecordId and k elements
  io.I32(v);
}

template <class Io>
void Walk(Io& io, Candidate& m) {
  io.I32(m.global_id);
  io.VecField(m.value);
}

template <class Io>
void Walk(Io& io, ShardInsert& m) {
  io.I32(m.global_id);
  io.VecField(m.value);
}

template <class Io>
void Walk(Io& io, SkybandChange& m) {
  io.I32(m.k);
  io.Seq(m.changed, kMinCandidateSize);
}

template <class Io>
void Walk(Io& io, CandidateRequest& m) {
  io.I32(m.k);
}

template <class Io>
void Walk(Io& io, CandidateResponse& m) {
  io.U64(m.shard_version);
  io.Bool(m.from_cache);
  io.Seq(m.candidates, kMinCandidateSize);
}

template <class Io>
void Walk(Io& io, ShardUpdateRequest& m) {
  io.U64(m.batch_seq);
  io.Seq(m.inserts, kMinInsertSize);
  io.Seq(m.delete_global_ids, kMinI32Size);
  io.Seq(m.skyband_ks, kMinI32Size);
}

template <class Io>
void Walk(Io& io, ShardUpdateResponse& m) {
  io.U64(m.shard_version);
  io.U64(m.inserts_applied);
  io.U64(m.deletes_applied);
  io.Seq(m.skyband_changes, kMinSkybandChangeSize);
}

template <class Io>
void Walk(Io& io, GetRecordRequest& m) {
  io.I32(m.global_id);
}

template <class Io>
void Walk(Io& io, RecordResponse& m) {
  io.Bool(m.known);
  io.Bool(m.live);
  io.VecField(m.value);
}

template <class Io>
void Walk(Io&, InfoRequest&) {}

template <class Io>
void Walk(Io& io, ShardInfo& m) {  // `reachable` is router-side only
  io.U64(m.shard_version);
  io.I32(m.records_total);
  io.I32(m.records_live);
}

template <class Io>
void Walk(Io& io, SaveSnapshotRequest& m) {
  io.Str(m.path);
}

template <class Io>
void Walk(Io& io, SaveSnapshotResponse& m) {
  io.Bool(m.ok);
  io.Str(m.error);
}

template <class Io>
void Walk(Io& io, ErrorBody& m) {
  io.Str(m.message);
}

template <class T>
void WireWriter::Seq(const std::vector<T>& items, size_t /*min_elem_size*/) {
  U32(static_cast<uint32_t>(items.size()));
  for (const T& item : items) Walk(*this, const_cast<T&>(item));
}

template <class T>
void WireReader::Seq(std::vector<T>& items, size_t min_elem_size) {
  items.resize(Count(min_elem_size));
  for (T& item : items) Walk(*this, item);
}

template <class M>
std::vector<uint8_t> Encode(const M& m) {
  WireWriter w;
  Walk(w, const_cast<M&>(m));  // a writer only reads the fields
  return w.Take();
}

template <class M>
M Decode(const uint8_t* data, size_t size) {
  WireReader r(data, size);
  M m;
  Walk(r, m);
  r.ExpectEnd();
  return m;
}

#define KSPR_WIRE_INSTANTIATE(name, code, text, Payload)           \
  template std::vector<uint8_t> Encode<Payload>(const Payload&);  \
  template Payload Decode<Payload>(const uint8_t*, size_t);
KSPR_WIRE_MESSAGES(KSPR_WIRE_INSTANTIATE)
#undef KSPR_WIRE_INSTANTIATE

}  // namespace net
}  // namespace kspr
