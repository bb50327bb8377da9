// Wire-format contract of the socket shard transport (src/net/wire.h).
//
// Two families of guarantees under test:
//   1. Round trips — every request/response struct of the five
//      ShardTransport message pairs encodes and decodes to a bitwise-
//      equal value (doubles travel as IEEE-754 bit patterns, so NaNs,
//      denormals and negative zero must all survive), across a seeded
//      property loop of randomised messages.
//   2. Rejection — corrupted, truncated, oversized and trailing-garbage
//      frames throw WireError rather than half-decode; every payload of
//      the message table is cut at every prefix and has every byte
//      flipped.
//   3. Golden bytes — one filled-in instance of every payload and one
//      frame header encode to pinned version-1 bytes.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "common/vec.h"
#include "net/fault_schedule.h"
#include "net/wire.h"

namespace kspr {
namespace net {
namespace {

Vec RandomVec(Rng& rng, int dim) {
  Vec v(dim);
  for (int i = 0; i < dim; ++i) v.v[i] = rng.Uniform(-1e6, 1e6);
  return v;
}

bool BitwiseEqual(const Vec& a, const Vec& b) {
  if (a.dim != b.dim) return false;
  return std::memcmp(a.v.data(), b.v.data(), sizeof(a.v)) == 0;
}

bool BitwiseEqual(const Candidate& a, const Candidate& b) {
  return a.global_id == b.global_id && BitwiseEqual(a.value, b.value);
}

std::vector<Candidate> RandomCandidates(Rng& rng, int dim, size_t max_count) {
  std::vector<Candidate> out(rng.UniformInt(max_count + 1));
  for (Candidate& c : out) {
    c.global_id = static_cast<RecordId>(rng.UniformInt(1 << 20));
    c.value = RandomVec(rng, dim);
  }
  return out;
}

TEST(FrameTest, HeaderRoundTrip) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> frame =
      EncodeFrame(MessageType::kInfoRequest, 77, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderSize + payload.size());
  const FrameHeader header = DecodeFrameHeader(frame.data());
  EXPECT_EQ(header.type, MessageType::kInfoRequest);
  EXPECT_EQ(header.seq, 77u);
  EXPECT_EQ(header.payload_size, payload.size());
  VerifyPayload(header, frame.data() + kFrameHeaderSize);  // no throw
}

// The WireError text DecodeFrameHeader throws for `frame`, or "" if none.
std::string HeaderError(const std::vector<uint8_t>& frame) {
  try {
    DecodeFrameHeader(frame.data());
  } catch (const WireError& e) {
    return e.what();
  }
  return "";
}

TEST(FrameTest, RejectsBadMagicVersionTypeAndSize) {
  std::vector<uint8_t> frame = EncodeFrame(MessageType::kInfoRequest, 1, {});
  EXPECT_EQ(HeaderError(frame), "");
  {
    std::vector<uint8_t> bad = frame;
    bad[0] ^= 0xFF;  // magic
    EXPECT_EQ(HeaderError(bad), "bad frame magic 0x4b5350ad");
  }
  {
    std::vector<uint8_t> bad = frame;
    bad[4] = 0x7F;  // version
    EXPECT_EQ(HeaderError(bad), "unsupported wire version 127");
  }
  {
    std::vector<uint8_t> bad = frame;
    bad[6] = 0xEE;  // unknown message type
    bad[7] = 0xEE;
    EXPECT_EQ(HeaderError(bad), "unknown message type 61166");
  }
  {
    std::vector<uint8_t> bad = frame;
    // Declared payload size beyond kMaxFramePayload.
    const uint32_t huge = kMaxFramePayload + 1;
    std::memcpy(bad.data() + 16, &huge, sizeof(huge));
    EXPECT_EQ(HeaderError(bad),
              "declared payload of 134217729 bytes exceeds kMaxFramePayload");
  }
}

TEST(FrameTest, RejectsOversizedEncode) {
  // Encoding refuses to build an illegal frame in the first place.
  std::vector<uint8_t> payload(kMaxFramePayload + 1);
  EXPECT_THROW(EncodeFrame(MessageType::kError, 0, payload), WireError);
}

// Every byte of the payload is covered by the checksum: flipping any one
// must be detected. Fuzz-style: real message, every position, seeded
// content.
TEST(FrameTest, ChecksumCatchesEveryPayloadByteFlip) {
  Rng rng(2024);
  CandidateResponse msg;
  msg.shard_version = 41;
  msg.from_cache = true;
  msg.candidates = RandomCandidates(rng, 4, 8);
  const std::vector<uint8_t> payload = Encode(msg);
  ASSERT_FALSE(payload.empty());
  const std::vector<uint8_t> frame =
      EncodeFrame(MessageType::kCandidatesResponse, 9, payload);
  const FrameHeader header = DecodeFrameHeader(frame.data());
  for (size_t i = 0; i < payload.size(); ++i) {
    std::vector<uint8_t> corrupted(frame.begin() + kFrameHeaderSize,
                                   frame.end());
    corrupted[i] ^= 0x01;
    EXPECT_THROW(VerifyPayload(header, corrupted.data()), WireError)
        << "flip at payload byte " << i << " undetected";
  }
}

// ---------------------------------------------------------------------------
// Golden bytes: one filled-in instance of every payload, pinned byte for
// byte. A round trip cannot see a field that moved in the encoder and the
// decoder alike; these cases can. The expected strings are the version-1
// wire format and must never change while kWireVersion is 1.
// ---------------------------------------------------------------------------

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

double FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// d = 8 with a NaN carrying a payload, a negative zero, a denormal and an
// infinity beside ordinary values.
Vec GoldenVec8() {
  Vec v(8);
  v.v = {0.5, -0.0, FromBits(0x7FF8000000000123ull), 1e300,
         std::numeric_limits<double>::denorm_min(),
         -std::numeric_limits<double>::infinity(), 0.1, -2.25};
  return v;
}

TEST(GoldenBytesTest, FrameHeader) {
  const std::vector<uint8_t> frame = EncodeFrame(
      MessageType::kCandidatesResponse, 0x0102030405060708ull, {0xAB, 0xCD});
  EXPECT_EQ(Hex(frame),
            "5250534b"           // magic
            "0100"               // version
            "0200"               // type
            "0807060504030201"   // seq
            "02000000"           // payload_size
            "65031bb6079b9709"   // checksum
            "abcd");
}

TEST(GoldenBytesTest, CandidateRequest) {
  EXPECT_EQ(Hex(Encode(CandidateRequest{-3})), "fdffffff");
}

TEST(GoldenBytesTest, CandidateResponse) {
  CandidateResponse m;
  m.shard_version = 0x1122334455667788ull;
  m.from_cache = true;
  m.candidates = {{7, GoldenVec8()}, {-1, Vec{1.0, 2.0}}};
  EXPECT_EQ(Hex(Encode(m)),
            "8877665544332211"   // shard_version
            "01"                 // from_cache
            "02000000"           // candidate count
            "07000000"           // id
            "08"                 // dim
            "000000000000e03f"   // 0.5
            "0000000000000080"   // -0.0
            "230100000000f87f"   // NaN with payload
            "9c7500883ce4377e"   // 1e300
            "0100000000000000"   // denorm_min
            "000000000000f0ff"   // -inf
            "9a9999999999b93f"   // 0.1
            "00000000000002c0"   // -2.25
            "ffffffff"           // id
            "02"                 // dim
            "000000000000f03f"
            "0000000000000040");
}

TEST(GoldenBytesTest, ShardUpdateRequest) {
  ShardUpdateRequest m;
  m.batch_seq = 42;
  m.inserts = {{100, Vec{0.25, -0.0, 3.0}}};
  m.delete_global_ids = {5, 6};
  m.skyband_ks = {1, 4, 9};
  EXPECT_EQ(Hex(Encode(m)),
            "2a00000000000000"   // batch_seq
            "01000000"           // insert count
            "64000000"           // id
            "03"                 // dim
            "000000000000d03f"
            "0000000000000080"
            "0000000000000840"
            "02000000"           // delete count
            "05000000"
            "06000000"
            "03000000"           // k count
            "01000000"
            "04000000"
            "09000000");
}

TEST(GoldenBytesTest, ShardUpdateResponse) {
  ShardUpdateResponse m;
  m.shard_version = 77;
  m.inserts_applied = 3;
  m.deletes_applied = 2;
  m.skyband_changes = {{2, {{9, Vec{0.5}}}}, {4, {}}};
  EXPECT_EQ(Hex(Encode(m)),
            "4d00000000000000"   // shard_version
            "0300000000000000"   // inserts_applied
            "0200000000000000"   // deletes_applied
            "02000000"           // change count
            "02000000"           // k
            "01000000"           // changed count
            "09000000"           // id
            "01"                 // dim
            "000000000000e03f"
            "04000000"           // k
            "00000000");         // changed count
}

TEST(GoldenBytesTest, GetRecordRequest) {
  EXPECT_EQ(Hex(Encode(GetRecordRequest{0x01020304})), "04030201");
}

TEST(GoldenBytesTest, RecordResponse) {
  RecordResponse m;
  m.known = true;
  m.live = false;
  m.value = GoldenVec8();
  EXPECT_EQ(Hex(Encode(m)),
            "01"                 // known
            "00"                 // live
            "08"                 // dim
            "000000000000e03f"   // 0.5
            "0000000000000080"   // -0.0
            "230100000000f87f"   // NaN with payload
            "9c7500883ce4377e"   // 1e300
            "0100000000000000"   // denorm_min
            "000000000000f0ff"   // -inf
            "9a9999999999b93f"   // 0.1
            "00000000000002c0");  // -2.25
}

TEST(GoldenBytesTest, InfoRequest) {
  EXPECT_EQ(Hex(Encode(InfoRequest{})), "");
}

TEST(GoldenBytesTest, ShardInfo) {
  ShardInfo m;
  m.shard_version = 0xFFFFFFFFFFFFFFFEull;
  m.records_total = 1000;
  m.records_live = -2;
  m.reachable = false;  // router-side only: never on the wire
  EXPECT_EQ(Hex(Encode(m)),
            "feffffffffffffff"   // shard_version
            "e8030000"           // records_total
            "feffffff");         // records_live
}

TEST(GoldenBytesTest, SaveSnapshotRequest) {
  EXPECT_EQ(Hex(Encode(SaveSnapshotRequest{"/s/p.kspr"})),
            "09000000"           // length
            "2f732f702e6b737072");
}

TEST(GoldenBytesTest, SaveSnapshotResponse) {
  SaveSnapshotResponse m;
  m.ok = false;
  m.error = "full";
  EXPECT_EQ(Hex(Encode(m)),
            "00"                 // ok
            "04000000"           // length
            "66756c6c");
}

TEST(GoldenBytesTest, ErrorBody) {
  EXPECT_EQ(Hex(Encode(ErrorBody{"boom"})), "04000000626f6f6d");
}

TEST(RoundTripTest, CandidateRequest) {
  for (int k : {0, 1, 7, 1 << 20}) {
    const std::vector<uint8_t> bytes = Encode(CandidateRequest{k});
    EXPECT_EQ(Decode<CandidateRequest>(bytes.data(), bytes.size()).k, k);
  }
}

TEST(RoundTripTest, CandidateResponseProperty) {
  Rng rng(7);
  for (int iter = 0; iter < 50; ++iter) {
    CandidateResponse msg;
    msg.shard_version = rng.Next();
    msg.from_cache = rng.UniformInt(2) == 1;
    msg.candidates = RandomCandidates(rng, 1 + iter % kMaxDim, 20);
    const std::vector<uint8_t> bytes = Encode(msg);
    const CandidateResponse got =
        Decode<CandidateResponse>(bytes.data(), bytes.size());
    EXPECT_EQ(got.shard_version, msg.shard_version);
    EXPECT_EQ(got.from_cache, msg.from_cache);
    ASSERT_EQ(got.candidates.size(), msg.candidates.size());
    for (size_t i = 0; i < got.candidates.size(); ++i) {
      EXPECT_TRUE(BitwiseEqual(got.candidates[i], msg.candidates[i]));
    }
  }
}

TEST(RoundTripTest, SpecialDoublesSurviveBitwise) {
  CandidateResponse msg;
  Candidate c;
  c.global_id = 3;
  c.value = Vec(4);
  c.value.v[0] = -0.0;
  c.value.v[1] = std::numeric_limits<double>::denorm_min();
  c.value.v[2] = std::numeric_limits<double>::infinity();
  c.value.v[3] = std::nan("");
  msg.candidates.push_back(c);
  const std::vector<uint8_t> bytes = Encode(msg);
  const CandidateResponse got =
      Decode<CandidateResponse>(bytes.data(), bytes.size());
  ASSERT_EQ(got.candidates.size(), 1u);
  // memcmp, not ==: NaN payloads and signed zero must survive exactly.
  EXPECT_TRUE(BitwiseEqual(got.candidates[0].value, c.value));
}

TEST(RoundTripTest, ShardUpdateRequestProperty) {
  Rng rng(13);
  for (int iter = 0; iter < 50; ++iter) {
    ShardUpdateRequest msg;
    msg.batch_seq = rng.Next();
    const int dim = 1 + static_cast<int>(rng.UniformInt(kMaxDim));
    const size_t inserts = rng.UniformInt(10);
    for (size_t i = 0; i < inserts; ++i) {
      msg.inserts.push_back(
          {static_cast<RecordId>(rng.UniformInt(1 << 20)),
           RandomVec(rng, dim)});
    }
    const size_t deletes = rng.UniformInt(10);
    for (size_t i = 0; i < deletes; ++i) {
      msg.delete_global_ids.push_back(
          static_cast<RecordId>(rng.UniformInt(1 << 20)));
    }
    const size_t ks = rng.UniformInt(5);
    for (size_t i = 0; i < ks; ++i) {
      msg.skyband_ks.push_back(1 + static_cast<int>(rng.UniformInt(16)));
    }
    const std::vector<uint8_t> bytes = Encode(msg);
    const ShardUpdateRequest got =
        Decode<ShardUpdateRequest>(bytes.data(), bytes.size());
    EXPECT_EQ(got.batch_seq, msg.batch_seq);
    ASSERT_EQ(got.inserts.size(), msg.inserts.size());
    for (size_t i = 0; i < got.inserts.size(); ++i) {
      EXPECT_EQ(got.inserts[i].global_id, msg.inserts[i].global_id);
      EXPECT_TRUE(BitwiseEqual(got.inserts[i].value, msg.inserts[i].value));
    }
    EXPECT_EQ(got.delete_global_ids, msg.delete_global_ids);
    EXPECT_EQ(got.skyband_ks, msg.skyband_ks);
  }
}

TEST(RoundTripTest, ShardUpdateResponseProperty) {
  Rng rng(17);
  for (int iter = 0; iter < 50; ++iter) {
    ShardUpdateResponse msg;
    msg.shard_version = rng.Next();
    msg.inserts_applied = rng.UniformInt(100);
    msg.deletes_applied = rng.UniformInt(100);
    const size_t changes = rng.UniformInt(4);
    for (size_t i = 0; i < changes; ++i) {
      SkybandChange change;
      change.k = 1 + static_cast<int>(rng.UniformInt(16));
      change.changed = RandomCandidates(rng, 3, 6);
      msg.skyband_changes.push_back(std::move(change));
    }
    const std::vector<uint8_t> bytes = Encode(msg);
    const ShardUpdateResponse got =
        Decode<ShardUpdateResponse>(bytes.data(), bytes.size());
    EXPECT_EQ(got.shard_version, msg.shard_version);
    EXPECT_EQ(got.inserts_applied, msg.inserts_applied);
    EXPECT_EQ(got.deletes_applied, msg.deletes_applied);
    ASSERT_EQ(got.skyband_changes.size(), msg.skyband_changes.size());
    for (size_t i = 0; i < got.skyband_changes.size(); ++i) {
      EXPECT_EQ(got.skyband_changes[i].k, msg.skyband_changes[i].k);
      ASSERT_EQ(got.skyband_changes[i].changed.size(),
                msg.skyband_changes[i].changed.size());
      for (size_t j = 0; j < got.skyband_changes[i].changed.size(); ++j) {
        EXPECT_TRUE(BitwiseEqual(got.skyband_changes[i].changed[j],
                                 msg.skyband_changes[i].changed[j]));
      }
    }
  }
}

TEST(RoundTripTest, GetRecordAndResponse) {
  const std::vector<uint8_t> req = Encode(GetRecordRequest{12345});
  EXPECT_EQ(Decode<GetRecordRequest>(req.data(), req.size()).global_id, 12345);

  Rng rng(23);
  for (int iter = 0; iter < 20; ++iter) {
    RecordResponse msg;
    msg.known = rng.UniformInt(2) == 1;
    msg.live = msg.known && rng.UniformInt(2) == 1;
    msg.value = RandomVec(rng, 1 + iter % kMaxDim);
    const std::vector<uint8_t> bytes = Encode(msg);
    const RecordResponse got = Decode<RecordResponse>(bytes.data(), bytes.size());
    EXPECT_EQ(got.known, msg.known);
    EXPECT_EQ(got.live, msg.live);
    EXPECT_TRUE(BitwiseEqual(got.value, msg.value));
  }
}

TEST(RoundTripTest, InfoPair) {
  const std::vector<uint8_t> req = Encode(InfoRequest{});
  EXPECT_TRUE(req.empty());
  Decode<InfoRequest>(req.data(), req.size());  // no throw

  ShardInfo msg;
  msg.shard_version = 99;
  msg.records_total = 1000;
  msg.records_live = 900;
  const std::vector<uint8_t> bytes = Encode(msg);
  const ShardInfo got = Decode<ShardInfo>(bytes.data(), bytes.size());
  EXPECT_EQ(got.shard_version, msg.shard_version);
  EXPECT_EQ(got.records_total, msg.records_total);
  EXPECT_EQ(got.records_live, msg.records_live);
  EXPECT_TRUE(got.reachable);  // client-side field, defaults true
}

TEST(RoundTripTest, SaveSnapshotPairAndError) {
  const std::string path = "/tmp/some/snapshot.file";
  const std::vector<uint8_t> req = Encode(SaveSnapshotRequest{path});
  EXPECT_EQ(Decode<SaveSnapshotRequest>(req.data(), req.size()).path, path);

  SaveSnapshotResponse resp;
  resp.ok = false;
  resp.error = "disk full";
  const std::vector<uint8_t> bytes = Encode(resp);
  const SaveSnapshotResponse got =
      Decode<SaveSnapshotResponse>(bytes.data(), bytes.size());
  EXPECT_EQ(got.ok, resp.ok);
  EXPECT_EQ(got.error, resp.error);

  ErrorBody err{"worker exploded"};
  const std::vector<uint8_t> err_bytes = Encode(err);
  EXPECT_EQ(Decode<ErrorBody>(err_bytes.data(), err_bytes.size()).message,
            err.message);
}

TEST(RejectionTest, AbsurdCountsThrow) {
  // A count prefix promising more elements than the payload could hold is
  // rejected before any allocation.
  WireWriter w;
  w.U64(1);            // shard_version
  w.U8(0);             // from_cache
  w.U32(0xFFFFFFFFu);  // candidate count
  const std::vector<uint8_t> bytes = w.bytes();
  EXPECT_THROW(Decode<CandidateResponse>(bytes.data(), bytes.size()), WireError);
}

TEST(RejectionTest, BadVecDimThrows) {
  WireWriter w;
  w.U8(0);              // known
  w.U8(0);              // live
  w.U8(kMaxDim + 1);    // dim out of range
  const std::vector<uint8_t> bytes = w.bytes();
  EXPECT_THROW(Decode<RecordResponse>(bytes.data(), bytes.size()), WireError);
}

// ---------------------------------------------------------------------------
// Every decoder of the message table, under truncation, padding and byte
// flips. The typed suite runs over the table's payload structs; a table
// row whose payload has no Sample below does not compile.
// ---------------------------------------------------------------------------

// Filled-in instances: every repeated section non-empty, so truncation and
// flips reach each nested count, id, dim and double.
CandidateRequest Sample(std::type_identity<CandidateRequest>) { return {7}; }
CandidateResponse Sample(std::type_identity<CandidateResponse>) {
  Rng rng(29);
  CandidateResponse m;
  m.shard_version = 5;
  m.from_cache = true;
  m.candidates = {{1, RandomVec(rng, 5)}, {2, RandomVec(rng, 2)}};
  return m;
}
ShardUpdateRequest Sample(std::type_identity<ShardUpdateRequest>) {
  Rng rng(31);
  ShardUpdateRequest m;
  m.batch_seq = 9;
  for (RecordId i = 0; i < 4; ++i) m.inserts.push_back({i, RandomVec(rng, 3)});
  m.delete_global_ids = {7, 8};
  m.skyband_ks = {1, 2, 4};
  return m;
}
ShardUpdateResponse Sample(std::type_identity<ShardUpdateResponse>) {
  Rng rng(37);
  ShardUpdateResponse m;
  m.shard_version = 5;
  m.inserts_applied = 4;
  m.deletes_applied = 1;
  m.skyband_changes = {{2, {{3, RandomVec(rng, 5)}, {4, RandomVec(rng, 5)}}},
                       {3, {{6, RandomVec(rng, 5)}}}};
  return m;
}
GetRecordRequest Sample(std::type_identity<GetRecordRequest>) {
  return {12345};
}
RecordResponse Sample(std::type_identity<RecordResponse>) {
  return {true, true, Vec{0.25, -0.0, 3.5, 1e-300}};
}
InfoRequest Sample(std::type_identity<InfoRequest>) { return {}; }
ShardInfo Sample(std::type_identity<ShardInfo>) {
  ShardInfo m;
  m.shard_version = 99;
  m.records_total = 1000;
  m.records_live = 900;
  return m;
}
SaveSnapshotRequest Sample(std::type_identity<SaveSnapshotRequest>) {
  return {"/tmp/some/snapshot.file"};
}
SaveSnapshotResponse Sample(std::type_identity<SaveSnapshotResponse>) {
  return {false, "disk full"};
}
ErrorBody Sample(std::type_identity<ErrorBody>) { return {"worker exploded"}; }

// ::testing::Types over the payload column of KSPR_WIRE_MESSAGES (the
// leading `void` absorbs the table's first comma).
template <class Void, class... Payloads>
struct TypesAfter {
  using type = ::testing::Types<Payloads...>;
};
#define KSPR_TEST_PAYLOAD(name, code, text, Payload) , Payload
using TablePayloads =
    TypesAfter<void KSPR_WIRE_MESSAGES(KSPR_TEST_PAYLOAD)>::type;
#undef KSPR_TEST_PAYLOAD

template <class M>
class PayloadRejectionTest : public ::testing::Test {
 protected:
  static std::vector<uint8_t> SampleBytes() {
    return Encode(Sample(std::type_identity<M>{}));
  }
};
TYPED_TEST_SUITE(PayloadRejectionTest, TablePayloads);

// Truncation at EVERY prefix length must throw, never read out of bounds
// or half-succeed.
TYPED_TEST(PayloadRejectionTest, EveryTruncationThrows) {
  const std::vector<uint8_t> bytes = TestFixture::SampleBytes();
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(Decode<TypeParam>(bytes.data(), len), WireError)
        << "prefix of " << len << " bytes decoded";
  }
}

TYPED_TEST(PayloadRejectionTest, TrailingByteThrows) {
  std::vector<uint8_t> bytes = TestFixture::SampleBytes();
  bytes.push_back(0);
  EXPECT_THROW(Decode<TypeParam>(bytes.data(), bytes.size()), WireError);
}

// Fuzz-style: flip every byte three ways and decode. A flip may throw
// WireError or yield a different valid message — nothing else (ASan
// checks that decode never reads out of bounds). A message that decodes
// consumed the payload exactly, so it re-encodes to the same length.
TYPED_TEST(PayloadRejectionTest, SeededByteFlipFuzz) {
  const std::vector<uint8_t> bytes = TestFixture::SampleBytes();
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
      std::vector<uint8_t> fuzzed = bytes;
      fuzzed[i] ^= flip;
      try {
        const TypeParam decoded =
            Decode<TypeParam>(fuzzed.data(), fuzzed.size());
        EXPECT_EQ(Encode(decoded).size(), fuzzed.size())
            << "flip " << int{flip} << " at byte " << i;
      } catch (const WireError&) {
      }
    }
  }
}

TEST(FaultScheduleTest, ParsesFullGrammar) {
  FaultSchedule schedule;
  std::string error;
  ASSERT_TRUE(FaultSchedule::Parse(
      "drop@7,delay@3:10,dup@11,corrupt@5#0,disconnect@13", &schedule, &error))
      << error;
  ASSERT_EQ(schedule.rules().size(), 5u);
  EXPECT_EQ(schedule.rules()[0].kind, FaultKind::kDrop);
  EXPECT_EQ(schedule.rules()[0].period, 7u);
  EXPECT_EQ(schedule.rules()[0].shard, -1);
  EXPECT_EQ(schedule.rules()[1].kind, FaultKind::kDelay);
  EXPECT_EQ(schedule.rules()[1].delay_ms, 10);
  EXPECT_EQ(schedule.rules()[3].kind, FaultKind::kCorrupt);
  EXPECT_EQ(schedule.rules()[3].shard, 0);

  // Empty spec = empty schedule.
  ASSERT_TRUE(FaultSchedule::Parse("", &schedule, &error));
  EXPECT_TRUE(schedule.empty());
}

TEST(FaultScheduleTest, RejectsMalformedSpecs) {
  FaultSchedule schedule;
  std::string error;
  for (const char* bad :
       {"drop", "drop@", "drop@0", "nuke@3", "drop@3:5", "delay@3:999999",
        "drop@x", "drop@3#abc", ",", "drop@3,,dup@2"}) {
    EXPECT_FALSE(FaultSchedule::Parse(bad, &schedule, &error)) << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(FaultScheduleTest, DeterministicPeriodicFiring) {
  FaultSchedule schedule;
  std::string error;
  ASSERT_TRUE(FaultSchedule::Parse("drop@3", &schedule, &error));
  std::vector<FaultKind> fired;
  for (int i = 0; i < 9; ++i) fired.push_back(schedule.Next(0).kind);
  const std::vector<FaultKind> expected = {
      FaultKind::kNone, FaultKind::kNone, FaultKind::kDrop,
      FaultKind::kNone, FaultKind::kNone, FaultKind::kDrop,
      FaultKind::kNone, FaultKind::kNone, FaultKind::kDrop};
  EXPECT_EQ(fired, expected);
  // Per-shard counters are independent: shard 1 starts fresh.
  EXPECT_EQ(schedule.Next(1).kind, FaultKind::kNone);
}

TEST(FaultScheduleTest, ShardScopedRuleOnlyFiresThere) {
  FaultSchedule schedule;
  std::string error;
  ASSERT_TRUE(FaultSchedule::Parse("corrupt@2#1", &schedule, &error));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(schedule.Next(0).kind, FaultKind::kNone);
  }
  EXPECT_EQ(schedule.Next(1).kind, FaultKind::kNone);
  EXPECT_EQ(schedule.Next(1).kind, FaultKind::kCorrupt);
}

// Regression: Parse used to install rules/counters into `out` without the
// schedule's mutex, so a Next() racing an in-place re-parse could observe
// rules and counters mid-swap. Parse now installs under the lock; this
// hammers the pair under TSan and checks only sane actions come out.
TEST(FaultScheduleTest, ReparseInPlaceRacesNext) {
  FaultSchedule schedule;
  std::string error;
  ASSERT_TRUE(FaultSchedule::Parse("drop@3,delay@5:2", &schedule, &error));

  std::atomic<bool> stop{false};
  std::atomic<bool> bad_action{false};
  std::thread consumer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const FaultAction action = schedule.Next(0);
      switch (action.kind) {
        case FaultKind::kNone:
        case FaultKind::kDrop:
        case FaultKind::kDelay:
        case FaultKind::kDuplicate:
        case FaultKind::kCorrupt:
        case FaultKind::kDisconnect:
          break;
        default:
          bad_action.store(true);
      }
    }
  });

  const char* specs[] = {"dup@2", "corrupt@4#0", "drop@3,delay@5:2",
                         "disconnect@7"};
  for (int round = 0; round < 200; ++round) {
    ASSERT_TRUE(FaultSchedule::Parse(specs[round % 4], &schedule, &error))
        << error;
  }
  stop.store(true);
  consumer.join();
  EXPECT_FALSE(bad_action.load());

  // The last installed spec is fully in force: counters restarted, so the
  // deterministic firing pattern starts from zero.
  ASSERT_TRUE(FaultSchedule::Parse("drop@3", &schedule, &error));
  EXPECT_EQ(schedule.Next(0).kind, FaultKind::kNone);
  EXPECT_EQ(schedule.Next(0).kind, FaultKind::kNone);
  EXPECT_EQ(schedule.Next(0).kind, FaultKind::kDrop);
}

}  // namespace
}  // namespace net
}  // namespace kspr
