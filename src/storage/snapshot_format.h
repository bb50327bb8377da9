// On-disk snapshot format shared by SnapshotWriter and SnapshotReader.
//
// A snapshot serialises one (Dataset, RTree) pair into fixed-size pages of
// DiskModel::kPageSize bytes. Every page reserves its last 8 bytes for a
// checksum of the preceding payload (FNV-1a-64 over 64-bit lanes, see
// PageChecksum), so torn writes and bit rot are detected per page —
// lazily for node pages (at first buffer-pool fault), eagerly for
// everything else (at Open).
//
// Page layout (page ids are file offsets / kPageSize):
//
//   page 0                     header (see field list in EncodeHeader)
//   pages 1 .. D               dataset stream: n*d doubles (row major),
//                              then n live bytes, packed across payloads
//   pages 1+D .. 1+D+L-1       directory stream, the per-slot node
//                              directory: one u8 tree level per node slot
//                              (kRetiredLevel for retired slots), then
//                              one entry summary per LIVE slot in slot
//                              order (i32 count, f64 mbr_lo[dim],
//                              f64 mbr_hi[dim]), then the free list as
//                              i32s
//   pages 1+D+L + slot         one page per R-tree node slot, live and
//                              retired alike, so slot id -> page id is a
//                              constant offset. These are the pages the
//                              buffer pool faults on demand.
//
// The entry summaries duplicate each live node page's count and MBR. Open
// reads them with the rest of the directory and the hollow R-tree keeps
// them resident, so a query decides a child from its box without
// faulting the child's page; a fault checks the decoded page against its
// summary bit for bit. At d = 8 a summary is 132 bytes, so the directory
// costs about one page per 31 node pages.
//
// All integers are little-endian regardless of host byte order; doubles
// are serialised as the little-endian bytes of their IEEE-754 bit
// pattern. The header stores an endianness marker so a big-endian writer
// bug (or a corrupted header) is caught instead of yielding garbage
// coordinates.
//
// Node page payload:
//   u8 leaf, u8 retired, u16 pad, i32 count, i32 parent, i32 num_items,
//   f64 mbr_lo[dim], f64 mbr_hi[dim], i32 items[num_items]
// which for the library's caps (dim <= 8, fanout <= 64 + one split slack)
// fits a 4 KB page with room to spare; the writer re-checks per node.

#ifndef KSPR_STORAGE_SNAPSHOT_FORMAT_H_
#define KSPR_STORAGE_SNAPSHOT_FORMAT_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/disk_model.h"

namespace kspr {

/// Any malformed-snapshot condition: bad magic, version or endianness,
/// truncated file, checksum mismatch, out-of-range ids, a node page that
/// disagrees with its directory summary, or a node that does not fit a
/// page. The buffer pool also throws this from a lazy node fault on
/// corruption.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what)
      : std::runtime_error(what) {}
};

namespace snapshot {

inline constexpr char kMagic[8] = {'K', 'S', 'P', 'R', 'S', 'N', 'A', 'P'};
inline constexpr uint32_t kFormatVersion = 2;
inline constexpr uint32_t kEndianMarker = 0x01020304u;
inline constexpr int kPageSize = DiskModel::kPageSize;
inline constexpr int kChecksumBytes = 8;
inline constexpr int kPayloadBytes = kPageSize - kChecksumBytes;
/// Directory level value for retired node slots. PageTracker clamps
/// levels to its last partition, so retired-then-recycled slots fall into
/// the leaf partition like every other out-of-directory page.
inline constexpr uint8_t kRetiredLevel = 0xFF;

/// Page checksum: four interleaved FNV-1a-64 streams over little-endian
/// 64-bit lanes (lane i feeds stream i mod 4), folded together at the
/// end. The classic byte-serial FNV is one dependent multiply per byte;
/// Open verifies ~20 pages eagerly on the cold-start path, and the
/// 4-stream lane variant is ~30x faster there (8 bytes per multiply, 4
/// independent dependency chains) while still catching any single-page
/// corruption. kPayloadBytes is a multiple of 32, but byte and lane tails
/// are handled for generality.
inline uint64_t PageChecksum(const uint8_t* p, size_t n) {
  constexpr uint64_t kBasis = 1469598103934665603ull;
  constexpr uint64_t kPrime = 1099511628211ull;
  auto lane = [](const uint8_t* q) {
    uint64_t v;
    if constexpr (std::endian::native == std::endian::little) {
      __builtin_memcpy(&v, q, 8);
    } else {
      v = 0;
      for (int b = 0; b < 8; ++b) v |= static_cast<uint64_t>(q[b]) << (8 * b);
    }
    return v;
  };
  uint64_t h0 = kBasis, h1 = kBasis + 1, h2 = kBasis + 2, h3 = kBasis + 3;
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    h0 = (h0 ^ lane(p + i)) * kPrime;
    h1 = (h1 ^ lane(p + i + 8)) * kPrime;
    h2 = (h2 ^ lane(p + i + 16)) * kPrime;
    h3 = (h3 ^ lane(p + i + 24)) * kPrime;
  }
  for (; i + 8 <= n; i += 8) h0 = (h0 ^ lane(p + i)) * kPrime;
  for (; i < n; ++i) h0 = (h0 ^ p[i]) * kPrime;
  uint64_t h = h0;
  h = (h ^ h1) * kPrime;
  h = (h ^ h2) * kPrime;
  h = (h ^ h3) * kPrime;
  return h;
}

/// True iff `page`'s trailing checksum matches its payload. The hot-loop
/// form of VerifyPage: no error-string construction per page.
inline bool PageOk(const uint8_t* page) {
  uint64_t stored = 0;
  for (int b = 0; b < 8; ++b) {
    stored |= static_cast<uint64_t>(page[kPayloadBytes + b]) << (8 * b);
  }
  return PageChecksum(page, kPayloadBytes) == stored;
}

/// Sequential little-endian encoder over a caller-owned byte buffer.
/// Appends; the page splitter pads the tail.
class Encoder {
 public:
  explicit Encoder(std::vector<uint8_t>* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(v); }
  void U16(uint16_t v) {
    out_->push_back(static_cast<uint8_t>(v));
    out_->push_back(static_cast<uint8_t>(v >> 8));
  }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      out_->push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }

 private:
  std::vector<uint8_t>* out_;
};

/// Sequential little-endian decoder over a byte range. Throws
/// SnapshotError on overrun (truncated stream).
class Decoder {
 public:
  Decoder(const uint8_t* p, size_t n) : p_(p), end_(p + n) {}

  uint8_t U8() {
    Need(1);
    return *p_++;
  }
  uint16_t U16() {
    Need(2);
    uint16_t v = static_cast<uint16_t>(p_[0] | (p_[1] << 8));
    p_ += 2;
    return v;
  }
  uint32_t U32() {
    Need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p_[i]) << (8 * i);
    p_ += 4;
    return v;
  }
  uint64_t U64() {
    Need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p_[i]) << (8 * i);
    p_ += 8;
    return v;
  }
  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64() { return std::bit_cast<double>(U64()); }

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }

 private:
  void Need(size_t n) const {
    if (static_cast<size_t>(end_ - p_) < n) {
      throw SnapshotError("snapshot: truncated stream");
    }
  }
  const uint8_t* p_;
  const uint8_t* end_;
};

/// Decoded header (page 0). Field order here IS the serialised order.
struct Header {
  uint32_t format_version = kFormatVersion;
  uint32_t page_size = kPageSize;
  uint32_t dim = 0;
  int64_t num_records = 0;  // dataset rows incl. tombstones
  int64_t num_live = 0;
  uint64_t dataset_version = 0;
  int32_t root = -1;
  int32_t height = 0;
  int32_t leaf_capacity = 0;
  int32_t fanout = 0;
  int64_t num_slots = 0;   // node slots, live + retired
  int64_t live_nodes = 0;
  int32_t num_levels = 0;  // == height; directory levels are 0..num_levels-1
  int64_t dataset_pages = 0;
  int64_t directory_pages = 0;
  int64_t free_list_len = 0;
  int64_t total_pages = 0;

  int64_t first_directory_page() const { return 1 + dataset_pages; }
  int64_t first_node_page() const {
    return first_directory_page() + directory_pages;
  }
  int64_t PageOfSlot(int64_t slot) const { return first_node_page() + slot; }
};

/// Pages (rounded up) needed for a `bytes`-long packed stream.
inline int64_t PagesFor(int64_t bytes) {
  return (bytes + kPayloadBytes - 1) / kPayloadBytes;
}

/// Seals a page in place: pads `page` (which holds < kPayloadBytes of
/// payload) to kPageSize with the checksum in the trailing 8 bytes.
inline void SealPage(std::vector<uint8_t>* page) {
  page->resize(kPayloadBytes, 0);
  const uint64_t sum = PageChecksum(page->data(), kPayloadBytes);
  Encoder enc(page);
  enc.U64(sum);
}

/// Verifies a sealed 4 KB page; `what` names the page in the error.
inline void VerifyPage(const uint8_t* page, const std::string& what) {
  if (!PageOk(page)) {
    throw SnapshotError("snapshot: checksum mismatch in " + what);
  }
}

}  // namespace snapshot
}  // namespace kspr

#endif  // KSPR_STORAGE_SNAPSHOT_FORMAT_H_
