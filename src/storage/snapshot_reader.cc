#include "storage/snapshot_reader.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>

namespace kspr {

using snapshot::Decoder;
using snapshot::Header;
using snapshot::kChecksumBytes;
using snapshot::kPageSize;
using snapshot::kPayloadBytes;

namespace {

Header DecodeHeader(const uint8_t* payload, const std::string& path) {
  if (std::memcmp(payload, snapshot::kMagic, 8) != 0) {
    throw SnapshotError(path + ": not a kSPR snapshot (bad magic)");
  }
  Decoder dec(payload + 8, kPayloadBytes - 8);
  Header h;
  h.format_version = dec.U32();
  if (h.format_version != snapshot::kFormatVersion) {
    throw SnapshotError(path + ": unsupported snapshot format version " +
                        std::to_string(h.format_version));
  }
  const uint32_t endian = dec.U32();
  if (endian != snapshot::kEndianMarker) {
    throw SnapshotError(path + ": endianness marker mismatch");
  }
  h.page_size = dec.U32();
  if (h.page_size != static_cast<uint32_t>(kPageSize)) {
    throw SnapshotError(path + ": page size " + std::to_string(h.page_size) +
                        " != " + std::to_string(kPageSize));
  }
  h.dim = dec.U32();
  h.num_records = dec.I64();
  h.num_live = dec.I64();
  h.dataset_version = dec.U64();
  h.root = dec.I32();
  h.height = dec.I32();
  h.leaf_capacity = dec.I32();
  h.fanout = dec.I32();
  h.num_slots = dec.I64();
  h.live_nodes = dec.I64();
  h.num_levels = dec.I32();
  h.dataset_pages = dec.I64();
  h.directory_pages = dec.I64();
  h.free_list_len = dec.I64();
  h.total_pages = dec.I64();
  if (h.dim < 1 || h.dim > static_cast<uint32_t>(kMaxDim) ||
      h.num_records < 0 || h.num_slots < 0 || h.free_list_len < 0 ||
      h.total_pages !=
          1 + h.dataset_pages + h.directory_pages + h.num_slots) {
    throw SnapshotError(path + ": inconsistent header");
  }
  // Queries read nodes_[root] before faulting any page, so the root must
  // name a slot: -1 exactly when the tree has no live node. (Open checks
  // that the slot is not retired once the directory is decoded.)
  if ((h.root == -1) != (h.live_nodes == 0) ||
      (h.root != -1 && (h.root < 0 || h.root >= h.num_slots))) {
    throw SnapshotError(path + ": root slot " + std::to_string(h.root) +
                        " out of range");
  }
  return h;
}

/// Bitwise equality of a decoded node's count and MBR with its summary.
bool MatchesSummary(const RTree::Node& node, const RTree::EntrySummary& s,
                    int dim) {
  if (node.count != s.count) return false;
  for (int i = 0; i < dim; ++i) {
    if (std::bit_cast<uint64_t>(node.mbr.lo.v[i]) !=
            std::bit_cast<uint64_t>(s.mbr.lo.v[i]) ||
        std::bit_cast<uint64_t>(node.mbr.hi.v[i]) !=
            std::bit_cast<uint64_t>(s.mbr.hi.v[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

SnapshotReader::SnapshotReader(const std::string& path)
    : SnapshotReader(path, Options()) {}

SnapshotReader::SnapshotReader(const std::string& path, Options options)
    : path_(path), options_(options) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) {
    throw std::runtime_error("snapshot: cannot open " + path + ": " +
                             std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("snapshot: fstat failed for " + path + ": " +
                             std::strerror(err));
  }

  try {
    if (st.st_size < kPageSize) {
      throw SnapshotError(path + ": too short for a snapshot header");
    }
    std::vector<uint8_t> page(kPageSize);
    ReadPages(0, 1, page.data());
    snapshot::VerifyPage(page.data(), "header of " + path);
    header_ = DecodeHeader(page.data(), path);
    if (st.st_size != header_.total_pages * kPageSize) {
      throw SnapshotError(
          path + ": truncated (" + std::to_string(st.st_size) +
          " bytes, header expects " +
          std::to_string(header_.total_pages * kPageSize) + ")");
    }

    // Dataset + directory pages are contiguous (pages 1 .. D+L): one
    // pread covers both, then each page verifies and unpacks into its
    // stream. This is the whole eager cost of Open.
    const int64_t meta_pages =
        header_.dataset_pages + header_.directory_pages;
    std::vector<uint8_t> pages(static_cast<size_t>(meta_pages) * kPageSize);
    ReadPages(1, meta_pages, pages.data());
    dataset_stream_.reserve(static_cast<size_t>(header_.dataset_pages) *
                            kPayloadBytes);
    for (int64_t p = 0; p < header_.dataset_pages; ++p) {
      const uint8_t* page_p = pages.data() + p * kPageSize;
      if (!snapshot::PageOk(page_p)) {
        throw SnapshotError("snapshot: checksum mismatch in dataset page " +
                            std::to_string(1 + p) + " of " + path);
      }
      dataset_stream_.insert(dataset_stream_.end(), page_p,
                             page_p + kPayloadBytes);
    }
    const size_t dataset_bytes =
        static_cast<size_t>(header_.num_records) * (header_.dim * 8 + 1);
    if (dataset_stream_.size() < dataset_bytes) {
      throw SnapshotError(path + ": dataset section shorter than header");
    }

    // Directory pages: per-slot levels, live-slot summaries, free list.
    std::vector<uint8_t> dir_stream;
    dir_stream.reserve(static_cast<size_t>(header_.directory_pages) *
                       kPayloadBytes);
    for (int64_t p = 0; p < header_.directory_pages; ++p) {
      const uint8_t* page_p =
          pages.data() + (header_.dataset_pages + p) * kPageSize;
      if (!snapshot::PageOk(page_p)) {
        throw SnapshotError(
            "snapshot: checksum mismatch in directory page " +
            std::to_string(header_.first_directory_page() + p) + " of " +
            path);
      }
      dir_stream.insert(dir_stream.end(), page_p, page_p + kPayloadBytes);
    }
    Decoder dec(dir_stream.data(), dir_stream.size());
    const int dim = static_cast<int>(header_.dim);
    levels_.resize(static_cast<size_t>(header_.num_slots));
    for (auto& l : levels_) l = dec.U8();
    summaries_.resize(static_cast<size_t>(header_.num_slots));
    int64_t retired_slots = 0;
    for (int64_t slot = 0; slot < header_.num_slots; ++slot) {
      if (levels_[slot] == snapshot::kRetiredLevel) {
        ++retired_slots;
        continue;
      }
      RTree::EntrySummary& s = summaries_[slot];
      s.count = dec.I32();
      if (s.count < 0) {
        throw SnapshotError(path + ": negative count for node slot " +
                            std::to_string(slot));
      }
      s.mbr.lo = Vec(dim);
      s.mbr.hi = Vec(dim);
      for (int i = 0; i < dim; ++i) s.mbr.lo.v[i] = dec.F64();
      for (int i = 0; i < dim; ++i) s.mbr.hi.v[i] = dec.F64();
    }
    // The free list names exactly the retired slots, each once: the tree
    // marks retired slots from it, ReadNode from the levels.
    if (retired_slots != header_.free_list_len ||
        header_.live_nodes != header_.num_slots - retired_slots) {
      throw SnapshotError(path + ": free list disagrees with the directory");
    }
    std::vector<char> listed(static_cast<size_t>(header_.num_slots), 0);
    free_list_.resize(static_cast<size_t>(header_.free_list_len));
    for (auto& s : free_list_) {
      s = dec.I32();
      if (s < 0 || s >= header_.num_slots) {
        throw SnapshotError(path + ": free-list entry out of range");
      }
      if (levels_[s] != snapshot::kRetiredLevel || listed[s]) {
        throw SnapshotError(path + ": free list disagrees with the directory");
      }
      listed[s] = 1;
    }
    if (header_.root >= 0 &&
        levels_[header_.root] == snapshot::kRetiredLevel) {
      throw SnapshotError(path + ": root slot " +
                          std::to_string(header_.root) + " is retired");
    }

    if (options_.verify_all) {
      std::vector<uint8_t> node_page(kPageSize);
      RTree::Node scratch;
      for (int64_t slot = 0; slot < header_.num_slots; ++slot) {
        ReadPages(header_.PageOfSlot(slot), 1, node_page.data());
        DecodeNode(static_cast<int>(slot), node_page.data(), &scratch);
      }
    }
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

SnapshotReader::~SnapshotReader() {
  if (fd_ >= 0) ::close(fd_);
}

void SnapshotReader::FetchRawPage(int64_t page_id, uint8_t* out) const {
  ReadPages(page_id, 1, out);
}

void SnapshotReader::ReadPages(int64_t first_page, int64_t count,
                               uint8_t* out) const {
  const int64_t off = first_page * kPageSize;
  const size_t len = static_cast<size_t>(count) * kPageSize;
  // One pread covers the whole contiguous range (Open reads the dataset
  // and directory sections in a single call each); the loop only handles
  // short reads and EINTR.
  size_t got = 0;
  while (got < len) {
    const ssize_t n =
        ::pread(fd_, out + got, len - got, off + static_cast<int64_t>(got));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("snapshot: pread failed for " + path_ + ": " +
                               std::strerror(errno));
    }
    if (n == 0) {
      throw SnapshotError(path_ + ": unexpected EOF at page " +
                          std::to_string(first_page));
    }
    got += static_cast<size_t>(n);
  }
}

Dataset SnapshotReader::RestoreDataset() const {
  const int dim = static_cast<int>(header_.dim);
  // The ctor verified the stream covers num_records rows + live bytes, so
  // rows decode through raw little-endian loads and the whole dataset is
  // adopted in one move (this is the cold-start hot loop; per-record Add
  // replay or the bounds-checking Decoder would triple it).
  const size_t num_records = static_cast<size_t>(header_.num_records);
  const size_t num_values = num_records * static_cast<size_t>(dim);
  std::vector<double> rows(num_values);
  const uint8_t* p = dataset_stream_.data();
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(rows.data(), p, num_values * 8);
    p += num_values * 8;
  } else {
    for (size_t i = 0; i < num_values; ++i, p += 8) {
      uint64_t bits = 0;
      for (int b = 0; b < 8; ++b) {
        bits |= static_cast<uint64_t>(p[b]) << (8 * b);
      }
      rows[i] = std::bit_cast<double>(bits);
    }
  }
  std::vector<uint8_t> live(p, p + num_records);
  Dataset data = Dataset::FromRows(dim, std::move(rows), std::move(live),
                                   header_.dataset_version);
  if (data.num_live() != header_.num_live) {
    throw SnapshotError(path_ + ": live-record count mismatch");
  }
  return data;
}

void SnapshotReader::ReadNode(int slot, RTree::Node* out) const {
  if (slot < 0 || slot >= header_.num_slots) {
    throw SnapshotError(path_ + ": node slot " + std::to_string(slot) +
                        " out of range");
  }
  alignas(8) uint8_t page[kPageSize];
  FetchRawPage(header_.PageOfSlot(slot), page);
  node_bytes_read_.fetch_add(kPageSize, std::memory_order_relaxed);
  DecodeNode(slot, page, out);
}

void SnapshotReader::DecodeNode(int slot, const uint8_t* page,
                                RTree::Node* out) const {
  if (!snapshot::PageOk(page)) {
    throw SnapshotError("snapshot: checksum mismatch in node page for slot " +
                        std::to_string(slot) + " of " + path_);
  }

  Decoder dec(page, kPayloadBytes);
  const int dim = static_cast<int>(header_.dim);
  out->leaf = dec.U8() != 0;
  out->retired = dec.U8() != 0;
  dec.U16();  // pad
  out->count = dec.I32();
  out->parent = dec.I32();
  const int32_t num_items = dec.I32();
  if (num_items < 0 ||
      num_items > std::max(header_.leaf_capacity, header_.fanout) + 1) {
    throw SnapshotError(path_ + ": node slot " + std::to_string(slot) +
                        " has implausible item count");
  }
  out->mbr.lo = Vec(dim);
  out->mbr.hi = Vec(dim);
  for (int i = 0; i < dim; ++i) out->mbr.lo.v[i] = dec.F64();
  for (int i = 0; i < dim; ++i) out->mbr.hi.v[i] = dec.F64();
  out->items.assign(static_cast<size_t>(num_items), 0);
  for (int32_t& item : out->items) item = dec.I32();

  // Callers index Dataset rows and node slots with these ids and decide
  // children from the resident summaries, so a page that passes its
  // checksum must still agree with the directory.
  const bool retired = levels_[slot] == snapshot::kRetiredLevel;
  if (out->retired != retired) {
    throw SnapshotError(path_ + ": node slot " + std::to_string(slot) +
                        " retired flag disagrees with the directory");
  }
  for (int32_t item : out->items) {
    const bool ok =
        out->leaf ? item >= 0 && item < header_.num_records
                  : item >= 0 && item < header_.num_slots &&
                        levels_[item] != snapshot::kRetiredLevel;
    if (!ok) {
      throw SnapshotError(path_ + ": node slot " + std::to_string(slot) +
                          " names invalid " +
                          (out->leaf ? "record " : "child slot ") +
                          std::to_string(item));
    }
  }
  if (!retired && !MatchesSummary(*out, summaries_[slot], dim)) {
    throw SnapshotError(path_ + ": node slot " + std::to_string(slot) +
                        " disagrees with its directory summary");
  }
}

int64_t SnapshotReader::node_bytes_read() const {
  return node_bytes_read_.load(std::memory_order_relaxed);
}

}  // namespace kspr
