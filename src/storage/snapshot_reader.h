// Read side of the paged snapshot format.
//
// Opening a snapshot validates the header, the file length against the
// header's page count (truncation check), and the dataset + directory
// pages eagerly — those sections are needed up front anyway, and the
// directory carries every live slot's entry summary (count + MBR) for the
// hollow R-tree. Node pages are NOT touched at open: they are fetched one
// `pread` at a time as the buffer pool faults on them, each verified at
// that moment (or all eagerly with Options::verify_all) against its
// per-page checksum, the id ranges, and its directory summary.
//
// Thread safety: ReadNode is safe from many concurrent threads — pread is
// positionally atomic and the reader state is immutable after open.

#ifndef KSPR_STORAGE_SNAPSHOT_READER_H_
#define KSPR_STORAGE_SNAPSHOT_READER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "index/rtree.h"
#include "storage/snapshot_format.h"

namespace kspr {

class SnapshotReader {
 public:
  struct Options {
    /// Verify every node page at open (O(file) open instead of O(header),
    /// but a corrupt node page fails fast instead of at first fault).
    bool verify_all = false;
  };

  /// Opens and validates `path`. Throws SnapshotError for a malformed
  /// snapshot and std::runtime_error for I/O failures.
  explicit SnapshotReader(const std::string& path);
  SnapshotReader(const std::string& path, Options options);
  ~SnapshotReader();

  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  const snapshot::Header& header() const { return header_; }
  const std::string& path() const { return path_; }

  /// Rebuilds the Dataset from the (already verified) dataset pages:
  /// every row — tombstones included, ids preserved — then the tombstone
  /// flags. The restored version() counts the replayed mutations, not the
  /// saved stamp (which header().dataset_version preserves); cache keys
  /// only need monotonicity within one engine lifetime.
  Dataset RestoreDataset() const;

  /// Per-slot tree levels (snapshot::kRetiredLevel for retired slots).
  const std::vector<uint8_t>& levels() const { return levels_; }

  /// Per-slot entry summaries from the directory (default-constructed
  /// for retired slots): what RTree::FromStorage keeps resident.
  const std::vector<RTree::EntrySummary>& summaries() const {
    return summaries_;
  }

  /// Retired slots in saved (LIFO reuse) order.
  const std::vector<int32_t>& free_list() const { return free_list_; }

  /// Fetches and decodes node `slot` (one pread), verifying
  /// the page checksum, that every item names a record (leaf) or a live
  /// slot (internal) in range, and that a live node's count and MBR equal
  /// its directory summary bit for bit. Throws SnapshotError on any
  /// mismatch, corruption or out-of-range slot. `out` is fully
  /// overwritten.
  void ReadNode(int slot, RTree::Node* out) const;

  /// Bytes fetched by ReadNode so far (excludes the eager open reads).
  int64_t node_bytes_read() const;

 private:
  /// ReadNode's checks and decode over an already-fetched page.
  void DecodeNode(int slot, const uint8_t* page, RTree::Node* out) const;
  void ReadPages(int64_t first_page, int64_t count, uint8_t* out) const;
  void FetchRawPage(int64_t page_id, uint8_t* out) const;

  std::string path_;
  Options options_;
  int fd_ = -1;
  snapshot::Header header_;
  std::vector<uint8_t> dataset_stream_;
  std::vector<uint8_t> levels_;
  std::vector<RTree::EntrySummary> summaries_;
  std::vector<int32_t> free_list_;
  mutable std::atomic<int64_t> node_bytes_read_{0};
};

}  // namespace kspr

#endif  // KSPR_STORAGE_SNAPSHOT_READER_H_
