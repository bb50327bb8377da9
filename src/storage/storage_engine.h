// Disk-backed serving: snapshot file + buffer pool + hollow R-tree.
//
// StorageEngine::Save persists a (Dataset, RTree) pair; Open brings one
// back in O(header + dataset + node directory) time — node pages stay on
// disk and are paged in through a real BufferPool as queries open them
// (every node's MBR and count come with the directory and stay resident
// in the hollow tree), so opening a saved snapshot costs a small constant
// instead of an O(n log n) rebuild.
// The opened dataset/tree plug straight into QueryEngine (which has a
// StorageEngine* constructor): query results — regions AND stats — are
// bitwise-identical to an in-memory engine over the same data, because
// the pool decodes the exact doubles the writer serialised and the solver
// never reads pool counters.
//
// Buffer sizing follows the per-level store idiom (HaliteClustering's
// stCountingTree keeps one store per tree level): every descent crosses
// the shallow levels, so with per_level_sizing the root-side levels get
// enough frames to pin themselves (up to the budget) and the leaf level
// gets the remainder. The flat single-LRU mode matches the historical
// simulator default.
//
// Updates: nothing can mutate a hollow tree page-by-page.
// PrepareForUpdates (called by QueryEngine::ApplyUpdates and
// ShardWorker::ApplyDelta before they mutate anything) materialises
// every node into memory, detaches the pool's I/O and marks the engine
// stale — the file no longer reflects the in-memory state until Resave.
// The pool's TRACKER stays attached to the tree, so post-materialise
// serving keeps simulated-accounting continuity and freed nodes keep
// retiring their pages (the phantom-page audit stays meaningful across
// the transition).

#ifndef KSPR_STORAGE_STORAGE_ENGINE_H_
#define KSPR_STORAGE_STORAGE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "index/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/snapshot_reader.h"

namespace kspr {

struct StorageOptions {
  /// Total buffer-pool frames (flat LRU unless per_level_sizing).
  int buffer_pages = 128;

  /// Split `buffer_pages` into per-level LRU partitions sized top-down:
  /// each level above the leaves gets enough frames to hold all its nodes
  /// (budget permitting, min 1), leaves get the remainder.
  bool per_level_sizing = false;

  /// Verify every node page (checksum, ids, directory summary) at Open
  /// instead of lazily at fault.
  bool verify_all = false;
};

class StorageEngine {
 public:
  /// Serialises `data` + `tree` (which must be materialised) to `path`,
  /// atomically replacing any existing snapshot. Throws SnapshotError /
  /// std::runtime_error on failure.
  static void Save(const std::string& path, const Dataset& data,
                   const RTree& tree);

  /// Opens a snapshot for serving. Validates header/dataset/directory,
  /// restores the Dataset, and builds a hollow RTree whose fetches fault
  /// node pages through the buffer pool. Throws SnapshotError on any
  /// malformed or truncated file.
  static std::unique_ptr<StorageEngine> Open(const std::string& path,
                                             StorageOptions options = {});

  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  Dataset* dataset() { return &data_; }
  const Dataset& dataset() const { return data_; }
  RTree* tree() { return &tree_; }
  const RTree& tree() const { return tree_; }
  BufferPool* pool() { return pool_.get(); }
  const BufferPool* pool() const { return pool_.get(); }
  const std::string& path() const { return path_; }

  /// Per-level frame capacities the pool was configured with (empty in
  /// flat mode). Feed these plus `reader()->levels()` to a plain
  /// PageTracker to simulate this pool exactly.
  const std::vector<int>& level_capacities() const {
    return level_capacities_;
  }
  const SnapshotReader* reader() const { return reader_.get(); }

  /// Materialises the tree, detaches pool I/O and marks the snapshot
  /// stale (in-memory state will diverge from the file). Idempotent.
  /// Callers keep readers out: QueryEngine::ApplyUpdates by its writer
  /// lock, ShardWorker::ApplyDelta by its transport's serialisation.
  void PrepareForUpdates();

  /// True once PrepareForUpdates ran: the file no longer (necessarily)
  /// matches the in-memory dataset/tree.
  bool stale() const { return stale_; }

  /// Saves the CURRENT in-memory state over `path` (default: the path
  /// this engine was opened from). Materialises first if still hollow.
  /// The engine keeps serving from memory afterwards; reopen the file to
  /// return to disk-backed serving.
  void Resave(const std::string& path = "");

  /// Destroys frames evicted from the pool since the last quiesce. Safe
  /// only while no query is in flight. No-op once stale.
  void ReclaimGraveyard();

 private:
  StorageEngine() = default;

  std::string path_;
  std::unique_ptr<SnapshotReader> reader_;
  std::unique_ptr<BufferPool> pool_;
  Dataset data_;
  RTree tree_;
  std::vector<int> level_capacities_;
  bool stale_ = false;
};

}  // namespace kspr

#endif  // KSPR_STORAGE_STORAGE_ENGINE_H_
