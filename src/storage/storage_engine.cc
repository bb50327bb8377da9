#include "storage/storage_engine.h"

#include <algorithm>

#include "storage/snapshot_format.h"
#include "storage/snapshot_writer.h"

namespace kspr {
namespace {

/// Top-down per-level frame budget: levels above the leaves get enough
/// frames to pin all their nodes (budget permitting, min 1 each), the
/// leaf level takes what is left. Shallow levels are on every descent
/// path, so pinning them buys the most per frame.
std::vector<int> SizeLevels(const std::vector<uint8_t>& level_of_slot,
                            int num_levels, int budget) {
  std::vector<int64_t> count(num_levels, 0);
  for (uint8_t l : level_of_slot) {
    if (l == snapshot::kRetiredLevel) continue;
    count[std::min<int>(l, num_levels - 1)]++;
  }
  std::vector<int> cap(num_levels, 1);
  int64_t rem = std::max<int64_t>(0, budget - num_levels);
  for (int l = 0; l + 1 < num_levels; ++l) {
    const int64_t add = std::clamp<int64_t>(count[l] - 1, 0, rem);
    cap[l] += static_cast<int>(add);
    rem -= add;
  }
  cap[num_levels - 1] += static_cast<int>(rem);
  return cap;
}

}  // namespace

void StorageEngine::Save(const std::string& path, const Dataset& data,
                         const RTree& tree) {
  SnapshotWriter::Write(path, data, tree);
}

std::unique_ptr<StorageEngine> StorageEngine::Open(const std::string& path,
                                                   StorageOptions options) {
  std::unique_ptr<StorageEngine> engine(new StorageEngine);
  engine->path_ = path;
  engine->reader_ = std::make_unique<SnapshotReader>(
      path, SnapshotReader::Options{.verify_all = options.verify_all});
  const snapshot::Header& h = engine->reader_->header();
  engine->data_ = engine->reader_->RestoreDataset();

  engine->pool_ =
      std::make_unique<BufferPool>(engine->reader_.get(),
                                   options.buffer_pages);
  if (h.num_levels > 0 && options.per_level_sizing) {
    engine->level_capacities_ = SizeLevels(
        engine->reader_->levels(), h.num_levels, options.buffer_pages);
    engine->pool_->ConfigureLevels(engine->reader_->levels(),
                                   engine->level_capacities_);
  }

  engine->tree_ = RTree::FromStorage(
      engine->reader_->summaries(), engine->reader_->free_list(), h.root,
      h.height, static_cast<int>(h.live_nodes), h.leaf_capacity, h.fanout,
      engine->pool_.get());
  // The pool's tracker does the accounting while disk-backed (Fetch goes
  // through the pool); attaching it to the tree keeps that SAME tracker
  // counting — and receiving Retire on node frees — after Materialize.
  engine->tree_.SetTracker(engine->pool_->tracker());
  return engine;
}

void StorageEngine::PrepareForUpdates() {
  if (stale_) return;
  tree_.Materialize(
      [this](int id, RTree::Node* out) { reader_->ReadNode(id, out); });
  pool_->DetachIo();
  stale_ = true;
}

void StorageEngine::Resave(const std::string& path) {
  PrepareForUpdates();
  SnapshotWriter::Write(path.empty() ? path_ : path, data_, tree_);
}

void StorageEngine::ReclaimGraveyard() { pool_->ReclaimGraveyard(); }

}  // namespace kspr
