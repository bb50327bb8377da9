#include "storage/snapshot_writer.h"

#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <vector>

#include "storage/snapshot_format.h"

namespace kspr {
namespace {

using snapshot::Encoder;
using snapshot::Header;
using snapshot::kPayloadBytes;
using snapshot::kRetiredLevel;

/// RAII stdio handle that also deletes the staging file on early exit.
struct StagedFile {
  std::FILE* f = nullptr;
  std::string tmp_path;
  ~StagedFile() {
    if (f != nullptr) {
      std::fclose(f);
      std::remove(tmp_path.c_str());
    }
  }
};

void WritePage(std::FILE* f, std::vector<uint8_t>* page,
               const std::string& path) {
  snapshot::SealPage(page);
  if (std::fwrite(page->data(), 1, page->size(), f) != page->size()) {
    throw std::runtime_error("snapshot: short write to " + path);
  }
  page->clear();
}

/// Splits a packed byte stream into sealed pages.
void WriteStream(std::FILE* f, const std::vector<uint8_t>& stream,
                 const std::string& path) {
  std::vector<uint8_t> page;
  for (size_t off = 0; off < stream.size(); off += kPayloadBytes) {
    const size_t n = std::min<size_t>(kPayloadBytes, stream.size() - off);
    page.assign(stream.begin() + off, stream.begin() + off + n);
    WritePage(f, &page, path);
  }
}

/// Per-slot tree depth (0 = root) for the level directory; retired slots
/// get kRetiredLevel.
std::vector<uint8_t> ComputeLevels(const RTree& tree) {
  std::vector<uint8_t> level(tree.num_slots(), kRetiredLevel);
  if (tree.empty()) return level;
  std::deque<std::pair<int, uint8_t>> queue;
  queue.emplace_back(tree.root(), 0);
  while (!queue.empty()) {
    const auto [id, depth] = queue.front();
    queue.pop_front();
    level[id] = depth;
    const RTree::Node& node = tree.NodeAt(id);
    if (node.leaf) continue;
    for (int32_t child : node.items) {
      queue.emplace_back(child, static_cast<uint8_t>(depth + 1));
    }
  }
  return level;
}

void EncodeHeader(const Header& h, std::vector<uint8_t>* out) {
  Encoder enc(out);
  for (char c : snapshot::kMagic) enc.U8(static_cast<uint8_t>(c));
  enc.U32(h.format_version);
  enc.U32(snapshot::kEndianMarker);
  enc.U32(h.page_size);
  enc.U32(h.dim);
  enc.I64(h.num_records);
  enc.I64(h.num_live);
  enc.U64(h.dataset_version);
  enc.I32(h.root);
  enc.I32(h.height);
  enc.I32(h.leaf_capacity);
  enc.I32(h.fanout);
  enc.I64(h.num_slots);
  enc.I64(h.live_nodes);
  enc.I32(h.num_levels);
  enc.I64(h.dataset_pages);
  enc.I64(h.directory_pages);
  enc.I64(h.free_list_len);
  enc.I64(h.total_pages);
}

void EncodeNode(const RTree::Node& node, int dim, int slot,
                std::vector<uint8_t>* out) {
  Encoder enc(out);
  enc.U8(node.leaf ? 1 : 0);
  enc.U8(node.retired ? 1 : 0);
  enc.U16(0);  // pad
  if (node.retired) {
    enc.I32(0);   // count
    enc.I32(-1);  // parent
    enc.I32(0);   // num_items
    for (int i = 0; i < 2 * dim; ++i) enc.F64(0.0);
    return;
  }
  enc.I32(node.count);
  enc.I32(node.parent);
  enc.I32(static_cast<int32_t>(node.items.size()));
  for (int i = 0; i < dim; ++i) enc.F64(node.mbr.lo.v[i]);
  for (int i = 0; i < dim; ++i) enc.F64(node.mbr.hi.v[i]);
  for (int32_t item : node.items) enc.I32(item);
  if (out->size() > static_cast<size_t>(kPayloadBytes)) {
    throw SnapshotError("snapshot: node " + std::to_string(slot) +
                        " exceeds one page (" + std::to_string(out->size()) +
                        " bytes)");
  }
}

}  // namespace

void SnapshotWriter::Write(const std::string& path, const Dataset& data,
                           const RTree& tree) {
  if (tree.disk_backed()) {
    throw SnapshotError("snapshot: materialize the tree before saving");
  }

  Header h;
  h.dim = static_cast<uint32_t>(data.dim());
  h.num_records = data.size();
  h.num_live = data.num_live();
  h.dataset_version = data.version();
  h.root = tree.root();
  h.height = tree.height();
  h.leaf_capacity = tree.leaf_capacity();
  h.fanout = tree.fanout();
  h.num_slots = tree.num_slots();
  h.live_nodes = tree.num_nodes();
  h.num_levels = tree.height();

  // Dataset stream: n*d row-major doubles, then n live bytes.
  std::vector<uint8_t> dataset_stream;
  dataset_stream.reserve(static_cast<size_t>(h.num_records) * (h.dim * 8 + 1));
  {
    Encoder enc(&dataset_stream);
    for (RecordId id = 0; id < data.size(); ++id) {
      const double* row = data.Row(id);
      for (int i = 0; i < data.dim(); ++i) enc.F64(row[i]);
    }
    for (RecordId id = 0; id < data.size(); ++id) {
      enc.U8(data.IsLive(id) ? 1 : 0);
    }
  }
  h.dataset_pages = snapshot::PagesFor(dataset_stream.size());

  // Directory stream: per-slot level bytes, the live slots' entry
  // summaries, then the free list.
  const std::vector<uint8_t> levels = ComputeLevels(tree);
  std::vector<uint8_t> dir_stream;
  {
    Encoder enc(&dir_stream);
    for (uint8_t l : levels) enc.U8(l);
    for (int slot = 0; slot < tree.num_slots(); ++slot) {
      if (levels[slot] == kRetiredLevel) continue;
      const RTree::Node& node = tree.NodeAt(slot);
      enc.I32(node.count);
      for (int i = 0; i < data.dim(); ++i) enc.F64(node.mbr.lo.v[i]);
      for (int i = 0; i < data.dim(); ++i) enc.F64(node.mbr.hi.v[i]);
    }
    for (int32_t slot : tree.free_list()) enc.I32(slot);
  }
  h.free_list_len = static_cast<int64_t>(tree.free_list().size());
  h.directory_pages = snapshot::PagesFor(dir_stream.size());
  h.total_pages = 1 + h.dataset_pages + h.directory_pages + h.num_slots;

  StagedFile staged;
  staged.tmp_path = path + ".tmp";
  staged.f = std::fopen(staged.tmp_path.c_str(), "wb");
  if (staged.f == nullptr) {
    throw std::runtime_error("snapshot: cannot create " + staged.tmp_path);
  }

  std::vector<uint8_t> page;
  EncodeHeader(h, &page);
  WritePage(staged.f, &page, staged.tmp_path);
  WriteStream(staged.f, dataset_stream, staged.tmp_path);
  WriteStream(staged.f, dir_stream, staged.tmp_path);
  for (int slot = 0; slot < tree.num_slots(); ++slot) {
    EncodeNode(tree.NodeAt(slot), data.dim(), slot, &page);
    WritePage(staged.f, &page, staged.tmp_path);
  }

  if (std::fflush(staged.f) != 0) {
    throw std::runtime_error("snapshot: flush failed for " + staged.tmp_path);
  }
  std::fclose(staged.f);
  staged.f = nullptr;  // disarm the cleanup
  if (std::rename(staged.tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(staged.tmp_path.c_str());
    throw std::runtime_error("snapshot: cannot rename into " + path);
  }
}

}  // namespace kspr
