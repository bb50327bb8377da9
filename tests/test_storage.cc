// Storage subsystem tests: snapshot round-trip fidelity, malformed-file
// rejection, buffer-pool == simulated-tracker accounting, and the
// disk-backed QueryEngine path (bitwise identity, update churn, phantom
// audit). Runs under TSan and ASan in CI.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/query_engine.h"
#include "index/bbs.h"
#include "io/disk_model.h"
#include "io/page_tracker.h"
#include "storage/buffer_pool.h"
#include "storage/fixture.h"
#include "storage/snapshot_format.h"
#include "storage/snapshot_reader.h"
#include "storage/storage_engine.h"
#include "test_support.h"

namespace kspr {
namespace {

using test::ExpectBitwiseEqual;
using test::FromScratch;
using test::OracleOptions;
using test::SyntheticInstance;

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Helpers.

std::string TestSnapPath(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return (fs::temp_directory_path() /
          (std::string("kspr_storage_") + info->test_suite_name() + "_" +
           info->name() + "_" + tag + ".snap"))
      .string();
}

void FlipByte(const std::string& path, std::streamoff off) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  f.seekg(off);
  char c = 0;
  f.get(c);
  c = static_cast<char>(c ^ 0x5A);
  f.seekp(off);
  f.put(c);
}

void TruncateTo(const std::string& src, const std::string& dst,
                size_t bytes) {
  std::ifstream in(src, std::ios::binary);
  std::vector<char> buf(bytes);
  in.read(buf.data(), static_cast<std::streamsize>(bytes));
  ASSERT_EQ(static_cast<size_t>(in.gcount()), bytes) << "source too short";
  std::ofstream out(dst, std::ios::binary | std::ios::trunc);
  out.write(buf.data(), static_cast<std::streamsize>(bytes));
}

/// Tombstones `kills` spread-out records (never `keep`) through the
/// dataset AND the dynamic R-tree delete path, so saved snapshots carry
/// tombstones and (with enough kills) retired node slots + a free list.
void Churn(Dataset* data, RTree* tree, int kills, RecordId keep) {
  int done = 0;
  for (RecordId id = 1; id < data->size() && done < kills; ++id) {
    if (id == keep || !data->IsLive(id)) continue;
    ASSERT_TRUE(tree->Delete(*data, id));
    ASSERT_TRUE(data->Delete(id));
    ++done;
  }
  ASSERT_EQ(done, kills);
}

/// LP-CTA queries for `focals`, in order — the shared access sequence for
/// the tracker-equivalence tests.
void RunWorkload(const Dataset& data, const RTree& tree,
                 const std::vector<RecordId>& focals, int k) {
  KsprSolver solver(&data, &tree);
  for (RecordId focal : focals) {
    solver.QueryRecord(focal, OracleOptions(Algorithm::kLpCta, k));
  }
}

// ---------------------------------------------------------------------------
// Round-trip fidelity.

TEST(SnapshotRoundTrip, DatasetBitwise) {
  SyntheticInstance inst(Distribution::kIndependent, 300, 3, 11);
  Churn(&inst.mutable_data(), &inst.mutable_tree(), 20, inst.sky(0));
  const std::string path = TestSnapPath("data");
  StorageEngine::Save(path, inst.data(), inst.tree());

  SnapshotReader reader(path);
  EXPECT_EQ(reader.header().dataset_version, inst.data().version());
  const Dataset restored = reader.RestoreDataset();
  ASSERT_EQ(restored.size(), inst.data().size());
  ASSERT_EQ(restored.dim(), inst.data().dim());
  EXPECT_EQ(restored.num_live(), inst.data().num_live());
  for (RecordId id = 0; id < restored.size(); ++id) {
    EXPECT_EQ(restored.IsLive(id), inst.data().IsLive(id)) << id;
    for (int a = 0; a < restored.dim(); ++a) {
      // Bitwise: the snapshot stores the exact IEEE-754 pattern.
      EXPECT_EQ(restored.At(id, a), inst.data().At(id, a))
          << "record " << id << " attr " << a;
    }
  }
}

TEST(SnapshotRoundTrip, TreeShapeAndInvariants) {
  SyntheticInstance inst(Distribution::kIndependent, 400, 3, 12);
  Churn(&inst.mutable_data(), &inst.mutable_tree(), 250, inst.sky(0));
  ASSERT_FALSE(inst.tree().free_list().empty())
      << "churn was expected to retire node slots";
  const std::string path = TestSnapPath("tree");
  StorageEngine::Save(path, inst.data(), inst.tree());

  std::unique_ptr<StorageEngine> storage = StorageEngine::Open(path);
  EXPECT_TRUE(storage->tree()->disk_backed());
  storage->PrepareForUpdates();  // materialise for the structural audit
  EXPECT_FALSE(storage->tree()->disk_backed());

  const RTree& a = inst.tree();
  const RTree& b = *storage->tree();
  ASSERT_EQ(a.num_slots(), b.num_slots());
  EXPECT_EQ(a.root(), b.root());
  EXPECT_EQ(a.height(), b.height());
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.leaf_capacity(), b.leaf_capacity());
  EXPECT_EQ(a.fanout(), b.fanout());
  EXPECT_EQ(a.free_list(), b.free_list()) << "id-recycling order changed";
  for (int id = 0; id < a.num_slots(); ++id) {
    const RTree::Node& na = a.NodeAt(id);
    const RTree::Node& nb = b.NodeAt(id);
    ASSERT_EQ(na.retired, nb.retired) << "slot " << id;
    if (na.retired) continue;
    EXPECT_EQ(na.leaf, nb.leaf) << "slot " << id;
    EXPECT_EQ(na.count, nb.count) << "slot " << id;
    EXPECT_EQ(na.parent, nb.parent) << "slot " << id;
    EXPECT_EQ(na.items, nb.items) << "slot " << id;
    for (int x = 0; x < inst.data().dim(); ++x) {
      EXPECT_EQ(na.mbr.lo.v[x], nb.mbr.lo.v[x]) << "slot " << id;
      EXPECT_EQ(na.mbr.hi.v[x], nb.mbr.hi.v[x]) << "slot " << id;
    }
  }

  std::string error;
  EXPECT_TRUE(b.CheckInvariants(*storage->dataset(), &error)) << error;
}

TEST(SnapshotRoundTrip, HeaderIsLittleEndianStable) {
  SyntheticInstance inst(Distribution::kIndependent, 50, 2, 13);
  const std::string path = TestSnapPath("endian");
  StorageEngine::Save(path, inst.data(), inst.tree());

  std::ifstream in(path, std::ios::binary);
  std::vector<unsigned char> page(snapshot::kPageSize);
  in.read(reinterpret_cast<char*>(page.data()), snapshot::kPageSize);
  ASSERT_EQ(in.gcount(), snapshot::kPageSize);
  EXPECT_EQ(std::memcmp(page.data(), snapshot::kMagic, 8), 0);
  // format_version = 2, then the 0x01020304 marker — both little-endian
  // byte sequences regardless of the writing host.
  const unsigned char expect[8] = {2, 0, 0, 0, 0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(std::memcmp(page.data() + 8, expect, 8), 0)
      << "header is not serialised little-endian";
}

// ---------------------------------------------------------------------------
// Malformed-file rejection.

TEST(SnapshotValidation, RejectsTruncatedFiles) {
  SyntheticInstance inst(Distribution::kIndependent, 200, 3, 14);
  const std::string path = TestSnapPath("full");
  StorageEngine::Save(path, inst.data(), inst.tree());
  const size_t full = fs::file_size(path);

  const std::string cut = TestSnapPath("cut");
  for (size_t bytes :
       {size_t{100}, size_t{snapshot::kPageSize},
        size_t{3 * snapshot::kPageSize}, full - snapshot::kPageSize,
        full - 1}) {
    TruncateTo(path, cut, bytes);
    EXPECT_THROW(SnapshotReader reader(cut), SnapshotError)
        << "accepted a " << bytes << "-byte truncation of a " << full
        << "-byte snapshot";
  }
}

TEST(SnapshotValidation, RejectsBadMagicEvenWithValidChecksum) {
  SyntheticInstance inst(Distribution::kIndependent, 100, 2, 15);
  const std::string path = TestSnapPath("magic");
  StorageEngine::Save(path, inst.data(), inst.tree());

  // Corrupt the magic, then re-seal the page so the CHECKSUM passes and
  // the magic check itself must reject the file.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  std::vector<uint8_t> page(snapshot::kPageSize);
  f.read(reinterpret_cast<char*>(page.data()), snapshot::kPageSize);
  page[0] ^= 0xFF;
  const uint64_t sum =
      snapshot::PageChecksum(page.data(), snapshot::kPayloadBytes);
  for (int i = 0; i < 8; ++i) {
    page[snapshot::kPayloadBytes + i] =
        static_cast<uint8_t>(sum >> (8 * i));
  }
  f.seekp(0);
  f.write(reinterpret_cast<char*>(page.data()), snapshot::kPageSize);
  f.close();

  try {
    SnapshotReader reader(path);
    FAIL() << "bad magic accepted";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos)
        << e.what();
  }
}

TEST(SnapshotValidation, RejectsCorruptHeaderAndDatasetPages) {
  SyntheticInstance inst(Distribution::kIndependent, 150, 3, 16);
  const std::string path = TestSnapPath("sum");
  StorageEngine::Save(path, inst.data(), inst.tree());

  const std::string header_hit = TestSnapPath("header");
  fs::copy_file(path, header_hit, fs::copy_options::overwrite_existing);
  FlipByte(header_hit, 40);
  EXPECT_THROW(SnapshotReader reader(header_hit), SnapshotError);

  const std::string dataset_hit = TestSnapPath("dataset");
  fs::copy_file(path, dataset_hit, fs::copy_options::overwrite_existing);
  FlipByte(dataset_hit, snapshot::kPageSize + 17);
  EXPECT_THROW(SnapshotReader reader(dataset_hit), SnapshotError);
}

TEST(SnapshotValidation, CorruptNodePageFailsAtFaultOrEagerly) {
  SyntheticInstance inst(Distribution::kIndependent, 300, 3, 17);
  const std::string path = TestSnapPath("node");
  StorageEngine::Save(path, inst.data(), inst.tree());

  // Corrupt the ROOT node's page: first fetch through the pool must
  // throw, but plain Open (lazy verification) must succeed.
  SnapshotReader probe(path);
  const int64_t root_page =
      probe.header().PageOfSlot(probe.header().root);
  FlipByte(path, root_page * snapshot::kPageSize + 64);

  std::unique_ptr<StorageEngine> storage = StorageEngine::Open(path);
  EXPECT_THROW(storage->tree()->Fetch(storage->tree()->root()),
               SnapshotError);

  StorageOptions eager;
  eager.verify_all = true;
  EXPECT_THROW(StorageEngine::Open(path, eager), SnapshotError)
      << "verify_all missed a corrupt node page";
}

// ---------------------------------------------------------------------------
// Hand-crafted files: every edit below re-seals the page checksum, so only
// the decoder's semantic checks can reject the result.

/// Byte offsets of the fields the hardening tests rewrite.
constexpr int kHeaderVersionOffset = 8;
constexpr int kHeaderRootOffset = 48;
constexpr int kNodeCountOffset = 4;
constexpr int kNodeMbrOffset = 16;
int NodeItemsOffset(int dim) { return kNodeMbrOffset + 16 * dim; }

int32_t GetI32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return static_cast<int32_t>(v);
}

void PutI32(uint8_t* p, int32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<uint8_t>(static_cast<uint32_t>(v) >> (8 * i));
  }
}

/// Rewrites page `page_id` of `path` through `edit`, then re-seals it.
template <typename Edit>
void EditSealedPage(const std::string& path, int64_t page_id, Edit edit) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  std::vector<uint8_t> page(snapshot::kPageSize);
  f.seekg(page_id * snapshot::kPageSize);
  f.read(reinterpret_cast<char*>(page.data()), snapshot::kPageSize);
  ASSERT_EQ(f.gcount(), snapshot::kPageSize);
  edit(page.data());
  const uint64_t sum =
      snapshot::PageChecksum(page.data(), snapshot::kPayloadBytes);
  for (int i = 0; i < 8; ++i) {
    page[snapshot::kPayloadBytes + i] = static_cast<uint8_t>(sum >> (8 * i));
  }
  f.seekp(page_id * snapshot::kPageSize);
  f.write(reinterpret_cast<char*>(page.data()), snapshot::kPageSize);
}

/// Runs `fn` and expects a SnapshotError whose message contains `needle`.
template <typename Fn>
void ExpectSnapshotError(Fn fn, const std::string& needle) {
  try {
    fn();
    ADD_FAILURE() << "no SnapshotError (expected \"" << needle << "\")";
  } catch (const SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

/// A saved churned instance (multi-level tree with retired slots) plus a
/// fresh copy of its file per edit.
class CraftedSnapshot {
 public:
  CraftedSnapshot()
      : inst_(Distribution::kIndependent, 400, 3, 12),
        path_(TestSnapPath("base")) {
    Churn(&inst_.mutable_data(), &inst_.mutable_tree(), 250, inst_.sky(0));
    StorageEngine::Save(path_, inst_.data(), inst_.tree());
    SnapshotReader reader(path_);
    header_ = reader.header();
    levels_ = reader.levels();
  }

  const snapshot::Header& header() const { return header_; }
  const RTree& tree() const { return inst_.tree(); }
  int dim() const { return inst_.data().dim(); }

  /// Copies the saved file to a new path named after `tag`.
  std::string Copy(const std::string& tag) const {
    const std::string out = TestSnapPath(tag);
    fs::copy_file(path_, out, fs::copy_options::overwrite_existing);
    return out;
  }

  /// First live slot at tree depth `level`.
  int SlotAtLevel(int level) const {
    for (size_t s = 0; s < levels_.size(); ++s) {
      if (levels_[s] == level) return static_cast<int>(s);
    }
    ADD_FAILURE() << "no slot at level " << level;
    return header_.root;
  }

 private:
  SyntheticInstance inst_;
  std::string path_;
  snapshot::Header header_;
  std::vector<uint8_t> levels_;
};

/// Opens `path` lazily and expects the first fault of `slot` to throw,
/// and an eager (verify_all) open to throw too.
void ExpectFaultRejected(const std::string& path, int slot,
                         const std::string& needle) {
  std::unique_ptr<StorageEngine> storage = StorageEngine::Open(path);
  ExpectSnapshotError([&] { storage->tree()->Fetch(slot); }, needle);
  StorageOptions eager;
  eager.verify_all = true;
  ExpectSnapshotError([&] { StorageEngine::Open(path, eager); }, needle);
}

TEST(SnapshotHardening, RejectsFormatVersion1) {
  const CraftedSnapshot base;
  const std::string path = base.Copy("v1");
  EditSealedPage(path, 0,
                 [](uint8_t* p) { PutI32(p + kHeaderVersionOffset, 1); });
  ExpectSnapshotError([&] { SnapshotReader reader(path); },
                      "unsupported snapshot format version 1");
}

TEST(SnapshotHardening, RejectsRootOutOfRange) {
  const CraftedSnapshot base;
  const int32_t num_slots = static_cast<int32_t>(base.header().num_slots);
  for (int32_t root : {num_slots, num_slots + 1000, -2, -1}) {
    const std::string path = base.Copy("root" + std::to_string(root + 2));
    EditSealedPage(path, 0,
                   [&](uint8_t* p) { PutI32(p + kHeaderRootOffset, root); });
    ExpectSnapshotError([&] { SnapshotReader reader(path); }, "root slot");
  }
}

TEST(SnapshotHardening, RejectsRetiredRoot) {
  const CraftedSnapshot base;
  ASSERT_FALSE(base.tree().free_list().empty());
  const int32_t retired = base.tree().free_list().front();
  const std::string path = base.Copy("retired_root");
  EditSealedPage(path, 0,
                 [&](uint8_t* p) { PutI32(p + kHeaderRootOffset, retired); });
  ExpectSnapshotError([&] { SnapshotReader reader(path); }, "is retired");
}

TEST(SnapshotHardening, RejectsNegativeDirectoryCount) {
  const CraftedSnapshot base;
  // The first live slot's summary starts right after the level bytes.
  const int64_t num_slots = base.header().num_slots;
  ASSERT_LT(num_slots + 4, snapshot::kPayloadBytes);
  const std::string path = base.Copy("negative_count");
  EditSealedPage(path, base.header().first_directory_page(),
                 [&](uint8_t* p) { PutI32(p + num_slots, -3); });
  ExpectSnapshotError([&] { SnapshotReader reader(path); }, "negative count");
}

TEST(SnapshotHardening, RejectsChildOutOfRangeOrRetiredAtFault) {
  const CraftedSnapshot base;
  const int root = base.header().root;
  ASSERT_GT(base.header().height, 1) << "root must be internal";
  const int32_t num_slots = static_cast<int32_t>(base.header().num_slots);
  const int32_t retired = base.tree().free_list().front();
  int tag = 0;
  for (int32_t child : {num_slots, -1, retired}) {
    const std::string path = base.Copy("child" + std::to_string(tag++));
    EditSealedPage(path, base.header().PageOfSlot(root), [&](uint8_t* p) {
      PutI32(p + NodeItemsOffset(base.dim()), child);
    });
    ExpectFaultRejected(path, root, "invalid child slot");
  }
}

TEST(SnapshotHardening, RejectsRecordOutOfRangeAtFault) {
  const CraftedSnapshot base;
  const int leaf = base.SlotAtLevel(base.header().height - 1);
  ASSERT_TRUE(base.tree().NodeAt(leaf).leaf);
  const int32_t num_records =
      static_cast<int32_t>(base.header().num_records);
  int tag = 0;
  for (int32_t record : {num_records, num_records + 4096, -7}) {
    const std::string path = base.Copy("record" + std::to_string(tag++));
    EditSealedPage(path, base.header().PageOfSlot(leaf), [&](uint8_t* p) {
      PutI32(p + NodeItemsOffset(base.dim()), record);
    });
    ExpectFaultRejected(path, leaf, "invalid record");
  }
}

TEST(SnapshotHardening, RejectsNodePageDisagreeingWithSummary) {
  const CraftedSnapshot base;
  const int root = base.header().root;

  const std::string count_path = base.Copy("count");
  EditSealedPage(count_path, base.header().PageOfSlot(root), [](uint8_t* p) {
    PutI32(p + kNodeCountOffset, GetI32(p + kNodeCountOffset) + 1);
  });
  ExpectFaultRejected(count_path, root, "directory summary");

  // One low mantissa bit of mbr_hi[0]: a value a tolerance would accept.
  const std::string mbr_path = base.Copy("mbr");
  EditSealedPage(mbr_path, base.header().PageOfSlot(root), [&](uint8_t* p) {
    p[kNodeMbrOffset + 8 * base.dim()] ^= 0x01;
  });
  ExpectFaultRejected(mbr_path, root, "directory summary");
}

// ---------------------------------------------------------------------------
// Resident entry summaries.

/// Every live slot's resident summary equals the node ReadNode decodes,
/// bit for bit, and reading the summaries faults nothing.
void ExpectSummariesMatchPages(const StorageEngine& storage) {
  const RTree& tree = storage.tree();
  ASSERT_TRUE(tree.disk_backed());
  const int dim = storage.dataset().dim();
  int live = 0;
  for (int id = 0; id < tree.num_slots(); ++id) {
    if (!tree.IsLiveNode(id)) continue;
    ++live;
    RTree::Node node;
    storage.reader()->ReadNode(id, &node);
    EXPECT_EQ(tree.EntryCount(id), node.count) << "slot " << id;
    const Mbr& box = tree.EntryMbr(id);
    ASSERT_EQ(box.lo.dim, dim) << "slot " << id;
    ASSERT_EQ(box.hi.dim, dim) << "slot " << id;
    EXPECT_EQ(std::memcmp(box.lo.v.data(), node.mbr.lo.v.data(),
                          sizeof(double) * dim),
              0)
        << "slot " << id;
    EXPECT_EQ(std::memcmp(box.hi.v.data(), node.mbr.hi.v.data(),
                          sizeof(double) * dim),
              0)
        << "slot " << id;
  }
  EXPECT_EQ(live, tree.num_nodes());
  EXPECT_EQ(storage.pool()->tracker()->accesses(), 0)
      << "reading entry summaries must not touch the pool";
}

TEST(EntrySummaryTest, MatchDecodedNodesAfterOpen) {
  SyntheticInstance inst(Distribution::kIndependent, 400, 3, 25);
  Churn(&inst.mutable_data(), &inst.mutable_tree(), 250, inst.sky(0));
  ASSERT_FALSE(inst.tree().free_list().empty());
  const std::string path = TestSnapPath("summaries");
  StorageEngine::Save(path, inst.data(), inst.tree());
  ExpectSummariesMatchPages(*StorageEngine::Open(path));
}

TEST(EntrySummaryTest, MatchAfterUpdatesResaveAndReopen) {
  SyntheticInstance inst(Distribution::kIndependent, 400, 3, 26);
  const std::string path = TestSnapPath("before");
  StorageEngine::Save(path, inst.data(), inst.tree());
  std::unique_ptr<StorageEngine> storage = StorageEngine::Open(path);
  storage->PrepareForUpdates();

  Dataset* data = storage->dataset();
  RTree* tree = storage->tree();
  Rng rng(7);
  for (int i = 0; i < 60; ++i) {
    Vec r(3);
    for (int x = 0; x < 3; ++x) r.v[x] = rng.Uniform();
    tree->Insert(*data, data->Add(r));
  }
  Churn(data, tree, 200, inst.sky(0));
  std::string error;
  ASSERT_TRUE(tree->CheckInvariants(*data, &error)) << error;
  ASSERT_FALSE(tree->free_list().empty());

  const std::string resaved = TestSnapPath("after");
  storage->Resave(resaved);
  std::unique_ptr<StorageEngine> reopened = StorageEngine::Open(resaved);
  ExpectSummariesMatchPages(*reopened);
  // ... and equals the in-memory tree the file was saved from.
  for (int id = 0; id < tree->num_slots(); ++id) {
    ASSERT_EQ(reopened->tree()->IsLiveNode(id), tree->IsLiveNode(id));
    if (!tree->IsLiveNode(id)) continue;
    EXPECT_EQ(reopened->tree()->EntryCount(id), tree->EntryCount(id));
    for (int x = 0; x < 3; ++x) {
      EXPECT_EQ(reopened->tree()->EntryMbr(id).lo.v[x],
                tree->EntryMbr(id).lo.v[x]);
      EXPECT_EQ(reopened->tree()->EntryMbr(id).hi.v[x],
                tree->EntryMbr(id).hi.v[x]);
    }
  }
}

TEST(EntrySummaryTest, PrunedSubtreesAreNeverFaulted) {
  SyntheticInstance inst(Distribution::kIndependent, 400, 3, 27);
  const std::string path = TestSnapPath("pruned");
  StorageEngine::Save(path, inst.data(), inst.tree());
  std::unique_ptr<StorageEngine> storage = StorageEngine::Open(path);
  const Dataset& data = *storage->dataset();

  // A pivot at the data's max corner weakly dominates every record, so
  // the root's summary is pruned before any page is fetched.
  const std::vector<Vec> pivots = {storage->tree()->EntryMbr(
      storage->tree()->root()).hi};
  const std::vector<char> processed(static_cast<size_t>(data.size()), 0);
  EXPECT_FALSE(ExistsUnprocessedNotDominated(data, *storage->tree(), pivots,
                                             processed, nullptr, nullptr));
  EXPECT_EQ(storage->pool()->tracker()->accesses(), 0);
  EXPECT_EQ(storage->pool()->tracker()->reads(), 0);
  EXPECT_EQ(storage->pool()->bytes_read(), 0);

  // Without a pivot the scan descends and faults pages as usual.
  RecordId witness = kInvalidRecord;
  EXPECT_TRUE(ExistsUnprocessedNotDominated(data, *storage->tree(), {},
                                            processed, nullptr, &witness));
  EXPECT_NE(witness, kInvalidRecord);
  EXPECT_GT(storage->pool()->tracker()->reads(), 0);
}

// ---------------------------------------------------------------------------
// Buffer pool vs simulated tracker.

TEST(BufferPoolTest, ReadsMatchSimulatedTrackerExactly) {
  SyntheticInstance inst(Distribution::kIndependent, 400, 3, 18);
  const std::string path = TestSnapPath("match");
  StorageEngine::Save(path, inst.data(), inst.tree());
  const std::vector<RecordId> focals(inst.skyline().begin(),
                                     inst.skyline().begin() +
                                         std::min<size_t>(
                                             5, inst.skyline().size()));

  constexpr int kBufferPages = 8;
  StorageOptions options;
  options.buffer_pages = kBufferPages;
  std::unique_ptr<StorageEngine> storage = StorageEngine::Open(path, options);
  RunWorkload(*storage->dataset(), *storage->tree(), focals, 5);

  PageTracker sim(kBufferPages);
  inst.tree().SetTracker(&sim);
  RunWorkload(inst.data(), inst.tree(), focals, 5);
  inst.tree().SetTracker(nullptr);

  const PageTracker* real = storage->pool()->tracker();
  EXPECT_GT(real->reads(), 0);
  EXPECT_EQ(real->reads(), sim.reads())
      << "real pool and simulator diverged on the same access sequence";
  EXPECT_EQ(real->accesses(), sim.accesses());
  std::vector<int> ra = real->ResidentPages();
  std::vector<int> sa = sim.ResidentPages();
  std::sort(ra.begin(), ra.end());
  std::sort(sa.begin(), sa.end());
  EXPECT_EQ(ra, sa) << "buffer contents diverged";
}

TEST(BufferPoolTest, PerLevelSizingMatchesSimulatedTracker) {
  SyntheticInstance inst(Distribution::kIndependent, 500, 3, 19);
  const std::string path = TestSnapPath("levels");
  StorageEngine::Save(path, inst.data(), inst.tree());
  const std::vector<RecordId> focals(inst.skyline().begin(),
                                     inst.skyline().begin() +
                                         std::min<size_t>(
                                             4, inst.skyline().size()));

  StorageOptions options;
  options.buffer_pages = 12;
  options.per_level_sizing = true;
  std::unique_ptr<StorageEngine> storage = StorageEngine::Open(path, options);
  ASSERT_EQ(static_cast<int>(storage->level_capacities().size()),
            storage->tree()->height());
  EXPECT_EQ(storage->pool()->tracker()->num_partitions(),
            storage->tree()->height());
  // Shallow levels fit entirely; the budget's remainder is at the leaves.
  EXPECT_EQ(storage->level_capacities().front(), 1) << "root level";
  RunWorkload(*storage->dataset(), *storage->tree(), focals, 5);

  PageTracker sim(0);
  sim.ConfigureLevels(storage->reader()->levels(),
                      storage->level_capacities());
  inst.tree().SetTracker(&sim);
  RunWorkload(inst.data(), inst.tree(), focals, 5);
  inst.tree().SetTracker(nullptr);

  EXPECT_GT(storage->pool()->tracker()->reads(), 0);
  EXPECT_EQ(storage->pool()->tracker()->reads(), sim.reads());
  EXPECT_EQ(storage->pool()->tracker()->accesses(), sim.accesses());
}

TEST(BufferPoolTest, EvictionParksFramesUntilReclaim) {
  SyntheticInstance inst(Distribution::kIndependent, 400, 3, 20);
  const std::string path = TestSnapPath("evict");
  StorageEngine::Save(path, inst.data(), inst.tree());

  StorageOptions options;
  options.buffer_pages = 2;
  std::unique_ptr<StorageEngine> storage = StorageEngine::Open(path, options);
  BufferPool* pool = storage->pool();
  int fetched = 0;
  for (int id = 0; id < storage->tree()->num_slots(); ++id) {
    if (!storage->tree()->IsLiveNode(id)) continue;
    pool->FetchNode(id);
    ++fetched;
  }
  ASSERT_GT(fetched, 2);
  EXPECT_LE(pool->frames_resident(), 2u);
  EXPECT_EQ(pool->graveyard_size(), static_cast<size_t>(fetched - 2))
      << "evicted frames must be parked, not destroyed";
  EXPECT_GT(pool->real_read_ms(), 0.0);
  EXPECT_EQ(pool->bytes_read(),
            static_cast<int64_t>(fetched) * snapshot::kPageSize);

  storage->ReclaimGraveyard();
  EXPECT_EQ(pool->graveyard_size(), 0u);
  EXPECT_LE(pool->frames_resident(), 2u);
}

TEST(BufferPoolTest, OpenReadsNoNodePages) {
  SyntheticInstance inst(Distribution::kIndependent, 300, 3, 21);
  const std::string path = TestSnapPath("lazy");
  StorageEngine::Save(path, inst.data(), inst.tree());

  std::unique_ptr<StorageEngine> storage = StorageEngine::Open(path);
  EXPECT_EQ(storage->pool()->tracker()->reads(), 0)
      << "Open must not fault node pages";
  EXPECT_EQ(storage->pool()->bytes_read(), 0);

  KsprSolver solver(storage->dataset(), storage->tree());
  solver.QueryRecord(inst.sky(0), OracleOptions(Algorithm::kLpCta, 5));
  EXPECT_GT(storage->pool()->tracker()->reads(), 0);
}

// ---------------------------------------------------------------------------
// Disk-backed serving.

TEST(StorageEngineTest, QueryIdentityAllAlgorithms) {
  SyntheticInstance inst(Distribution::kIndependent, 400, 3, 22);
  const std::string path = TestSnapPath("identity");
  StorageEngine::Save(path, inst.data(), inst.tree());
  StorageOptions options;
  options.buffer_pages = 4;  // small: force heavy paging mid-query
  std::unique_ptr<StorageEngine> storage = StorageEngine::Open(path, options);
  KsprSolver disk_solver(storage->dataset(), storage->tree());

  for (Algorithm algo :
       {Algorithm::kCta, Algorithm::kPcta, Algorithm::kLpCta}) {
    for (size_t s = 0; s < 3; ++s) {
      const RecordId focal = inst.sky(s);
      KsprOptions query = OracleOptions(algo, 5);
      const KsprResult mem = inst.solver().QueryRecord(focal, query);
      const KsprResult disk = disk_solver.QueryRecord(focal, query);
      ExpectBitwiseEqual(mem, disk, "disk-backed vs in-memory");
    }
  }
}

TEST(StorageEngineTest, ConcurrentReadersThroughPool) {
  SyntheticInstance inst(Distribution::kIndependent, 400, 3, 23);
  const std::string path = TestSnapPath("mt");
  StorageEngine::Save(path, inst.data(), inst.tree());
  StorageOptions options;
  options.buffer_pages = 8;  // much smaller than the tree: constant
                             // eviction under concurrency
  std::unique_ptr<StorageEngine> storage = StorageEngine::Open(path, options);

  EngineOptions engine_options;
  engine_options.workers = 4;
  engine_options.cache_capacity = 0;  // every query hits the pool
  QueryEngine engine(storage.get(), engine_options);

  std::vector<QueryRequest> requests;
  for (int q = 0; q < 16; ++q) {
    QueryRequest request;
    request.focal_id = inst.sky(static_cast<size_t>(q));
    request.options =
        OracleOptions(q % 2 == 0 ? Algorithm::kLpCta : Algorithm::kPcta, 5);
    requests.push_back(request);
  }
  const std::vector<QueryResponse> responses = engine.RunAll(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].focal_live);
    const KsprResult mem = inst.solver().QueryRecord(
        requests[i].focal_id, requests[i].options);
    ExpectBitwiseEqual(mem, *responses[i].result, "concurrent disk query");
  }
}

TEST(StorageEngineTest, UpdateChurnPhantomAuditAndResave) {
  SyntheticInstance inst(Distribution::kIndependent, 400, 3, 24);
  const std::string path = TestSnapPath("churn");
  StorageEngine::Save(path, inst.data(), inst.tree());
  StorageOptions options;
  options.buffer_pages = 16;
  std::unique_ptr<StorageEngine> storage = StorageEngine::Open(path, options);

  EngineOptions engine_options;
  engine_options.workers = 2;
  engine_options.update_policy = IndexUpdatePolicy::kRebuild;
  QueryEngine engine(storage.get(), engine_options);
  const RecordId focal = inst.sky(0);
  const KsprOptions query = OracleOptions(Algorithm::kLpCta, 5);

  // Warm the pool while still disk-backed.
  ASSERT_TRUE(engine.SubmitRecord(focal, query).get().focal_live);
  EXPECT_FALSE(storage->stale());
  const PageTracker* tracker = storage->pool()->tracker();
  EXPECT_GT(tracker->reads(), 0);

  Rng rng(99);
  for (int round = 1; round <= 3; ++round) {
    UpdateBatch batch;
    for (int j = 0; j < 12; ++j) {
      Vec r(3);
      for (int x = 0; x < 3; ++x) r.v[x] = rng.Uniform();
      batch.inserts.push_back(r);
    }
    int attempts = 0;
    while (batch.deletes.size() < 12 && attempts++ < 400) {
      const RecordId cand = static_cast<RecordId>(
          rng.UniformInt(storage->dataset()->size()));
      if (cand == focal || !storage->dataset()->IsLive(cand)) continue;
      if (std::find(batch.deletes.begin(), batch.deletes.end(), cand) !=
          batch.deletes.end()) {
        continue;
      }
      batch.deletes.push_back(cand);
    }
    const UpdateResult result = engine.ApplyUpdates(batch);
    ASSERT_TRUE(result.applied);
    EXPECT_TRUE(result.index_rebuilt);
    EXPECT_TRUE(storage->stale())
        << "ApplyUpdates must mark the snapshot stale";

    const QueryResponse response = engine.SubmitRecord(focal, query).get();
    ASSERT_TRUE(response.focal_live);
    ExpectBitwiseEqual(*response.result,
                       FromScratch(*storage->dataset(), focal, query,
                                   storage->tree()->leaf_capacity(),
                                   storage->tree()->fanout()),
                       "post-churn disk engine vs from-scratch");

    // Phantom audit: the pool's tracker survived materialisation + the
    // rebuild RetireAll; nothing resident may name a retired slot.
    EXPECT_GT(tracker->retired(), 0) << "rebuild retired nothing";
    for (int id : tracker->ResidentPages()) {
      EXPECT_TRUE(storage->tree()->IsLiveNode(id))
          << "phantom page " << id << " resident after round " << round;
    }
  }

  // Persist the churned state and reopen: still bitwise-faithful.
  const std::string resaved = TestSnapPath("resaved");
  storage->Resave(resaved);
  std::unique_ptr<StorageEngine> reopened = StorageEngine::Open(resaved);
  KsprSolver solver(reopened->dataset(), reopened->tree());
  ExpectBitwiseEqual(solver.QueryRecord(focal, query),
                     FromScratch(*storage->dataset(), focal, query,
                                 storage->tree()->leaf_capacity(),
                                 storage->tree()->fanout()),
                     "reopened resaved snapshot");
}

TEST(StorageEngineTest, FixtureIsReusable) {
  FixtureParams params;
  params.n = 200;
  params.d = 3;
  params.seed = 5;
  const std::string first = StorageFixturePath(params);
  const std::string second = StorageFixturePath(params);
  EXPECT_EQ(first, second);
  std::unique_ptr<StorageEngine> storage = StorageEngine::Open(first);
  EXPECT_EQ(storage->dataset()->size(), params.n);
  EXPECT_EQ(storage->dataset()->dim(), params.d);
}

// ---------------------------------------------------------------------------
// Shared disk model.

TEST(DiskModelTest, TrackerUsesSharedConstant) {
  PageTracker tracker(4);
  EXPECT_EQ(tracker.read_latency_ms(), DiskModel::kReadLatencyMs);
  tracker.Access(1);
  tracker.Access(2);
  EXPECT_EQ(tracker.io_millis(), 2 * DiskModel::kReadLatencyMs);
}

// Regression: SetListener used to write listener_ without the tracker
// mutex, racing the locked reads inside Access/Retire — exactly the
// attach/detach-while-readers-run pattern BufferPool::DetachIo depends
// on. SetListener now serialises on the mutex; this hammers the pair
// under TSan and checks detach is a hard cutoff.
TEST(PageTrackerUnit, SetListenerRacesAccess) {
  class CountingListener : public PageTracker::Listener {
   public:
    void OnPageRead(int) override { reads.fetch_add(1); }
    void OnPageDropped(int) override { drops.fetch_add(1); }
    std::atomic<int> reads{0};
    std::atomic<int> drops{0};
  };

  PageTracker tracker(4);
  CountingListener listener;

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      int page = t;
      while (!stop.load(std::memory_order_relaxed)) {
        tracker.Access(page % 16);
        ++page;
      }
    });
  }
  for (int round = 0; round < 300; ++round) {
    tracker.SetListener(&listener);
    tracker.SetListener(nullptr);
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();

  // Detached: later misses must not reach the listener.
  const int reads_at_detach = listener.reads.load();
  const int drops_at_detach = listener.drops.load();
  for (int i = 100; i < 120; ++i) tracker.Access(i);
  EXPECT_EQ(listener.reads.load(), reads_at_detach);
  EXPECT_EQ(listener.drops.load(), drops_at_detach);

  // Attached: the hooks fire again, on the same mutex as the accesses.
  tracker.SetListener(&listener);
  tracker.Access(500);
  EXPECT_GT(listener.reads.load(), reads_at_detach);
}

}  // namespace
}  // namespace kspr
