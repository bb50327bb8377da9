// Aggregate R-tree over the dataset (paper Sec 6.2, [24]).
//
// Built with Sort-Tile-Recursive (STR) bulk loading and maintained
// dynamically from there: Insert runs Guttman choose-subtree + quadratic
// node split, Delete condenses the tree on leaf/internal underflow by
// re-inserting the orphaned records. Every entry carries its MBR and the
// number of records in its subtree (G.num), which the LP-CTA look-ahead
// uses to advance rank bounds by whole groups.
//
// Node fetches are optionally routed through a PageTracker to model the
// disk-resident scenario of Appendix A. Freed nodes retire their page from
// the tracker's buffer (see page_tracker.h) and their ids are recycled by
// later inserts.
//
// Entry summaries: every slot's MBR and aggregate count stay resident in
// nodes_, in every tree, hollow ones included. EntryMbr/EntryCount read
// them and never fault a page or charge an access, so a caller that only
// needs a child's box (the look-ahead's group decisions, the BBS heap
// keys and dominance tests, the Lemma-5 pruning scan) decides the child
// from its parent's entry and fetches it only if it descends — the
// paper's Appendix A accounting, where a page is charged for the nodes a
// query opens.
//
// Disk-backed mode: a tree opened from a snapshot (storage/StorageEngine)
// starts HOLLOW — root/height/capacities and the entry summaries (from
// the snapshot directory) are known, but no node's items are, and every
// Fetch is served by the attached NodeSource (the storage BufferPool,
// which pages nodes in from the file on demand and does its own access
// accounting). A hollow tree answers every read-path call that goes
// through Fetch or the entry summaries; Insert/Delete/CheckInvariants/
// NodeAt need the whole structure and require Materialize first (the
// engine's update path does this automatically before mutating).
//
// Thread safety: Fetch is safe from many concurrent readers. Insert,
// Delete and Materialize are NOT — callers (the QueryEngine's update
// path) must quiesce all readers first.

#ifndef KSPR_INDEX_RTREE_H_
#define KSPR_INDEX_RTREE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "common/types.h"
#include "index/mbr.h"
#include "io/page_tracker.h"

namespace kspr {

class RTree {
 public:
  struct Node {
    Mbr mbr;
    int32_t count = 0;   // records in subtree (the aggregate)
    bool leaf = false;
    bool retired = false;  // freed slot awaiting id reuse; never reachable
    int32_t parent = -1;   // -1 for the root (and for retired slots)
    /// Leaf: record ids. Internal: child node ids. Bounded by
    /// leaf_capacity / fanout respectively (one entry of slack during a
    /// split).
    std::vector<int32_t> items;
  };

  /// A slot's entry summary as the snapshot directory stores it: the
  /// MBR and aggregate count its parent's entry carries.
  struct EntrySummary {
    Mbr mbr;
    int32_t count = 0;
  };

  /// Backing store for node pages in disk-backed mode. Implemented by
  /// storage/BufferPool: FetchNode pages the node in (charging its own
  /// PageTracker accounting), caches the decoded frame, and returns a
  /// reference that stays valid until the pool's next quiesce-point
  /// reclaim — evicted frames are parked, not destroyed, so references
  /// held across further fetches (parent node while visiting children)
  /// never dangle. Must be safe to call from many threads.
  class NodeSource {
   public:
    virtual ~NodeSource() = default;
    virtual const Node& FetchNode(int id) = 0;
  };

  /// Bulk-loads the tree over the LIVE records of `data`.
  /// `leaf_capacity`/`fanout` default to values giving ~4KB pages for
  /// d <= 8 (as in the paper's page-sized nodes) and are retained for the
  /// dynamic Insert/Delete path.
  static RTree BulkLoad(const Dataset& data, int leaf_capacity = 64,
                        int fanout = 64);

  /// Reconstructs a tree from snapshot metadata WITHOUT loading any node:
  /// one slot per entry of `summaries` (live and retired, ids preserved),
  /// each holding only its entry summary; every Fetch is served through
  /// `source`. The free list marks the retired slots and restores their
  /// reuse order so post-materialize dynamic inserts allocate the same
  /// ids a never-saved tree would.
  static RTree FromStorage(const std::vector<EntrySummary>& summaries,
                           std::vector<int32_t> free_list, int root,
                           int height, int live_nodes, int leaf_capacity,
                           int fanout, NodeSource* source);

  RTree() = default;
  // The atomic tracker slot suppresses the implicit move operations;
  // moving is only meaningful while no concurrent readers exist.
  RTree(RTree&& o) noexcept;
  RTree& operator=(RTree&& o) noexcept;
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  bool empty() const { return root_ < 0; }
  int root() const { return root_; }

  /// Live (reachable) nodes; retired slots are excluded.
  int num_nodes() const { return live_nodes_; }

  int height() const { return height_; }
  int leaf_capacity() const { return leaf_capacity_; }
  int fanout() const { return fanout_; }

  /// True iff `id` names a reachable node (not retired, not out of range).
  bool IsLiveNode(int id) const {
    return id >= 0 && id < static_cast<int>(nodes_.size()) &&
           !nodes_[id].retired;
  }

  /// Fetches a node. Disk-backed trees serve the fetch through the
  /// attached NodeSource (which pages the node in and does its own access
  /// accounting); in-memory trees serve from nodes_, charging a
  /// (simulated) page access when a tracker is attached. Safe to call
  /// from many threads concurrently: both slots are atomic, and
  /// PageTracker / the pool serialise internally.
  const Node& Fetch(int id) const {
    if (NodeSource* s = source_.load(std::memory_order_acquire)) {
      return s->FetchNode(id);
    }
    if (PageTracker* t = tracker_.load(std::memory_order_acquire)) {
      t->Access(id);
    }
    return nodes_[id];
  }

  /// Entry summary of live slot `id`: its MBR and the number of records
  /// in its subtree. Resident in hollow trees too; never faults a page
  /// and never charges an access, in either mode. Safe from many threads
  /// under the same rules as Fetch.
  const Mbr& EntryMbr(int id) const { return nodes_[id].mbr; }
  int32_t EntryCount(int id) const { return nodes_[id].count; }

  /// True while Fetch is served by a NodeSource (hollow tree).
  bool disk_backed() const {
    return source_.load(std::memory_order_acquire) != nullptr;
  }

  /// Loads every node slot into memory through `load` (storage decodes
  /// the page into the passed Node, retired slots included) and detaches
  /// the NodeSource: the tree becomes a plain in-memory tree, ready for
  /// Insert/Delete/NodeAt/CheckInvariants. `load` bypasses access
  /// accounting — materialisation is a bulk scan, not query traffic. The
  /// attached tracker, if any, keeps serving Fetch accounting afterwards.
  /// No-op on a tree that is not disk-backed. Callers must have quiesced
  /// all readers.
  void Materialize(const std::function<void(int, Node*)>& load);

  /// Dynamic insert of dataset record `id` (Guttman: least-enlargement
  /// descent, quadratic split on overflow, aggregate counts and MBRs
  /// maintained). Deterministic — no randomised choices.
  void Insert(const Dataset& data, RecordId id);

  /// Dynamic delete of record `id`. Underfull nodes (below the ~40% min
  /// fill) are condensed: the node is freed (page retired from the
  /// tracker) and its remaining records re-inserted. Returns false when
  /// the record is not in the tree.
  bool Delete(const Dataset& data, RecordId id);

  /// Attaches/detaches the page tracker (not owned). Fetches are counted
  /// while attached. May be called while readers are in flight; an
  /// individual Fetch sees either the old or the new tracker.
  void SetTracker(PageTracker* tracker) const {
    tracker_.store(tracker, std::memory_order_release);
  }

  /// Currently attached tracker (may be null).
  PageTracker* tracker() const {
    return tracker_.load(std::memory_order_acquire);
  }

  /// Total node slots ever allocated (live + retired). Slot ids are the
  /// page ids of the snapshot format.
  int num_slots() const { return static_cast<int>(nodes_.size()); }

  /// Direct untracked slot access for the snapshot writer and structural
  /// tests: no page accounting, no source indirection. Requires a
  /// materialized (non-disk-backed) tree.
  const Node& NodeAt(int id) const { return nodes_[id]; }

  /// Retired slots pending reuse, in LIFO order (the snapshot preserves
  /// it so reopened trees recycle ids identically).
  const std::vector<int32_t>& free_list() const { return free_; }

  /// Approximate size of the structure in bytes (live nodes only).
  int64_t SizeBytes() const;

  /// Exhaustive structural audit for tests: parent links, aggregate
  /// counts, exact MBRs, capacity bounds, uniform leaf depth, and that the
  /// reachable record multiset equals the dataset's live set. Returns
  /// false and describes the first violation in `*error` (may be null).
  bool CheckInvariants(const Dataset& data, std::string* error = nullptr)
      const;

 private:
  int AllocNode();
  void FreeNode(int id);
  void FreeSubtree(int id);
  void CollectRecords(int id, std::vector<RecordId>* out) const;
  int ChooseChild(const Node& node, const Vec& p) const;
  /// Splits overfull node `nid` into itself + a new sibling (quadratic
  /// split); returns the sibling id. Parents of moved children and both
  /// MBR/count aggregates are fixed; attaching the sibling is the
  /// caller's job.
  int SplitNode(const Dataset& data, int nid);
  void RecomputeNode(const Dataset& data, int nid);
  /// Insert without re-entrancy guards, used by both Insert and the
  /// condense re-insertion loop.
  void InsertImpl(const Dataset& data, RecordId id);

  std::vector<Node> nodes_;
  std::vector<int32_t> free_;  // retired slots, LIFO reuse
  int root_ = -1;
  int height_ = 0;
  int live_nodes_ = 0;
  int leaf_capacity_ = 64;
  int fanout_ = 64;
  mutable std::atomic<PageTracker*> tracker_{nullptr};
  /// Non-null while disk-backed (hollow): Fetch delegates here. Cleared
  /// by Materialize. Not owned.
  mutable std::atomic<NodeSource*> source_{nullptr};
};

}  // namespace kspr

#endif  // KSPR_INDEX_RTREE_H_
