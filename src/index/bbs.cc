#include "index/bbs.h"

#include <algorithm>

namespace kspr {

namespace {

// One BBS heap entry: a record (its corner is its row) or an R-tree node
// (its corner is the max corner of its resident entry summary). Kept at
// 16 bytes, with corners looked up on demand, so heap sifts move little.
struct HeapEntry {
  double key;    // CoordinateSum of the entry's corner
  int code;      // record id, or ~node id (negative) for a node
  int checked;   // Skyline: skyline records already tested at push time

  bool is_record() const { return code >= 0; }
  int id() const { return is_record() ? code : ~code; }
};

// The total pop order documented in bbs.h: as a heap "less than", a < b
// iff b pops before a.
struct PopsAfter {
  const Dataset* data;
  const RTree* tree;

  const double* Corner(const HeapEntry& e) const {
    return e.is_record() ? data->Row(e.code)
                         : tree->EntryMbr(~e.code).hi.v.data();
  }
  bool operator()(const HeapEntry& a, const HeapEntry& b) const {
    if (a.key != b.key) [[likely]] return a.key < b.key;
    return TieBreak(a, b);
  }

  // Equal keys are rare. Kept out of line: inlined, this path slowed the
  // heap's sift loops measurably.
  [[gnu::noinline]] bool TieBreak(const HeapEntry& a,
                                  const HeapEntry& b) const {
    const double* ca = Corner(a);
    const double* cb = Corner(b);
    for (int i = 0; i < data->dim(); ++i) {
      if (ca[i] != cb[i]) return ca[i] < cb[i];
    }
    if (a.is_record() != b.is_record()) return a.is_record();
    return a.id() > b.id();
  }
};

// Max-heap over thread_local storage, so repeated BBS runs on one thread
// reuse its capacity. Not reentrant: one heap per thread at a time.
class BbsHeap {
 public:
  BbsHeap(const Dataset& data, const RTree& tree)
      : order_{&data, &tree}, v_(Storage()) {
    v_.clear();
  }

  bool empty() const { return v_.empty(); }

  void PushRecord(RecordId rid, int checked) {
    Push(HeapEntry{CoordinateSum(order_.data->Row(rid), order_.data->dim()),
                   rid, checked});
  }
  void PushNode(int id, int checked) {
    Push(HeapEntry{order_.tree->EntryMbr(id).MaxSum(), ~id, checked});
  }

  HeapEntry Pop() {
    std::pop_heap(v_.begin(), v_.end(), order_);
    const HeapEntry e = v_.back();
    v_.pop_back();
    return e;
  }

  const double* Corner(const HeapEntry& e) const { return order_.Corner(e); }

 private:
  void Push(const HeapEntry& e) {
    v_.push_back(e);
    std::push_heap(v_.begin(), v_.end(), order_);
  }

  static std::vector<HeapEntry>& Storage() {
    thread_local std::vector<HeapEntry> storage;
    return storage;
  }

  PopsAfter order_;
  std::vector<HeapEntry>& v_;
};

}  // namespace

std::vector<RecordId> Skyline(const Dataset& data, const RTree& tree,
                              const std::vector<char>* exclude) {
  std::vector<RecordId> sky;
  if (tree.empty()) return sky;

  const int d = data.dim();
  // The skyline's rows, d doubles per record, in `sky` order.
  thread_local std::vector<double> sky_rows;
  sky_rows.clear();
  // True iff a skyline record at index `from` or later dominates v.
  auto dominated = [&](const double* v, int from) {
    const size_t stride = static_cast<size_t>(d);
    for (size_t off = static_cast<size_t>(from) * stride;
         off < sky_rows.size(); off += stride) {
      if (Dataset::Dominates(&sky_rows[off], v, d)) return true;
    }
    return false;
  };

  BbsHeap heap(data, tree);
  heap.PushNode(tree.root(), /*checked=*/0);
  while (!heap.empty()) {
    const HeapEntry e = heap.Pop();
    const double* corner = heap.Corner(e);
    if (dominated(corner, e.checked)) continue;
    if (e.is_record()) {
      sky.push_back(e.code);
      sky_rows.insert(sky_rows.end(), corner, corner + d);
      continue;
    }
    // Only nodes that survive their entry-summary test are fetched.
    const RTree::Node& node = tree.Fetch(e.id());
    const int checked = static_cast<int>(sky.size());
    if (node.leaf) {
      for (RecordId rid : node.items) {
        if (exclude != nullptr && (*exclude)[rid]) continue;
        if (dominated(data.Row(rid), 0)) continue;
        heap.PushRecord(rid, checked);
      }
    } else {
      for (int c : node.items) {
        if (dominated(tree.EntryMbr(c).hi.v.data(), 0)) continue;
        heap.PushNode(c, checked);
      }
    }
  }
  return sky;
}

std::vector<RecordId> KSkyband(const Dataset& data, const RTree& tree, int k) {
  std::vector<RecordId> band;
  if (tree.empty()) return band;

  const int d = data.dim();
  auto dominator_count = [&](const double* v) {
    int cnt = 0;
    for (RecordId s : band) {
      if (Dataset::Dominates(data.Row(s), v, d) && ++cnt >= k) break;
    }
    return cnt;
  };

  BbsHeap heap(data, tree);
  heap.PushNode(tree.root(), /*checked=*/0);
  while (!heap.empty()) {
    const HeapEntry e = heap.Pop();
    if (dominator_count(heap.Corner(e)) >= k) continue;
    if (e.is_record()) {
      band.push_back(e.code);
      continue;
    }
    // Decided from the entry summary; only survivors are fetched.
    const RTree::Node& node = tree.Fetch(e.id());
    if (node.leaf) {
      for (RecordId rid : node.items) heap.PushRecord(rid, /*checked=*/0);
    } else {
      for (int c : node.items) heap.PushNode(c, /*checked=*/0);
    }
  }
  return band;
}

int CountDominators(const Dataset& data, RecordId r) {
  int cnt = 0;
  for (RecordId i = 0; i < data.size(); ++i) {
    if (i != r && data.IsLive(i) && data.Dominates(i, r)) ++cnt;
  }
  return cnt;
}

bool ExistsUnprocessedNotDominated(
    const Dataset& data, const RTree& tree, const PivotSet& pivots,
    const std::vector<char>& processed,
    const std::vector<char>* skip, RecordId* witness) {
  if (tree.empty()) return false;
  std::vector<int> stack = {tree.root()};
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();
    // Prune: some pivot weakly dominates the whole box (Lemma 5 -- no
    // record inside can change the cell's rank or extent). Decided from
    // the entry summary, so a pruned subtree's page is never fetched.
    if (pivots.DominatesBox(tree.EntryMbr(id))) continue;
    const RTree::Node& node = tree.Fetch(id);
    if (node.leaf) {
      for (RecordId rid : node.items) {
        if (processed[rid]) continue;
        if (skip != nullptr && (*skip)[rid]) continue;
        if (!pivots.DominatesPoint(data.Row(rid))) {
          if (witness != nullptr) *witness = rid;
          return true;
        }
      }
    } else {
      for (int c : node.items) {
        stack.push_back(c);
      }
    }
  }
  return false;
}

}  // namespace kspr
