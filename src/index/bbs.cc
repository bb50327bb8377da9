#include "index/bbs.h"

#include <queue>

namespace kspr {

namespace {

struct HeapEntry {
  double key;        // MaxSum of the entry; larger pops first
  bool is_record;
  int id;            // node id or (leaf position for records, see below)
  RecordId rid = kInvalidRecord;

  bool operator<(const HeapEntry& o) const { return key < o.key; }
};

// Pushes the children of `node` (records for leaves). Child keys come
// from the resident entry summaries: no child page is fetched.
void PushChildren(const Dataset& data, const RTree& tree,
                  const RTree::Node& node, std::priority_queue<HeapEntry>* pq) {
  if (node.leaf) {
    for (RecordId rid : node.items) {
      HeapEntry e;
      e.is_record = true;
      e.id = -1;
      e.rid = rid;
      // Vec::Sum over the row, in the same order.
      const double* row = data.Row(rid);
      e.key = 0.0;
      for (int i = 0; i < data.dim(); ++i) e.key += row[i];
      pq->push(e);
    }
  } else {
    for (int c : node.items) {
      HeapEntry e;
      e.is_record = false;
      e.id = c;
      e.key = tree.EntryMbr(c).MaxSum();
      pq->push(e);
    }
  }
}

}  // namespace

std::vector<RecordId> Skyline(const Dataset& data, const RTree& tree,
                              const std::unordered_set<RecordId>* exclude) {
  std::vector<RecordId> sky;
  if (tree.empty()) return sky;

  const int d = data.dim();
  auto dominated = [&](const double* v) {
    for (RecordId s : sky) {
      if (Dataset::Dominates(data.Row(s), v, d)) return true;
    }
    return false;
  };

  std::priority_queue<HeapEntry> pq;
  {
    HeapEntry e;
    e.is_record = false;
    e.id = tree.root();
    e.key = tree.EntryMbr(tree.root()).MaxSum();
    pq.push(e);
  }
  while (!pq.empty()) {
    HeapEntry e = pq.top();
    pq.pop();
    if (e.is_record) {
      if (dominated(data.Row(e.rid))) continue;
      if (exclude != nullptr && exclude->contains(e.rid)) continue;
      sky.push_back(e.rid);
    } else {
      // Decided from the entry summary; only survivors are fetched.
      if (dominated(tree.EntryMbr(e.id).hi.v.data())) continue;
      PushChildren(data, tree, tree.Fetch(e.id), &pq);
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

  std::priority_queue<HeapEntry> pq;
  {
    HeapEntry e;
    e.is_record = false;
    e.id = tree.root();
    e.key = tree.EntryMbr(tree.root()).MaxSum();
    pq.push(e);
  }
  while (!pq.empty()) {
    HeapEntry e = pq.top();
    pq.pop();
    if (e.is_record) {
      if (dominator_count(data.Row(e.rid)) < k) band.push_back(e.rid);
    } else {
      if (dominator_count(tree.EntryMbr(e.id).hi.v.data()) >= k) continue;
      PushChildren(data, tree, tree.Fetch(e.id), &pq);
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
    const Dataset& data, const RTree& tree, const std::vector<Vec>& pivots,
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
    const Mbr& box = tree.EntryMbr(id);
    bool pruned = false;
    for (const Vec& piv : pivots) {
      if (box.WeaklyDominatedBy(piv)) {
        pruned = true;
        break;
      }
    }
    if (pruned) continue;
    const RTree::Node& node = tree.Fetch(id);
    if (node.leaf) {
      for (RecordId rid : node.items) {
        if (processed[rid]) continue;
        if (skip != nullptr && (*skip)[rid]) continue;
        const double* v = data.Row(rid);
        bool dom = false;
        for (const Vec& piv : pivots) {
          if (WeaklyDominates(piv, v)) {
            dom = true;
            break;
          }
        }
        if (!dom) {
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
