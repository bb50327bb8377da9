#include "index/rtree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <unordered_map>

namespace kspr {

namespace {

// Recursive STR tiling: sorts `ids[begin, end)` by dimension `dim_idx` and
// splits into `slabs` contiguous runs, recursing on the remaining
// dimensions. After the deepest level, consecutive runs of `leaf_capacity`
// ids form leaves.
void StrSort(const Dataset& data, std::vector<RecordId>& ids, int begin,
             int end, int dim_idx, int leaf_capacity) {
  const int n = end - begin;
  if (n <= leaf_capacity || dim_idx >= data.dim()) return;
  std::sort(ids.begin() + begin, ids.begin() + end,
            [&](RecordId a, RecordId b) {
              return data.At(a, dim_idx) < data.At(b, dim_idx);
            });
  const int num_leaves = (n + leaf_capacity - 1) / leaf_capacity;
  const int remaining_dims = data.dim() - dim_idx;
  const int slabs = std::max(
      1, static_cast<int>(std::ceil(
             std::pow(static_cast<double>(num_leaves),
                      1.0 / static_cast<double>(remaining_dims)))));
  const int slab_size = (n + slabs - 1) / slabs;
  for (int s = begin; s < end; s += slab_size) {
    StrSort(data, ids, s, std::min(end, s + slab_size), dim_idx + 1,
            leaf_capacity);
  }
}

// Box volume (product of extents). Zero-extent dimensions make this 0 for
// many small boxes; the enlargement comparisons below fall back to the
// margin (extent sum) as a deterministic tie-break, the R*-tree trick for
// degenerate areas.
double Area(const Mbr& m) {
  double a = 1.0;
  for (int i = 0; i < m.lo.dim; ++i) a *= m.hi.v[i] - m.lo.v[i];
  return a;
}

double Margin(const Mbr& m) {
  double s = 0.0;
  for (int i = 0; i < m.lo.dim; ++i) s += m.hi.v[i] - m.lo.v[i];
  return s;
}

Mbr Union(const Mbr& a, const Mbr& b) {
  Mbr u = a;
  u.ExpandToMbr(b);
  return u;
}

bool Contains(const Mbr& m, const Vec& p) {
  for (int i = 0; i < p.dim; ++i) {
    if (p.v[i] < m.lo.v[i] || p.v[i] > m.hi.v[i]) return false;
  }
  return true;
}

// Guttman min fill: nodes condense below ~40% occupancy.
int MinFill(int capacity) { return std::max(1, (capacity * 2) / 5); }

// Quadratic-split distribution of `mbrs` into two groups. Deterministic:
// all ties break towards the lower entry index / group 1.
void QuadraticSplit(const std::vector<Mbr>& mbrs, int min_fill,
                    std::vector<int>* group1, std::vector<int>* group2) {
  const int n = static_cast<int>(mbrs.size());
  assert(n >= 2);

  // PickSeeds: the pair wasting the most area when covered together.
  int seed1 = 0;
  int seed2 = 1;
  double worst = -std::numeric_limits<double>::infinity();
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const Mbr u = Union(mbrs[i], mbrs[j]);
      const double waste =
          Area(u) - Area(mbrs[i]) - Area(mbrs[j]) + 1e-12 * Margin(u);
      if (waste > worst) {
        worst = waste;
        seed1 = i;
        seed2 = j;
      }
    }
  }

  group1->clear();
  group2->clear();
  group1->push_back(seed1);
  group2->push_back(seed2);
  Mbr box1 = mbrs[seed1];
  Mbr box2 = mbrs[seed2];

  std::vector<char> assigned(n, 0);
  assigned[seed1] = assigned[seed2] = 1;
  int remaining = n - 2;

  while (remaining > 0) {
    // If one group must absorb everything left to reach min fill, do so.
    if (static_cast<int>(group1->size()) + remaining == min_fill ||
        static_cast<int>(group2->size()) + remaining == min_fill) {
      std::vector<int>* target =
          static_cast<int>(group1->size()) + remaining == min_fill ? group1
                                                                   : group2;
      Mbr* box = target == group1 ? &box1 : &box2;
      for (int i = 0; i < n; ++i) {
        if (assigned[i]) continue;
        target->push_back(i);
        box->ExpandToMbr(mbrs[i]);
        assigned[i] = 1;
      }
      remaining = 0;
      break;
    }

    // PickNext: the entry with the strongest preference for one group.
    int pick = -1;
    double best_pref = -1.0;
    double d1_pick = 0.0;
    double d2_pick = 0.0;
    for (int i = 0; i < n; ++i) {
      if (assigned[i]) continue;
      const double d1 = Area(Union(box1, mbrs[i])) - Area(box1) +
                        1e-12 * (Margin(Union(box1, mbrs[i])) - Margin(box1));
      const double d2 = Area(Union(box2, mbrs[i])) - Area(box2) +
                        1e-12 * (Margin(Union(box2, mbrs[i])) - Margin(box2));
      const double pref = std::abs(d1 - d2);
      if (pref > best_pref) {
        best_pref = pref;
        pick = i;
        d1_pick = d1;
        d2_pick = d2;
      }
    }
    assert(pick >= 0);

    std::vector<int>* target;
    if (d1_pick < d2_pick) {
      target = group1;
    } else if (d2_pick < d1_pick) {
      target = group2;
    } else if (Area(box1) != Area(box2)) {
      target = Area(box1) < Area(box2) ? group1 : group2;
    } else {
      target = group1->size() <= group2->size() ? group1 : group2;
    }
    target->push_back(pick);
    (target == group1 ? box1 : box2).ExpandToMbr(mbrs[pick]);
    assigned[pick] = 1;
    --remaining;
  }
}

}  // namespace

RTree::RTree(RTree&& o) noexcept
    : nodes_(std::move(o.nodes_)),
      free_(std::move(o.free_)),
      root_(o.root_),
      height_(o.height_),
      live_nodes_(o.live_nodes_),
      leaf_capacity_(o.leaf_capacity_),
      fanout_(o.fanout_),
      tracker_(o.tracker_.load(std::memory_order_relaxed)),
      source_(o.source_.load(std::memory_order_relaxed)) {
  o.root_ = -1;
  o.height_ = 0;
  o.live_nodes_ = 0;
  o.tracker_.store(nullptr, std::memory_order_relaxed);
  o.source_.store(nullptr, std::memory_order_relaxed);
}

RTree& RTree::operator=(RTree&& o) noexcept {
  if (this != &o) {
    nodes_ = std::move(o.nodes_);
    free_ = std::move(o.free_);
    root_ = o.root_;
    height_ = o.height_;
    live_nodes_ = o.live_nodes_;
    leaf_capacity_ = o.leaf_capacity_;
    fanout_ = o.fanout_;
    tracker_.store(o.tracker_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    source_.store(o.source_.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
    o.root_ = -1;
    o.height_ = 0;
    o.live_nodes_ = 0;
    o.tracker_.store(nullptr, std::memory_order_relaxed);
    o.source_.store(nullptr, std::memory_order_relaxed);
  }
  return *this;
}

RTree RTree::FromStorage(const std::vector<EntrySummary>& summaries,
                         std::vector<int32_t> free_list, int root, int height,
                         int live_nodes, int leaf_capacity, int fanout,
                         NodeSource* source) {
  RTree t;
  t.nodes_.resize(summaries.size());
  for (size_t id = 0; id < summaries.size(); ++id) {
    t.nodes_[id].mbr = summaries[id].mbr;
    t.nodes_[id].count = summaries[id].count;
  }
  t.free_ = std::move(free_list);
  for (int32_t id : t.free_) t.nodes_[id].retired = true;
  t.root_ = root;
  t.height_ = height;
  t.live_nodes_ = live_nodes;
  t.leaf_capacity_ = leaf_capacity;
  t.fanout_ = fanout;
  t.source_.store(source, std::memory_order_release);
  return t;
}

void RTree::Materialize(const std::function<void(int, Node*)>& load) {
  if (source_.load(std::memory_order_acquire) == nullptr) return;
  for (size_t id = 0; id < nodes_.size(); ++id) {
    load(static_cast<int>(id), &nodes_[id]);
  }
  source_.store(nullptr, std::memory_order_release);
}

RTree RTree::BulkLoad(const Dataset& data, int leaf_capacity, int fanout) {
  RTree t;
  t.leaf_capacity_ = leaf_capacity;
  t.fanout_ = fanout;

  std::vector<RecordId> ids;
  ids.reserve(static_cast<size_t>(data.num_live()));
  for (RecordId i = 0; i < data.size(); ++i) {
    if (data.IsLive(i)) ids.push_back(i);
  }
  const int n = static_cast<int>(ids.size());
  if (n == 0) return t;

  StrSort(data, ids, 0, n, 0, leaf_capacity);

  // Level 0: leaves over consecutive id runs.
  std::vector<int> level;
  for (int begin = 0; begin < n; begin += leaf_capacity) {
    const int end = std::min(n, begin + leaf_capacity);
    Node node;
    node.leaf = true;
    node.items.assign(ids.begin() + begin, ids.begin() + end);
    node.count = end - begin;
    node.mbr = Mbr::Empty(data.dim());
    for (int i = begin; i < end; ++i) {
      node.mbr.ExpandToPoint(data.Get(ids[i]));
    }
    level.push_back(static_cast<int>(t.nodes_.size()));
    t.nodes_.push_back(std::move(node));
  }
  t.height_ = 1;

  // Upper levels: group consecutive `fanout` children.
  while (level.size() > 1) {
    std::vector<int> next;
    for (size_t begin = 0; begin < level.size();
         begin += static_cast<size_t>(fanout)) {
      const size_t end = std::min(level.size(), begin + fanout);
      Node node;
      node.leaf = false;
      node.mbr = Mbr::Empty(data.dim());
      node.count = 0;
      const int parent_id = static_cast<int>(t.nodes_.size());
      for (size_t i = begin; i < end; ++i) {
        node.items.push_back(level[i]);
        node.mbr.ExpandToMbr(t.nodes_[level[i]].mbr);
        node.count += t.nodes_[level[i]].count;
        t.nodes_[level[i]].parent = parent_id;
      }
      next.push_back(parent_id);
      t.nodes_.push_back(std::move(node));
    }
    level = std::move(next);
    ++t.height_;
  }
  t.root_ = level[0];
  t.live_nodes_ = static_cast<int>(t.nodes_.size());
  return t;
}

int RTree::AllocNode() {
  ++live_nodes_;
  if (!free_.empty()) {
    const int id = free_.back();
    free_.pop_back();
    nodes_[id] = Node{};
    return id;
  }
  nodes_.emplace_back();
  return static_cast<int>(nodes_.size()) - 1;
}

void RTree::FreeNode(int id) {
  if (PageTracker* t = tracker_.load(std::memory_order_acquire)) {
    t->Retire(id);
  }
  Node& n = nodes_[id];
  n.retired = true;
  n.parent = -1;
  n.count = 0;
  n.items.clear();
  n.items.shrink_to_fit();
  free_.push_back(id);
  --live_nodes_;
}

void RTree::FreeSubtree(int id) {
  if (!nodes_[id].leaf) {
    // Copy: FreeNode clears the items vector.
    const std::vector<int32_t> children = nodes_[id].items;
    for (int c : children) FreeSubtree(c);
  }
  FreeNode(id);
}

void RTree::CollectRecords(int id, std::vector<RecordId>* out) const {
  const Node& n = nodes_[id];
  if (n.leaf) {
    out->insert(out->end(), n.items.begin(), n.items.end());
    return;
  }
  for (int c : n.items) CollectRecords(c, out);
}

int RTree::ChooseChild(const Node& node, const Vec& p) const {
  int best = node.items[0];
  double best_enlarge = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (int c : node.items) {
    const Mbr& m = nodes_[c].mbr;
    Mbr grown = m;
    grown.ExpandToPoint(p);
    const double enlarge =
        Area(grown) - Area(m) + 1e-12 * (Margin(grown) - Margin(m));
    const double area = Area(m);
    if (enlarge < best_enlarge ||
        (enlarge == best_enlarge && area < best_area)) {
      best_enlarge = enlarge;
      best_area = area;
      best = c;
    }
  }
  return best;
}

void RTree::RecomputeNode(const Dataset& data, int nid) {
  Node& n = nodes_[nid];
  n.mbr = Mbr::Empty(data.dim());
  if (n.leaf) {
    for (int32_t rid : n.items) n.mbr.ExpandToPoint(data.Get(rid));
    n.count = static_cast<int32_t>(n.items.size());
    return;
  }
  n.count = 0;
  for (int c : n.items) {
    n.mbr.ExpandToMbr(nodes_[c].mbr);
    n.count += nodes_[c].count;
  }
}

int RTree::SplitNode(const Dataset& data, int nid) {
  // Snapshot entries before any allocation (AllocNode may reallocate
  // nodes_, invalidating references).
  const bool leaf = nodes_[nid].leaf;
  const std::vector<int32_t> entries = std::move(nodes_[nid].items);
  nodes_[nid].items.clear();

  std::vector<Mbr> mbrs;
  mbrs.reserve(entries.size());
  for (int32_t e : entries) {
    mbrs.push_back(leaf ? Mbr::OfPoint(data.Get(e)) : nodes_[e].mbr);
  }
  const int cap = leaf ? leaf_capacity_ : fanout_;
  std::vector<int> group1;
  std::vector<int> group2;
  QuadraticSplit(mbrs, MinFill(cap), &group1, &group2);

  const int sib = AllocNode();
  nodes_[sib].leaf = leaf;
  for (int i : group1) nodes_[nid].items.push_back(entries[i]);
  for (int i : group2) nodes_[sib].items.push_back(entries[i]);
  if (!leaf) {
    for (int32_t c : nodes_[sib].items) nodes_[c].parent = sib;
  }
  RecomputeNode(data, nid);
  RecomputeNode(data, sib);
  return sib;
}

void RTree::InsertImpl(const Dataset& data, RecordId id) {
  const Vec p = data.Get(id);

  if (root_ < 0) {
    const int r = AllocNode();
    Node& n = nodes_[r];
    n.leaf = true;
    n.count = 1;
    n.mbr = Mbr::OfPoint(p);
    n.items.push_back(id);
    root_ = r;
    height_ = 1;
    return;
  }

  // Least-enlargement descent to a leaf.
  int nid = root_;
  while (!nodes_[nid].leaf) nid = ChooseChild(nodes_[nid], p);

  nodes_[nid].items.push_back(id);
  for (int cur = nid; cur >= 0; cur = nodes_[cur].parent) {
    nodes_[cur].mbr.ExpandToPoint(p);
    ++nodes_[cur].count;
  }

  // Split overflow upwards.
  while (nid >= 0 &&
         static_cast<int>(nodes_[nid].items.size()) >
             (nodes_[nid].leaf ? leaf_capacity_ : fanout_)) {
    const int sib = SplitNode(data, nid);
    const int parent = nodes_[nid].parent;
    if (parent < 0) {
      const int r = AllocNode();
      Node& root = nodes_[r];
      root.leaf = false;
      root.items = {nid, sib};
      nodes_[nid].parent = r;
      nodes_[sib].parent = r;
      RecomputeNode(data, r);
      root_ = r;
      ++height_;
      break;
    }
    nodes_[parent].items.push_back(sib);
    nodes_[sib].parent = parent;
    // The parent's MBR and count are unchanged (same records, regrouped).
    nid = parent;
  }
}

void RTree::Insert(const Dataset& data, RecordId id) {
  assert(data.IsLive(id));
  assert(!disk_backed() && "Materialize before mutating a hollow tree");
  InsertImpl(data, id);
}

bool RTree::Delete(const Dataset& data, RecordId id) {
  assert(!disk_backed() && "Materialize before mutating a hollow tree");
  if (root_ < 0) return false;
  const Vec p = data.Get(id);

  // Find the leaf holding `id` among MBR-containing subtrees. Containment
  // is exact: MBRs are min/max over the stored doubles.
  int leaf = -1;
  std::vector<int> stack = {root_};
  while (!stack.empty() && leaf < 0) {
    const int nid = stack.back();
    stack.pop_back();
    const Node& n = nodes_[nid];
    if (!Contains(n.mbr, p)) continue;
    if (n.leaf) {
      if (std::find(n.items.begin(), n.items.end(), id) != n.items.end()) {
        leaf = nid;
      }
      continue;
    }
    for (int c : n.items) stack.push_back(c);
  }
  if (leaf < 0) return false;

  {
    auto& items = nodes_[leaf].items;
    items.erase(std::find(items.begin(), items.end(), id));
  }

  // Condense: walk to the root fixing aggregates; underfull non-root nodes
  // are detached and their remaining records queued for re-insertion.
  std::vector<RecordId> orphans;
  int nid = leaf;
  while (nid >= 0) {
    const int parent = nodes_[nid].parent;
    const int cap = nodes_[nid].leaf ? leaf_capacity_ : fanout_;
    if (parent >= 0 &&
        static_cast<int>(nodes_[nid].items.size()) < MinFill(cap)) {
      auto& pit = nodes_[parent].items;
      pit.erase(std::find(pit.begin(), pit.end(), nid));
      CollectRecords(nid, &orphans);
      FreeSubtree(nid);
    } else {
      RecomputeNode(data, nid);
    }
    nid = parent;
  }

  // Shrink the root: an internal root with one child hands the root role
  // down; an empty root (tree drained) resets to the empty state.
  while (root_ >= 0) {
    Node& r = nodes_[root_];
    if (r.items.empty()) {
      FreeNode(root_);
      root_ = -1;
      height_ = 0;
      break;
    }
    if (r.leaf || r.items.size() > 1) break;
    const int child = r.items[0];
    nodes_[child].parent = -1;
    FreeNode(root_);
    root_ = child;
    --height_;
  }

  for (RecordId orphan : orphans) InsertImpl(data, orphan);
  return true;
}

int64_t RTree::SizeBytes() const {
  int64_t bytes = static_cast<int64_t>(live_nodes_) * sizeof(Node);
  for (const Node& n : nodes_) {
    if (n.retired) continue;
    bytes += static_cast<int64_t>(n.items.capacity()) * sizeof(int32_t);
  }
  return bytes;
}

bool RTree::CheckInvariants(const Dataset& data, std::string* error) const {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };

  if (disk_backed()) {
    return fail("disk-backed tree: Materialize before CheckInvariants");
  }
  if (root_ < 0) {
    if (data.num_live() != 0) return fail("empty tree but live records");
    if (live_nodes_ != 0) return fail("empty tree but live_nodes != 0");
    return true;
  }
  if (nodes_[root_].parent != -1) return fail("root has a parent");

  std::unordered_map<RecordId, int> seen;
  int reachable = 0;
  int leaf_depth = -1;
  bool ok = true;
  std::string msg;

  auto dfs = [&](auto&& self, int nid, int depth) -> void {
    if (!ok) return;
    if (!IsLiveNode(nid)) {
      ok = false;
      msg = "reachable node " + std::to_string(nid) + " is retired/oob";
      return;
    }
    ++reachable;
    const Node& n = nodes_[nid];
    const int cap = n.leaf ? leaf_capacity_ : fanout_;
    if (static_cast<int>(n.items.size()) > cap) {
      ok = false;
      msg = "node " + std::to_string(nid) + " over capacity";
      return;
    }
    if (n.items.empty()) {
      ok = false;
      msg = "node " + std::to_string(nid) + " has no items";
      return;
    }
    Mbr expect = Mbr::Empty(data.dim());
    int32_t count = 0;
    if (n.leaf) {
      if (leaf_depth < 0) leaf_depth = depth;
      if (depth != leaf_depth) {
        ok = false;
        msg = "leaves at different depths";
        return;
      }
      for (int32_t rid : n.items) {
        if (!data.IsLive(rid)) {
          ok = false;
          msg = "tree holds dead record " + std::to_string(rid);
          return;
        }
        ++seen[rid];
        expect.ExpandToPoint(data.Get(rid));
        ++count;
      }
    } else {
      for (int c : n.items) {
        if (!IsLiveNode(c)) {
          ok = false;
          msg = "child " + std::to_string(c) + " retired/oob";
          return;
        }
        if (nodes_[c].parent != nid) {
          ok = false;
          msg = "bad parent link at node " + std::to_string(c);
          return;
        }
        self(self, c, depth + 1);
        if (!ok) return;
        expect.ExpandToMbr(nodes_[c].mbr);
        count += nodes_[c].count;
      }
    }
    if (count != n.count) {
      ok = false;
      msg = "count mismatch at node " + std::to_string(nid);
      return;
    }
    for (int j = 0; j < data.dim(); ++j) {
      if (expect.lo.v[j] != n.mbr.lo.v[j] ||
          expect.hi.v[j] != n.mbr.hi.v[j]) {
        ok = false;
        msg = "stale MBR at node " + std::to_string(nid);
        return;
      }
    }
  };
  dfs(dfs, root_, 0);
  if (!ok) return fail(msg);

  if (reachable != live_nodes_) {
    return fail("live_nodes_ " + std::to_string(live_nodes_) +
                " != reachable " + std::to_string(reachable));
  }
  if (height_ != leaf_depth + 1) return fail("height mismatch");
  if (static_cast<RecordId>(seen.size()) != data.num_live()) {
    return fail("tree holds " + std::to_string(seen.size()) + " records, " +
                std::to_string(data.num_live()) + " live in dataset");
  }
  for (const auto& [rid, cnt] : seen) {
    if (cnt != 1) {
      return fail("record " + std::to_string(rid) + " appears " +
                  std::to_string(cnt) + " times");
    }
  }
  return true;
}

}  // namespace kspr
