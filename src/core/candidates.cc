#include "core/candidates.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <iterator>

#include "common/dataset.h"
#include "core/solver.h"
#include "index/rtree.h"

namespace kspr {

void ReduceToGlobalSkyband(std::vector<Candidate>* candidates, int k) {
  // O(|U|^2) pairwise counting with an early cap at k. The merged union U
  // is skyband-sized (hundreds at serving scale), so quadratic work here
  // is dwarfed by the arrangement that follows.
  const std::vector<Candidate>& u = *candidates;
  std::vector<char> keep(u.size(), 1);
  for (size_t i = 0; i < u.size(); ++i) {
    int dominators = 0;
    for (size_t j = 0; j < u.size(); ++j) {
      if (j == i) continue;
      if (Dataset::Dominates(u[j].value, u[i].value) && ++dominators >= k) {
        break;
      }
    }
    if (dominators >= k) keep[i] = 0;
  }
  size_t out = 0;
  for (size_t i = 0; i < u.size(); ++i) {
    if (keep[i]) (*candidates)[out++] = (*candidates)[i];
  }
  candidates->resize(out);
}

void FilterFocalCovered(std::vector<Candidate>* candidates,
                        const Vec& focal) {
  candidates->erase(
      std::remove_if(candidates->begin(), candidates->end(),
                     [&focal](const Candidate& c) {
                       return WeaklyDominates(focal, c.value);
                     }),
      candidates->end());
}

void SortCandidates(std::vector<Candidate>* candidates) {
  std::sort(candidates->begin(), candidates->end(),
            [](const Candidate& a, const Candidate& b) {
              return a.global_id < b.global_id;
            });
}

namespace {

/// Dataset::Dominates in both directions from one pass over the
/// attributes: +1 if a dominates b, -1 if b dominates a, 0 otherwise
/// (incomparable, or a full-attribute tie).
int DominanceOrder(const Vec& a, const Vec& b) {
  bool a_greater = false;
  bool b_greater = false;
  for (int i = 0; i < a.dim; ++i) {
    if (a.v[i] > b.v[i]) {
      a_greater = true;
    } else if (a.v[i] < b.v[i]) {
      b_greater = true;
    }
  }
  if (a_greater == b_greater) return 0;
  return a_greater ? 1 : -1;
}

/// Records whose id is in exactly one of two id-sorted lists, in id order.
std::vector<Candidate> SymmetricDifference(const std::vector<Candidate>& a,
                                           const std::vector<Candidate>& b) {
  std::vector<Candidate> out;
  std::set_symmetric_difference(
      a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out),
      [](const Candidate& x, const Candidate& y) {
        return x.global_id < y.global_id;
      });
  return out;
}

}  // namespace

void MergedSkyband::Assign(const std::vector<Candidate>& candidates) {
  members_.clear();
  members_.reserve(candidates.size());
  for (const Candidate& c : candidates) members_.push_back({c, 0});
  std::sort(members_.begin(), members_.end(),
            [](const Member& a, const Member& b) {
              return a.record.global_id < b.record.global_id;
            });
  for (size_t i = 0; i < members_.size(); ++i) {
    for (size_t j = i + 1; j < members_.size(); ++j) {
      const int order =
          DominanceOrder(members_[i].record.value, members_[j].record.value);
      if (order > 0) {
        ++members_[j].dominators;
      } else if (order < 0) {
        ++members_[i].dominators;
      }
    }
  }
}

size_t MergedSkyband::Position(RecordId id) const {
  return static_cast<size_t>(
      std::lower_bound(members_.begin(), members_.end(), id,
                       [](const Member& m, RecordId target) {
                         return m.record.global_id < target;
                       }) -
      members_.begin());
}

bool MergedSkyband::Contains(RecordId id) const {
  const size_t pos = Position(id);
  return pos < members_.size() && members_[pos].record.global_id == id;
}

std::vector<Candidate> MergedSkyband::Apply(
    const std::vector<Candidate>& changed) {
  const std::vector<Candidate> before = GlobalSkyband();
  for (const Candidate& c : changed) {
    const auto at = members_.begin() +
                    static_cast<std::ptrdiff_t>(Position(c.global_id));
    if (at != members_.end() && at->record.global_id == c.global_id) {
      // Left its shard's skyband: it no longer counts against anything.
      members_.erase(at);
      for (Member& m : members_) {
        if (Dataset::Dominates(c.value, m.record.value)) --m.dominators;
      }
      continue;
    }
    // Entered its shard's skyband.
    int dominators = 0;
    for (Member& m : members_) {
      const int order = DominanceOrder(c.value, m.record.value);
      if (order > 0) {
        ++m.dominators;
      } else if (order < 0) {
        ++dominators;
      }
    }
    members_.insert(at, {c, dominators});
  }
  return SymmetricDifference(before, GlobalSkyband());
}

bool MergedSkyband::SameMembers(
    const std::vector<Candidate>& candidates) const {
  // Ids are distinct on both sides, so equal sizes plus containment is
  // set equality.
  return candidates.size() == members_.size() &&
         std::all_of(candidates.begin(), candidates.end(),
                     [this](const Candidate& c) {
                       return Contains(c.global_id);
                     });
}

std::vector<Candidate> MergedSkyband::GlobalSkyband() const {
  std::vector<Candidate> out;
  for (const Member& m : members_) {
    if (m.dominators < k_) out.push_back(m.record);
  }
  return out;
}

KsprResult SolveOnCandidates(const std::vector<Candidate>& candidates,
                             const Vec& focal, const KsprOptions& options,
                             int leaf_capacity, int fanout) {
  Dataset mini(focal.dim);
  mini.Reserve(static_cast<RecordId>(candidates.size()));
  for (const Candidate& c : candidates) {
    assert(c.value.dim == focal.dim);
    mini.Add(c.value);
  }
  RTree tree = RTree::BulkLoad(mini, leaf_capacity, fanout);
  KsprSolver solver(&mini, &tree);
  return solver.Query(focal, options);
}

}  // namespace kspr
