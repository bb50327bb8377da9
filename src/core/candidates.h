// Candidate-set entry point for the sharded scatter-gather tier.
//
// A kSPR answer depends only on k-skyband records (paper Appendix B /
// Lemma 6: a record with >= k dominators can never push the focal out of
// a top-k cell), and the k-skyband distributes over any disjoint
// partition of the dataset:
//
//   kskyband(D) = kskyband( U_s kskyband(D_s) )   for D = U_s D_s
//
// (each shard's k-skyband is taken over its own slice; a record with
// >= k dominators globally has, summed over shards, >= k dominators that
// are themselves shard-skyband members — order the dominators inside one
// shard topologically and the first min(k, .) of them are in that shard's
// skyband — so the outer reduction removes it again). The sharded serving
// tier exploits exactly this: every shard returns its LOCAL k-skyband,
// and the functions here reduce the merged union to a canonical candidate
// set and run the cell-tree arrangement over it. Because the reduction
// result is independent of how the data was partitioned, the final
// KsprResult — regions AND stats — is bitwise-identical for every shard
// count, which is what the sharding gates in tests/test_sharding.cc and
// bench/bench_sharding.cc assert.
//
// Canonicalisation contract (the order of these steps is load-bearing):
//   1. merge per-shard skybands (disjoint by construction),
//   2. ReduceToGlobalSkyband: keep records with < k dominators inside the
//      merged set — the global k-skyband, independent of the partition,
//   3. FilterFocalCovered: drop records the focal weakly dominates
//      (dominated records and full-attribute ties) — exactly the records
//      PrepareQuery would skip, so the answer is unchanged but the
//      candidate set no longer depends on provably-invisible records,
//   4. sort by global id ascending,
//   5. SolveOnCandidates: materialise the candidates as a fresh Dataset
//      (in sorted order), STR-bulk-load an R-tree over it and run the
//      requested algorithm with the focal as a hypothetical record.
//
// Step 3 is also what makes the router's update-time retention test
// exact. A focal's candidate list is sort(filter_f(kskyband(D))); if the
// focal weakly dominates every record that entered or left the GLOBAL
// k-skyband, the filter removes all of them and the list — hence the
// result, bitwise — is unchanged. MergedSkyband below keeps the global
// k-skyband at the router so that this diff is known per batch (see
// shard/shard_router.h).

#ifndef KSPR_CORE_CANDIDATES_H_
#define KSPR_CORE_CANDIDATES_H_

#include <vector>

#include "common/types.h"
#include "common/vec.h"
#include "core/options.h"
#include "core/region.h"
#include "index/mbr.h"  // WeaklyDominates: the retention / focal-filter test

namespace kspr {

/// One candidate record as shipped by a shard: its global id plus its
/// attribute values (the router never holds the shard datasets, so values
/// travel with the id).
struct Candidate {
  RecordId global_id = kInvalidRecord;
  Vec value;
};

// (WeaklyDominates(a, b) — a >= b in every dimension, i.e. strict
// dominance or a full-attribute tie — comes from index/mbr.h. The records
// PrepareQuery drops for a focal p are exactly those with
// WeaklyDominates(p, r).)

/// Reduces a merged union of per-shard k-skybands to the global
/// k-skyband: keeps records with fewer than `k` dominators within
/// `candidates` itself. Preserves relative order.
void ReduceToGlobalSkyband(std::vector<Candidate>* candidates, int k);

/// Drops candidates weakly dominated by `focal` (they can never outscore
/// it anywhere in preference space; PrepareQuery skips them). Preserves
/// relative order. Note the focal's own record, if present, ties with
/// itself and is dropped here — SolveOnCandidates queries the focal as a
/// hypothetical record.
void FilterFocalCovered(std::vector<Candidate>* candidates,
                        const Vec& focal);

/// Sorts candidates by ascending global id — the canonical arrangement
/// insertion order (CTA inserts hyperplanes in dataset order, and the
/// candidate Dataset is materialised in this order).
void SortCandidates(std::vector<Candidate>* candidates);

/// The merged union U of per-shard k-skybands for one k, kept across
/// update batches: the members in ascending global id, each with its exact
/// number of dominators inside U. The members with fewer than k dominators
/// are the global k-skyband (step 2 above).
///
/// Global ids are never reused and records never change value, so two
/// unions with the same id set are the same union; SameMembers is how a
/// caller checks a fresh scatter against the kept state before reading
/// GlobalSkyband from it.
class MergedSkyband {
 public:
  explicit MergedSkyband(int k) : k_(k) {}

  size_t size() const { return members_.size(); }

  /// Replaces U with `candidates` (any order, distinct ids). O(|U|^2):
  /// each pair of members is compared once.
  void Assign(const std::vector<Candidate>& candidates);

  /// Toggles every record of `changed` — the records that entered or left
  /// some shard's local k-skyband, so the records of U_pre Δ U_post — into
  /// or out of U, keeping every dominator count exact. Returns the records
  /// whose global k-skyband membership flipped (G_pre Δ G_post), in
  /// ascending id, with their values.
  std::vector<Candidate> Apply(const std::vector<Candidate>& changed);

  /// True iff `candidates` (any order, distinct ids) holds exactly U's ids.
  bool SameMembers(const std::vector<Candidate>& candidates) const;

  /// The members with fewer than k dominators inside U, in ascending id:
  /// the result of ReduceToGlobalSkyband + SortCandidates over U.
  std::vector<Candidate> GlobalSkyband() const;

 private:
  struct Member {
    Candidate record;
    int dominators = 0;
  };

  /// Index of `id` in members_, or of the first larger id.
  size_t Position(RecordId id) const;
  bool Contains(RecordId id) const;

  int k_;
  std::vector<Member> members_;  // ascending global id
};

/// Runs the merged arrangement: builds a Dataset holding exactly
/// `candidates` (in their current order), bulk-loads an R-tree with the
/// given parameters and answers the kSPR query for `focal` as a
/// hypothetical record with `options`. The result is a deterministic
/// function of (candidates, focal, options, leaf_capacity, fanout) —
/// nothing else — which is the bitwise shard-count-independence argument.
KsprResult SolveOnCandidates(const std::vector<Candidate>& candidates,
                             const Vec& focal, const KsprOptions& options,
                             int leaf_capacity, int fanout);

}  // namespace kspr

#endif  // KSPR_CORE_CANDIDATES_H_
