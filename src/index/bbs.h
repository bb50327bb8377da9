// Branch-and-bound skyline (BBS, [25]) and related dominance queries.
//
// Convention throughout: LARGER attribute values are better, so the skyline
// is the set of maxima. P-CTA uses BBS twice: for the first batch (the
// skyline of D) and for batch recomputation, where the skyline is taken
// over D minus an exclusion set (the union of non-pivot records, Sec 5).
//
// Pop order. The BBS heap holds records (keyed by their row) and R-tree
// nodes (keyed by the max corner of their resident entry summary). It
// pops in one total order: larger coordinate sum first, then the
// lexicographically larger corner, then nodes before records, then the
// smaller id. The order is correct for BBS: if a dominates b, then
// sum(a) >= sum(b) (rounded addition is monotone) and a is
// lexicographically larger than b, so a pops first even when the two sums
// round to the same value; a node's max corner weakly dominates everything
// inside it, so a node pops no later than its contents. Every record is
// therefore popped after all of its dominators, and the output order is
// fixed by the comparator, not by the heap's internals.
//
// Push-time pruning (Skyline). The skyline only grows, so an entry the
// current skyline dominates would also be discarded when popped: a leaf's
// record is not pushed when it is excluded or dominated, and a child node
// is not pushed when its max corner is dominated. The exclusion set is a
// flag array indexed by record id, tested before the dominance scan. A
// popped entry is tested only against the skyline records added since it
// was pushed. The skyline's coordinates live in one flat buffer, and the
// heap and that buffer are thread_local scratch, so repeated calls
// allocate only the returned vector. Which nodes are fetched, and in what
// order, is the same as with pop-time tests alone.

#ifndef KSPR_INDEX_BBS_H_
#define KSPR_INDEX_BBS_H_

#include <vector>

#include "common/dataset.h"
#include "common/types.h"
#include "index/mbr.h"
#include "index/rtree.h"

namespace kspr {

/// Skyline of D minus the records flagged in `exclude` (may be null; when
/// given it is indexed by record id and covers every record of D).
/// Returned in BBS pop order (see above).
std::vector<RecordId> Skyline(const Dataset& data, const RTree& tree,
                              const std::vector<char>* exclude = nullptr);

/// k-skyband: records dominated by fewer than k others (Appendix B).
/// Returned in BBS pop order (see above); no push-time pruning.
std::vector<RecordId> KSkyband(const Dataset& data, const RTree& tree, int k);

/// Count of records dominating `r` (used by tests as an oracle).
int CountDominators(const Dataset& data, RecordId r);

/// Lemma-5 reportability check for P-CTA: returns true iff some record of D
/// not flagged in `processed` (and not flagged in `skip`, which may be
/// null) is NOT weakly dominated by any pivot in `pivots`. Both flag arrays
/// are indexed by record id and cover every record of D. When true and
/// `witness` is non-null, one such record id is stored there.
bool ExistsUnprocessedNotDominated(const Dataset& data, const RTree& tree,
                                   const PivotSet& pivots,
                                   const std::vector<char>& processed,
                                   const std::vector<char>* skip,
                                   RecordId* witness);

}  // namespace kspr

#endif  // KSPR_INDEX_BBS_H_
