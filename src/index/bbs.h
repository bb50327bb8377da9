// Branch-and-bound skyline (BBS, [25]) and related dominance queries.
//
// Convention throughout: LARGER attribute values are better, so the skyline
// is the set of maxima. P-CTA uses BBS twice: for the first batch (the
// skyline of D) and for batch recomputation, where the skyline is taken
// over D minus an exclusion set (the union of non-pivot records, Sec 5).

#ifndef KSPR_INDEX_BBS_H_
#define KSPR_INDEX_BBS_H_

#include <unordered_set>
#include <vector>

#include "common/dataset.h"
#include "common/types.h"
#include "index/rtree.h"

namespace kspr {

/// Skyline of D minus `exclude` (may be null). Returned in BBS pop order
/// (decreasing coordinate sum).
std::vector<RecordId> Skyline(
    const Dataset& data, const RTree& tree,
    const std::unordered_set<RecordId>* exclude = nullptr);

/// k-skyband: records dominated by fewer than k others (Appendix B).
std::vector<RecordId> KSkyband(const Dataset& data, const RTree& tree, int k);

/// Count of records dominating `r` (used by tests as an oracle).
int CountDominators(const Dataset& data, RecordId r);

/// Lemma-5 reportability check for P-CTA: returns true iff some record of D
/// not flagged in `processed` (and not flagged in `skip`, which may be
/// null) is NOT weakly dominated by any pivot in `pivots`. Both flag arrays
/// are indexed by record id and cover every record of D. When true and
/// `witness` is non-null, one such record id is stored there.
bool ExistsUnprocessedNotDominated(const Dataset& data, const RTree& tree,
                                   const std::vector<Vec>& pivots,
                                   const std::vector<char>& processed,
                                   const std::vector<char>* skip,
                                   RecordId* witness);

}  // namespace kspr

#endif  // KSPR_INDEX_BBS_H_
