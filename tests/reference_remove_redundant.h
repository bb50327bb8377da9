// Test-only oracle: redundancy elimination with one full solver rebuild
// per test.
//
// This is RemoveRedundant as it was before the prefix snapshot: test i
// runs CellBoundSolver::Reset over the kept set with index i skipped, so
// it builds the space-row tableau and dual-appends every other kept row in
// order, about m^2 appends per region. The library's prefix-snapshot
// version must return the same kept rows bit for bit and count the same
// finalize LPs (test_geom.cc). It is not linked into the library.

#ifndef KSPR_TESTS_REFERENCE_REMOVE_REDUNDANT_H_
#define KSPR_TESTS_REFERENCE_REMOVE_REDUNDANT_H_

#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "lp/feasibility.h"

namespace kspr::reference {

inline std::vector<LinIneq> RemoveRedundantPerSkip(
    Space space, int dim, const std::vector<LinIneq>& cons,
    KsprStats* stats) {
  std::vector<LinIneq> kept = cons;
  CellBoundSolver solver;
  for (size_t i = 0; i < kept.size();) {
    if (stats != nullptr) ++stats->finalize_lps;
    solver.Reset(space, dim, kept.data(), static_cast<int>(kept.size()),
                 static_cast<int>(i));
    BoundResult r = solver.Maximize(kept[i].a, 0.0, /*stats=*/nullptr);
    if (r.ok && r.value <= kept[i].b + tol::kGeom) {
      kept.erase(kept.begin() + static_cast<long>(i));
    } else {
      ++i;
    }
  }
  return kept;
}

}  // namespace kspr::reference

#endif  // KSPR_TESTS_REFERENCE_REMOVE_REDUNDANT_H_
