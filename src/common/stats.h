// Instrumentation counters reported by all kSPR algorithms. These back the
// side metrics in the paper's evaluation (processed records, CellTree nodes,
// space consumption, LP calls, I/O reads).

#ifndef KSPR_COMMON_STATS_H_
#define KSPR_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>

namespace kspr {

/// The one list of KsprStats counters, in field (layout) order: X(name)
/// per counter. The fields, KsprStats::Add, StatsBitwiseEqual and the test
/// helpers all expand it, so a counter is added or removed here only.
/// bench_fingerprint hashes the raw struct bytes: reordering this list
/// changes every fingerprint.
#define KSPR_STATS_COUNTERS(X)                                              \
  /* Records whose hyperplanes were inserted into the CellTree             \
     (Fig 11(a), Fig 20(a)). */                                             \
  X(processed_records)                                                      \
  /* Total CellTree nodes created (Fig 11(b)). */                           \
  X(cell_tree_nodes)                                                        \
  /* CellTree nodes alive (not eliminated/reported) at termination. */      \
  X(live_leaves)                                                            \
  /* Calls into the simplex solver, split by purpose. */                    \
  X(feasibility_lps) /* cell nonemptiness tests (Sec 4.2) */                \
  X(bound_lps)       /* score/rank bound LPs (Sec 6) */                     \
  X(finalize_lps)    /* redundancy tests during finalisation */             \
  /* Feasibility tests short-circuited by the cached witness point         \
     (Sec 4.3.2) or by the dominance-graph shortcut (Sec 5). */             \
  X(witness_hits)                                                           \
  X(dominance_shortcuts)                                                    \
  /* LP kernel path taken per solve: warm starts reuse a parent-optimal    \
     tableau (dual-simplex row append or objective reload), cold starts    \
     run the two-phase solver from scratch. lp_skipped_by_ball counts      \
     side tests the cached inscribed ball decided with no LP at all. */    \
  X(lp_warm_starts)                                                         \
  X(lp_cold_starts)                                                         \
  X(lp_skipped_by_ball)                                                     \
  /* Constraints passed to the LP solver, before and after Lemma-2         \
     elimination of inconsequential halfspaces (Fig 17(a)). */             \
  X(constraints_full)                                                       \
  X(constraints_used)                                                       \
  /* Cells reported early by look-ahead bounds / pruned early (Sec 6). */   \
  X(lookahead_reported)                                                     \
  X(lookahead_pruned)                                                       \
  /* Batches processed by P-CTA / LP-CTA. */                                \
  X(batches)                                                                \
  /* Approximate CellTree memory footprint in bytes (Fig 12(b)). */         \
  X(bytes)                                                                  \
  /* Simulated page reads on the data index (Appendix A). */                \
  X(page_reads)                                                             \
  /* Number of regions in the reported result                              \
     (Figs 13(b), 14(b), 15(d)). */                                         \
  X(result_regions)

struct KsprStats {
#define KSPR_STATS_FIELD(name) int64_t name = 0;
  KSPR_STATS_COUNTERS(KSPR_STATS_FIELD)
#undef KSPR_STATS_FIELD

  void Add(const KsprStats& o) {
#define KSPR_STATS_ADD(name) name += o.name;
    KSPR_STATS_COUNTERS(KSPR_STATS_ADD)
#undef KSPR_STATS_ADD
  }
};

// One int64_t per listed counter and no padding: the fingerprint's raw-byte
// hash depends on it.
#define KSPR_STATS_ONE(name) +1
static_assert(sizeof(KsprStats) ==
                  (0 KSPR_STATS_COUNTERS(KSPR_STATS_ONE)) * sizeof(int64_t),
              "KsprStats must be exactly the KSPR_STATS_COUNTERS fields");
#undef KSPR_STATS_ONE

}  // namespace kspr

#endif  // KSPR_COMMON_STATS_H_
