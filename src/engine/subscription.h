// Standing kSPR subscriptions: continuous queries maintained under
// dataset updates.
//
// A SubscriptionManager registers focal records as standing kSPR queries
// and keeps each subscriber's answer regions current across ApplyUpdates
// batches, pushing *diffs* instead of making callers re-Execute — the
// dynamic-query discipline of Berkholz/Keppeler/Schweikardt ("Answering
// FO+MOD queries under updates"): prove per batch that most standing
// queries are untouched, and maintain the touched ones incrementally.
//
// Per batch, every subscriber is classified into exactly one of:
//
//  * IRRELEVANT — the focal dominates every delta record (the same
//    retention test the result-cache sweep uses): dominated records are
//    dropped by the query preprocessing in a from-scratch run, so the
//    region set AND stats are provably bitwise-unchanged. Nothing is
//    computed and nothing is emitted.
//  * DELTA-INSERTABLE — the subscriber's AmortizedCta absorbs just the
//    batch's hyperplanes (AmortizedCta::Advance), then the new harvest is
//    diffed against the previous one.
//  * REBUILD-FORCING — a delta record dominates the focal (k_effective
//    changes), or a delete below the context cursor removes state already
//    folded into the skeleton (AmortizedCta::InvalidatedByDelete): the
//    context is transparently rebuilt from scratch and the result diffed
//    as usual. Subscribers see a kRebuild event, never a stale region.
//
// A deleted focal terminates its subscription with a kFocalGone event.
//
// The sharded tier reuses this event vocabulary: ShardRouter::Subscribe
// (shard/shard_router.h) classifies subscribers against the change of
// the global k-skyband (exact: a focal that weakly dominates every
// record entering or leaving it keeps its candidate list) and emits the
// same SubscriptionEvent stream (kInitial/kRebuild/kFocalGone) with the
// same diff-replay contract, recomputing touched subscribers by
// scatter-gather instead of maintaining an amortized context.
//
// Correctness contract (gated by tests/test_subscriptions.cc and
// bench/bench_subscriptions.cc): replaying the event stream — the
// kInitial diff followed by every subsequent diff in order, via
// ApplyResultDiff — reproduces the from-scratch KsprResult over the
// mutated dataset bitwise after every batch, whichever classification
// path each batch took.

#ifndef KSPR_ENGINE_SUBSCRIPTION_H_
#define KSPR_ENGINE_SUBSCRIPTION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/dataset.h"
#include "common/sync.h"
#include "common/types.h"
#include "common/vec.h"
#include "core/amortized.h"
#include "core/options.h"
#include "core/region.h"
#include "engine/engine_stats.h"

namespace kspr {

using SubscriptionId = int64_t;
inline constexpr SubscriptionId kInvalidSubscription = -1;

enum class SubscriptionEventKind {
  kInitial,   // full region set right after Subscribe (diff from empty)
  kDelta,     // maintained by inserting only the batch's hyperplanes
  kRebuild,   // transparently rebuilt from scratch, then diffed
  kFocalGone, // terminal: the focal record was deleted; diff is empty
};

const char* ToString(SubscriptionEventKind kind);

struct SubscriptionEvent {
  SubscriptionId subscription = kInvalidSubscription;
  RecordId focal_id = kInvalidRecord;
  SubscriptionEventKind kind = SubscriptionEventKind::kInitial;

  /// Dataset version the post-diff regions are valid for.
  uint64_t version = 0;

  /// Splice edit from the previous emitted state (empty for kFocalGone).
  ResultDiff diff;

  /// Region count after applying the diff, for display convenience.
  size_t num_regions = 0;
};

// REENTRANCY: invoked synchronously under the engine's update lock (and,
// for the initial event, from inside Subscribe, under the manager's own
// mutex). Callbacks must be quick and must not call back into the
// QueryEngine or the manager — doing so deadlocks.
using SubscriptionCallback = std::function<void(const SubscriptionEvent&)>;

/// One standing query as both tiers keep it: SubscriptionManager (below)
/// and ShardRouter (shard/shard_router.h).
struct StandingQuery {
  SubscriptionId id = kInvalidSubscription;
  Vec focal;
  RecordId focal_id = kInvalidRecord;
  KsprOptions options;
  KsprResult current;  // last emitted state (diff-replay target)
  SubscriptionCallback callback;
};

/// The one event builder of both tiers: delivers `diff` as a `kind` event
/// stamped `version` to `sub.callback` (no-op without one). `num_regions`
/// is read from `sub.current`, which must already hold the post-diff state
/// (empty for kFocalGone).
void EmitSubscriptionEvent(const StandingQuery& sub,
                           SubscriptionEventKind kind, uint64_t version,
                           ResultDiff diff);

class SubscriptionManager {
 public:
  /// Tallies of one OnUpdates sweep across all subscribers.
  struct SweepStats {
    size_t examined = 0;
    size_t irrelevant = 0;     // proven untouched, nothing emitted
    size_t delta_advanced = 0;
    size_t rebuilt = 0;
    size_t focal_gone = 0;     // terminated this batch
    size_t events = 0;         // diffs actually delivered
  };

  /// `data` must outlive the manager; `stats` may be null.
  SubscriptionManager(const Dataset* data, EngineStats* stats)
      : data_(data), stats_(stats) {}

  SubscriptionManager(const SubscriptionManager&) = delete;
  SubscriptionManager& operator=(const SubscriptionManager&) = delete;

  /// Registers `focal_id` as a standing query, runs the initial build and
  /// emits the kInitial event before returning. `focal` must be the
  /// record's current value; `options.algorithm` must be kCta (the
  /// amortized context is a CTA skeleton). The caller serialises this
  /// against OnUpdates (the QueryEngine holds its update lock shared).
  /// REENTRANCY: the callback fires synchronously under the manager's
  /// mutex (here for kInitial, from OnUpdates for diffs) — it must not
  /// call back into this manager.
  SubscriptionId Subscribe(const Vec& focal, RecordId focal_id,
                           const KsprOptions& options,
                           SubscriptionCallback callback);

  /// Removes a subscription; no terminal event is emitted. Returns false
  /// for unknown (or already terminated) ids.
  bool Unsubscribe(SubscriptionId id);

  /// Classifies and maintains every subscriber after a dataset mutation
  /// batch. `delta` holds the values of every record that entered or left
  /// the live set (delete values captured pre-tombstone — the same vector
  /// the cache sweep tests), `deleted_ids` the tombstoned ids, `version`
  /// the post-batch dataset version. Must be called with the dataset
  /// already mutated and all queries quiesced.
  SweepStats OnUpdates(const std::vector<Vec>& delta,
                       const std::vector<RecordId>& deleted_ids,
                       uint64_t version);

  size_t size() const;

 private:
  struct Subscriber : StandingQuery {
    std::unique_ptr<AmortizedCta> ctx;
  };

  const Dataset* data_;
  EngineStats* stats_;
  mutable Mutex mu_;
  SubscriptionId next_id_ KSPR_GUARDED_BY(mu_) = 0;
  std::vector<std::unique_ptr<Subscriber>> subs_ KSPR_GUARDED_BY(mu_);
};

}  // namespace kspr

#endif  // KSPR_ENGINE_SUBSCRIPTION_H_
