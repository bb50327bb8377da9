#include "engine/subscription.h"

#include <cassert>
#include <utility>

namespace kspr {

const char* ToString(SubscriptionEventKind kind) {
  switch (kind) {
    case SubscriptionEventKind::kInitial:
      return "initial";
    case SubscriptionEventKind::kDelta:
      return "delta";
    case SubscriptionEventKind::kRebuild:
      return "rebuild";
    case SubscriptionEventKind::kFocalGone:
      return "focal-gone";
  }
  return "?";
}

void EmitSubscriptionEvent(const StandingQuery& sub,
                           SubscriptionEventKind kind, uint64_t version,
                           ResultDiff diff) {
  if (!sub.callback) return;
  SubscriptionEvent event;
  event.subscription = sub.id;
  event.focal_id = sub.focal_id;
  event.kind = kind;
  event.version = version;
  event.diff = std::move(diff);
  event.num_regions = sub.current.regions.size();
  sub.callback(event);
}

SubscriptionId SubscriptionManager::Subscribe(const Vec& focal,
                                              RecordId focal_id,
                                              const KsprOptions& options,
                                              SubscriptionCallback callback) {
  assert(options.algorithm == Algorithm::kCta);
  auto sub = std::make_unique<Subscriber>();
  sub->focal = focal;
  sub->focal_id = focal_id;
  sub->options = options;
  sub->callback = std::move(callback);
  sub->ctx = std::make_unique<AmortizedCta>(data_, sub->focal, sub->focal_id,
                                            sub->options);
  sub->current = sub->ctx->Collect();

  MutexLock lock(&mu_);
  sub->id = next_id_++;
  const SubscriptionId id = sub->id;
  // The initial event is emitted even when the region set is empty: it
  // carries the version and establishes the replay base state.
  EmitSubscriptionEvent(*sub, SubscriptionEventKind::kInitial,
                        data_->version(),
                        DiffResults(KsprResult{}, sub->current));
  if (stats_ != nullptr) {
    stats_->RecordSubscriptionRegistered();
    stats_->RecordSubscriptionEvent();
  }
  subs_.push_back(std::move(sub));
  return id;
}

bool SubscriptionManager::Unsubscribe(SubscriptionId id) {
  MutexLock lock(&mu_);
  for (auto it = subs_.begin(); it != subs_.end(); ++it) {
    if ((*it)->id == id) {
      subs_.erase(it);
      return true;
    }
  }
  return false;
}

size_t SubscriptionManager::size() const {
  MutexLock lock(&mu_);
  return subs_.size();
}

SubscriptionManager::SweepStats SubscriptionManager::OnUpdates(
    const std::vector<Vec>& delta, const std::vector<RecordId>& deleted_ids,
    uint64_t version) {
  SweepStats sweep;
  MutexLock lock(&mu_);
  sweep.examined = subs_.size();

  for (auto it = subs_.begin(); it != subs_.end();) {
    Subscriber& sub = **it;

    // Terminal path: the focal record itself left the live set. Evict the
    // context and notify — a standing query for a deleted record must
    // never keep serving its last region set as if it were current.
    if (sub.focal_id != kInvalidRecord && !data_->IsLive(sub.focal_id)) {
      sub.current = KsprResult{};
      EmitSubscriptionEvent(sub, SubscriptionEventKind::kFocalGone, version,
                            ResultDiff{});
      ++sweep.focal_gone;
      ++sweep.events;
      it = subs_.erase(it);
      continue;
    }

    // Irrelevant: the focal dominates every record entering or leaving the
    // live set. Dominated records are dropped by the query preprocessing
    // (inserts) and were never part of the skeleton or of k_effective
    // (deletes — AmortizedCta::InvalidatedByDelete classifies them kSkip),
    // so a from-scratch run over the mutated dataset is bitwise-identical
    // to the current state. No work, no event.
    bool irrelevant = true;
    for (const Vec& r : delta) {
      if (!Dataset::Dominates(sub.focal, r)) {
        irrelevant = false;
        break;
      }
    }
    if (irrelevant) {
      ++sweep.irrelevant;
      ++it;
      continue;
    }

    // Rebuild-forcing deletes: state already folded into the skeleton
    // went away. Checked before Advance so the cursor still reflects the
    // pre-batch prefix.
    bool rebuild = false;
    for (RecordId id : deleted_ids) {
      if (sub.ctx->InvalidatedByDelete(id)) {
        rebuild = true;
        break;
      }
    }
    // Delta-insertable: fold in just the new hyperplanes. Advance returns
    // false when a delta record dominates the focal — k_effective changed,
    // the skeleton cannot mirror a from-scratch run any more.
    if (!rebuild) rebuild = !sub.ctx->Advance();
    if (rebuild) {
      sub.ctx = std::make_unique<AmortizedCta>(data_, sub.focal,
                                               sub.focal_id, sub.options);
      ++sweep.rebuilt;
    } else {
      ++sweep.delta_advanced;
    }

    KsprResult next = sub.ctx->Collect();
    ResultDiff diff = DiffResults(sub.current, next);
    sub.current = std::move(next);
    if (!diff.Empty()) {
      EmitSubscriptionEvent(sub,
                            rebuild ? SubscriptionEventKind::kRebuild
                                    : SubscriptionEventKind::kDelta,
                            version, std::move(diff));
      ++sweep.events;
    }
    ++it;
  }

  if (stats_ != nullptr) {
    stats_->RecordSubscriptionSweep(
        static_cast<int64_t>(sweep.irrelevant),
        static_cast<int64_t>(sweep.delta_advanced),
        static_cast<int64_t>(sweep.rebuilt),
        static_cast<int64_t>(sweep.focal_gone),
        static_cast<int64_t>(sweep.events));
  }
  return sweep;
}

}  // namespace kspr
