// Thread-safe aggregate statistics for the batch query engine and the
// shard transport layer.
//
// Each class names its int64 counters once, in an X-macro list; the
// Snapshot fields, the relaxed atomics, Get() and Reset() are expanded
// from that list. The Record* methods, which decide what an event
// increments, and EngineStats's two latency figures are written by hand.

#ifndef KSPR_ENGINE_ENGINE_STATS_H_
#define KSPR_ENGINE_ENGINE_STATS_H_

#include <atomic>
#include <cstdint>

#include "common/stats.h"

// Per-counter expansions shared by both classes; #undef'd at the end of
// this header.
#define KSPR_SNAPSHOT_FIELD(name) int64_t name = 0;
#define KSPR_ATOMIC_COUNTER(name) std::atomic<int64_t> name##_{0};
#define KSPR_LOAD_COUNTER(name) \
  s.name = name##_.load(std::memory_order_relaxed);
#define KSPR_ZERO_COUNTER(name) name##_.store(0, std::memory_order_relaxed);

namespace kspr {

/// Aggregate counters updated by every worker; all fields are atomics with
/// relaxed ordering (each counter is independently consistent, which is
/// all the reporting paths need). Per-query figures live in the
/// QueryResponse returned for that query.
class EngineStats {
 public:
#define KSPR_ENGINE_STATS_COUNTERS(X)                                       \
  X(queries)                                                                \
  X(cache_hits)                                                             \
  X(cache_misses)                                                           \
  X(lp_calls) /* feasibility + bound + finalisation LPs */                  \
  X(regions)                                                                \
  /* Dynamic-update path (QueryEngine::ApplyUpdates). */                    \
  X(updates) /* batches applied */                                          \
  X(records_inserted)                                                       \
  X(records_deleted)                                                        \
  X(cache_invalidated) /* entries dropped by update sweeps */               \
  X(cache_retained)    /* entries restamped (proven unaffected) */          \
  /* Amortized CTA contexts. */                                             \
  X(amortized_builds) /* full from-scratch context builds */                \
  X(amortized_reuses) /* delta-only advances */                             \
  /* Standing subscriptions (engine/subscription.h). The per-batch         \
     classification counters sum to subscribers-examined-per-batch;        \
     sub_events counts emitted diffs (initial events included). */         \
  X(sub_registered) /* successful Subscribe calls */                        \
  X(sub_irrelevant) /* proven untouched, nothing emitted */                 \
  X(sub_delta)      /* maintained via delta advance */                      \
  X(sub_rebuilds)   /* transparent from-scratch rebuilds */                 \
  X(sub_focal_gone) /* terminated: focal record deleted */                  \
  X(sub_events)     /* diff events delivered to callbacks */

  struct Snapshot {
    KSPR_ENGINE_STATS_COUNTERS(KSPR_SNAPSHOT_FIELD)
    double total_latency_ms = 0.0;
    double max_latency_ms = 0.0;

    double avg_latency_ms() const {
      return queries > 0 ? total_latency_ms / static_cast<double>(queries)
                         : 0.0;
    }
    double hit_rate() const {
      return queries > 0
                 ? static_cast<double>(cache_hits) /
                       static_cast<double>(queries)
                 : 0.0;
    }
  };

  /// Records one completed query. `solver_stats` must be null for cache
  /// hits (no solver work happened) and non-null for misses.
  void RecordQuery(const KsprStats* solver_stats, int64_t regions,
                   double latency_ms) {
    Bump(queries_);
    Bump(regions_, regions);
    if (solver_stats != nullptr) {
      Bump(cache_misses_);
      Bump(lp_calls_, solver_stats->feasibility_lps + solver_stats->bound_lps +
                          solver_stats->finalize_lps);
    } else {
      Bump(cache_hits_);
    }
    const int64_t ns = static_cast<int64_t>(latency_ms * 1e6);
    Bump(latency_ns_total_, ns);
    int64_t prev = latency_ns_max_.load(std::memory_order_relaxed);
    while (prev < ns && !latency_ns_max_.compare_exchange_weak(
                            prev, ns, std::memory_order_relaxed)) {
    }
  }

  /// Records one ApplyUpdates batch.
  void RecordUpdate(int64_t inserted, int64_t deleted, int64_t invalidated,
                    int64_t retained) {
    Bump(updates_);
    Bump(records_inserted_, inserted);
    Bump(records_deleted_, deleted);
    Bump(cache_invalidated_, invalidated);
    Bump(cache_retained_, retained);
  }

  void RecordAmortizedBuild() { Bump(amortized_builds_); }
  void RecordAmortizedReuse() { Bump(amortized_reuses_); }

  void RecordSubscriptionRegistered() { Bump(sub_registered_); }
  /// Records one subscription sweep (all subscribers of one update batch).
  void RecordSubscriptionSweep(int64_t irrelevant, int64_t delta,
                               int64_t rebuilds, int64_t focal_gone,
                               int64_t events) {
    Bump(sub_irrelevant_, irrelevant);
    Bump(sub_delta_, delta);
    Bump(sub_rebuilds_, rebuilds);
    Bump(sub_focal_gone_, focal_gone);
    Bump(sub_events_, events);
  }
  void RecordSubscriptionEvent() { Bump(sub_events_); }

  Snapshot Get() const {
    Snapshot s;
    KSPR_ENGINE_STATS_COUNTERS(KSPR_LOAD_COUNTER)
    s.total_latency_ms =
        static_cast<double>(latency_ns_total_.load(std::memory_order_relaxed)) /
        1e6;
    s.max_latency_ms =
        static_cast<double>(latency_ns_max_.load(std::memory_order_relaxed)) /
        1e6;
    return s;
  }

  void Reset() {
    KSPR_ENGINE_STATS_COUNTERS(KSPR_ZERO_COUNTER)
    latency_ns_total_.store(0, std::memory_order_relaxed);
    latency_ns_max_.store(0, std::memory_order_relaxed);
  }

 private:
  static void Bump(std::atomic<int64_t>& counter, int64_t by = 1) {
    counter.fetch_add(by, std::memory_order_relaxed);
  }

  KSPR_ENGINE_STATS_COUNTERS(KSPR_ATOMIC_COUNTER)
  std::atomic<int64_t> latency_ns_total_{0};
  std::atomic<int64_t> latency_ns_max_{0};
};

/// Fault-tolerance counters for a shard transport (socket supervisor,
/// fault decorator, router replay path). Same relaxed-atomic discipline
/// as EngineStats; one instance is shared between the router and its
/// transport so tests and the CLI can observe retries/reconnects/faults
/// in one place.
class TransportStats {
 public:
#define KSPR_TRANSPORT_STATS_COUNTERS(X)                                    \
  X(requests)        /* logical operations issued */                        \
  X(retries)         /* extra attempts after a failed one */                \
  X(timeouts)        /* attempts that hit the deadline */                   \
  X(reconnects)      /* successful connects after a drop */                 \
  X(connects)        /* successful connects, first included */              \
  X(frame_errors)    /* poisoned frames (checksum/magic/size) */            \
  X(failures)        /* operations that failed after all retries */         \
  X(faults_injected) /* schedule actions actually applied */                \
  X(replays)         /* update batches re-sent after recovery */

  struct Snapshot {
    KSPR_TRANSPORT_STATS_COUNTERS(KSPR_SNAPSHOT_FIELD)
  };

  void RecordRequest() { Bump(requests_); }
  void RecordRetry() { Bump(retries_); }
  void RecordTimeout() { Bump(timeouts_); }
  void RecordConnect(bool is_reconnect) {
    Bump(connects_);
    if (is_reconnect) Bump(reconnects_);
  }
  void RecordFrameError() { Bump(frame_errors_); }
  void RecordFailure() { Bump(failures_); }
  void RecordFaultInjected() { Bump(faults_injected_); }
  void RecordReplay() { Bump(replays_); }

  Snapshot Get() const {
    Snapshot s;
    KSPR_TRANSPORT_STATS_COUNTERS(KSPR_LOAD_COUNTER)
    return s;
  }

  void Reset() { KSPR_TRANSPORT_STATS_COUNTERS(KSPR_ZERO_COUNTER) }

 private:
  static void Bump(std::atomic<int64_t>& counter) {
    counter.fetch_add(1, std::memory_order_relaxed);
  }

  KSPR_TRANSPORT_STATS_COUNTERS(KSPR_ATOMIC_COUNTER)
};

}  // namespace kspr

#undef KSPR_SNAPSHOT_FIELD
#undef KSPR_ATOMIC_COUNTER
#undef KSPR_LOAD_COUNTER
#undef KSPR_ZERO_COUNTER

#endif  // KSPR_ENGINE_ENGINE_STATS_H_
