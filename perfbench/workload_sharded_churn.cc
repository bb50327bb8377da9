// sharded-churn: a ShardRouter over 2 shards on the loopback socket
// transport, with queries running beside update batches.
//
// IND n = 2000, d = 3, k = 10, LP-CTA; router cache on; 3 standing LP-CTA
// subscriptions. One closed-loop client repeats a cycle of three skewed
// record queries, one what-if query and one update batch (inserts drawn
// from the data distribution plus deletes of earlier inserts, never of a
// focal). The batches run the shard workers' ApplyDelta through their
// embedded engines, the per-k skyband diffs, the router's cache
// drop/restamp and the subscriber recomputes.
//
// Every answer is checked outside the window: against a single-shard local
// router replaying the same operation sequence once the run has ended
// (sharded == single-shard, socket == local), or against the same
// operation's answer in an earlier pass that is so checked. The traced run
// builds the same deployment by hand so that it can open a second client
// transport to the same ShardServers and re-enact the router's five-step
// candidate pipeline (core/candidates.h) call by call, one span per step;
// the re-enacted result must equal the router's answer bitwise.

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/dataset.h"
#include "common/shard_map.h"
#include "core/candidates.h"
#include "core/region.h"
#include "datagen/synthetic.h"
#include "engine/engine_stats.h"
#include "harness.h"
#include "index/bbs.h"
#include "index/rtree.h"
#include "net/wire.h"
#include "shard/shard_router.h"
#include "shard/shard_server.h"
#include "shard/shard_worker.h"
#include "shard/socket_transport.h"

namespace kspr::perfbench {
namespace {

constexpr int kChurnN = 2000;
constexpr size_t kShards = 2;
constexpr size_t kSubscriptions = 3;
constexpr int kRecordQueriesPerCycle = 3;
constexpr int kOpsPerCycle = kRecordQueriesPerCycle + 2;
/// A pass is one period of the operation sequence: 64 queries and 16
/// batches, so a 20 s window holds over ten passes.
constexpr int kCyclesPerPass = 16;
constexpr int kSkybandEvery = 4;  // every 4th batch moves the k-skyband
constexpr int kDeepInsertsPerBatch = 3;
constexpr size_t kChurnWindow = 8;  // deep batches a deep insert stays live
constexpr double kWhatIfJitter = 0.01;
constexpr size_t kCapturedResponses = 64;

KsprOptions QueryOptions() {
  KsprOptions options;
  options.k = kK;
  options.algorithm = Algorithm::kLpCta;
  return options;
}

/// One engine worker per shard: a shard answers one router at a time, and
/// the 2 shards plus the client stay within the host's 4 vCPUs.
RouterOptions MakeRouterOptions(TransportKind transport, size_t shards) {
  RouterOptions options;
  options.num_shards = shards;
  options.transport = transport;
  options.worker.engine.workers = 1;
  return options;
}

/// One client operation: a record query, a what-if query or an update.
struct ChurnOp {
  enum class Kind { kRecord, kWhatIf, kUpdate };
  Kind kind = Kind::kRecord;
  RecordId focal_id = kInvalidRecord;
  Vec focal;  // the focal's value, for both query kinds
  RouterUpdateBatch batch;
  std::vector<RecordId> expected_ids;  // ids the router must assign
};

/// Records of `data` that dominate `v`, counted up to `cap`.
int Dominators(const Dataset& data, const Vec& v, int cap) {
  int count = 0;
  for (RecordId r = 0; r < data.size() && count < cap; ++r) {
    if (Dataset::Dominates(data.Get(r), v)) ++count;
  }
  return count;
}

/// The seeded operation sequence, periodic with a period of one pass
/// (kCyclesPerPass cycles of three record queries, one what-if query and
/// one update batch).
///
/// Two kinds of batch, both drawn from the data distribution:
/// - Deep batches insert records that k records of the initial data
///   dominate. Such a record never enters the k-skyband, and neither does
///   anything it dominates, so these batches run ApplyDelta on the shards
///   and restamp the whole cache without changing any answer. Each also
///   deletes the deep records inserted kChurnWindow deep batches earlier.
/// - Every kSkybandEvery-th batch instead inserts the next record of a
///   fixed pool of k-skyband entrants and deletes the previous one. It
///   drops the cached answers it may change and recomputes the
///   subscriptions.
///
/// The skyband entrants, the record-query schedule and the what-if bases
/// repeat every pass and do not depend on the seed: which records enter
/// the skyband sets the cost of every query while they are live. The deep
/// records do not depend on it either: which cached answers a batch drops
/// depends on where its records fall, and so does the run's hit share.
/// The seed draws the pass's what-if jitter, which leaves the cost alone.
/// Every pass after the first therefore asks the same queries of the same
/// k-skybands and must get the same answers.
class ChurnStream {
 public:
  ChurnStream(const Dataset& initial, const std::vector<RecordId>& focals,
              const std::vector<RecordId>& sub_focals, uint64_t seed)
      : initial_(&initial),
        next_id_(initial.size()),
        rng_(seed),
        deep_rng_(DeriveSeed(kDataSeed, 6)) {
    for (RecordId id : focals) focals_.push_back({id, initial.Get(id)});

    // Zipf-skewed record schedule: focal i gets a share proportional to
    // 1 / (i + 1) of the pass's record slots (largest remainder), in a
    // fixed shuffled order.
    constexpr int kSlots = kCyclesPerPass * kRecordQueriesPerCycle;
    double harmonic = 0.0;
    for (size_t i = 0; i < focals.size(); ++i) harmonic += 1.0 / (i + 1.0);
    std::vector<std::pair<double, size_t>> remainders;
    for (size_t i = 0; i < focals.size(); ++i) {
      const double share = kSlots / (harmonic * (i + 1.0));
      schedule_.insert(schedule_.end(), static_cast<size_t>(share), i);
      remainders.push_back({share - std::floor(share), i});
    }
    std::sort(remainders.rbegin(), remainders.rend());
    for (size_t i = 0; schedule_.size() < kSlots; ++i) {
      schedule_.push_back(remainders[i].second);
    }
    Shuffle(&schedule_, DeriveSeed(kDataSeed, 4));

    // What-if focals: the skyline records in turn, attributes raised (so
    // at least as good as the base and never trivially empty).
    for (int c = 0; c < kCyclesPerPass; ++c) {
      Vec v = focals_[c % focals_.size()].second;
      for (int j = 0; j < v.dim; ++j) {
        v.v[j] = std::min(1.0, v.v[j] + rng_.Uniform(0.0, kWhatIfJitter));
      }
      whatifs_.push_back(v);
    }

    // Skyband entrants that dominate no focal, so no query becomes
    // trivially empty while one is live.
    std::vector<Vec> protect;
    for (const auto& [id, value] : focals_) protect.push_back(value);
    for (RecordId id : sub_focals) protect.push_back(initial.Get(id));
    Rng fixed(DeriveSeed(kDataSeed, 5));
    while (entrants_.size() < kCyclesPerPass / kSkybandEvery) {
      const Vec v = Draw(&fixed);
      if (Dominators(initial, v, kK) >= kK) continue;
      if (std::any_of(protect.begin(), protect.end(), [&](const Vec& f) {
            return Dataset::Dominates(v, f);
          })) {
        continue;
      }
      entrants_.push_back(v);
    }
  }

  ChurnOp Next() {
    const int cycle = step_ / kOpsPerCycle % kCyclesPerPass;
    const int slot = step_ % kOpsPerCycle;
    ++step_;
    ChurnOp op;
    if (slot < kRecordQueriesPerCycle) {
      const auto& [id, value] =
          focals_[schedule_[cycle * kRecordQueriesPerCycle + slot]];
      op.focal_id = id;
      op.focal = value;
    } else if (slot == kRecordQueriesPerCycle) {
      op.kind = ChurnOp::Kind::kWhatIf;
      op.focal = whatifs_[cycle];
    } else if (cycle % kSkybandEvery == kSkybandEvery - 1) {
      op.kind = ChurnOp::Kind::kUpdate;
      op.batch.inserts.push_back(entrants_[cycle / kSkybandEvery]);
      op.expected_ids.push_back(next_id_++);
      if (live_entrant_ != kInvalidRecord) {
        op.batch.deletes.push_back(live_entrant_);
      }
      live_entrant_ = op.expected_ids.back();
    } else {
      op.kind = ChurnOp::Kind::kUpdate;
      while (op.batch.inserts.size() < kDeepInsertsPerBatch) {
        const Vec v = Draw(&deep_rng_);
        if (Dominators(*initial_, v, kK) < kK) continue;
        op.batch.inserts.push_back(v);
        op.expected_ids.push_back(next_id_++);
      }
      if (window_.size() == kChurnWindow) {
        op.batch.deletes = std::move(window_.front());
        window_.pop_front();
      }
      window_.push_back(op.expected_ids);
    }
    return op;
  }

 private:
  static Vec Draw(Rng* rng) {
    Vec v(kDim);
    for (int j = 0; j < kDim; ++j) v.v[j] = rng->Uniform();
    return v;
  }

  const Dataset* initial_;
  std::vector<std::pair<RecordId, Vec>> focals_;
  std::vector<size_t> schedule_;
  std::vector<Vec> whatifs_;
  std::vector<Vec> entrants_;
  RecordId live_entrant_ = kInvalidRecord;
  std::deque<std::vector<RecordId>> window_;  // ids of recent deep batches
  RecordId next_id_;
  Rng rng_;       // what-if jitter
  Rng deep_rng_;  // deep records
  int64_t step_ = 0;
};

/// What one operation returned.
struct Outcome {
  ChurnOp::Kind kind = ChurnOp::Kind::kRecord;
  double latency_ms = 0.0;  // client-observed, span included when traced
  bool ok = true;
  RouterQueryResult query;
  RouterUpdateResult update;
};

/// A router plus the subscription states it has pushed, kept by replaying
/// every diff event in order.
struct Served {
  std::vector<KsprResult> subscription_state;
  std::unique_ptr<ShardRouter> router;  // destroyed first: it feeds the above
};

bool Subscribe(Served* served, const std::vector<RecordId>& focals) {
  served->subscription_state.assign(focals.size(), KsprResult{});
  for (size_t i = 0; i < focals.size(); ++i) {
    KsprResult* state = &served->subscription_state[i];
    const SubscriptionId id = served->router->Subscribe(
        focals[i], QueryOptions(),
        [state](const SubscriptionEvent& e) {
          ApplyResultDiff(e.diff, state);
        });
    if (id == kInvalidSubscription) return false;
  }
  return true;
}

/// Set-up as the benchmark times it: Create with the socket servers up,
/// every shard connected (one Info round trip each) and the subscriptions
/// registered. Returns the seconds it took. One set-up runs before the
/// first pass and one after every pass, so setup_s, their median, samples
/// the host over the whole run as the other metrics do.
double TimeSetUp(const Dataset& data, const std::vector<RecordId>& sub_focals,
                 Served* served) {
  const Clock::time_point start = Clock::now();
  served->router = ShardRouter::Create(
      data, MakeRouterOptions(TransportKind::kSocket, kShards));
  for (const ShardInfo& info : served->router->Info()) {
    if (!info.reachable) throw std::runtime_error("shard unreachable");
  }
  if (!Subscribe(served, sub_focals)) {
    throw std::runtime_error("subscription refused");
  }
  return MillisSince(start) / 1e3;
}

Outcome Execute(ShardRouter* router, const ChurnOp& op) {
  Outcome out;
  out.kind = op.kind;
  try {
    if (op.kind == ChurnOp::Kind::kUpdate) {
      out.update = router->ApplyUpdates(op.batch);
      out.ok = out.update.status == RouterStatus::kOk &&
               out.update.inserted_global_ids == op.expected_ids &&
               out.update.deletes_applied == op.batch.deletes.size();
    } else {
      out.query = op.kind == ChurnOp::Kind::kRecord
                      ? router->Query(op.focal_id, QueryOptions())
                      : router->Query(op.focal, QueryOptions());
      out.ok = out.query.status == RouterStatus::kOk &&
               out.query.focal_live && out.query.result != nullptr;
    }
  } catch (const std::exception&) {
    out.ok = false;
  }
  return out;
}

/// Whether `got` repeats `want`, the outcome of the same operation of an
/// earlier pass: the same answer bitwise, or the same notification count.
bool SameOutcome(const Outcome& want, const Outcome& got) {
  if (!want.ok || !got.ok) return false;
  if (got.kind == ChurnOp::Kind::kUpdate) {
    return want.update.subscribers_notified == got.update.subscribers_notified;
  }
  return ResultsBitwiseEqual(*want.query.result, *got.query.result);
}

/// The socket deployment assembled by hand, exactly as
/// ShardRouter::Create(kSocket) does, plus a second client transport to
/// the same servers. Members are destroyed in reverse order: clients
/// first, then servers, then workers.
struct HandBuilt {
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::vector<std::unique_ptr<ShardServer>> servers;
  std::unique_ptr<SocketShardTransport> probe;
  Served served;
};

void BuildByHand(const Dataset& data, HandBuilt* out) {
  RouterOptions options = MakeRouterOptions(TransportKind::kSocket, kShards);
  options.stats = std::make_shared<TransportStats>();
  const ShardMap map(kShards);
  std::vector<Dataset> slices = ShardRouter::PartitionDataset(data, map);
  std::vector<uint16_t> ports;
  for (size_t s = 0; s < slices.size(); ++s) {
    out->workers.push_back(std::make_unique<ShardWorker>(
        s, map, std::move(slices[s]), options.worker));
    out->servers.push_back(
        std::make_unique<ShardServer>(out->workers.back().get()));
    ports.push_back(out->servers.back()->port());
  }
  SocketTransportOptions socket = options.socket;
  socket.stats = options.stats;
  out->probe = std::make_unique<SocketShardTransport>(
      ports, SocketTransportOptions{});
  out->served.router = std::make_unique<ShardRouter>(
      std::make_unique<SocketShardTransport>(ports, socket), data.size(),
      options);
}

/// Re-enacts the router's candidate pipeline for one query over the probe
/// transport, one span per step, and returns its result.
KsprResult Reenact(SocketShardTransport* probe, const Vec& focal,
                   Tracer* tracer, int64_t request,
                   std::vector<CandidateResponse>* captured) {
  const KsprOptions options = QueryOptions();
  RouterOptions defaults;
  Tracer::Scope root = tracer->Open("shard.pipeline", request);
  std::vector<Candidate> candidates;
  {
    Tracer::Scope scatter = tracer->Open("shard.scatter", request, root.id());
    std::vector<std::future<CandidateResponse>> futures;
    for (size_t s = 0; s < kShards; ++s) {
      futures.push_back(probe->Candidates(s, CandidateRequest{options.k}));
    }
    for (std::future<CandidateResponse>& f : futures) {
      CandidateResponse response = f.get();
      candidates.insert(candidates.end(), response.candidates.begin(),
                        response.candidates.end());
      if (captured->size() < kCapturedResponses) {
        captured->push_back(std::move(response));
      }
    }
  }
  {
    Tracer::Scope merge = tracer->Open("shard.merge", request, root.id());
    {
      Tracer::Scope step = tracer->Open("shard.reduce", request, merge.id());
      ReduceToGlobalSkyband(&candidates, options.k);
    }
    {
      Tracer::Scope step = tracer->Open("shard.filter", request, merge.id());
      FilterFocalCovered(&candidates, focal);
    }
    {
      Tracer::Scope step = tracer->Open("shard.sort", request, merge.id());
      SortCandidates(&candidates);
    }
  }
  Tracer::Scope solve = tracer->Open("shard.solve", request, root.id());
  return SolveOnCandidates(candidates, focal, options,
                           defaults.solve_leaf_capacity, defaults.solve_fanout);
}

std::vector<double> UsOf(const std::vector<double>& ms) {
  std::vector<double> us;
  for (double v : ms) us.push_back(v * 1e3);
  return us;
}

/// A single-shard local router replaying the served operation sequence
/// in step: every answer, version and notification count must match what
/// the socket deployment returned.
class SingleShardOracle {
 public:
  SingleShardOracle(const Dataset& data,
                    const std::vector<RecordId>& sub_focals) {
    // No router cache: every oracle answer is computed from scratch, so
    // cached and restamped answers of the deployment are checked too.
    RouterOptions options = MakeRouterOptions(TransportKind::kLocal, 1);
    options.cache_capacity = 0;
    served_.router = ShardRouter::CreateLocal(data, options);
    if (!Subscribe(&served_, sub_focals)) {
      throw std::runtime_error("oracle subscription refused");
    }
  }

  /// Replays `op` and returns false when `got` differs from the oracle.
  bool Check(const ChurnOp& op, const Outcome& got) {
    const Outcome expected = Execute(served_.router.get(), op);
    if (!got.ok || !expected.ok) return false;
    if (op.kind == ChurnOp::Kind::kUpdate) {
      return expected.update.version == got.update.version &&
             expected.update.subscribers_notified ==
                 got.update.subscribers_notified;
    }
    return ResultsBitwiseEqual(*expected.query.result, *got.query.result);
  }

  /// Counts subscriptions whose replayed state differs from `served`'s.
  int64_t SubscriptionMismatches(const Served& served) const {
    int64_t mismatches = 0;
    for (size_t s = 0; s < served.subscription_state.size(); ++s) {
      if (!ResultsBitwiseEqual(served_.subscription_state[s],
                               served.subscription_state[s])) {
        ++mismatches;
      }
    }
    return mismatches;
  }

 private:
  Served served_;
};

/// A client operation and what it returned.
using Ops = std::vector<std::pair<ChurnOp, Outcome>>;

/// Checks a run pass by pass. The oracle replays the warm-up pass and the
/// pass after it only once the run has ended, so neither its memory nor
/// its time shows in the run's figures; until then those two passes are
/// kept. Every later pass asks the same queries of the same k-skybands as
/// the second pass (see ChurnStream), so its outcomes are checked against
/// the second pass's as soon as it ends, and then released.
class PassChecker {
 public:
  /// Takes a finished pass; returns how many of its outcomes differ from
  /// the second pass's.
  int64_t EndPass(Ops* pass) {
    int64_t failed = 0;
    if (passes_ < 2) {
      for (auto& entry : *pass) {
        if (passes_ == 1) reference_.push_back(entry.second);
        replay_.push_back(std::move(entry));
      }
    } else {
      for (size_t i = 0; i < pass->size(); ++i) {
        if (!SameOutcome(reference_[i], (*pass)[i].second)) ++failed;
      }
    }
    ++passes_;
    pass->clear();
    return failed;
  }

  /// Replays the first two passes on the oracle; returns the number of
  /// outcomes and final subscription states that differ from it.
  int64_t Replay(const Dataset& data, const std::vector<RecordId>& sub_focals,
                 const Served& served) const {
    SingleShardOracle oracle(data, sub_focals);
    int64_t failed = 0;
    for (const auto& [op, out] : replay_) {
      if (!oracle.Check(op, out)) ++failed;
    }
    return failed + oracle.SubscriptionMismatches(served);
  }

 private:
  Ops replay_;
  std::vector<Outcome> reference_;
  int passes_ = 0;
};

}  // namespace

void RunShardedChurn(const RunConfig& config, Tracer* tracer, Report* report) {
  const Dataset data = GenerateIndependent(kChurnN, kDim, kDataSeed);
  // The focals are fixed like the data: which records are subscribed and
  // which carry the skewed query weight changes the cost of a run
  // several-fold, so the workload seed only drives the draws. Queries go
  // to the skyline: k-skyband records deeper down answer in a fraction of
  // the time, and mixing the two puts the median between two modes.
  std::vector<RecordId> query_focals, sub_focals;
  {
    const RTree tree = RTree::BulkLoad(data);
    query_focals = Skyline(data, tree);
    for (RecordId id : KSkyband(data, tree, kK)) {
      if (std::find(query_focals.begin(), query_focals.end(), id) ==
          query_focals.end()) {
        sub_focals.push_back(id);
      }
    }
  }
  Shuffle(&query_focals, DeriveSeed(kDataSeed, 2));
  Shuffle(&sub_focals, DeriveSeed(kDataSeed, 3));
  sub_focals.resize(kSubscriptions);
  ChurnStream stream(data, query_focals, sub_focals,
                     DeriveSeed(config.seed, 3));

  PassChecker checker;
  Ops unchecked;
  int64_t attempted = 0, failed = 0;
  auto run_cycles = [&](Served* served, Tracer* t, int cycles,
                        const std::function<void(int64_t, const ChurnOp&,
                                                 const Outcome&)>& after) {
    for (int c = 0; c < cycles * kOpsPerCycle; ++c) {
      ChurnOp op = stream.Next();
      const int64_t request = attempted++;
      const Clock::time_point start = Clock::now();
      Tracer::Scope span = t->Open(op.kind == ChurnOp::Kind::kUpdate
                                       ? "router.apply_updates"
                                       : "router.query",
                                   request);
      Outcome out = Execute(served->router.get(), op);
      span.End();
      out.latency_ms = MillisSince(start);
      after(request, op, out);
      unchecked.emplace_back(std::move(op), std::move(out));
    }
  };

  if (!config.trace) {
    Served served;
    std::vector<double> setup_s = {TimeSetUp(data, sub_focals, &served)};

    // An untimed warm-up pass fills the cache and brings the live set to
    // its steady churn. Then whole passes, one segment each, run until
    // they add up to the window, the client on the next CPU in each; each
    // pass's peak RSS is read before its outcomes are checked.
    run_cycles(&served, tracer, kCyclesPerPass,
               [](int64_t, const ChurnOp&, const Outcome&) {});
    failed += checker.EndPass(&unchecked);
    std::vector<Segment> segments;
    double measured_ms = 0.0;
    CpuRotation rotation;
    do {
      Segment seg;
      ResetPeakRss();
      rotation.Next();
      const double cpu0 = ProcessCpuMs();
      const Clock::time_point seg_start = Clock::now();
      run_cycles(&served, tracer, kCyclesPerPass,
                 [&](int64_t, const ChurnOp& op, const Outcome& out) {
                   if (op.kind != ChurnOp::Kind::kUpdate) {
                     seg.latency_ms.push_back(out.latency_ms);
                   }
                 });
      seg.wall_ms = MillisSince(seg_start);
      seg.cpu_ms = ProcessCpuMs() - cpu0;
      seg.peak_rss_mb = PeakRssMb();
      rotation.Release();
      measured_ms += seg.wall_ms;
      segments.push_back(std::move(seg));
      failed += checker.EndPass(&unchecked);
      Served spare;
      setup_s.push_back(TimeSetUp(data, sub_focals, &spare));
    } while (measured_ms < config.seconds * 1e3);
    ReportEndToEnd(segments, setup_s, report);
    report->CountMany(attempted,
                      failed + checker.Replay(data, sub_focals, served));
    return;
  }

  HandBuilt deployment;
  BuildByHand(data, &deployment);
  Served& served = deployment.served;
  if (!Subscribe(&served, sub_focals)) {
    throw std::runtime_error("subscription refused");
  }
  const int passes = std::max(1, static_cast<int>(config.seconds / 4.0));

  // After the warm-up, untraced and traced passes alternate, so both run
  // the same operations; the traced passes also re-enact the candidate
  // pipeline and time one Info round trip per shard after every batch.
  Tracer untraced(false);
  std::vector<double> plain_ms;
  std::vector<double> update_ms;  // every batch: no span runs inside one
  auto plain_after = [&](int64_t, const ChurnOp& op, const Outcome& out) {
    if (op.kind == ChurnOp::Kind::kUpdate) {
      update_ms.push_back(out.latency_ms);
    } else {
      plain_ms.push_back(out.latency_ms);
    }
  };

  std::vector<double> traced_ms;
  std::vector<CandidateResponse> captured;
  double merged = 0, solved = 0, misses = 0, hits = 0, batches = 0;
  double retained = 0, dropped = 0, notified = 0, irrelevant = 0, touched = 0;
  int64_t reenact_mismatches = 0;
  auto traced_after = [&](int64_t request, const ChurnOp& op,
                          const Outcome& out) {
    if (op.kind == ChurnOp::Kind::kUpdate) {
      update_ms.push_back(out.latency_ms);
      ++batches;
      retained += static_cast<double>(out.update.cache_retained);
      dropped += static_cast<double>(out.update.cache_dropped);
      notified += static_cast<double>(out.update.subscribers_notified);
      irrelevant += static_cast<double>(out.update.subscribers_irrelevant);
      touched += static_cast<double>(out.update.shards_touched);
      for (size_t s = 0; s < kShards; ++s) {
        Tracer::Scope rtt = tracer->Open("net.info", request);
        deployment.probe->Info(s).get();
      }
      return;
    }
    traced_ms.push_back(out.latency_ms);
    if (out.query.cache_hit) {
      ++hits;
    } else {
      ++misses;
      merged += static_cast<double>(out.query.scatter.candidates_merged);
      solved += static_cast<double>(out.query.scatter.candidates_solved);
    }
    const KsprResult again = Reenact(deployment.probe.get(), op.focal,
                                     tracer, request, &captured);
    if (out.ok && !ResultsBitwiseEqual(again, *out.query.result)) {
      ++reenact_mismatches;
    }
  };
  run_cycles(&served, &untraced, kCyclesPerPass,
             [](int64_t, const ChurnOp&, const Outcome&) {});  // warm-up
  failed += checker.EndPass(&unchecked);
  for (int p = 0; p < 2 * passes; ++p) {
    if (p % 2 == 0) {
      run_cycles(&served, &untraced, kCyclesPerPass, plain_after);
    } else {
      run_cycles(&served, tracer, kCyclesPerPass, traced_after);
    }
    failed += checker.EndPass(&unchecked);
  }
  const TransportStats::Snapshot net = served.router->transport_stats()->Get();

  ReportTraceOverhead(plain_ms, traced_ms, report);
  const double per_miss = std::max(1.0, misses);
  const double per_batch = std::max(1.0, batches);
  report->Metric("shard.scatter_ms_p50",
                 Median(tracer->DurationsMs("shard.scatter")), "ms");
  report->Metric("shard.merge_ms_p50",
                 Median(tracer->DurationsMs("shard.merge")), "ms");
  report->Metric("shard.solve_ms_p50",
                 Median(tracer->DurationsMs("shard.solve")), "ms");
  report->Metric("shard.candidates_merged", merged / per_miss, "count");
  report->Metric("shard.candidates_solved", solved / per_miss, "count");
  report->Metric("shard.router_hit_ratio", hits / std::max(1.0, hits + misses),
                 "ratio");
  report->Metric("shard.cache_retained", retained / per_batch, "count");
  report->Metric("shard.cache_dropped", dropped / per_batch, "count");
  report->Metric("shard.subscribers_notified", notified / per_batch, "count");
  report->Metric("shard.subscribers_irrelevant", irrelevant / per_batch,
                 "count");
  report->Metric("shard.shards_touched", touched / per_batch, "count");
  report->Metric("shard.update_ms_p50", Quantile(update_ms, 0.5), "ms");
  report->Metric("shard.update_ms_p90", Quantile(update_ms, 0.9), "ms");

  report->Metric("net.rtt_us_p50",
                 Median(UsOf(tracer->DurationsMs("net.info"))), "us");
  double bytes = 0;
  for (const CandidateResponse& response : captured) {
    std::vector<uint8_t> payload;
    {
      Tracer::Scope span = tracer->Open("net.encode");
      payload = net::Encode(response);
    }
    bytes += static_cast<double>(payload.size());
    Tracer::Scope span = tracer->Open("net.decode");
    net::DecodeCandidateResponse(payload.data(), payload.size());
  }
  report->Metric("net.candidates_bytes",
                 bytes / std::max<double>(1.0, captured.size()), "bytes");
  report->Metric("net.encode_us_p50",
                 Median(UsOf(tracer->DurationsMs("net.encode"))), "us");
  report->Metric("net.decode_us_p50",
                 Median(UsOf(tracer->DurationsMs("net.decode"))), "us");
  report->Metric("net.retries", static_cast<double>(net.retries), "count");
  report->Metric("net.timeouts", static_cast<double>(net.timeouts), "count");
  report->Metric("net.reconnects", static_cast<double>(net.reconnects),
                 "count");
  report->Metric("net.failures", static_cast<double>(net.failures), "count");

  report->CountMany(attempted, failed + reenact_mismatches +
                                    checker.Replay(data, sub_focals, served));
}

}  // namespace kspr::perfbench
