// engine-disk: a read-only QueryEngine over a StorageEngine snapshot.
//
// IND n = 5000, d = 3, k = 10, LP-CTA; workers = 2, result cache on, and a
// buffer pool holding a quarter of the tree's node pages. LP-CTA's leaf
// scans cycle through every leaf, so the LRU pool thrashes and page reads
// plus decoding become a real share of worker time.
//
// Two closed-loop clients each own a disjoint half of a fixed 12-record
// sample of the skyline (the focal pool), so no focal is ever in flight
// twice. A client's round is one
// record query (a cache hit: every pool focal is answered once before the
// window opens) followed by two what-if queries (QueryRequest::focal set to
// a perturbed skyline vector, never seen before, so always a miss). The
// hit share is therefore exactly 1/3, well away from the p50 boundary.
//
// Rounds run in lock-step epochs: after every epoch both clients are idle
// and the pool's graveyard of evicted frames is reclaimed, as the buffer
// pool requires for long read-only runs (evicted frames are parked until a
// quiesce point; without reclaiming, the thrashing pool would grow without
// bound).

#include <algorithm>
#include <atomic>
#include <barrier>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/dataset.h"
#include "core/region.h"
#include "core/solver.h"
#include "datagen/synthetic.h"
#include "engine/query_engine.h"
#include "harness.h"
#include "index/bbs.h"
#include "index/rtree.h"
#include "storage/storage_engine.h"

namespace kspr::perfbench {
namespace {

constexpr int kDiskN = 5000;
constexpr int kClients = 2;
constexpr int kWorkers = 2;
/// Focal pool size: a pass (one round per focal of a client's half) is 6
/// epochs, 36 queries, so a 20 s window holds about ten passes.
constexpr size_t kPoolFocals = 12;
/// Set-up is timed in batches of kSetupBatch deployments, one taking about
/// 150 us, too short to time alone on a noisy host. One batch runs before
/// the first pass and one after every pass, so setup_s, the median of the
/// batches' per-deployment means, samples the host over the whole run as
/// the other metrics do.
constexpr int kSetupBatch = 10;
constexpr double kWhatIfJitter = 0.01;
/// Between two queries of one record focal, 11 other records and 24
/// what-ifs enter the cache, so 64 entries keep every record cached (hits
/// stay exactly 1/3). The what-ifs fill it in the second pass; from then
/// on the cache, and so the peak RSS, no longer grows with the number of
/// queries a run completes.
constexpr size_t kCacheCapacity = 64;

KsprOptions QueryOptions() {
  KsprOptions options;
  options.k = kK;
  options.algorithm = Algorithm::kLpCta;
  return options;
}

/// One client operation and what came back.
struct Op {
  QueryRequest request;
  bool traced = false;
  double client_ms = 0.0;
  QueryResponse response;
};

/// A client's deterministic request stream. Round r is one record query
/// for pool focal r mod |half| and two what-if focals: the next two pool
/// focals in turn, each attribute raised by up to kWhatIfJitter. Cycling
/// the base focals keeps every run's what-if mix the same up to the
/// jitter. Raising (never lowering) an attribute keeps the what-if at
/// least as good as its skyline base, so it never has k dominators and
/// never answers trivially, which would add a third latency mode.
class RequestStream {
 public:
  RequestStream(const Dataset* data, std::vector<RecordId> half, uint64_t seed)
      : data_(data), half_(std::move(half)), rng_(seed) {}

  std::vector<QueryRequest> NextRound() {
    std::vector<QueryRequest> round(3);
    round[0].focal_id = half_[round_ % half_.size()];
    round[0].options = QueryOptions();
    for (int i = 1; i <= 2; ++i) {
      round[i].focal = data_->Get(half_[next_base_++ % half_.size()]);
      for (int j = 0; j < round[i].focal.dim; ++j) {
        double& v = round[i].focal.v[j];
        v = std::min(1.0, v + rng_.Uniform(0.0, kWhatIfJitter));
      }
      round[i].options = QueryOptions();
    }
    ++round_;
    return round;
  }

 private:
  const Dataset* data_;
  std::vector<RecordId> half_;
  Rng rng_;
  size_t round_ = 0;
  size_t next_base_ = 0;
};

struct Deployment {
  std::unique_ptr<StorageEngine> storage;
  std::unique_ptr<QueryEngine> engine;  // destroyed before `storage`
};

Deployment Open(const std::string& path, int buffer_pages,
                EngineOptions engine_options) {
  StorageOptions storage_options;
  storage_options.buffer_pages = buffer_pages;
  Deployment d;
  d.storage = StorageEngine::Open(path, storage_options);
  d.engine = std::make_unique<QueryEngine>(d.storage.get(), engine_options);
  return d;
}

/// Opens kSetupBatch serving deployments of the snapshot and returns the
/// mean seconds per deployment. The batch is torn down after its clock has
/// stopped; the last deployment goes to `*keep` when it is given.
double TimeOpens(const std::string& path, int buffer_pages, Tracer* tracer,
                 Deployment* keep = nullptr) {
  std::vector<Deployment> batch(kSetupBatch);
  const Clock::time_point start = Clock::now();
  for (Deployment& one : batch) {
    Tracer::Scope span = tracer->Open("storage.open");
    one = Open(path, buffer_pages,
               EngineOptions{.workers = kWorkers,
                             .cache_capacity = kCacheCapacity});
  }
  const double seconds = MillisSince(start) / 1e3 / kSetupBatch;
  if (keep != nullptr) *keep = std::move(batch.back());
  return seconds;
}

/// Runs lock-step epochs of one round per client until `stop_after`
/// returns true at an epoch boundary. Between epochs the graveyard is
/// reclaimed and `on_epoch` receives the epoch's operations (no query is
/// in flight during either). Stretches of `stretch` epochs alternate
/// untraced and traced, starting untraced.
template <typename StopFn, typename EpochFn>
void RunEpochs(Deployment* d, std::vector<RequestStream>* streams,
               Tracer* tracer, int stretch, StopFn stop_after,
               EpochFn on_epoch) {
  Tracer untraced(false);
  std::vector<std::vector<Op>> per_client(kClients);
  std::atomic<bool> stop{false};
  int epoch = 0;
  std::barrier sync(kClients, [&]() noexcept {
    d->storage->ReclaimGraveyard();
    ++epoch;
    std::vector<Op> ops;
    for (std::vector<Op>& v : per_client) {
      for (Op& op : v) ops.push_back(std::move(op));
      v.clear();
    }
    on_epoch(epoch, &ops);
    if (stop_after(epoch)) stop.store(true);
  });
  auto client = [&](int c) {
    for (int64_t request = 0; !stop.load();) {
      for (QueryRequest& q : (*streams)[c].NextRound()) {
        Op op;
        op.traced = tracer->enabled() && epoch / stretch % 2 == 1;
        op.request = q;
        const Clock::time_point start = Clock::now();
        Tracer::Scope span = (op.traced ? tracer : &untraced)
                                 ->Open("engine.query",
                                        static_cast<int64_t>(c) << 32 |
                                            request++);
        op.response = d->engine->Submit(std::move(q)).get();
        span.End();
        op.client_ms = MillisSince(start);
        per_client[c].push_back(std::move(op));
      }
      sync.arrive_and_wait();
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) threads.emplace_back(client, c);
  for (std::thread& t : threads) t.join();
}

/// Checks every answer against an in-memory solver over the same data
/// (the disk == memory and engine == solver contracts). Returns the
/// number of mismatches.
int64_t CheckAgainstSolver(const std::vector<Op>& ops, const Dataset& data,
                           const RTree& tree) {
  const KsprSolver oracle(&data, &tree);
  std::atomic<int64_t> mismatches{0};
  std::atomic<size_t> next{0};
  auto check = [&]() {
    for (size_t i = next.fetch_add(1); i < ops.size(); i = next.fetch_add(1)) {
      const Op& op = ops[i];
      const KsprResult expected =
          op.request.focal_id != kInvalidRecord
              ? oracle.QueryRecord(op.request.focal_id, op.request.options)
              : oracle.Query(op.request.focal, op.request.options);
      if (op.response.result == nullptr || !op.response.focal_live ||
          !ResultsBitwiseEqual(*op.response.result, expected)) {
        mismatches.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorkers; ++t) threads.emplace_back(check);
  for (std::thread& t : threads) t.join();
  return mismatches.load();
}

std::vector<double> Column(const std::vector<Op>& ops, bool hits,
                           double (*field)(const Op&)) {
  std::vector<double> out;
  for (const Op& op : ops) {
    if (op.response.cache_hit == hits) out.push_back(field(op));
  }
  return out;
}

}  // namespace

void RunEngineDisk(const RunConfig& config, Tracer* tracer, Report* report) {
  if (config.out_dir.empty()) {
    throw std::runtime_error("engine-disk needs --out-dir for its snapshot");
  }
  const Dataset data = GenerateIndependent(kDiskN, kDim, kDataSeed);
  RTree tree;
  for (int r = 0; r < (config.trace ? 5 : 1); ++r) {
    Tracer::Scope span = tracer->Open("index.bulkload");
    tree = RTree::BulkLoad(data);
  }
  const std::string path = config.out_dir + "/engine-disk.snapshot";
  StorageEngine::Save(path, data, tree);
  const int buffer_pages = std::max(4, tree.num_nodes() / 4);

  // The pool and its split between the clients are fixed like the data;
  // the workload seed drives the what-if jitter.
  std::vector<RecordId> pool = Skyline(data, tree);
  Shuffle(&pool, DeriveSeed(kDataSeed, 2));
  pool.resize(std::min(pool.size(), kPoolFocals));
  // A pass is one round per focal of a client's half: every record focal
  // once and every what-if base twice, so each pass is the same query mix
  // up to the jitter.
  const int epochs_per_pass =
      static_cast<int>((pool.size() + kClients - 1) / kClients);
  auto make_streams = [&](uint64_t tag) {
    std::vector<RequestStream> streams;
    for (int c = 0; c < kClients; ++c) {
      std::vector<RecordId> half;
      for (size_t i = c; i < pool.size(); i += kClients) {
        half.push_back(pool[i]);
      }
      streams.emplace_back(&data, std::move(half),
                           DeriveSeed(config.seed, tag + c));
    }
    return streams;
  };

  // Set-up: StorageEngine::Open plus engine construction.
  Deployment d;
  std::vector<double> setup_s = {TimeOpens(path, buffer_pages, tracer, &d)};
  // Every pool focal is answered once before any window opens, so record
  // queries always hit.
  for (RecordId focal : pool) {
    d.engine->SubmitRecord(focal, QueryOptions()).get();
    d.storage->ReclaimGraveyard();
  }

  int64_t mismatches = 0;
  int64_t attempted = 0;
  if (!config.trace) {
    // Whole passes, one segment each, run until they add up to the
    // window. Once a pass's clock has stopped, its peak RSS is read, its
    // answers are checked against the solver and released, and one more
    // set-up batch is timed.
    std::vector<RequestStream> streams = make_streams(100);
    std::vector<Segment> segments(1);
    std::vector<Op> pass;
    double measured_ms = 0.0;
    ResetPeakRss();
    double cpu_mark = ProcessCpuMs();
    Clock::time_point wall_mark = Clock::now();
    RunEpochs(
        &d, &streams, tracer, epochs_per_pass,
        [&](int epoch) {
          return epoch % epochs_per_pass == 0 &&
                 measured_ms >= config.seconds * 1e3;
        },
        [&](int epoch, std::vector<Op>* ops) {
          for (Op& op : *ops) {
            segments.back().latency_ms.push_back(op.client_ms);
            pass.push_back(std::move(op));
          }
          if (epoch % epochs_per_pass != 0) return;
          segments.back().wall_ms = MillisSince(wall_mark);
          segments.back().cpu_ms = ProcessCpuMs() - cpu_mark;
          segments.back().peak_rss_mb = PeakRssMb();
          measured_ms += segments.back().wall_ms;
          attempted += static_cast<int64_t>(pass.size());
          mismatches += CheckAgainstSolver(pass, data, tree);
          pass.clear();
          setup_s.push_back(TimeOpens(path, buffer_pages, tracer));
          ResetPeakRss();
          segments.emplace_back();
          wall_mark = Clock::now();
          cpu_mark = ProcessCpuMs();
        });
    segments.pop_back();  // opened at the last boundary, never filled
    ReportEndToEnd(segments, setup_s, report);
  } else {
    report->Metric("index.bulkload_ms",
                   Median(tracer->DurationsMs("index.bulkload")), "ms");
    for (int r = 0; r < 5; ++r) {
      Tracer::Scope span = tracer->Open("index.kskyband");
      KSkyband(data, tree, kK);
    }
    report->Metric("index.skyband_ms_p50",
                   Median(tracer->DurationsMs("index.kskyband")), "ms");
    report->Metric("index.skyband_size",
                   static_cast<double>(KSkyband(data, tree, kK).size()),
                   "count");
    report->Metric("storage.open_ms",
                   Median(tracer->DurationsMs("storage.open")), "ms");

    // Untraced and traced passes alternate over one request stream, so
    // both run the same query mix; the gap between their medians is the
    // tracing overhead. Work counts come from the traced passes, whose
    // requests are fixed by the seed and --seconds.
    const int epochs = 2 * epochs_per_pass *
                       std::max(1, static_cast<int>(config.seconds / 4.0));
    std::vector<RequestStream> streams = make_streams(200);
    const double read_ms0 = d.storage->pool()->real_read_ms();
    std::vector<Op> plain, ops;
    double all_service_ms = 0.0;
    RunEpochs(
        &d, &streams, tracer, epochs_per_pass,
        [&](int epoch) { return epoch >= epochs; },
        [&](int, std::vector<Op>* epoch_ops) {
          for (Op& op : *epoch_ops) {
            if (!op.response.cache_hit) {
              all_service_ms += op.response.latency_ms;
            }
            (op.traced ? ops : plain).push_back(std::move(op));
          }
        });
    const double read_ms = d.storage->pool()->real_read_ms() - read_ms0;

    auto client_ms = [](const Op& op) { return op.client_ms; };
    auto wait_ms = [](const Op& op) {
      return op.client_ms - op.response.latency_ms;
    };
    auto service_ms = [](const Op& op) { return op.response.latency_ms; };
    std::vector<double> all_client, waits;
    KsprStats totals;
    int64_t hits = 0, misses = 0;
    for (const Op& op : ops) {
      all_client.push_back(op.client_ms);
      waits.push_back(wait_ms(op));
      if (op.response.cache_hit) {
        ++hits;
      } else {
        ++misses;
        if (op.response.result != nullptr) {
          totals.Add(op.response.result->stats);
        }
      }
    }
    std::vector<double> plain_client;
    for (const Op& op : plain) plain_client.push_back(op.client_ms);
    ReportTraceOverhead(plain_client, all_client, report);
    ReportSolverCounts(totals, static_cast<double>(misses), report);
    report->Metric("engine.queue_wait_ms_p50", Quantile(waits, 0.5), "ms");
    report->Metric("engine.queue_wait_ms_p90", Quantile(waits, 0.9), "ms");
    report->Metric("engine.service_ms_p50",
                   Median(Column(ops, false, service_ms)), "ms");
    report->Metric("engine.hit_ms_p50", Median(Column(ops, true, client_ms)),
                   "ms");
    report->Metric("engine.cache_hit_ratio",
                   static_cast<double>(hits) /
                       static_cast<double>(std::max<int64_t>(1, hits + misses)),
                   "ratio");
    report->Metric("storage.read_ms_share",
                   all_service_ms > 0.0 ? read_ms / all_service_ms : 0.0,
                   "ratio");

    // Page traffic of two serial passes (one worker, fixed order), which
    // is the deterministic count: concurrent passes interleave their page
    // accesses in a host-dependent order.
    Deployment serial =
        Open(path, buffer_pages,
             EngineOptions{.workers = 1, .cache_capacity = 0});
    std::vector<RequestStream> serial_streams = make_streams(300);
    std::vector<QueryRequest> serial_requests;
    for (int r = 0; r < 2 * epochs_per_pass * kClients; ++r) {
      for (QueryRequest& q : serial_streams[r % kClients].NextRound()) {
        serial_requests.push_back(std::move(q));
      }
    }
    PageTracker* tracker = serial.storage->pool()->tracker();
    const int64_t serial_reads0 = tracker->reads();
    const int64_t serial_accesses0 = tracker->accesses();
    const int64_t serial_bytes0 = serial.storage->pool()->bytes_read();
    std::vector<Op> serial_ops;
    for (QueryRequest& q : serial_requests) {
      Op op;
      op.request = q;
      Tracer::Scope span = tracer->Open("engine.query_serial");
      op.response = serial.engine->Submit(std::move(q)).get();
      span.End();
      serial.storage->ReclaimGraveyard();
      serial_ops.push_back(std::move(op));
    }
    const double n_serial = static_cast<double>(serial_ops.size());
    const int64_t serial_reads = tracker->reads() - serial_reads0;
    const int64_t serial_accesses = tracker->accesses() - serial_accesses0;
    report->Metric("storage.pool_reads_per_query",
                   static_cast<double>(serial_reads) / n_serial, "count");
    report->Metric("storage.pool_hit_ratio",
                   serial_accesses > 0
                       ? 1.0 - static_cast<double>(serial_reads) /
                                   static_cast<double>(serial_accesses)
                       : 0.0,
                   "ratio");
    report->Metric(
        "storage.bytes_read_per_query",
        static_cast<double>(serial.storage->pool()->bytes_read() -
                            serial_bytes0) /
            n_serial,
        "bytes");

    attempted = static_cast<int64_t>(plain.size() + ops.size() +
                                     serial_ops.size());
    mismatches = CheckAgainstSolver(plain, data, tree) +
                 CheckAgainstSolver(ops, data, tree) +
                 CheckAgainstSolver(serial_ops, data, tree);
  }
  report->CountMany(attempted, mismatches);
}

}  // namespace kspr::perfbench
