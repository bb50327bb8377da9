// Command-line kSPR runner: generate (or load) a dataset, run any of the
// algorithms, and print the regions — handy for quick experiments.
//
//   kspr_cli [--n 10000] [--d 4] [--k 10] [--dist ind|cor|anti]
//            [--algo cta|pcta|lpcta|opcta|olpcta|skyband]
//            [--focal ID] [--seed S] [--volume] [--csv FILE]
//            [--threads N] [--batch Q] [--intra-threads T]
//            [--updates U] [--update-size M] [--amortized]
//            [--subscribe S] [--save FILE] [--load FILE]
//            [--buffer-pages P] [--shards N]
//            [--transport local|socket] [--shard-timeout-ms MS]
//            [--fault-schedule SPEC]
//
// With --csv the dataset is read from a headerless CSV of d numeric
// columns (larger = better) instead of being generated. With --batch Q
// (and optionally --threads N) the run routes through the concurrent
// QueryEngine: Q queries over skyline records, answered by N pool
// workers, with aggregate engine statistics instead of region listings.
// --intra-threads T spreads every single query over T traversal threads
// (the result is bitwise-identical to the serial run): alone it speeds up
// the one-query mode; combined with --batch/--threads the engine splits
// its budget between queries and subtrees.
//
// --updates U applies U dynamic update batches (half inserts of fresh
// synthetic records, half deletes of random live records; M records per
// batch, default 64) through QueryEngine::ApplyUpdates, re-running the
// query batch after each one and reporting how much of the result cache
// the version sweep invalidated vs retained. The focal id and the query
// workload are RE-VALIDATED against the shrunken dataset after every
// batch — a focal that is out of range or tombstoned is rejected with a
// clear error, never fed to the solver. An explicitly requested --focal
// is excluded from the random delete pool so default runs stay
// reproducible end to end. --amortized (CTA only) serves the workload
// through the engine's amortized CellTree contexts: after each batch only
// the delta hyperplanes are inserted.
//
// --save FILE persists the dataset + R-tree as a paged snapshot after the
// build (or, combined with --load, re-saves the loaded state). --load FILE
// serves everything from a saved snapshot instead of generating: the
// dataset is restored eagerly, R-tree node pages are faulted on demand
// through the storage buffer pool (--buffer-pages P frames, default 128),
// and query output is bitwise-identical to the run that saved the file.
// A missing, truncated or corrupted snapshot is rejected with a clear
// error.
//
// --shards N (N >= 2) serves through the sharded scatter-gather tier
// instead of a single solver: the dataset is partitioned across N
// in-process shard workers and the query runs through a ShardRouter
// (src/shard/). Regions and stats are bitwise-identical to the --shards 1
// run by construction (the distributed k-skyband reduction of
// core/candidates.h); the extra "# shards" line reports the scatter
// (candidates merged vs solved, per-shard skyband cache hits). Combines
// with --updates and --subscribe — batches route as per-shard deltas and
// subscribers classify against the change of the global k-skyband —
// but not with the engine-pool flags (--batch/--threads/--intra-threads/
// --amortized) or the snapshot flags (--save/--load).
//
// --transport socket (requires --shards >= 2) deploys the shard workers
// behind real loopback frame servers and talks to them through the
// supervised socket client (checksummed wire frames, timeout + retry +
// reconnect); output stays bitwise-identical to --transport local. A
// final "# transport=socket" line reports the transport counters.
// --shard-timeout-ms caps how long the router waits on any one shard
// before declaring it down. --fault-schedule SPEC (socket only) injects
// deterministic faults — e.g. "drop@5,disconnect@6" drops every 5th
// frame per shard and force-disconnects every 6th — to exercise the
// retry/reconnect machinery; a malformed SPEC is rejected with the
// parser's error.
//
// --subscribe S (CTA only, any algo under --shards) registers S standing
// subscriptions over skyline records starting at the focal and prints
// their diff streams:
// one "# sub" line per event (initial / delta / rebuild / focal-gone)
// with the regions added and removed by the diff, plus a per-batch
// classification summary. Combine with --updates to watch regions being
// maintained instead of re-queried.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <memory>

#include "common/rng.h"
#include "core/solver.h"
#include "net/fault_schedule.h"
#include "datagen/synthetic.h"
#include "engine/query_engine.h"
#include "index/bbs.h"
#include "index/rtree.h"
#include "shard/shard_router.h"
#include "storage/storage_engine.h"

using namespace kspr;

namespace {

Dataset LoadCsv(const std::string& path, int dim) {
  Dataset data(dim);
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::stringstream ss(line);
    Vec r(dim);
    std::string cell;
    for (int j = 0; j < dim; ++j) {
      if (!std::getline(ss, cell, ',')) {
        std::fprintf(stderr, "row with fewer than %d columns\n", dim);
        std::exit(1);
      }
      r.v[j] = std::atof(cell.c_str());
    }
    data.Add(r);
  }
  return data;
}

}  // namespace

int main(int argc, char** argv) {
  int n = 10000;
  int d = 4;
  int k = 10;
  uint64_t seed = 42;
  RecordId focal = kInvalidRecord;
  Distribution dist = Distribution::kIndependent;
  Algorithm algo = Algorithm::kLpCta;
  bool volume = false;
  std::string csv;
  int threads = 1;
  int intra_threads = 1;
  int batch = 0;  // set via --batch; 0 without the flag = single-query mode
  bool batch_set = false;
  int updates = 0;       // --updates: dynamic update batches to apply
  int update_size = 64;  // --update-size: records per update batch
  bool amortized = false;
  int subscribe = 0;     // --subscribe: standing subscriptions to register
  bool focal_set = false;
  std::string save_path;   // --save: write a snapshot here
  std::string load_path;   // --load: serve from this snapshot
  int buffer_pages = 128;  // --buffer-pages: pool frames for --load
  int shards = 1;          // --shards: scatter-gather tier when >= 2
  std::string transport = "local";  // --transport: shard transport kind
  int shard_timeout_ms = 0;         // --shard-timeout-ms: 0 = default
  std::string fault_spec;           // --fault-schedule: socket-only faults

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(1);
      }
      return argv[++i];
    };
    if (!std::strcmp(argv[i], "--n")) {
      n = std::atoi(next("--n"));
    } else if (!std::strcmp(argv[i], "--d")) {
      d = std::atoi(next("--d"));
    } else if (!std::strcmp(argv[i], "--k")) {
      k = std::atoi(next("--k"));
    } else if (!std::strcmp(argv[i], "--seed")) {
      seed = std::strtoull(next("--seed"), nullptr, 10);
    } else if (!std::strcmp(argv[i], "--focal")) {
      focal = std::atoi(next("--focal"));
      focal_set = true;
    } else if (!std::strcmp(argv[i], "--updates")) {
      updates = std::atoi(next("--updates"));
    } else if (!std::strcmp(argv[i], "--update-size")) {
      update_size = std::atoi(next("--update-size"));
    } else if (!std::strcmp(argv[i], "--amortized")) {
      amortized = true;
    } else if (!std::strcmp(argv[i], "--subscribe")) {
      subscribe = std::atoi(next("--subscribe"));
    } else if (!std::strcmp(argv[i], "--volume")) {
      volume = true;
    } else if (!std::strcmp(argv[i], "--csv")) {
      csv = next("--csv");
    } else if (!std::strcmp(argv[i], "--save")) {
      save_path = next("--save");
    } else if (!std::strcmp(argv[i], "--load")) {
      load_path = next("--load");
    } else if (!std::strcmp(argv[i], "--buffer-pages")) {
      buffer_pages = std::atoi(next("--buffer-pages"));
    } else if (!std::strcmp(argv[i], "--shards")) {
      shards = std::atoi(next("--shards"));
    } else if (!std::strcmp(argv[i], "--transport")) {
      transport = next("--transport");
    } else if (!std::strcmp(argv[i], "--shard-timeout-ms")) {
      shard_timeout_ms = std::atoi(next("--shard-timeout-ms"));
    } else if (!std::strcmp(argv[i], "--fault-schedule")) {
      fault_spec = next("--fault-schedule");
    } else if (!std::strcmp(argv[i], "--threads")) {
      threads = std::atoi(next("--threads"));
    } else if (!std::strcmp(argv[i], "--intra-threads")) {
      intra_threads = std::atoi(next("--intra-threads"));
    } else if (!std::strcmp(argv[i], "--batch")) {
      batch = std::atoi(next("--batch"));
      batch_set = true;
    } else if (!std::strcmp(argv[i], "--dist")) {
      std::string v = next("--dist");
      dist = v == "cor"    ? Distribution::kCorrelated
             : v == "anti" ? Distribution::kAntiCorrelated
                           : Distribution::kIndependent;
    } else if (!std::strcmp(argv[i], "--algo")) {
      std::string v = next("--algo");
      if (v == "cta") algo = Algorithm::kCta;
      else if (v == "pcta") algo = Algorithm::kPcta;
      else if (v == "lpcta") algo = Algorithm::kLpCta;
      else if (v == "opcta") algo = Algorithm::kOpCta;
      else if (v == "olpcta") algo = Algorithm::kOlpCta;
      else if (v == "skyband") algo = Algorithm::kSkybandCta;
      else {
        std::fprintf(stderr, "unknown --algo %s\n", v.c_str());
        return 1;
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 1;
    }
  }

  // Validate flag ranges the same way --focal is validated below: a clear
  // stderr message and exit 1, never an assert deep in the engine. This
  // also catches non-numeric values, which atoi turns into 0.
  constexpr int kMaxThreads = 256;
  constexpr int kMaxRecords = 10000000;
  if (n < 1 || n > kMaxRecords) {
    std::fprintf(stderr, "--n %d out of range [1, %d]\n", n, kMaxRecords);
    return 1;
  }
  if (d < 1 || d > kMaxDim) {
    std::fprintf(stderr, "--d %d out of range [1, %d]\n", d, kMaxDim);
    return 1;
  }
  if (k < 1 || k > n) {
    std::fprintf(stderr, "--k %d out of range [1, n=%d]\n", k, n);
    return 1;
  }
  if (threads < 1 || threads > kMaxThreads) {
    std::fprintf(stderr, "--threads %d out of range [1, %d]\n", threads,
                 kMaxThreads);
    return 1;
  }
  if (intra_threads < 1 || intra_threads > kMaxThreads) {
    std::fprintf(stderr, "--intra-threads %d out of range [1, %d]\n",
                 intra_threads, kMaxThreads);
    return 1;
  }
  if (batch_set && batch < 1) {
    std::fprintf(stderr, "--batch %d out of range (must be >= 1)\n", batch);
    return 1;
  }
  if (updates < 0 || updates > 1000000) {
    std::fprintf(stderr, "--updates %d out of range [0, 1000000]\n", updates);
    return 1;
  }
  if (update_size < 1 || update_size > 1000000) {
    std::fprintf(stderr, "--update-size %d out of range [1, 1000000]\n",
                 update_size);
    return 1;
  }
  if (amortized && algo != Algorithm::kCta) {
    std::fprintf(stderr,
                 "--amortized requires --algo cta (the amortized context "
                 "reuses the CTA CellTree skeleton)\n");
    return 1;
  }
  constexpr int kMaxSubscriptions = 4096;
  if (subscribe < 0 || subscribe > kMaxSubscriptions) {
    std::fprintf(stderr, "--subscribe %d out of range [0, %d]\n", subscribe,
                 kMaxSubscriptions);
    return 1;
  }
  if (subscribe > 0 && shards == 1 && algo != Algorithm::kCta) {
    std::fprintf(stderr,
                 "--subscribe requires --algo cta without --shards (engine "
                 "subscriptions are maintained through amortized CTA "
                 "contexts)\n");
    return 1;
  }
  constexpr int kMaxBufferPages = 1 << 20;
  if (buffer_pages < 1 || buffer_pages > kMaxBufferPages) {
    std::fprintf(stderr, "--buffer-pages %d out of range [1, %d]\n",
                 buffer_pages, kMaxBufferPages);
    return 1;
  }
  if (!load_path.empty() && !csv.empty()) {
    std::fprintf(stderr, "--load and --csv are mutually exclusive\n");
    return 1;
  }
  constexpr int kMaxShards = 64;
  if (shards < 1 || shards > kMaxShards) {
    std::fprintf(stderr, "--shards %d out of range [1, %d]\n", shards,
                 kMaxShards);
    return 1;
  }
  if (shards > 1 &&
      (batch_set || threads > 1 || intra_threads > 1 || amortized ||
       !load_path.empty() || !save_path.empty())) {
    std::fprintf(stderr,
                 "--shards combines with --updates/--subscribe only (the "
                 "router runs one queue thread per shard and solves every "
                 "query itself; snapshots use per-shard files)\n");
    return 1;
  }
  if (transport != "local" && transport != "socket") {
    std::fprintf(stderr, "unknown --transport %s (want local|socket)\n",
                 transport.c_str());
    return 1;
  }
  if (transport == "socket" && shards < 2) {
    std::fprintf(stderr,
                 "--transport socket requires --shards >= 2 (the socket "
                 "tier deploys one frame server per shard worker)\n");
    return 1;
  }
  constexpr int kMaxShardTimeoutMs = 3600000;
  if (shard_timeout_ms < 0 || shard_timeout_ms > kMaxShardTimeoutMs) {
    std::fprintf(stderr, "--shard-timeout-ms %d out of range [0, %d]\n",
                 shard_timeout_ms, kMaxShardTimeoutMs);
    return 1;
  }
  if (shard_timeout_ms > 0 && shards < 2) {
    std::fprintf(stderr, "--shard-timeout-ms requires --shards >= 2\n");
    return 1;
  }
  if (!fault_spec.empty() && transport != "socket") {
    std::fprintf(stderr,
                 "--fault-schedule requires --transport socket (faults are "
                 "injected at the socket transport layer)\n");
    return 1;
  }
  // Parsed here so a malformed spec dies with the parser's message before
  // any servers start. Declared at main scope: RouterOptions keeps a raw
  // pointer into it, so it must outlive the router below.
  net::FaultSchedule faults;
  if (!fault_spec.empty()) {
    std::string fault_error;
    if (!net::FaultSchedule::Parse(fault_spec, &faults, &fault_error)) {
      std::fprintf(stderr, "bad --fault-schedule: %s\n", fault_error.c_str());
      return 1;
    }
  }

  // --load serves from the snapshot through the storage engine's buffer
  // pool; otherwise generate (or read the CSV) and bulk-load as before.
  // Either way `data`/`tree` below refer to the serving pair.
  std::unique_ptr<StorageEngine> storage;
  Dataset built_data;
  RTree built_tree;
  if (!load_path.empty()) {
    try {
      StorageOptions storage_options;
      storage_options.buffer_pages = buffer_pages;
      storage = StorageEngine::Open(load_path, storage_options);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot load snapshot: %s\n", e.what());
      return 1;
    }
    n = storage->dataset()->size();
    d = storage->dataset()->dim();
    if (k > storage->dataset()->num_live()) {
      std::fprintf(stderr, "--k %d exceeds the snapshot's %d live records\n",
                   k, storage->dataset()->num_live());
      return 1;
    }
    if (!save_path.empty()) {
      try {
        storage->Resave(save_path);  // materialises, then writes
      } catch (const std::exception& e) {
        std::fprintf(stderr, "cannot save snapshot: %s\n", e.what());
        return 1;
      }
      std::fprintf(stderr, "re-saved snapshot to %s\n", save_path.c_str());
    }
  } else {
    built_data =
        csv.empty() ? GenerateSynthetic(dist, n, d, seed) : LoadCsv(csv, d);
    built_tree = RTree::BulkLoad(built_data);
    if (!save_path.empty()) {
      try {
        StorageEngine::Save(save_path, built_data, built_tree);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "cannot save snapshot: %s\n", e.what());
        return 1;
      }
      // stderr so saved-vs-loaded stdout stays byte-comparable.
      std::fprintf(stderr, "saved snapshot to %s\n", save_path.c_str());
    }
  }
  Dataset& data = storage != nullptr ? *storage->dataset() : built_data;
  RTree& tree = storage != nullptr ? *storage->tree() : built_tree;
  // Updates, amortized contexts and subscriptions route through the
  // engine, so they imply batch mode.
  const bool batch_mode =
      batch > 0 || threads > 1 || updates > 0 || amortized || subscribe > 0;
  std::vector<RecordId> skyline;  // needed for the default focal and batch
  if (focal == kInvalidRecord || batch_mode) {
    skyline = Skyline(data, tree);
  }
  if (focal == kInvalidRecord) {
    focal = skyline.front();  // an informative default
  }

  // Focal validation: range AND liveness, with a clear error instead of an
  // assert deep in the engine. Checked at startup and — because update
  // batches shrink the live set — again after every ApplyUpdates. Returns
  // false instead of exiting so callers unwind normally (the batch path
  // holds a live QueryEngine whose worker threads must join).
  auto check_focal = [&data](RecordId f, const char* when) {
    if (f < 0 || f >= data.size()) {
      std::fprintf(stderr,
                   "--focal %d out of range %s (dataset has %d records)\n", f,
                   when, data.size());
      return false;
    }
    if (!data.IsLive(f)) {
      std::fprintf(stderr, "--focal %d is not a live record %s\n", f, when);
      return false;
    }
    return true;
  };
  if (!check_focal(focal, "at startup")) return 1;

  KsprOptions options;
  options.k = k;
  options.algorithm = algo;
  options.compute_volume = volume;
  options.parallel.num_threads = intra_threads;

  if (shards > 1) {
    // Sharded serving: partition across N in-process shard workers and
    // answer by scatter-gather. Regions and stats are bitwise-identical
    // to the unsharded run of the same candidate pipeline; the scatter
    // line reports what sharding actually did.
    RouterOptions router_options;
    router_options.num_shards = static_cast<size_t>(shards);
    if (shard_timeout_ms > 0) {
      router_options.shard_timeout_ms = shard_timeout_ms;
    }
    const bool socket_mode = transport == "socket";
    if (socket_mode) {
      router_options.transport = TransportKind::kSocket;
      if (!fault_spec.empty()) {
        // Tight per-attempt deadline + deep retry budget: injected drops
        // burn an attempt quickly and the supervisor absorbs them, so the
        // run still answers bitwise-identically.
        router_options.socket.request_timeout_ms = 150;
        router_options.socket.max_retries = 6;
        router_options.socket.faults = &faults;
      }
    }
    auto router = socket_mode ? ShardRouter::Create(data, router_options)
                              : ShardRouter::CreateLocal(data, router_options);

    if (subscribe > 0) {
      size_t start = 0;
      for (size_t s = 0; s < skyline.size(); ++s) {
        if (skyline[s] == focal) start = s;
      }
      auto print_event = [](const SubscriptionEvent& e) {
        std::printf("# sub %lld focal=%d %s v=%llu +%zu -%zu regions=%zu\n",
                    static_cast<long long>(e.subscription), e.focal_id,
                    ToString(e.kind),
                    static_cast<unsigned long long>(e.version),
                    e.diff.regions_added.size(), e.diff.regions_removed,
                    e.num_regions);
      };
      const int want =
          std::min<int>(subscribe, static_cast<int>(skyline.size()));
      for (int s = 0; s < want; ++s) {
        const RecordId id = skyline[(start + s) % skyline.size()];
        if (router->Subscribe(id, options, print_event) ==
            kInvalidSubscription) {
          std::fprintf(stderr, "subscribe failed for record %d\n", id);
          return 1;
        }
      }
      std::printf("# subscriptions registered: %zu\n",
                  router->num_subscriptions());
    }

    auto run_query = [&]() {
      RouterQueryResult r = router->Query(focal, options);
      if (!r.focal_live) {
        std::fprintf(stderr, "focal %d is not live on any shard\n", focal);
        return false;
      }
      std::printf("# %s focal=%d k=%d algo=%d regions=%zu processed=%lld "
                  "nodes=%lld\n",
                  data.Summary().c_str(), focal, k, static_cast<int>(algo),
                  r.result->regions.size(),
                  static_cast<long long>(r.result->stats.processed_records),
                  static_cast<long long>(r.result->stats.cell_tree_nodes));
      std::printf("# shards=%d merged=%zu solved=%zu skyband_cached=%zu%s\n",
                  shards, r.scatter.candidates_merged,
                  r.scatter.candidates_solved, r.scatter.shard_cache_hits,
                  r.cache_hit ? " (cache hit)" : "");
      return true;
    };
    if (!run_query()) return 1;

    // Update rounds mirror the engine path: half inserts, half random
    // live deletes. `data` (the router copied its slices out of it) is
    // kept as a liveness mirror for victim selection and re-validation.
    Rng urng(seed ^ 0x9e3779b97f4a7c15ULL);
    for (int u = 1; u <= updates; ++u) {
      RouterUpdateBatch rb;
      const int num_inserts = (update_size + 1) / 2;
      const int num_deletes = update_size / 2;
      for (int j = 0; j < num_inserts; ++j) {
        Vec r(d);
        for (int x = 0; x < d; ++x) r.v[x] = urng.Uniform();
        rb.inserts.push_back(r);
      }
      int attempts = 0;
      while (static_cast<int>(rb.deletes.size()) < num_deletes &&
             attempts++ < 20 * num_deletes) {
        const RecordId cand =
            static_cast<RecordId>(urng.UniformInt(data.size()));
        if (!data.IsLive(cand)) continue;
        if (cand == focal) continue;
        if (std::find(rb.deletes.begin(), rb.deletes.end(), cand) !=
            rb.deletes.end()) {
          continue;
        }
        rb.deletes.push_back(cand);
      }

      RouterUpdateResult ur = router->ApplyUpdates(rb);
      for (const Vec& r : rb.inserts) data.Insert(r);
      for (RecordId id : rb.deletes) data.Delete(id);
      std::printf("# update %d: +%zu -%zu version=%llu shards_touched=%zu "
                  "cache dropped=%zu retained=%zu\n",
                  u, ur.inserted_global_ids.size(), ur.deletes_applied,
                  static_cast<unsigned long long>(ur.version),
                  ur.shards_touched, ur.cache_dropped, ur.cache_retained);
      if (ur.subscribers_examined > 0) {
        std::printf("# update %d subs: examined=%zu irrelevant=%zu "
                    "recomputed=%zu notified=%zu terminated=%zu\n",
                    u, ur.subscribers_examined, ur.subscribers_irrelevant,
                    ur.subscribers_recomputed, ur.subscribers_notified,
                    ur.subscribers_terminated);
      }
      if (!data.IsLive(focal)) {
        if (focal_set) {
          if (!check_focal(focal, "after update batch")) return 1;
        }
        focal = kInvalidRecord;
        for (RecordId g = 0; g < data.size(); ++g) {
          if (!data.IsLive(g)) continue;
          if (focal == kInvalidRecord ||
              data.Get(g).Sum() > data.Get(focal).Sum()) {
            focal = g;
          }
        }
        if (focal == kInvalidRecord) {
          std::fprintf(stderr,
                       "dataset drained by updates: no records left\n");
          return 1;
        }
        std::printf("# focal deleted by updates; continuing with %d\n",
                    focal);
      }
      if (!run_query()) return 1;
    }
    if (socket_mode) {
      const TransportStats::Snapshot ts = router->transport_stats()->Get();
      std::printf("# transport=socket requests=%lld retries=%lld "
                  "reconnects=%lld timeouts=%lld failures=%lld "
                  "faults_injected=%lld\n",
                  static_cast<long long>(ts.requests),
                  static_cast<long long>(ts.retries),
                  static_cast<long long>(ts.reconnects),
                  static_cast<long long>(ts.timeouts),
                  static_cast<long long>(ts.failures),
                  static_cast<long long>(ts.faults_injected));
    }
    return 0;
  }

  if (batch_mode) {
    // Batch mode: route through the concurrent QueryEngine. The workload
    // cycles over skyline records starting at the focal (skyline members
    // keep the queries informative; see bench/bench_common.h).
    const int count = batch > 0 ? batch : 1;
    auto build_requests = [&]() {
      std::vector<QueryRequest> requests;
      // The requested focal always leads the batch — at its skyline
      // position when it is a skyline member, otherwise as an explicit
      // first query (never silently substituted).
      size_t start = skyline.size();
      for (size_t s = 0; s < skyline.size(); ++s) {
        if (skyline[s] == focal) start = s;
      }
      for (int q = 0; q < count; ++q) {
        QueryRequest request;
        if (start < skyline.size()) {
          request.focal_id = skyline[(start + q) % skyline.size()];
        } else {
          request.focal_id =
              q == 0 ? focal : skyline[(q - 1) % skyline.size()];
        }
        request.options = options;
        request.amortized = amortized;
        requests.push_back(request);
      }
      return requests;
    };

    EngineOptions engine_options;
    engine_options.workers = threads;
    engine_options.intra_threads = intra_threads;
    engine_options.amortized_contexts = amortized ? 16 : 0;
    std::unique_ptr<QueryEngine> engine_owner =
        storage != nullptr
            ? std::make_unique<QueryEngine>(storage.get(), engine_options)
            : std::make_unique<QueryEngine>(&data, &tree, engine_options);
    QueryEngine& engine = *engine_owner;

    // Standing subscriptions: register S skyline focals (starting at the
    // requested focal) and print every diff event as it is pushed.
    if (subscribe > 0) {
      size_t start = 0;
      for (size_t s = 0; s < skyline.size(); ++s) {
        if (skyline[s] == focal) start = s;
      }
      KsprOptions sub_options = options;
      sub_options.parallel = ParallelOptions{};
      auto print_event = [](const SubscriptionEvent& e) {
        std::printf("# sub %lld focal=%d %s v=%llu +%zu -%zu regions=%zu\n",
                    static_cast<long long>(e.subscription), e.focal_id,
                    ToString(e.kind),
                    static_cast<unsigned long long>(e.version),
                    e.diff.regions_added.size(), e.diff.regions_removed,
                    e.num_regions);
      };
      const int want =
          std::min<int>(subscribe, static_cast<int>(skyline.size()));
      for (int s = 0; s < want; ++s) {
        const RecordId id = skyline[(start + s) % skyline.size()];
        if (engine.Subscribe(id, sub_options, print_event) ==
            kInvalidSubscription) {
          std::fprintf(stderr, "subscribe failed for record %d\n", id);
          return 1;
        }
      }
      std::printf("# subscriptions registered: %zu\n",
                  engine.num_subscriptions());
    }

    std::vector<QueryRequest> requests = build_requests();
    std::vector<QueryResponse> responses = engine.RunAll(requests);
    for (size_t i = 0; i < responses.size(); ++i) {
      std::printf("query %zu focal=%d regions=%zu %.2fms%s%s\n", i,
                  requests[i].focal_id, responses[i].result->regions.size(),
                  responses[i].latency_ms,
                  responses[i].cache_hit ? " (cache hit)" : "",
                  responses[i].amortized ? " (amortized)" : "");
    }

    // Dynamic update rounds: mutate, re-validate, re-query.
    Rng urng(seed ^ 0x9e3779b97f4a7c15ULL);
    for (int u = 1; u <= updates; ++u) {
      UpdateBatch ub;
      const int num_inserts = (update_size + 1) / 2;
      const int num_deletes = update_size / 2;
      for (int j = 0; j < num_inserts; ++j) {
        Vec r(d);
        for (int x = 0; x < d; ++x) r.v[x] = urng.Uniform();
        ub.inserts.push_back(r);
      }
      // Random live victims; the current focal is kept out of the pool so
      // the run never self-destructs on its own random deletes (the
      // re-validation below still guards every other shrink path).
      int attempts = 0;
      while (static_cast<int>(ub.deletes.size()) < num_deletes &&
             attempts++ < 20 * num_deletes) {
        const RecordId cand =
            static_cast<RecordId>(urng.UniformInt(data.size()));
        if (!data.IsLive(cand)) continue;
        if (cand == focal) continue;
        if (std::find(ub.deletes.begin(), ub.deletes.end(), cand) !=
            ub.deletes.end()) {
          continue;
        }
        ub.deletes.push_back(cand);
      }

      UpdateResult ur = engine.ApplyUpdates(ub);
      std::printf("# update %d: +%zu -%zu version=%llu cache dropped=%zu "
                  "retained=%zu\n",
                  u, ur.inserted_ids.size(), ur.deletes_applied,
                  static_cast<unsigned long long>(ur.version),
                  ur.cache_dropped, ur.cache_retained);
      if (ur.subscribers_examined > 0) {
        std::printf("# update %d subs: examined=%zu irrelevant=%zu "
                    "notified=%zu terminated=%zu\n",
                    u, ur.subscribers_examined, ur.subscribers_irrelevant,
                    ur.subscribers_notified, ur.subscribers_terminated);
      }

      // Re-validate against the shrunken dataset and rebuild the workload
      // over the fresh skyline (old skyline ids may be tombstoned). A
      // default focal is re-derived when it dies; an explicit --focal is a
      // hard error (never silently substituted).
      skyline = Skyline(data, tree);
      if (skyline.empty()) {
        std::fprintf(stderr, "dataset drained by updates: no records left\n");
        return 1;
      }
      if (!focal_set && !data.IsLive(focal)) {
        focal = skyline.front();
        std::printf("# focal deleted by updates; continuing with %d\n",
                    focal);
      }
      if (!check_focal(focal, "after update batch")) return 1;
      requests = build_requests();
      responses = engine.RunAll(requests);
      size_t hits = 0;
      size_t regions = 0;
      double ms = 0.0;
      for (const QueryResponse& r : responses) {
        hits += r.cache_hit ? 1 : 0;
        regions += r.result->regions.size();
        ms += r.latency_ms;
      }
      std::printf("# post-update %d: %zu queries hits=%zu regions=%zu "
                  "avg=%.2fms\n",
                  u, responses.size(), hits, regions,
                  ms / static_cast<double>(responses.size()));
    }

    EngineStats::Snapshot stats = engine.stats();
    std::printf("# %s batch=%lld threads=%d intra=%d hits=%lld avg=%.2fms "
                "max=%.2fms lp_calls=%lld updates=%lld amortized=%lld+%lld\n",
                data.Summary().c_str(),
                static_cast<long long>(stats.queries), engine.workers(),
                engine.intra_threads(),
                static_cast<long long>(stats.cache_hits),
                stats.avg_latency_ms(), stats.max_latency_ms,
                static_cast<long long>(stats.lp_calls),
                static_cast<long long>(stats.updates),
                static_cast<long long>(stats.amortized_builds),
                static_cast<long long>(stats.amortized_reuses));
    if (stats.sub_registered > 0) {
      std::printf("# subs registered=%lld irrelevant=%lld delta=%lld "
                  "rebuilds=%lld gone=%lld events=%lld\n",
                  static_cast<long long>(stats.sub_registered),
                  static_cast<long long>(stats.sub_irrelevant),
                  static_cast<long long>(stats.sub_delta),
                  static_cast<long long>(stats.sub_rebuilds),
                  static_cast<long long>(stats.sub_focal_gone),
                  static_cast<long long>(stats.sub_events));
    }
    return 0;
  }

  KsprSolver solver(&data, &tree);
  KsprResult result = solver.QueryRecord(focal, options);
  std::printf("# %s focal=%d k=%d algo=%d regions=%zu processed=%lld "
              "nodes=%lld\n",
              data.Summary().c_str(), focal, k, static_cast<int>(algo),
              result.regions.size(),
              static_cast<long long>(result.stats.processed_records),
              static_cast<long long>(result.stats.cell_tree_nodes));
  if (volume) {
    std::printf("# P(top-%d) = %.6f\n", k, result.TopKProbability());
  }
  for (size_t i = 0; i < result.regions.size(); ++i) {
    const Region& region = result.regions[i];
    std::printf("region %zu rank=[%d,%d] witness=%s", i, region.rank_lb,
                region.rank_ub, region.witness.ToString().c_str());
    if (region.volume >= 0) std::printf(" volume=%.6f", region.volume);
    std::printf("\n");
    for (const LinIneq& c : region.constraints) {
      std::printf("  ineq:");
      for (int j = 0; j < region.dim; ++j) std::printf(" %+.6f", c.a[j]);
      std::printf(" < %.6f\n", c.b);
    }
  }
  return 0;
}
