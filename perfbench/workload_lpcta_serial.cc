// lpcta-serial: KsprSolver::QueryRecord in memory, one client, one thread.
//
// The ROADMAP ledger instance (IND, n = 2000, d = 3, k = 10, LP-CTA). The
// focal pool is the whole k-skyband of that data in a seeded order, so one
// pass over the pool is the instance's full query mix and a run's latency
// distribution does not hinge on which focals a sample happened to draw.
// Only `core` and `lp` do real work here; the serving, storage and network
// layers are bypassed, which makes this the workload on which changes to
// those layers must show no effect.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "core/region.h"
#include "core/solver.h"
#include "datagen/synthetic.h"
#include "harness.h"
#include "index/bbs.h"
#include "index/rtree.h"

namespace kspr::perfbench {
namespace {

constexpr int kSerialN = 2000;
/// Set-up is timed in batches of kSetupBatch bulk loads, one load being
/// about half a millisecond, too short to time alone on a noisy host. One
/// batch runs before the first pass and one after every pass, so setup_s,
/// the median of the batches' per-load means, samples the host over the
/// whole run as the other metrics do.
constexpr int kSetupBatch = 10;
constexpr int kSkybandRepeats = 41;
constexpr int kProbeFocals = 24;  // focals of the finalize / t2 probes

KsprOptions QueryOptions() {
  KsprOptions options;
  options.k = kK;
  options.algorithm = Algorithm::kLpCta;
  return options;
}

struct Instance {
  Dataset data;
  RTree tree;
  std::vector<RecordId> pool;
};

/// 64-bit FNV-1a over the bytes of every region field ResultsBitwiseEqual
/// compares, order included.
uint64_t RegionsFingerprint(const KsprResult& result) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const auto& value) {
    unsigned char bytes[sizeof(value)];
    std::memcpy(bytes, &value, sizeof(value));
    for (unsigned char b : bytes) {
      h = (h ^ b) * 0x100000001b3ull;
    }
  };
  auto mix_vec = [&mix](const Vec& v) {
    mix(v.dim);
    for (int i = 0; i < v.dim; ++i) mix(v.v[i]);
  };
  mix(result.regions.size());
  for (const Region& r : result.regions) {
    mix(r.space);
    mix(r.dim);
    mix(r.rank_lb);
    mix(r.rank_ub);
    mix_vec(r.witness);
    mix(r.volume);
    mix(r.constraints.size());
    for (const LinIneq& c : r.constraints) {
      mix_vec(c.a);
      mix(c.b);
    }
    mix(r.vertices.size());
    for (const Vec& v : r.vertices) mix_vec(v);
  }
  return h;
}

/// Checks the solver's answers. The first answer for a pool slot must equal
/// the answer of an independently built index and solver over the same data
/// (ResultsBitwiseEqual); every later answer for the slot must equal that
/// first one, compared through its KsprStats and a fingerprint of its
/// regions. No answer outlives its check, and the oracle, which costs as
/// much as the solver, runs once per focal rather than once per query.
class AnswerCheck {
 public:
  AnswerCheck(const Dataset& data, const std::vector<RecordId>& pool,
              KsprOptions options)
      : tree_(RTree::BulkLoad(data)),
        oracle_(&data, &tree_),
        pool_(&pool),
        options_(options),
        first_(pool.size()) {}

  /// Returns false when `result`, the answer for pool slot `slot`, is wrong.
  bool Matches(size_t slot, const KsprResult& result) {
    First& first = first_[slot];
    if (!first.seen) {
      first.seen = true;
      first.regions = RegionsFingerprint(result);
      first.stats = result.stats;
      first.ok = ResultsBitwiseEqual(
          result, oracle_.QueryRecord((*pool_)[slot], options_));
      return first.ok;
    }
    return first.ok && StatsBitwiseEqual(result.stats, first.stats) &&
           RegionsFingerprint(result) == first.regions;
  }

 private:
  struct First {
    bool seen = false;
    bool ok = false;
    uint64_t regions = 0;
    KsprStats stats;
  };
  const RTree tree_;
  const KsprSolver oracle_;
  const std::vector<RecordId>* pool_;
  KsprOptions options_;
  std::vector<First> first_;
};

/// Bulk-loads `data` kSetupBatch times and returns the mean seconds per
/// load. The last tree goes to `*keep` when it is given.
double TimeBulkLoads(const Dataset& data, Tracer* tracer,
                     RTree* keep = nullptr) {
  std::vector<RTree> trees(kSetupBatch);
  const Clock::time_point start = Clock::now();
  for (RTree& tree : trees) {
    Tracer::Scope span = tracer->Open("index.bulkload");
    tree = RTree::BulkLoad(data);
  }
  const double seconds = MillisSince(start) / 1e3 / kSetupBatch;
  if (keep != nullptr) *keep = std::move(trees.back());
  return seconds;
}

Instance Build(const RunConfig& config, Tracer* tracer,
               std::vector<double>* setup_s) {
  Instance in;
  in.data = GenerateIndependent(kSerialN, kDim, kDataSeed);
  setup_s->push_back(TimeBulkLoads(in.data, tracer, &in.tree));
  in.pool = KSkyband(in.data, in.tree, kK);
  Shuffle(&in.pool, DeriveSeed(config.seed, 2));
  return in;
}

}  // namespace

void RunLpctaSerial(const RunConfig& config, Tracer* tracer, Report* report) {
  std::vector<double> setup_s;
  Instance in = Build(config, tracer, &setup_s);
  const KsprSolver solver(&in.data, &in.tree);
  const KsprOptions options = QueryOptions();

  // Every answer is checked right after it arrives, outside the clocks,
  // and then dropped. The oracle runs between the solver's queries, never
  // beside one.
  AnswerCheck answers(in.data, in.pool, options);
  int64_t mismatches = 0;
  auto check = [&](size_t slot, const KsprResult& result) {
    if (!answers.Matches(slot, result)) ++mismatches;
  };

  if (!config.trace) {
    // An untimed warm-up pass asks the oracle about every focal. Then a
    // closed loop over whole passes of the pool runs until the window is
    // spent. Each pass is one segment holding the same query mix, so the
    // per-pass figures differ only by how fast the host ran them. Each
    // pass runs on the next CPU. The clocks run only while the solver
    // answers: a pass's wall and CPU time are summed over its queries,
    // leaving the checks out.
    int64_t queries = 0;
    for (size_t slot = 0; slot < in.pool.size(); ++slot, ++queries) {
      check(slot, solver.QueryRecord(in.pool[slot], options));
    }
    std::vector<Segment> passes;
    double measured_ms = 0.0;
    CpuRotation rotation;
    ResetPeakRss();
    do {
      rotation.Next();
      Segment pass;
      for (size_t slot = 0; slot < in.pool.size(); ++slot) {
        const double cpu0 = ProcessCpuMs();
        const Clock::time_point start = Clock::now();
        const KsprResult result = solver.QueryRecord(in.pool[slot], options);
        const double ms = MillisSince(start);
        pass.cpu_ms += ProcessCpuMs() - cpu0;
        pass.wall_ms += ms;
        pass.latency_ms.push_back(ms);
        check(slot, result);
      }
      pass.peak_rss_mb = PeakRssMb();
      measured_ms += pass.wall_ms;
      queries += static_cast<int64_t>(pass.latency_ms.size());
      passes.push_back(std::move(pass));
      setup_s.push_back(TimeBulkLoads(in.data, tracer));
      ResetPeakRss();
    } while (measured_ms < config.seconds * 1e3);
    ReportEndToEnd(passes, setup_s, report);
    report->CountMany(queries, mismatches);
    return;
  }

  for (int r = 0; r < kSkybandRepeats; ++r) {
    Tracer::Scope span = tracer->Open("index.kskyband");
    KSkyband(in.data, in.tree, kK);
  }
  report->Metric("index.skyband_ms_p50",
                 Median(tracer->DurationsMs("index.kskyband")), "ms");
  report->Metric("index.skyband_size", static_cast<double>(in.pool.size()),
                 "count");

  // Pairs of one untraced and one traced pass until the window is spent;
  // the first traced pass supplies the (deterministic) work counts.
  std::vector<double> plain_ms, traced_ms;
  KsprStats totals;
  int64_t queries = 0;
  double measured_ms = 0.0;
  int pass = 0;
  do {
    for (size_t slot = 0; slot < in.pool.size(); ++slot) {
      const Clock::time_point start = Clock::now();
      const KsprResult result = solver.QueryRecord(in.pool[slot], options);
      plain_ms.push_back(MillisSince(start));
      measured_ms += plain_ms.back();
      check(slot, result);
    }
    for (size_t slot = 0; slot < in.pool.size(); ++slot) {
      const Clock::time_point start = Clock::now();
      Tracer::Scope span =
          tracer->Open("core.query_record", static_cast<int64_t>(queries));
      const KsprResult result = solver.QueryRecord(in.pool[slot], options);
      span.End();
      traced_ms.push_back(MillisSince(start));
      measured_ms += traced_ms.back();
      if (pass == 0) totals.Add(result.stats);
      ++queries;
      check(slot, result);
    }
    TimeBulkLoads(in.data, tracer);
    ++pass;
  } while (measured_ms < config.seconds * 1e3);
  report->Metric("index.bulkload_ms",
                 Median(tracer->DurationsMs("index.bulkload")), "ms");
  ReportSolverCounts(totals, static_cast<double>(in.pool.size()), report);
  ReportTraceOverhead(plain_ms, traced_ms, report);

  // Finalisation cost and the two-thread traversal, on a fixed prefix of
  // the pool: same focal with one option flipped, timed back to back.
  std::vector<double> finalize_ms;
  double serial_ms = 0.0, t2_ms = 0.0;
  const size_t probes =
      std::min<size_t>(in.pool.size(), static_cast<size_t>(kProbeFocals));
  for (size_t slot = 0; slot < probes; ++slot) {
    KsprOptions no_finalize = options;
    no_finalize.finalize_geometry = false;
    KsprOptions two_threads = options;
    two_threads.parallel.num_threads = 2;
    Tracer::Scope on = tracer->Open("core.query_finalize_on");
    const KsprResult with = solver.QueryRecord(in.pool[slot], options);
    on.End();
    Tracer::Scope off = tracer->Open("core.query_finalize_off");
    solver.QueryRecord(in.pool[slot], no_finalize);
    off.End();
    Tracer::Scope t2 = tracer->Open("core.query_threads_2");
    const KsprResult parallel = solver.QueryRecord(in.pool[slot], two_threads);
    t2.End();
    check(slot, with);
    if (!ResultsBitwiseEqual(with, parallel)) ++mismatches;
  }
  const std::vector<double> on_ms =
      tracer->DurationsMs("core.query_finalize_on");
  const std::vector<double> off_ms =
      tracer->DurationsMs("core.query_finalize_off");
  const std::vector<double> par_ms =
      tracer->DurationsMs("core.query_threads_2");
  for (size_t i = 0; i < on_ms.size(); ++i) {
    finalize_ms.push_back(on_ms[i] - off_ms[i]);
    serial_ms += on_ms[i];
    t2_ms += par_ms[i];
  }
  report->Metric("core.finalize_ms_p50", Median(finalize_ms), "ms");
  report->Metric("core.parallel_speedup_t2",
                 t2_ms > 0.0 ? serial_ms / t2_ms : 0.0, "x");
  report->CountMany(queries + static_cast<int64_t>(plain_ms.size()) +
                        2 * static_cast<int64_t>(probes),
                    mismatches);
}

}  // namespace kspr::perfbench
