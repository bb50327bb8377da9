// Shared machinery of the repository benchmark: run configuration, the
// result report printed as the last stdout line, an in-memory span
// recorder, and the timing/statistics helpers every workload uses.
//
// Spans are recorded only from the benchmark's own code, around calls
// into the library's public functions (one span per call). Each span
// carries a name ("<layer>.<call>"), start/end in nanoseconds since the
// recorder was created, its parent span and the request it belongs to.
// Nothing is written while the run is measuring; WriteJson dumps the
// spans once the run has ended.

#ifndef KSPR_PERFBENCH_HARNESS_H_
#define KSPR_PERFBENCH_HARNESS_H_

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "common/sync.h"

namespace kspr::perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) the span dump is written to.
  std::string out_dir;
};

/// Wall clock for every latency the benchmark reports.
using Clock = std::chrono::steady_clock;

inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// CPU time of the whole process (every thread), in milliseconds.
double ProcessCpuMs();

/// Peak resident set size (VmHWM) of the process since the last
/// ResetPeakRss, in MiB.
double PeakRssMb();

/// Returns freed heap pages to the kernel and restarts the peak RSS from
/// the current RSS (by writing 5 to /proc/self/clear_refs), so that what
/// the benchmark did before (set-up, answer checks) leaves no trace in the
/// next PeakRssMb. Throws when the kernel refuses the reset.
void ResetPeakRss();

/// Moves the calling thread from CPU to CPU: Next pins it to the next of
/// the CPUs it was allowed when the rotation was made, round robin, and
/// Release (or the destructor) lets it use all of them again.
///
/// On a shared host the CPUs run at different speeds at the same moment:
/// one thread, pinned to each of the 4 in turn, read between 111 and 151
/// queries/s. A thread left to the scheduler stays on one CPU for most of
/// a run, so a single-threaded workload's figures depended on which CPU it
/// landed on. Moving the thread that does a workload's work to the next
/// CPU at every pass makes each run sample every CPU. Threads inherit
/// their creator's CPUs, so none may be started while pinned.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation() { Release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();
  void Release();

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

double Median(std::vector<double> values);

/// Derives an independent 64-bit stream seed from the workload seed and a
/// purpose tag, so every input family (data, focal order, what-if
/// perturbations, update batches) is reproducible on its own.
uint64_t DeriveSeed(uint64_t seed, uint64_t tag);

/// The run's outcome: end-to-end or per-layer metrics, plus the operation
/// tally that drives `attempted` / `failed` / `correct`.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);

  /// Counts operations; `failed` of them threw, were refused or answered
  /// differently from the oracle.
  void CountMany(int64_t attempted, int64_t failed);

  /// Looks up a reported metric's value; false when it was not reported.
  bool Find(const std::string& name, double* value) const;
  size_t size() const { return metrics_.size(); }

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  /// The single JSON object the run ends with.
  std::string ToJson() const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  std::vector<std::pair<std::string, Entry>> metrics_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// In-memory span recorder; thread-safe. A disabled recorder records
/// nothing and its scopes cost one branch.
class Tracer {
 public:
  struct Span {
    int64_t id = 0;
    int64_t parent = -1;
    int64_t request = -1;
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  /// RAII span: opened by Tracer::Open, closed by the destructor (or End).
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int64_t request, int64_t parent);
    ~Scope() { End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void End();
    int64_t id() const { return id_; }

   private:
    Tracer* tracer_;
    const char* name_;
    int64_t request_;
    int64_t parent_;
    int64_t id_ = -1;
    int64_t start_ns_ = 0;
    bool open_ = false;
  };

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  Scope Open(const char* name, int64_t request = -1, int64_t parent = -1) {
    return Scope(this, name, request, parent);
  }

  /// Durations (ms) of every span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;

  /// Writes every span as one JSON document. Returns false on I/O error.
  bool WriteJson(const std::string& path) const;

 private:
  int64_t NowNs() const;
  int64_t NextId();
  void Record(Span span);

  bool enabled_;
  Clock::time_point origin_;
  mutable Mutex mu_;
  int64_t next_id_ KSPR_GUARDED_BY(mu_) = 0;
  std::vector<Span> spans_ KSPR_GUARDED_BY(mu_);
};

/// Workload parameters shared by every workload: LP-CTA, k = 10, IND
/// data with d = 3.
inline constexpr int kK = 10;
inline constexpr int kDim = 3;

/// Every workload starts from data generated with this fixed seed; the
/// workload seed drives everything else (focal order, what-if focals,
/// update batches). Kept fixed because kSPR cost swings several-fold
/// between IND instances of this size (the median query cost of one n =
/// 2000 instance is 5x another's), which would drown any code change in
/// input variance.
inline constexpr uint64_t kDataSeed = 42;

/// Seeded Fisher-Yates shuffle.
template <typename T>
void Shuffle(std::vector<T>* items, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng.UniformInt(i)]);
  }
}

/// One slice of an untraced measurement window: the client-observed
/// latency of every query completed in it, its wall time, the process CPU
/// time spent in it and the peak RSS while it ran (ResetPeakRss before it,
/// PeakRssMb right after it, before any answer is checked).
struct Segment {
  std::vector<double> latency_ms;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  double peak_rss_mb = 0.0;
};

/// Reports the end-to-end metrics. Latency percentiles pool every query
/// of the window; throughput and CPU per query are computed per segment
/// and reported as the median over segments, so one slow stretch of a
/// noisy host moves a single segment rather than the result. `setup_s` is
/// the median of the repeated set-ups; `peak_rss_mb` the largest segment
/// peak.
void ReportEndToEnd(const std::vector<Segment>& segments,
                    const std::vector<double>& setup_s, Report* report);

/// Reports the `core.*` and `lp.*` work counts of `totals`, the summed
/// KsprStats of `queries` solver runs, as per-query means.
void ReportSolverCounts(const KsprStats& totals, double queries,
                        Report* report);

/// Reports `trace.overhead_pct`: how much the traced median latency
/// exceeds the untraced one over the same operations.
void ReportTraceOverhead(const std::vector<double>& plain_ms,
                         const std::vector<double>& traced_ms,
                         Report* report);

/// Per-workload entry points (one translation unit each). Each fills
/// `report` with the metrics of its mode and counts its operations.
void RunLpctaSerial(const RunConfig& config, Tracer* tracer, Report* report);
void RunEngineDisk(const RunConfig& config, Tracer* tracer, Report* report);
void RunShardedChurn(const RunConfig& config, Tracer* tracer, Report* report);

}  // namespace kspr::perfbench

#endif  // KSPR_PERFBENCH_HARNESS_H_
