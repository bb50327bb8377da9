#include "harness.h"

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace kspr::perfbench {

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line reads in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  if (!clear_refs) {
    throw std::runtime_error(
        "cannot reset the peak RSS through /proc/self/clear_refs");
  }
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&allowed_);
  if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
  }
}

void CpuRotation::Next() {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

void CpuRotation::Release() {
  sched_setaffinity(0, sizeof(allowed_), &allowed_);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  // splitmix64 finaliser over (seed, tag).
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag * 0xBF58476D1CE4E5B9ull +
               0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& [existing, entry] : metrics_) {
    if (existing == name) {
      entry = Entry{value, unit};
      return;
    }
  }
  metrics_.emplace_back(name, Entry{value, unit});
}

bool Report::Find(const std::string& name, double* value) const {
  for (const auto& [existing, entry] : metrics_) {
    if (existing == name) {
      *value = entry.value;
      return true;
    }
  }
  return false;
}

void Report::CountMany(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string Report::ToJson() const {
  std::ostringstream out;
  const bool correct = attempted_ > 0 && failed_ == 0;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(entry.value) ? entry.value : 0.0);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << entry.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

void ReportEndToEnd(const std::vector<Segment>& segments,
                    const std::vector<double>& setup_s, Report* report) {
  std::vector<double> latency_ms, qps, cpu;
  double peak_rss_mb = 0.0;
  for (const Segment& seg : segments) {
    if (seg.latency_ms.empty() || seg.wall_ms <= 0.0) continue;
    const double n = static_cast<double>(seg.latency_ms.size());
    latency_ms.insert(latency_ms.end(), seg.latency_ms.begin(),
                      seg.latency_ms.end());
    qps.push_back(n / (seg.wall_ms / 1e3));
    cpu.push_back(seg.cpu_ms / n);
    peak_rss_mb = std::max(peak_rss_mb, seg.peak_rss_mb);
  }
  report->Metric("query_ms_p50", Quantile(latency_ms, 0.5), "ms");
  report->Metric("query_ms_p90", Quantile(latency_ms, 0.9), "ms");
  report->Metric("throughput_qps", Median(qps), "1/s");
  report->Metric("cpu_ms_per_query", Median(cpu), "ms");
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("peak_rss_mb", peak_rss_mb, "MiB");
}

void ReportSolverCounts(const KsprStats& totals, double queries,
                        Report* report) {
  const auto per_query = [&](int64_t count) {
    return queries > 0.0 ? static_cast<double>(count) / queries : 0.0;
  };
  report->Metric("core.cell_tree_nodes", per_query(totals.cell_tree_nodes),
                 "count");
  report->Metric("core.processed_records",
                 per_query(totals.processed_records), "count");
  report->Metric("core.lookahead_reported",
                 per_query(totals.lookahead_reported), "count");
  report->Metric("core.lookahead_pruned", per_query(totals.lookahead_pruned),
                 "count");
  report->Metric("core.tree_bytes", per_query(totals.bytes), "bytes");
  report->Metric("lp.feasibility_lps", per_query(totals.feasibility_lps),
                 "count");
  report->Metric("lp.bound_lps", per_query(totals.bound_lps), "count");
  report->Metric("lp.finalize_lps", per_query(totals.finalize_lps), "count");
  report->Metric("lp.warm_starts", per_query(totals.lp_warm_starts), "count");
  report->Metric("lp.cold_starts", per_query(totals.lp_cold_starts), "count");
  report->Metric("lp.skipped_by_ball", per_query(totals.lp_skipped_by_ball),
                 "count");
  report->Metric("lp.constraints_per_lp",
                 totals.feasibility_lps > 0
                     ? static_cast<double>(totals.constraints_used) /
                           static_cast<double>(totals.feasibility_lps)
                     : 0.0,
                 "count");
}

void ReportTraceOverhead(const std::vector<double>& plain_ms,
                         const std::vector<double>& traced_ms,
                         Report* report) {
  const double plain = Median(plain_ms);
  report->Metric("trace.overhead_pct",
                 plain > 0.0 ? (Median(traced_ms) / plain - 1.0) * 100.0 : 0.0,
                 "%");
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, int64_t request,
                     int64_t parent)
    : tracer_(tracer), name_(name), request_(request), parent_(parent) {
  if (!tracer_->enabled()) return;
  id_ = tracer_->NextId();
  start_ns_ = tracer_->NowNs();
  open_ = true;
}

void Tracer::Scope::End() {
  if (!open_) return;
  open_ = false;
  tracer_->Record(Span{id_, parent_, request_, name_, start_ns_,
                       tracer_->NowNs()});
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int64_t Tracer::NextId() {
  MutexLock lock(&mu_);
  return next_id_++;
}

void Tracer::Record(Span span) {
  MutexLock lock(&mu_);
  spans_.push_back(std::move(span));
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  MutexLock lock(&mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  MutexLock lock(&mu_);
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace kspr::perfbench
