// Bitwise result fingerprints over six fixed kSPR instances, plus the
// first of them served from disk.
//
// For each instance the tool queries every focal record of a fixed list
// (the leading records of the data's k-skyband in BBS order) and folds
// every answer into one 64-bit FNV-1a hash: each region field that
// ResultsBitwiseEqual compares, in order and bit for bit, followed by
// every KsprStats counter. It prints one line per instance and nothing
// else on stdout, so two builds produce identical results and work
// counters on all six instances iff their outputs are identical:
//
//   ./build/bench/bench_fingerprint > after.txt
//   diff before.txt after.txt
//
// The hash covers exact doubles, so it is as strict as the bitwise
// identity suites; like them it is only comparable between builds from
// the same compiler and flags. Runs in a few seconds in a Release build.
//
// The seventh line, lpcta_ind_d3_disk, runs the lpcta_ind_d3 instance
// against a snapshot of its tree: saved to the temp directory, reopened,
// and served through a buffer pool a quarter the size of the tree, so
// the pool thrashes. Disk == memory holds iff its hash equals the
// lpcta_ind_d3 hash; the pool's page reads go to stderr.
//
// `--only NAME` runs just the named instance (e.g. to profile one
// workload, see docs/BENCHMARKS.md); the default runs all seven.

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/dataset.h"
#include "common/stats.h"
#include "common/timer.h"
#include "core/options.h"
#include "core/region.h"
#include "core/solver.h"
#include "datagen/synthetic.h"
#include "index/bbs.h"
#include "index/rtree.h"
#include "storage/storage_engine.h"

namespace kspr::bench {
namespace {

constexpr uint64_t kDataSeed = 42;

struct Instance {
  const char* name;
  Distribution dist;
  int n;
  int d;
  int k;
  Algorithm algo;
  int max_focals;  // 0: the whole k-skyband
  bool disk = false;  // serve from a reopened snapshot through a pool
};

constexpr Instance kInstances[] = {
    {"lpcta_ind_d3", Distribution::kIndependent, 2000, 3, 10,
     Algorithm::kLpCta, 0},
    {"lpcta_anti_d4", Distribution::kAntiCorrelated, 500, 4, 5,
     Algorithm::kLpCta, 40},
    {"lpcta_cor_d5", Distribution::kCorrelated, 2000, 5, 10,
     Algorithm::kLpCta, 40},
    {"pcta_ind_d3", Distribution::kIndependent, 2000, 3, 10,
     Algorithm::kPcta, 40},
    {"olpcta_ind_d3", Distribution::kIndependent, 2000, 3, 10,
     Algorithm::kOlpCta, 40},
    {"cta_ind_d3", Distribution::kIndependent, 500, 3, 5, Algorithm::kCta,
     40},
    {"lpcta_ind_d3_disk", Distribution::kIndependent, 2000, 3, 10,
     Algorithm::kLpCta, 0, true},
};

class Fnv1a64 {
 public:
  template <typename T>
  void Mix(const T& value) {
    static_assert(std::has_unique_object_representations_v<T> ||
                  std::is_floating_point_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) h_ = (h_ ^ b) * 0x100000001b3ull;
  }

  void MixVec(const Vec& v) {
    Mix(v.dim);
    for (int i = 0; i < v.dim; ++i) Mix(v.v[i]);
  }

  // Every field RegionsBitwiseEqual compares, in the same order.
  void MixResult(const KsprResult& result) {
    Mix(result.regions.size());
    for (const Region& r : result.regions) {
      Mix(r.space);
      Mix(r.dim);
      Mix(r.rank_lb);
      Mix(r.rank_ub);
      MixVec(r.witness);
      Mix(r.volume);
      Mix(r.constraints.size());
      for (const LinIneq& c : r.constraints) {
        MixVec(c.a);
        Mix(c.b);
      }
      Mix(r.vertices.size());
      for (const Vec& v : r.vertices) MixVec(v);
    }
    // KsprStats is all int64 counters, so its bytes are exactly its
    // counters and a counter added later is covered without an edit here.
    Mix(result.stats);
  }

  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

void RunInstance(const Instance& in) {
  const Timer timer;
  const Dataset generated = GenerateSynthetic(in.dist, in.n, in.d, kDataSeed);
  const RTree built = RTree::BulkLoad(generated);
  const Dataset* data_ptr = &generated;
  const RTree* tree_ptr = &built;
  std::unique_ptr<StorageEngine> storage;
  int pool_pages = 0;
  if (in.disk) {
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("kspr_fingerprint_" + std::to_string(::getpid()) + ".snap"))
            .string();
    StorageEngine::Save(path, generated, built);
    pool_pages = std::max(1, built.num_nodes() / 4);
    StorageOptions options;
    options.buffer_pages = pool_pages;
    storage = StorageEngine::Open(path, options);
    std::filesystem::remove(path);  // the open descriptor keeps it readable
    data_ptr = storage->dataset();
    tree_ptr = storage->tree();
  }
  const Dataset& data = *data_ptr;
  const RTree& tree = *tree_ptr;
  const KsprSolver solver(&data, &tree);
  std::vector<RecordId> focals = KSkyband(data, tree, in.k);
  if (in.max_focals > 0 && static_cast<int>(focals.size()) > in.max_focals) {
    focals.resize(static_cast<size_t>(in.max_focals));
  }
  KsprOptions options;
  options.algorithm = in.algo;
  options.k = in.k;

  Fnv1a64 hash;
  int64_t regions = 0;
  for (RecordId focal : focals) {
    const KsprResult result = solver.QueryRecord(focal, options);
    hash.Mix(focal);
    hash.MixResult(result);
    regions += static_cast<int64_t>(result.regions.size());
  }
  std::printf("%-14s n=%d d=%d k=%d queries=%zu regions=%lld fnv1a64=%016llx\n",
              in.name, in.n, in.d, in.k, focals.size(),
              static_cast<long long>(regions),
              static_cast<unsigned long long>(hash.value()));
  std::fflush(stdout);
  // Timing and page reads go to stderr so stdout stays diffable.
  std::fprintf(stderr, "%s: %.2f s\n", in.name, timer.Seconds());
  if (storage != nullptr) {
    std::fprintf(stderr, "%s: pool_pages=%d page_reads=%lld\n", in.name,
                 pool_pages,
                 static_cast<long long>(storage->pool()->tracker()->reads()));
  }
}

}  // namespace
}  // namespace kspr::bench

int main(int argc, char** argv) {
  const char* only = nullptr;
  if (argc == 3 && std::strcmp(argv[1], "--only") == 0) {
    only = argv[2];
  } else if (argc != 1) {
    std::fprintf(stderr, "usage: %s [--only INSTANCE]\n", argv[0]);
    return 1;
  }
  bool ran = false;
  for (const kspr::bench::Instance& in : kspr::bench::kInstances) {
    if (only != nullptr && std::strcmp(only, in.name) != 0) continue;
    kspr::bench::RunInstance(in);
    ran = true;
  }
  if (!ran) {
    std::fprintf(stderr, "unknown instance: %s\n", only);
    return 1;
  }
  return 0;
}
