// In-memory column-major-agnostic record storage.
//
// A Dataset owns n records of fixed dimensionality d stored contiguously
// (row major). Attribute values follow the paper's convention: LARGER IS
// BETTER in every dimension, and weights are positive, so the score
// S(r) = r . w is monotonically increasing in every attribute.
//
// Dynamic updates: Insert appends a record and Delete tombstones one.
// Record ids are STABLE — a deleted id is never reused, its row stays
// addressable (At/Get/Row keep working so in-flight references and
// hyperplane caches stay valid), and `size()` keeps counting all slots
// including tombstones. Live-set consumers filter with IsLive; num_live()
// gives the live cardinality. Every mutation bumps `version()`, the
// monotonic stamp the query engine folds into its result-cache keys.

#ifndef KSPR_COMMON_DATASET_H_
#define KSPR_COMMON_DATASET_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "common/vec.h"

namespace kspr {

class Dataset {
 public:
  Dataset() = default;

  /// Creates an empty dataset of dimensionality `dim`.
  explicit Dataset(int dim) : dim_(dim) {
    assert(dim >= 1 && dim <= kMaxDim);
  }

  int dim() const { return dim_; }
  RecordId size() const { return static_cast<RecordId>(values_.size() / dim_); }
  bool empty() const { return values_.empty(); }

  /// Pre-allocates storage for `n` records total. Purely an allocation
  /// hint (snapshot restore replays thousands of Adds); no observable
  /// state changes.
  void Reserve(RecordId n) {
    if (n <= 0) return;
    values_.reserve(static_cast<size_t>(n) * static_cast<size_t>(dim_));
    live_.reserve(static_cast<size_t>(n));
  }

  /// Appends a record; returns its id.
  RecordId Add(const Vec& r) {
    assert(r.dim == dim_);
    for (int i = 0; i < dim_; ++i) values_.push_back(r[i]);
    live_.push_back(1);
    ++num_live_;
    ++version_;
    return size() - 1;
  }

  /// Dynamic insert: identical to Add (the alias exists so update-path
  /// call sites read as what they are).
  RecordId Insert(const Vec& r) { return Add(r); }

  /// Bulk-appends `n` records stored row-major at `rows` (n * dim()
  /// doubles), all live. Equivalent to n Adds — version() advances by n —
  /// but one insert instead of n*d push_backs; snapshot restore is the
  /// intended caller. Returns the id of the first appended record.
  RecordId AppendRows(const double* rows, RecordId n) {
    assert(n >= 0);
    const RecordId first = size();
    values_.insert(values_.end(), rows,
                   rows + static_cast<size_t>(n) * static_cast<size_t>(dim_));
    live_.insert(live_.end(), static_cast<size_t>(n), 1);
    num_live_ += n;
    version_ += static_cast<uint64_t>(n);
    return first;
  }

  /// Adopts pre-decoded storage wholesale: `rows` holds n*dim row-major
  /// doubles, `live` the parallel 0/1 flags, and `version` the mutation
  /// stamp the dataset had when it was serialised. Both vectors are moved
  /// in — snapshot restore is the intended caller, where copying through
  /// per-record Adds would triple the cold-start cost.
  static Dataset FromRows(int dim, std::vector<double> rows,
                          std::vector<uint8_t> live, uint64_t version) {
    assert(dim >= 1 && dim <= kMaxDim);
    assert(rows.size() == live.size() * static_cast<size_t>(dim));
    Dataset data(dim);
    data.values_ = std::move(rows);
    data.live_ = std::move(live);
    data.num_live_ = 0;
    for (uint8_t l : data.live_) data.num_live_ += (l != 0) ? 1 : 0;
    data.version_ = version;
    return data;
  }

  /// Tombstones record `id`. Returns false when `id` is out of range or
  /// already deleted; on success bumps the version. The row's values stay
  /// addressable (stable ids), only the live flag flips.
  bool Delete(RecordId id) {
    if (id < 0 || id >= size() || !live_[static_cast<size_t>(id)]) {
      return false;
    }
    live_[static_cast<size_t>(id)] = 0;
    --num_live_;
    ++version_;
    return true;
  }

  /// True iff `id` names a record that has not been deleted.
  bool IsLive(RecordId id) const {
    return id >= 0 && id < size() && live_[static_cast<size_t>(id)] != 0;
  }

  /// Number of live (non-tombstoned) records.
  RecordId num_live() const { return num_live_; }

  /// Monotonic mutation stamp: bumped by every Add/Insert/Delete. Two
  /// reads returning the same value bracket an unchanged live set.
  uint64_t version() const { return version_; }

  double At(RecordId id, int attr) const {
    assert(id >= 0 && id < size() && attr >= 0 && attr < dim_);
    return values_[static_cast<size_t>(id) * dim_ + attr];
  }

  /// Materialises record `id` as a Vec.
  Vec Get(RecordId id) const {
    Vec r(dim_);
    const double* base = &values_[static_cast<size_t>(id) * dim_];
    for (int i = 0; i < dim_; ++i) r.v[i] = base[i];
    return r;
  }

  /// Raw pointer to the first attribute of record `id`.
  const double* Row(RecordId id) const {
    return &values_[static_cast<size_t>(id) * dim_];
  }

  /// Score of record `id` under a full d-dimensional weight vector.
  double Score(RecordId id, const Vec& w) const {
    assert(w.dim == dim_);
    const double* base = Row(id);
    double s = 0.0;
    for (int i = 0; i < dim_; ++i) s += base[i] * w.v[i];
    return s;
  }

  /// Dominance between raw points of `dim` attributes (e.g. two Row()s):
  /// a >= b in all dims, > in one. (Larger is better.)
  static bool Dominates(const double* a, const double* b, int dim) {
    bool strict = false;
    for (int i = 0; i < dim; ++i) {
      if (a[i] < b[i]) return false;
      if (a[i] > b[i]) strict = true;
    }
    return strict;
  }

  /// True iff record a dominates record b.
  bool Dominates(RecordId a, RecordId b) const {
    return Dominates(Row(a), Row(b), dim_);
  }

  /// Dominance between arbitrary vectors with this dataset's convention.
  static bool Dominates(const Vec& a, const Vec& b) {
    assert(a.dim == b.dim);
    return Dominates(a.v.data(), b.v.data(), a.dim);
  }

  /// Rescales every attribute linearly to [0, 1] (per-dimension min/max).
  /// No-op on an empty dataset.
  void NormalizeToUnitBox();

  /// Human-readable one-line summary ("n=... d=...").
  std::string Summary() const;

 private:
  int dim_ = 0;
  std::vector<double> values_;
  std::vector<uint8_t> live_;  // parallel to records; 0 = tombstone
  RecordId num_live_ = 0;
  uint64_t version_ = 0;
};

}  // namespace kspr

#endif  // KSPR_COMMON_DATASET_H_
