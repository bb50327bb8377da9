// Minimum bounding rectangles in data space.

#ifndef KSPR_INDEX_MBR_H_
#define KSPR_INDEX_MBR_H_

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <limits>
#include <utility>
#include <vector>

#include "common/dataset.h"
#include "common/types.h"
#include "common/vec.h"

namespace kspr {

/// Axis-aligned box in data space. `lo` is the min-corner (G^L in the
/// paper), `hi` the max-corner (G^U).
struct Mbr {
  Vec lo;
  Vec hi;

  static Mbr Empty(int dim) {
    Mbr m;
    m.lo = Vec(dim);
    m.hi = Vec(dim);
    for (int i = 0; i < dim; ++i) {
      m.lo.v[i] = std::numeric_limits<double>::infinity();
      m.hi.v[i] = -std::numeric_limits<double>::infinity();
    }
    return m;
  }

  static Mbr OfPoint(const Vec& p) {
    Mbr m;
    m.lo = p;
    m.hi = p;
    return m;
  }

  void ExpandToPoint(const Vec& p) {
    for (int i = 0; i < p.dim; ++i) {
      lo.v[i] = std::min(lo.v[i], p.v[i]);
      hi.v[i] = std::max(hi.v[i], p.v[i]);
    }
  }

  void ExpandToMbr(const Mbr& o) {
    for (int i = 0; i < lo.dim; ++i) {
      lo.v[i] = std::min(lo.v[i], o.lo.v[i]);
      hi.v[i] = std::max(hi.v[i], o.hi.v[i]);
    }
  }

  /// Sum of max-corner coordinates; the BBS priority (larger-is-better
  /// convention, so entries with larger MaxSum are explored first).
  double MaxSum() const { return hi.Sum(); }

  /// True iff v >= hi componentwise: v weakly dominates every point in the
  /// box, so (Lemma 5) no record inside can affect a cell pivoted on v.
  bool WeaklyDominatedBy(const Vec& v) const {
    for (int i = 0; i < v.dim; ++i) {
      if (v.v[i] < hi.v[i]) return false;
    }
    return true;
  }
};

/// True iff a >= b componentwise over a's dimensions (weak dominance of
/// the raw point b, e.g. a Dataset row, by point a).
inline bool WeaklyDominates(const Vec& a, const double* b) {
  for (int i = 0; i < a.dim; ++i) {
    if (a.v[i] < b[i]) return false;
  }
  return true;
}

/// True iff a >= b componentwise (weak dominance of point b by point a).
inline bool WeaklyDominates(const Vec& a, const Vec& b) {
  return WeaklyDominates(a, b.v.data());
}

/// Sum of the `dim` coordinates at p, in Vec::Sum's order (0.0 + p[0] +
/// p[1] + ...), so it equals Vec::Sum of the same point bit for bit.
inline double CoordinateSum(const double* p, int dim) {
  double s = 0.0;
  for (int j = 0; j < dim; ++j) s += p[j];
  return s;
}

/// The pivots of one cell, for Lemma-5 dominance scans: does some pivot
/// weakly dominate (>= componentwise) a record row or a box's max corner?
///
/// Pivots are stored flat with their coordinate sums, sorted by decreasing
/// sum. Rounded addition is monotone, so a >= b componentwise implies
/// sum(a) >= sum(b) when both sums are taken in the same order
/// (CoordinateSum's). A scan therefore stops at the first pivot whose sum
/// is below the point's and still returns the full linear scan's verdict.
class PivotSet {
 public:
  PivotSet() = default;
  /// Converting constructors for callers that hold pivots as Vecs.
  PivotSet(std::initializer_list<Vec> pivots) {
    Build(pivots.size() == 0 ? 0 : pivots.begin()->dim, pivots.size(),
          [&](size_t i) { return pivots.begin()[i].v.data(); });
  }
  PivotSet(const std::vector<Vec>& pivots) {
    Build(pivots.empty() ? 0 : pivots.front().dim, pivots.size(),
          [&](size_t i) { return pivots[i].v.data(); });
  }

  /// Replaces the set with the rows of records `ids`, reusing capacity.
  void Assign(const Dataset& data, const std::vector<RecordId>& ids) {
    Build(data.dim(), ids.size(),
          [&](size_t i) { return data.Row(ids[i]); });
  }

  bool empty() const { return sums_.empty(); }
  size_t size() const { return sums_.size(); }

  /// True iff some pivot weakly dominates the point `p` (dim coordinates,
  /// e.g. a Dataset row).
  bool DominatesPoint(const double* p) const {
    if (sums_.empty()) return false;
    const double p_sum = CoordinateSum(p, dim_);
    for (size_t i = 0; i < sums_.size() && sums_[i] >= p_sum; ++i) {
      const double* piv = &coords_[i * static_cast<size_t>(dim_)];
      int j = 0;
      while (j < dim_ && piv[j] >= p[j]) ++j;
      if (j == dim_) return true;
    }
    return false;
  }

  /// True iff some pivot weakly dominates the whole box (its max corner).
  bool DominatesBox(const Mbr& box) const {
    return DominatesPoint(box.hi.v.data());
  }

 private:
  // Fills the set from `count` rows given by row_of(i), ordered by
  // decreasing sum; equal sums keep their input order.
  template <typename RowOf>
  void Build(int dim, size_t count, RowOf row_of) {
    dim_ = dim;
    by_sum_.clear();
    for (size_t i = 0; i < count; ++i) {
      by_sum_.emplace_back(CoordinateSum(row_of(i), dim), i);
    }
    std::sort(by_sum_.begin(), by_sum_.end(),
              [](const std::pair<double, size_t>& a,
                 const std::pair<double, size_t>& b) {
                return a.first != b.first ? a.first > b.first
                                          : a.second < b.second;
              });
    sums_.resize(count);
    coords_.resize(count * static_cast<size_t>(dim));
    for (size_t k = 0; k < count; ++k) {
      sums_[k] = by_sum_[k].first;
      const double* row = row_of(by_sum_[k].second);
      std::copy(row, row + dim, &coords_[k * static_cast<size_t>(dim)]);
    }
  }

  int dim_ = 0;
  std::vector<double> sums_;    // decreasing
  std::vector<double> coords_;  // dim_ per pivot, in sums_ order
  std::vector<std::pair<double, size_t>> by_sum_;  // Build scratch
};

}  // namespace kspr

#endif  // KSPR_INDEX_MBR_H_
