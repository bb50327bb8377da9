// Minimum bounding rectangles in data space.

#ifndef KSPR_INDEX_MBR_H_
#define KSPR_INDEX_MBR_H_

#include <algorithm>
#include <limits>

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

}  // namespace kspr

#endif  // KSPR_INDEX_MBR_H_
