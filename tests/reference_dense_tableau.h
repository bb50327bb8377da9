// Test-only oracle: the dense warm-start simplex tableau.
//
// This is the layout lp::WarmTableau used before it was condensed: an
// (m+1) x (n+m+1) row-major tableau that stores every column, basic ones
// included, and re-strides when a row append outgrows the allocation. Its
// arithmetic is kept verbatim so the differential suite in
// test_warm_lp.cc can drive both kernels through the same operation
// sequences and require bitwise-equal statuses, objective values and
// variable values after every step. It is not linked into the library.

#ifndef KSPR_TESTS_REFERENCE_DENSE_TABLEAU_H_
#define KSPR_TESTS_REFERENCE_DENSE_TABLEAU_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/types.h"
#include "lp/constraint_buffer.h"
#include "lp/simplex.h"

namespace kspr::lp::reference {

class DenseWarmTableau {
 public:
  Status InitFromFeasibleRows(int num_vars, const double* obj,
                              const ConstraintBuffer& rows);
  Status AddRowReoptimize(const double* a, int len, double b);
  Status SetObjectiveReoptimize(const double* obj);

  double ObjectiveValue() const { return RowConst(m_)[stride_ - 1]; }
  double VarValue(int var) const;

  int num_rows() const { return m_; }
  int num_vars() const { return n_; }

  void CopyFrom(const DenseWarmTableau& o);

 private:
  static constexpr int kMaxIter = 20000;

  double* Row(int i) { return &t_[static_cast<size_t>(i) * stride_]; }
  const double* RowConst(int i) const {
    return &t_[static_cast<size_t>(i) * stride_];
  }

  void EnsureCapacity(int rows, int cols);
  void LoadObjective(const double* obj);
  Status PrimalOptimize();
  Status DualReoptimize();
  void Pivot(int row, int col);
  void SetBasis(int row, int col);

  int m_ = 0;       // constraint rows; the objective row lives at index m_
  int n_ = 0;       // structural variables
  int cols_ = 0;    // n_ + m_ (one slack per row); rhs at stride_ - 1
  int stride_ = 0;  // allocated row width (>= cols_ + 1)
  std::vector<double> t_;
  std::vector<int> basis_;      // size m_
  std::vector<char> is_basic_;  // size cols_
};

inline void DenseWarmTableau::EnsureCapacity(int rows, int cols) {
  // +1 for the rhs slot at stride_ - 1.
  if (cols + 1 > stride_) {
    const int new_stride = std::max(2 * stride_, cols + 9);
    std::vector<double> wide(static_cast<size_t>(rows) * new_stride, 0.0);
    if (stride_ > 0 && !t_.empty()) {
      for (int i = 0; i <= m_; ++i) {
        const double* src = RowConst(i);
        double* dst = &wide[static_cast<size_t>(i) * new_stride];
        std::memcpy(dst, src, sizeof(double) * static_cast<size_t>(cols_));
        dst[new_stride - 1] = src[stride_ - 1];  // rhs moves with the stride
      }
    }
    t_ = std::move(wide);
    stride_ = new_stride;
  }
  const size_t need = static_cast<size_t>(rows) * stride_;
  if (t_.size() < need) t_.resize(need, 0.0);
  if (static_cast<int>(is_basic_.size()) < cols) is_basic_.resize(cols, 0);
}

inline void DenseWarmTableau::SetBasis(int row, int col) {
  if (basis_[row] >= 0) is_basic_[basis_[row]] = 0;
  basis_[row] = col;
  is_basic_[col] = 1;
}

inline void DenseWarmTableau::Pivot(int row, int col) {
  double* pr = Row(row);
  const double piv = pr[col];
  assert(std::abs(piv) > tol::kPivot);
  const double inv = 1.0 / piv;
  for (int j = 0; j < cols_; ++j) pr[j] *= inv;
  pr[stride_ - 1] *= inv;
  pr[col] = 1.0;
  for (int i = 0; i <= m_; ++i) {  // includes the objective row at m_
    if (i == row) continue;
    double* ri = Row(i);
    const double f = ri[col];
    if (f == 0.0) continue;
    for (int j = 0; j < cols_; ++j) ri[j] -= f * pr[j];
    ri[stride_ - 1] -= f * pr[stride_ - 1];
    ri[col] = 0.0;
  }
  SetBasis(row, col);
}

inline void DenseWarmTableau::LoadObjective(const double* obj) {
  double* z = Row(m_);
  for (int j = 0; j < cols_; ++j) z[j] = j < n_ ? -obj[j] : 0.0;
  z[stride_ - 1] = 0.0;
  for (int i = 0; i < m_; ++i) {
    const int b = basis_[i];
    const double cb = b < n_ ? obj[b] : 0.0;
    if (cb == 0.0) continue;
    const double* row = RowConst(i);
    for (int j = 0; j < cols_; ++j) z[j] += cb * row[j];
    z[stride_ - 1] += cb * row[stride_ - 1];
  }
}

inline Status DenseWarmTableau::PrimalOptimize() {
  double* z = Row(m_);
  for (int iter = 0; iter < kMaxIter; ++iter) {
    // Entering column: Bland (smallest index with negative reduced cost).
    int entering = -1;
    for (int j = 0; j < cols_; ++j) {
      if (!is_basic_[j] && z[j] < -tol::kPivot) {
        entering = j;
        break;
      }
    }
    if (entering < 0) return Status::kOptimal;

    int leaving = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int i = 0; i < m_; ++i) {
      const double tij = RowConst(i)[entering];
      if (tij > tol::kPivot) {
        const double ratio = RowConst(i)[stride_ - 1] / tij;
        if (ratio < best_ratio - tol::kPivot ||
            (ratio < best_ratio + tol::kPivot &&
             (leaving < 0 || basis_[i] < basis_[leaving]))) {
          best_ratio = ratio;
          leaving = i;
        }
      }
    }
    if (leaving < 0) return Status::kUnbounded;
    Pivot(leaving, entering);
  }
  return Status::kStalled;
}

inline Status DenseWarmTableau::DualReoptimize() {
  for (int iter = 0; iter < kMaxIter; ++iter) {
    // Leaving row: Bland — among rows with negative rhs, the one whose
    // basic variable has the smallest index.
    int leaving = -1;
    for (int i = 0; i < m_; ++i) {
      if (RowConst(i)[stride_ - 1] < -tol::kPivot &&
          (leaving < 0 || basis_[i] < basis_[leaving])) {
        leaving = i;
      }
    }
    if (leaving < 0) return Status::kOptimal;

    // Entering column: minimise z_j / -t_rj over t_rj < 0 (keeps the
    // objective row dual feasible); ties break to the smallest index.
    const double* lr = RowConst(leaving);
    const double* z = RowConst(m_);
    int entering = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int j = 0; j < cols_; ++j) {
      if (is_basic_[j]) continue;
      const double trj = lr[j];
      if (trj < -tol::kPivot) {
        const double ratio = z[j] / -trj;
        if (ratio < best_ratio - tol::kPivot) {
          best_ratio = ratio;
          entering = j;
        }
      }
    }
    if (entering < 0) return Status::kInfeasible;
    Pivot(leaving, entering);
  }
  return Status::kStalled;
}

inline Status DenseWarmTableau::InitFromFeasibleRows(
    int num_vars, const double* obj, const ConstraintBuffer& rows) {
  // Discard old contents before growing so a re-stride never copies stale
  // rows that the previous (possibly larger) tableau left behind.
  m_ = 0;
  cols_ = 0;
  n_ = num_vars;
  EnsureCapacity(rows.size() + 1, n_ + rows.size());
  m_ = rows.size();
  cols_ = n_ + m_;
  basis_.assign(m_, -1);
  std::fill(is_basic_.begin(), is_basic_.end(), 0);
  for (int i = 0; i <= m_; ++i) {
    double* row = Row(i);
    std::memset(row, 0, sizeof(double) * static_cast<size_t>(stride_));
  }
  const int len = std::min(n_, rows.num_vars());
  for (int i = 0; i < m_; ++i) {
    assert(rows.rhs(i) >= 0.0);
    double* row = Row(i);
    std::memcpy(row, rows.Row(i), sizeof(double) * static_cast<size_t>(len));
    row[n_ + i] = 1.0;  // slack
    row[stride_ - 1] = rows.rhs(i);
    basis_[i] = n_ + i;
    is_basic_[n_ + i] = 1;
  }
  LoadObjective(obj);
  return PrimalOptimize();
}

inline Status DenseWarmTableau::AddRowReoptimize(const double* a, int len,
                                                 double b) {
  EnsureCapacity(m_ + 2, cols_ + 1);
  // The objective row moves from slot m_ to m_ + 1.
  std::memcpy(Row(m_ + 1), RowConst(m_),
              sizeof(double) * static_cast<size_t>(stride_));
  double* row = Row(m_);
  std::memset(row, 0, sizeof(double) * static_cast<size_t>(stride_));
  assert(len <= n_);
  std::memcpy(row, a, sizeof(double) * static_cast<size_t>(len));
  row[stride_ - 1] = b;

  // Express the new row in the current basis by eliminating every basic
  // variable (the new slack column cols_ stays untouched: existing rows
  // are zero there).
  const int new_col = cols_;
  ++m_;
  ++cols_;
  for (int i = 0; i < m_ - 1; ++i) {
    const double f = row[basis_[i]];
    if (f == 0.0) continue;
    const double* ri = RowConst(i);
    for (int j = 0; j < cols_; ++j) row[j] -= f * ri[j];
    row[stride_ - 1] -= f * ri[stride_ - 1];
    row[basis_[i]] = 0.0;
  }
  row[new_col] = 1.0;
  basis_.push_back(new_col);
  is_basic_[new_col] = 1;
  // z coefficient of the new slack is zero, so dual feasibility is intact;
  // a dual pass restores primal feasibility (or proves there is none).
  return DualReoptimize();
}

inline Status DenseWarmTableau::SetObjectiveReoptimize(const double* obj) {
  LoadObjective(obj);
  return PrimalOptimize();
}

inline double DenseWarmTableau::VarValue(int var) const {
  for (int i = 0; i < m_; ++i) {
    if (basis_[i] == var) return RowConst(i)[stride_ - 1];
  }
  return 0.0;
}

inline void DenseWarmTableau::CopyFrom(const DenseWarmTableau& o) {
  n_ = o.n_;
  m_ = o.m_;
  cols_ = o.cols_;
  stride_ = o.stride_;
  const size_t used = static_cast<size_t>(o.m_ + 1) * o.stride_;
  t_.assign(o.t_.begin(), o.t_.begin() + static_cast<long>(used));
  basis_.assign(o.basis_.begin(), o.basis_.end());
  is_basic_.assign(o.is_basic_.begin(), o.is_basic_.end());
}

}  // namespace kspr::lp::reference

#endif  // KSPR_TESTS_REFERENCE_DENSE_TABLEAU_H_
