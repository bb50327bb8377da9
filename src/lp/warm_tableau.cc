#include "lp/warm_tableau.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/types.h"

namespace kspr::lp {

namespace {

constexpr int kMaxIter = 20000;

}  // namespace

void WarmTableau::Pivot(int row, int slot) {
  const int w = width();
  double* pr = Row(row);
  const double piv = pr[slot];
  assert(std::abs(piv) > tol::kPivot);
  const double inv = 1.0 / piv;
  for (int j = 0; j < w; ++j) pr[j] *= inv;
  // The leaving variable's unit entry scales to inv and takes the slot.
  pr[slot] = inv;
  for (int i = -1; i < m_; ++i) {  // Row(-1) is the objective row
    if (i == row) continue;
    double* ri = Row(i);
    const double f = ri[slot];
    if (f == 0.0) continue;
    // The leaving column is zero off its row: 0 - f * inv.
    ri[slot] = 0.0;
    for (int j = 0; j < w; ++j) ri[j] -= f * pr[j];
  }

  const int entering = col_var_[slot];
  const int leaving = basis_[row];
  basis_[row] = entering;
  col_var_[slot] = leaving;
  // Re-file the slot under the leaving variable's index.
  int pos = static_cast<int>(std::find(order_.begin(), order_.end(), slot) -
                             order_.begin());
  while (pos > 0 && col_var_[order_[pos - 1]] > leaving) {
    order_[pos] = order_[pos - 1];
    --pos;
  }
  while (pos + 1 < n_ && col_var_[order_[pos + 1]] < leaving) {
    order_[pos] = order_[pos + 1];
    ++pos;
  }
  order_[pos] = slot;
}

void WarmTableau::LoadObjective(const double* obj) {
  const int w = width();
  double* z = Obj();
  for (int s = 0; s < n_; ++s) {
    const int v = col_var_[s];
    z[s] = v < n_ ? -obj[v] : 0.0;
  }
  z[n_] = 0.0;
  for (int i = 0; i < m_; ++i) {
    const int b = basis_[i];
    const double cb = b < n_ ? obj[b] : 0.0;
    if (cb == 0.0) continue;
    const double* row = RowConst(i);
    for (int j = 0; j < w; ++j) z[j] += cb * row[j];
  }
}

Status WarmTableau::PrimalOptimize() {
  const double* z = Obj();
  for (int iter = 0; iter < kMaxIter; ++iter) {
    // Entering column: Bland (smallest variable with negative reduced
    // cost).
    int entering = -1;
    for (int s : order_) {
      if (z[s] < -tol::kPivot) {
        entering = s;
        break;
      }
    }
    if (entering < 0) return Status::kOptimal;

    int leaving = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int i = 0; i < m_; ++i) {
      const double* ri = RowConst(i);
      const double tij = ri[entering];
      if (tij > tol::kPivot) {
        const double ratio = ri[n_] / tij;
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

Status WarmTableau::DualReoptimize() {
  for (int iter = 0; iter < kMaxIter; ++iter) {
    // Leaving row: Bland — among rows with negative rhs, the one whose
    // basic variable has the smallest index.
    int leaving = -1;
    for (int i = 0; i < m_; ++i) {
      if (RowConst(i)[n_] < -tol::kPivot &&
          (leaving < 0 || basis_[i] < basis_[leaving])) {
        leaving = i;
      }
    }
    if (leaving < 0) return Status::kOptimal;

    // Entering column: minimise z_j / -t_rj over t_rj < 0 (keeps the
    // objective row dual feasible); ties break to the smallest variable.
    const double* lr = RowConst(leaving);
    const double* z = Obj();
    int entering = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (int s : order_) {
      const double trj = lr[s];
      if (trj < -tol::kPivot) {
        const double ratio = z[s] / -trj;
        if (ratio < best_ratio - tol::kPivot) {
          best_ratio = ratio;
          entering = s;
        }
      }
    }
    if (entering < 0) return Status::kInfeasible;
    Pivot(leaving, entering);
  }
  return Status::kStalled;
}

Status WarmTableau::InitFromFeasibleRows(int num_vars, const double* obj,
                                         const ConstraintBuffer& rows) {
  n_ = num_vars;
  m_ = rows.size();
  t_.assign(static_cast<size_t>(m_ + 1) * static_cast<size_t>(width()), 0.0);
  // Structural variables start non-basic in slot order; slack i is basic
  // in row i.
  col_var_.resize(static_cast<size_t>(n_));
  order_.resize(static_cast<size_t>(n_));
  for (int s = 0; s < n_; ++s) col_var_[s] = order_[s] = s;
  basis_.resize(static_cast<size_t>(m_));
  const int len = std::min(n_, rows.num_vars());
  for (int i = 0; i < m_; ++i) {
    assert(rows.rhs(i) >= 0.0);
    double* row = Row(i);
    std::memcpy(row, rows.Row(i), sizeof(double) * static_cast<size_t>(len));
    row[n_] = rows.rhs(i);
    basis_[i] = n_ + i;
  }
  LoadObjective(obj);
  return PrimalOptimize();
}

Status WarmTableau::AddRowReoptimize(const double* a, int len, double b) {
  assert(len <= n_);
  const int w = width();
  t_.resize(static_cast<size_t>(m_ + 2) * static_cast<size_t>(w));
  double* row = Row(m_);
  for (int s = 0; s < n_; ++s) {
    const int v = col_var_[s];
    row[s] = v < len ? a[v] : 0.0;
  }
  row[n_] = b;

  // Express the new row in the current basis by eliminating every basic
  // variable. Each elimination leaves the other basic coefficients of the
  // new row unchanged (their columns are zero off their own rows), so the
  // factor for row i is simply the appended coefficient of basis_[i].
  for (int i = 0; i < m_; ++i) {
    const int bv = basis_[i];
    const double f = bv < len ? a[bv] : 0.0;
    if (f == 0.0) continue;
    const double* ri = RowConst(i);
    for (int j = 0; j < w; ++j) row[j] -= f * ri[j];
  }
  // The new slack (variable n_ + m_) is basic in the new row.
  basis_.push_back(n_ + m_);
  ++m_;
  // z coefficient of the new slack is zero, so dual feasibility is intact;
  // a dual pass restores primal feasibility (or proves there is none).
  return DualReoptimize();
}

Status WarmTableau::SetObjectiveReoptimize(const double* obj) {
  LoadObjective(obj);
  return PrimalOptimize();
}

double WarmTableau::VarValue(int var) const {
  for (int i = 0; i < m_; ++i) {
    if (basis_[i] == var) return RowConst(i)[n_];
  }
  return 0.0;
}

void WarmTableau::ReadVars(int count, double* x) const {
  assert(count <= n_);
  std::fill(x, x + count, 0.0);
  for (int i = 0; i < m_; ++i) {
    if (basis_[i] < count) x[basis_[i]] = RowConst(i)[n_];
  }
}

void WarmTableau::CopyFrom(const WarmTableau& o) {
  n_ = o.n_;
  m_ = o.m_;
  t_.assign(o.t_.begin(), o.t_.end());
  basis_.assign(o.basis_.begin(), o.basis_.end());
  col_var_.assign(o.col_var_.begin(), o.col_var_.end());
  order_.assign(o.order_.begin(), o.order_.end());
}

}  // namespace kspr::lp
