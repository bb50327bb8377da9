// Warm-startable condensed simplex tableau.
//
// The cold solver (lp/simplex.h) runs a two-phase method from scratch on
// every call. Along a CellTree descent, though, consecutive LPs differ by
// exactly one constraint row, and a kSPR query solves thousands of such
// incrementally related problems. This class keeps the optimal tableau
// alive between solves and supports the three warm transitions the kernel
// needs:
//
//   * InitFromFeasibleRows — build a tableau from rows whose rhs is
//     non-negative (the space-boundary rows), where the slack basis is
//     primal feasible and a plain primal pass reaches the optimum without
//     artificial variables;
//   * AddRowReoptimize — append one row to an optimal tableau, express it
//     in the current basis, and restore optimality with a dual-simplex
//     pass (the parent-optimal-plus-one-row step of the descent);
//   * SetObjectiveReoptimize — swap the objective over an unchanged row
//     set and re-optimise with a primal pass from the current basis (the
//     many-objectives-one-cell pattern of the look-ahead bounds).
//
// Condensed layout. With n structural variables and m rows there are n+m
// variables (one slack per row), m of them basic. A basic column is a unit
// vector — 1 in its own row, 0 everywhere else, objective row included —
// so storing it carries no information. The tableau therefore keeps only
// the n NON-basic columns plus the rhs: every row (objective first, then
// the constraint rows) has the fixed width n+1 set at InitFromFeasibleRows,
// and a row append adds one row without widening anything. `col_var_`
// names the variable held by each column slot and `order_` lists the slots
// in ascending variable order, so Bland's entering rule and the dual ratio
// test's tie order scan variables exactly as a full-width tableau would.
// A pivot on (row r, slot s) swaps the entering variable for the leaving
// one in slot s: the slot then holds the leaving variable's column, which
// is `inv` = 1/pivot in row r and -(f * inv) in every other row with
// entering-column entry f.
//
// Why this is bitwise-identical to the full-width tableau. Every value the
// full-width pivot, row append and objective reload write into a
// non-basic column or the rhs depends only on other non-basic columns and
// the rhs; the only reads of basic columns are (a) the pivot row's leaving
// entry, which is exactly 1 and scales to exactly `inv`, (b) the other
// rows' leaving entries, which are ±0 and so turn into 0 - f*inv =
// -(f*inv), and (c) a row append's elimination factors, which equal the
// appended coefficient itself up to ±0 terms. Off-row entries of basic
// columns are ±0 whose sign depends on history, but no decision tests a
// sign of zero (every comparison is against ±tol::kPivot or `f == 0.0`),
// no division has a zero divisor, and a signed zero added to a nonzero
// value leaves it unchanged — so the dropped columns never reach a
// decision or a nonzero value. The rhs column, the objective value and
// every variable value come out bit for bit as before.
//
// All pivots use Bland-style smallest-index tie-breaking, so every entry
// point is deterministic; an iteration guard returns kStalled, on which
// callers fall back to the cold two-phase solver. Tableaus are plain
// value types: CopyFrom() snapshots the (m+1) x (n+1) table and the
// variable maps, which is how the descent implements push/pop and how
// forked traversal tasks inherit bitwise-identical solver state.

#ifndef KSPR_LP_WARM_TABLEAU_H_
#define KSPR_LP_WARM_TABLEAU_H_

#include <vector>

#include "lp/constraint_buffer.h"
#include "lp/simplex.h"

namespace kspr::lp {

class WarmTableau {
 public:
  /// Builds the tableau for rows a_i . x <= b_i with every b_i >= 0 and
  /// maximises `obj` (size num_vars) from the slack basis.
  /// Returns kOptimal, kUnbounded or kStalled.
  Status InitFromFeasibleRows(int num_vars, const double* obj,
                              const ConstraintBuffer& rows);

  /// Appends a . x <= b (len coefficients, rest zero) to an optimal
  /// tableau and re-optimises via dual simplex. Returns kOptimal,
  /// kInfeasible (the enlarged system has no feasible point) or kStalled.
  Status AddRowReoptimize(const double* a, int len, double b);

  /// Replaces the objective (size num_vars, maximised) and re-optimises
  /// via primal simplex from the current feasible basis.
  Status SetObjectiveReoptimize(const double* obj);

  /// Objective value of the current optimal basis.
  double ObjectiveValue() const { return Obj()[n_]; }

  /// Value of structural variable `var` in the current basic solution.
  double VarValue(int var) const;

  /// Writes the values of structural variables 0..count-1 to x[0..count)
  /// in one pass over the basis; each equals VarValue of that variable.
  void ReadVars(int count, double* x) const;

  int num_rows() const { return m_; }
  int num_vars() const { return n_; }

  /// Snapshot: copies `o`'s table and variable maps into this instance,
  /// reusing capacity. The copy is bitwise-exact, so save/restore pairs
  /// reproduce solver state deterministically.
  void CopyFrom(const WarmTableau& o);

 private:
  int width() const { return n_ + 1; }
  // Constraint row i lives at line i + 1 and the objective row at line 0,
  // so Row(-1) is the objective row; the rhs is slot n_ of every line.
  double* Obj() { return t_.data(); }
  const double* Obj() const { return t_.data(); }
  double* Row(int i) {
    return &t_[static_cast<size_t>(i + 1) * static_cast<size_t>(width())];
  }
  const double* RowConst(int i) const {
    return &t_[static_cast<size_t>(i + 1) * static_cast<size_t>(width())];
  }

  void LoadObjective(const double* obj);
  Status PrimalOptimize();
  Status DualReoptimize();
  void Pivot(int row, int slot);

  int m_ = 0;  // constraint rows
  int n_ = 0;  // structural variables == non-basic column slots
  std::vector<double> t_;       // (m_ + 1) x (n_ + 1), row-major
  std::vector<int> basis_;      // row -> basic variable, size m_
  std::vector<int> col_var_;    // slot -> non-basic variable, size n_
  std::vector<int> order_;      // slots by ascending col_var_, size n_
};

}  // namespace kspr::lp

#endif  // KSPR_LP_WARM_TABLEAU_H_
