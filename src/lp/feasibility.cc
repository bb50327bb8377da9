#include "lp/feasibility.h"

#include <cassert>
#include <cmath>

#include "common/types.h"

namespace kspr {

namespace {

// Per-worker scratch reused across one-shot calls: kSPR issues millions of
// small LPs and per-call row allocation would dominate otherwise. All
// scratch state of this translation unit lives in thread_local arenas,
// which keeps the LP layer reentrant under the intra-query parallel
// traversal — each worker thread owns a private arena, so concurrent
// feasibility/bound calls are allocation-free after warm-up and never
// contend. The incremental classes (CellLpContext, CellBoundSolver) carry
// their state by value instead, so descents can snapshot and fork it.
struct LpScratch {
  lp::Problem problem;
};

LpScratch& Scratch() {
  thread_local LpScratch scratch;
  return scratch;
}

// Appends one caller constraint to a ball problem: a.w + ||a|| (t+ - t-)
// <= b, with the two degenerate encodings of the original BuildBallProblem
// (0.w < b is dropped when trivially true and becomes the unsatisfiable
// row t <= -1 when b <= 0, which forces the radius below the interior
// tolerance).
void AddBallRowTo(lp::ConstraintBuffer* rows, int dim, const Vec& a,
                  double b) {
  const double norm = a.NormL2();
  if (norm < tol::kPivot) {
    if (b > 0) return;
    double* row = rows->AddRow(-1.0);
    row[dim] = 1.0;
    row[dim + 1] = -1.0;
    return;
  }
  double* row = rows->AddRow(b);
  for (int j = 0; j < dim; ++j) row[j] = a.v[j];
  row[dim] = norm;
  row[dim + 1] = -norm;
  rows->set_norm(rows->size() - 1, norm);
}

// Space-boundary rows of the ball problem; every rhs is >= 0, so a tableau
// seeded from these rows alone starts from a feasible slack basis.
void AddBallSpaceRows(lp::ConstraintBuffer* rows, Space space, int dim) {
  for (int j = 0; j < dim; ++j) {
    double* row = rows->AddRow(0.0);  // -w_j + t <= 0
    row[j] = -1.0;
    row[dim] = 1.0;
    row[dim + 1] = -1.0;
    rows->set_norm(rows->size() - 1, 1.0);
  }
  if (space == Space::kTransformed) {
    const double norm = std::sqrt(static_cast<double>(dim));
    double* row = rows->AddRow(1.0);  // sum w + sqrt(dim) t <= 1
    for (int j = 0; j < dim; ++j) row[j] = 1.0;
    row[dim] = norm;
    row[dim + 1] = -norm;
    rows->set_norm(rows->size() - 1, norm);
  } else {
    for (int j = 0; j < dim; ++j) {
      double* row = rows->AddRow(1.0);  // w_j + t <= 1
      row[j] = 1.0;
      row[dim] = 1.0;
      row[dim + 1] = -1.0;
      rows->set_norm(rows->size() - 1, 1.0);
    }
  }
}

// Plain closed rows of the bound problem (no ball variables).
void AddBoundSpaceRows(lp::ConstraintBuffer* rows, Space space, int dim) {
  for (int j = 0; j < dim; ++j) {
    double* row = rows->AddRow(0.0);  // -w_j <= 0
    row[j] = -1.0;
    rows->set_norm(rows->size() - 1, 1.0);
  }
  if (space == Space::kTransformed) {
    double* row = rows->AddRow(1.0);  // sum w <= 1
    for (int j = 0; j < dim; ++j) row[j] = 1.0;
    rows->set_norm(rows->size() - 1, std::sqrt(static_cast<double>(dim)));
  } else {
    for (int j = 0; j < dim; ++j) {
      double* row = rows->AddRow(1.0);  // w_j <= 1
      row[j] = 1.0;
      rows->set_norm(rows->size() - 1, 1.0);
    }
  }
}

void SetBallObjective(lp::Problem* p, int dim) {
  p->num_vars = dim + 2;
  p->objective.assign(static_cast<size_t>(dim) + 2, 0.0);
  p->objective[dim] = 1.0;
  p->objective[dim + 1] = -1.0;
}

FeasibilityResult ExtractBall(const lp::Solution& s, int dim) {
  FeasibilityResult r;
  if (s.status != lp::Status::kOptimal) {
    // The ball LP is always feasible (t -> -inf); unbounded means the
    // caller passed an unbounded cell, which indicates a missing space
    // bound.
    assert(s.status != lp::Status::kUnbounded);
    return r;
  }
  r.radius = s.objective;
  r.feasible = r.radius > tol::kInterior;
  if (r.feasible) {
    r.witness = Vec(dim);
    for (int j = 0; j < dim; ++j) r.witness.v[j] = s.x[j];
  }
  return r;
}

// One-shot cold ball test over `total_logical` logical rows (used only for
// the constraints_used counter, which counts rows before degenerate
// filtering, exactly like the original implementation).
FeasibilityResult RunBallTest(int dim, int64_t total_logical,
                              KsprStats* stats) {
  lp::Problem& p = Scratch().problem;
  if (stats != nullptr) {
    ++stats->feasibility_lps;
    ++stats->lp_cold_starts;
    stats->constraints_used += total_logical;
  }
  return ExtractBall(lp::Solve(p), dim);
}

}  // namespace

void AppendSpaceBounds(Space space, int dim, std::vector<LinIneq>* out) {
  // w_j > 0  <=>  -w_j < 0
  for (int j = 0; j < dim; ++j) {
    LinIneq c;
    c.a = Vec(dim);
    c.a.v[j] = -1.0;
    c.b = 0.0;
    out->push_back(c);
  }
  if (space == Space::kTransformed) {
    // sum_j w_j < 1 (so that the implied w_d = 1 - sum is positive).
    LinIneq c;
    c.a = Vec(dim);
    for (int j = 0; j < dim; ++j) c.a.v[j] = 1.0;
    c.b = 1.0;
    out->push_back(c);
  } else {
    // Original space: clip the cone to the open unit box.
    for (int j = 0; j < dim; ++j) {
      LinIneq c;
      c.a = Vec(dim);
      c.a.v[j] = 1.0;
      c.b = 1.0;
      out->push_back(c);
    }
  }
}

FeasibilityResult TestInterior(Space space, int dim,
                               const std::vector<LinIneq>& cons,
                               KsprStats* stats) {
  lp::Problem& p = Scratch().problem;
  SetBallObjective(&p, dim);
  p.rows.Reset(dim + 2);
  for (const LinIneq& c : cons) AddBallRowTo(&p.rows, dim, c.a, c.b);
  AddBallSpaceRows(&p.rows, space, dim);
  return RunBallTest(
      dim, static_cast<int64_t>(cons.size()) + NumSpaceBounds(space, dim),
      stats);
}

namespace {

BoundResult Bound(Space space, int dim, const Vec& obj, double obj_const,
                  const std::vector<LinIneq>& cons, bool maximize,
                  KsprStats* stats) {
  if (stats != nullptr) {
    ++stats->bound_lps;
    ++stats->lp_cold_starts;
  }
  lp::Problem& p = Scratch().problem;
  p.num_vars = dim;
  p.objective.assign(static_cast<size_t>(dim), 0.0);
  for (int j = 0; j < dim; ++j) {
    p.objective[j] = maximize ? obj[j] : -obj[j];
  }
  p.rows.Reset(dim);
  for (const LinIneq& c : cons) {
    if (c.a.NormL2() < tol::kPivot) continue;  // trivial row
    double* row = p.rows.AddRow(c.b);
    for (int j = 0; j < dim; ++j) row[j] = c.a.v[j];
  }
  AddBoundSpaceRows(&p.rows, space, dim);
  lp::Solution s = lp::Solve(p);
  BoundResult r;
  if (s.status != lp::Status::kOptimal) return r;
  r.ok = true;
  r.value = (maximize ? s.objective : -s.objective) + obj_const;
  r.arg = Vec(dim);
  for (int j = 0; j < dim; ++j) r.arg.v[j] = s.x[j];
  return r;
}

}  // namespace

BoundResult MinimizeOverCell(Space space, int dim, const Vec& obj,
                             double obj_const,
                             const std::vector<LinIneq>& cons,
                             KsprStats* stats) {
  return Bound(space, dim, obj, obj_const, cons, /*maximize=*/false, stats);
}

BoundResult MaximizeOverCell(Space space, int dim, const Vec& obj,
                             double obj_const,
                             const std::vector<LinIneq>& cons,
                             KsprStats* stats) {
  return Bound(space, dim, obj, obj_const, cons, /*maximize=*/true, stats);
}

// ---------------------------------------------------------------------------
// CellLpContext

void CellLpContext::Reset(Space space, int dim) {
  if (init_ && space == space_ && dim == dim_ && levels_.empty()) {
    // The solver is back at its base state: every pop restored a
    // bitwise-exact snapshot, so the space-bound tableau can be reused
    // across insertions.
    assert(snap_count_ == 0 && cold_levels_ == 0 && infeasible_levels_ == 0);
    return;
  }
  space_ = space;
  dim_ = dim;
  levels_.clear();
  snap_count_ = 0;
  cold_levels_ = 0;
  infeasible_levels_ = 0;
  rows_.Reset(dim + 2);

  thread_local lp::ConstraintBuffer base_rows;
  thread_local std::vector<double> obj;
  base_rows.Reset(dim + 2);
  AddBallSpaceRows(&base_rows, space, dim);
  obj.assign(static_cast<size_t>(dim) + 2, 0.0);
  obj[dim] = 1.0;
  obj[dim + 1] = -1.0;
  const lp::Status s = tab_.InitFromFeasibleRows(dim + 2, obj.data(),
                                                 base_rows);
  base_warm_ = s == lp::Status::kOptimal;
  init_ = true;
}

void CellLpContext::SaveSnapshot() {
  if (static_cast<int>(snaps_.size()) <= snap_count_) snaps_.emplace_back();
  snaps_[snap_count_++].CopyFrom(tab_);
}

lp::Status CellLpContext::AppendBallRow(lp::WarmTableau* tab,
                                        const LinIneq& c) const {
  double row[kMaxDim + 2] = {0.0};
  const double norm = c.a.NormL2();
  for (int j = 0; j < dim_; ++j) row[j] = c.a.v[j];
  row[dim_] = norm;
  row[dim_ + 1] = -norm;
  return tab->AddRowReoptimize(row, dim_ + 2, c.b);
}

void CellLpContext::PushConstraint(const LinIneq& c) {
  assert(init_);
  const double norm = c.a.NormL2();
  // Every push is recorded (rows_.size() backs the constraint counters and
  // the cold rebuild); degenerate rows keep norm 0 so the rebuild can
  // re-apply the BuildBallProblem encodings.
  if (norm < tol::kPivot) {
    rows_.AddRow(c.b);
    if (c.b > 0) {
      levels_.push_back(LevelKind::kTrivial);
    } else {
      levels_.push_back(LevelKind::kInfeasible);
      ++infeasible_levels_;
    }
    return;
  }
  double* row = rows_.AddRow(c.b);
  for (int j = 0; j < dim_; ++j) row[j] = c.a.v[j];
  row[dim_] = norm;
  row[dim_ + 1] = -norm;
  rows_.set_norm(rows_.size() - 1, norm);

  if (!warm()) {
    levels_.push_back(LevelKind::kInert);
    return;
  }
  SaveSnapshot();
  const lp::Status s = AppendBallRow(&tab_, c);
  if (s == lp::Status::kOptimal) {
    levels_.push_back(LevelKind::kWarm);
  } else {
    // Numerical trouble (the ball LP is never genuinely infeasible): run
    // cold until this row is popped; the snapshot restores the warm state.
    levels_.push_back(LevelKind::kColdEntered);
    ++cold_levels_;
  }
}

void CellLpContext::PopConstraint() {
  assert(!levels_.empty());
  const LevelKind kind = levels_.back();
  levels_.pop_back();
  rows_.PopRow();
  switch (kind) {
    case LevelKind::kWarm:
    case LevelKind::kColdEntered:
      assert(snap_count_ > 0);
      tab_.CopyFrom(snaps_[--snap_count_]);
      if (kind == LevelKind::kColdEntered) --cold_levels_;
      break;
    case LevelKind::kInert:
    case LevelKind::kTrivial:
      break;
    case LevelKind::kInfeasible:
      --infeasible_levels_;
      break;
  }
}

void CellLpContext::AssignForFork(const CellLpContext& o) {
  space_ = o.space_;
  dim_ = o.dim_;
  init_ = o.init_;
  base_warm_ = o.base_warm_;
  tab_.CopyFrom(o.tab_);
  rows_ = o.rows_;
  levels_ = o.levels_;
  snaps_.clear();
  snap_count_ = 0;
  cold_levels_ = o.cold_levels_;
  infeasible_levels_ = o.infeasible_levels_;
}

FeasibilityResult CellLpContext::ReadBall(const lp::WarmTableau& tab) const {
  FeasibilityResult r;
  r.radius = tab.ObjectiveValue();
  r.feasible = r.radius > tol::kInterior;
  if (r.feasible) {
    r.witness = Vec(dim_);
    tab.ReadVars(dim_, r.witness.v.data());
  }
  return r;
}

FeasibilityResult CellLpContext::SolveCold(const LinIneq* side,
                                           KsprStats* stats) const {
  if (stats != nullptr) ++stats->lp_cold_starts;
  lp::Problem& p = Scratch().problem;
  SetBallObjective(&p, dim_);
  p.rows.Reset(dim_ + 2);
  AddBallSpaceRows(&p.rows, space_, dim_);
  for (int i = 0; i < rows_.size(); ++i) {
    if (rows_.norm(i) < tol::kPivot) {
      // Degenerate push: re-apply the BuildBallProblem encoding.
      if (rows_.rhs(i) > 0) continue;
      double* row = p.rows.AddRow(-1.0);
      row[dim_] = 1.0;
      row[dim_ + 1] = -1.0;
      continue;
    }
    double* row = p.rows.AddRow(rows_.rhs(i));
    const double* src = rows_.Row(i);
    for (int j = 0; j < dim_ + 2; ++j) row[j] = src[j];
  }
  if (side != nullptr) AddBallRowTo(&p.rows, dim_, side->a, side->b);
  return ExtractBall(lp::Solve(p), dim_);
}

FeasibilityResult CellLpContext::TestWithRow(const LinIneq& side,
                                             KsprStats* stats) {
  assert(init_);
  if (stats != nullptr) {
    ++stats->feasibility_lps;
    stats->constraints_used +=
        rows_.size() + 1 + NumSpaceBounds(space_, dim_);
  }
  if (infeasible_levels_ > 0) return {};  // a pushed row forces emptiness
  if (warm()) {
    const double norm = side.a.NormL2();
    if (norm < tol::kPivot) {
      if (stats != nullptr) ++stats->lp_warm_starts;
      if (side.b <= 0) return {};  // unsatisfiable side
      return ReadBall(tab_);       // trivial side: the path ball decides
    }
    work_.CopyFrom(tab_);
    if (AppendBallRow(&work_, side) == lp::Status::kOptimal) {
      if (stats != nullptr) ++stats->lp_warm_starts;
      return ReadBall(work_);
    }
    // Numerical trouble on the scratch copy only; the base tableau is
    // untouched, so subsequent tests stay warm. Fall through to cold.
  }
  return SolveCold(&side, stats);
}

FeasibilityResult CellLpContext::TestCurrent(KsprStats* stats) {
  assert(init_);
  if (stats != nullptr) {
    ++stats->feasibility_lps;
    stats->constraints_used += rows_.size() + NumSpaceBounds(space_, dim_);
  }
  if (infeasible_levels_ > 0) return {};
  if (warm()) {
    if (stats != nullptr) ++stats->lp_warm_starts;
    return ReadBall(tab_);
  }
  return SolveCold(/*side=*/nullptr, stats);
}

// ---------------------------------------------------------------------------
// CellBoundSolver

bool CellBoundSolver::InitSpaceTableau(Space space, int dim,
                                       lp::WarmTableau* tab) {
  space_ = space;
  dim_ = dim;
  rows_.Reset(dim);
  AddBoundSpaceRows(&rows_, space, dim);
  // Warm build: the space rows have non-negative rhs, so a zero-objective
  // tableau starts optimal (all reduced costs zero) and stays dual
  // feasible while every cell row is dual-appended. The result is a primal
  // feasible basis that every subsequent objective re-optimises from.
  obj_scratch_.assign(static_cast<size_t>(dim), 0.0);
  return tab->InitFromFeasibleRows(dim, obj_scratch_.data(), rows_) ==
         lp::Status::kOptimal;
}

void CellBoundSolver::AppendCellRow(const LinIneq& c, lp::WarmTableau* tab,
                                    bool* warm) {
  if (c.a.NormL2() < tol::kPivot) return;  // trivial row
  double* row = rows_.AddRow(c.b);
  for (int j = 0; j < dim_; ++j) row[j] = c.a.v[j];
  if (!*warm) return;
  // Any non-optimal status — including a dual-simplex kInfeasible, which
  // on a thin-but-nonempty cell can be a numerically spurious verdict —
  // demotes the solver to the cold path: per-query two-phase solves then
  // decide feasibility with the same tolerances the one-shot path uses.
  if (tab->AddRowReoptimize(row, dim_, c.b) != lp::Status::kOptimal) {
    *warm = false;
  }
}

void CellBoundSolver::Reset(Space space, int dim, const LinIneq* cons, int n,
                            int skip) {
  prefix_rows_ = -1;
  warm_ = InitSpaceTableau(space, dim, &tab_);
  for (int i = 0; i < n; ++i) {
    if (i != skip) AppendCellRow(cons[i], &tab_, &warm_);
  }
}

void CellBoundSolver::BeginPrefix(Space space, int dim) {
  prefix_warm_ = InitSpaceTableau(space, dim, &prefix_tab_);
  prefix_rows_ = rows_.size();
}

void CellBoundSolver::ExtendPrefix(const LinIneq& c) {
  assert(prefix_rows_ >= 0);
  rows_.Truncate(prefix_rows_);
  AppendCellRow(c, &prefix_tab_, &prefix_warm_);
  prefix_rows_ = rows_.size();
}

void CellBoundSolver::ResetFromPrefix(const LinIneq* rest, int n) {
  assert(prefix_rows_ >= 0);
  rows_.Truncate(prefix_rows_);
  warm_ = prefix_warm_;
  if (warm_) tab_.CopyFrom(prefix_tab_);
  for (int i = 0; i < n; ++i) AppendCellRow(rest[i], &tab_, &warm_);
}

BoundResult CellBoundSolver::SolveObjective(const Vec& obj, double obj_const,
                                            bool maximize, KsprStats* stats) {
  if (stats != nullptr) ++stats->bound_lps;
  BoundResult r;
  obj_scratch_.assign(static_cast<size_t>(dim_), 0.0);
  for (int j = 0; j < dim_; ++j) {
    obj_scratch_[static_cast<size_t>(j)] = maximize ? obj[j] : -obj[j];
  }
  if (warm_) {
    if (tab_.SetObjectiveReoptimize(obj_scratch_.data()) ==
        lp::Status::kOptimal) {
      if (stats != nullptr) ++stats->lp_warm_starts;
      r.ok = true;
      r.value = (maximize ? tab_.ObjectiveValue() : -tab_.ObjectiveValue()) +
                obj_const;
      r.arg = Vec(dim_);
      tab_.ReadVars(dim_, r.arg.v.data());
      return r;
    }
    warm_ = false;  // deterministic cold fallback from here on
  }
  if (stats != nullptr) ++stats->lp_cold_starts;
  lp::Problem& p = Scratch().problem;
  p.num_vars = dim_;
  p.objective = obj_scratch_;
  p.rows = rows_;
  lp::Solution s = lp::Solve(p);
  if (s.status != lp::Status::kOptimal) return r;
  r.ok = true;
  r.value = (maximize ? s.objective : -s.objective) + obj_const;
  r.arg = Vec(dim_);
  for (int j = 0; j < dim_; ++j) r.arg.v[j] = s.x[j];
  return r;
}

BoundResult CellBoundSolver::Minimize(const Vec& obj, double obj_const,
                                      KsprStats* stats) {
  return SolveObjective(obj, obj_const, /*maximize=*/false, stats);
}

BoundResult CellBoundSolver::Maximize(const Vec& obj, double obj_const,
                                      KsprStats* stats) {
  return SolveObjective(obj, obj_const, /*maximize=*/true, stats);
}

}  // namespace kspr
