// LP-based cell feasibility tests and score-bound LPs (paper Sec 4.2, 6.1).
//
// A CellTree cell is an OPEN convex polytope: the intersection of strict
// halfspaces a_i . w < b_i with the (open) preference-space boundary. We
// decide nonemptiness by maximising the radius t of a ball inscribed in the
// closed polytope:  a_i . w + ||a_i|| t <= b_i. The open cell is nonempty
// iff t* > tol::kInterior, and the maximiser w* is a well-centred witness
// point that we cache on the CellTree node (paper Sec 4.3.2) together with
// its radius — the cached ball both decides future side tests without any
// LP (a hyperplane that cuts the ball splits the cell, one that clears it
// proves that side nonempty) and seeds the split-off children with valid
// inscribed balls of their own.
//
// Three entry tiers, fastest first:
//
//   1. CellLpContext — the allocation-free warm-started descent kernel.
//      Constraints are PUSHED and POPPED as the traversal walks the tree;
//      every push appends one row to the parent-optimal tableau and
//      re-optimises with a short dual-simplex pass, and every side test is
//      "optimal tableau + one extra row" on a scratch copy. Pops restore
//      bitwise-exact snapshots, so traversal order cannot perturb results,
//      and forked parallel tasks inherit the solver state by value. On any
//      numerical trouble (iteration guard, unexpected status) the context
//      deterministically falls back to the cold two-phase solver until the
//      offending rows are popped.
//   2. CellBoundSolver — one closed cell, many objectives. The tableau is
//      built once (space rows are feasible by construction, cell rows are
//      dual-appended) and each Minimize/Maximize only reloads the
//      objective and re-optimises primally from the current basis.
//   3. TestInterior / MinimizeOverCell / MaximizeOverCell — one-shot
//      wrappers for callers without an incremental structure (benches and
//      tests; no src/ code calls them). They share the flat ConstraintBuffer
//      problem representation, so even the cold path allocates nothing
//      once its thread arena is warm.
//
// Reentrancy: every routine keeps its scratch in thread_local arenas (or,
// for the incremental classes, in the instance itself), so concurrent
// calls from different worker threads are contention-free and
// allocation-free once warm. This is what the intra-query parallel
// traversal relies on.

#ifndef KSPR_LP_FEASIBILITY_H_
#define KSPR_LP_FEASIBILITY_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/vec.h"
#include "lp/constraint_buffer.h"
#include "lp/simplex.h"
#include "lp/warm_tableau.h"

namespace kspr {

/// A linear inequality a . w (<|<=) b over `a.dim` preference weights.
/// Whether it is interpreted strictly depends on the operation: feasibility
/// tests use the open interpretation, score bounds the closed one.
struct LinIneq {
  Vec a;
  double b = 0.0;

  /// Signed slack b - a.w (positive strictly inside).
  double Margin(const Vec& w) const { return b - a.Dot(w); }
};

/// Which ambient preference space the cell lives in. Space boundary
/// constraints are appended automatically by the routines below.
enum class Space {
  /// Transformed space (Sec 3.2): w_j > 0, sum_j w_j < 1, dim = d - 1.
  kTransformed,
  /// Original space (Appendix C): w_j > 0, w_j < 1, dim = d. Cells are
  /// cones through the origin clipped to the unit box.
  kOriginal,
};

/// Appends the boundary inequalities of `space` in dimension `dim`.
void AppendSpaceBounds(Space space, int dim, std::vector<LinIneq>* out);

/// Number of boundary inequalities AppendSpaceBounds produces.
inline int NumSpaceBounds(Space space, int dim) {
  return space == Space::kTransformed ? dim + 1 : 2 * dim;
}

struct FeasibilityResult {
  bool feasible = false;
  /// Inscribed-ball radius (valid when the LP solved).
  double radius = 0.0;
  /// Ball centre; a strictly interior witness point when feasible.
  Vec witness;
};

/// Tests whether the open polytope defined by `cons` (strict) intersected
/// with the open boundary of `space` is nonempty. `stats` may be null.
FeasibilityResult TestInterior(Space space, int dim,
                               const std::vector<LinIneq>& cons,
                               KsprStats* stats);

struct BoundResult {
  bool ok = false;
  double value = 0.0;
  Vec arg;
};

/// Minimises the linear function obj . w + obj_const over the CLOSED cell
/// (constraints interpreted as <=, space boundary closed). The cell should
/// be nonempty; `ok` is false on numerical failure.
BoundResult MinimizeOverCell(Space space, int dim, const Vec& obj,
                             double obj_const,
                             const std::vector<LinIneq>& cons,
                             KsprStats* stats);

/// Maximises obj . w + obj_const over the closed cell.
BoundResult MaximizeOverCell(Space space, int dim, const Vec& obj,
                             double obj_const,
                             const std::vector<LinIneq>& cons,
                             KsprStats* stats);

/// Warm-started, allocation-free inscribed-ball solver for one descent.
///
/// The context mirrors the root path of the current CellTree node: the
/// traversal pushes the edge inequality when it enters a child and pops it
/// on unwind; TestWithRow answers the Sec 4.2 side test for the pushed
/// path plus one extra row. Value semantics: copying a context snapshots
/// the whole solver state, which is how forked subtree tasks of the
/// parallel traversal reproduce the serial descent bitwise.
class CellLpContext {
 public:
  /// (Re)binds the context to a preference space. Cheap when the context
  /// is already at depth 0 for the same space/dim: the base tableau (space
  /// bounds only) is retained across insertions.
  void Reset(Space space, int dim);

  /// Pushes constraint `c` (strict) onto the path and re-optimises the
  /// base tableau via one dual-simplex row append.
  void PushConstraint(const LinIneq& c);

  /// Pops the most recent push, restoring the previous solver state
  /// bitwise from its snapshot.
  void PopConstraint();

  /// Pushed rows currently on the path.
  int depth() const { return static_cast<int>(levels_.size()); }

  /// Inscribed-ball feasibility of (pushed rows + `side` + space bounds),
  /// open interpretation — the warm equivalent of TestInterior. Updates
  /// feasibility_lps / constraints_used / lp_warm_starts / lp_cold_starts.
  FeasibilityResult TestWithRow(const LinIneq& side, KsprStats* stats);

  /// Inscribed-ball feasibility of the pushed path itself (no extra row).
  /// Free when warm: the answer is the base tableau's current optimum.
  FeasibilityResult TestCurrent(KsprStats* stats);

  /// Assigns `o`'s current solver state without its snapshot history and
  /// seeds a forked traversal task: the task never unwinds past its fork
  /// point, so the pop snapshots of the seed descent's frames would be
  /// dead weight in the copy.
  void AssignForFork(const CellLpContext& o);

 private:
  enum class LevelKind : uint8_t {
    kWarm,         // appended to the tableau; snapshot saved
    kColdEntered,  // append failed; snapshot saved, cold mode begins here
    kInert,        // pushed while not warm; no tableau mutation or snapshot
    kTrivial,      // degenerate row 0.w < b with b > 0; row is a no-op
    kInfeasible,   // degenerate row 0.w < b with b <= 0; path is empty
  };

  bool warm() const {
    return base_warm_ && cold_levels_ == 0 && infeasible_levels_ == 0;
  }
  void SaveSnapshot();
  // Appends `c` in ball form (a, +||a||, -||a||) to `tab`.
  lp::Status AppendBallRow(lp::WarmTableau* tab, const LinIneq& c) const;
  FeasibilityResult ReadBall(const lp::WarmTableau& tab) const;
  FeasibilityResult SolveCold(const LinIneq* side, KsprStats* stats) const;

  Space space_ = Space::kTransformed;
  int dim_ = -1;
  bool init_ = false;
  bool base_warm_ = false;  // the space-bound base tableau solved cleanly
  lp::WarmTableau tab_;                 // optimal tableau of the pushed path
  lp::ConstraintBuffer rows_;           // pushed rows, ball form, push order
  std::vector<LevelKind> levels_;       // one entry per push
  std::vector<lp::WarmTableau> snaps_;  // pop snapshots (reused storage)
  int snap_count_ = 0;
  int cold_levels_ = 0;
  int infeasible_levels_ = 0;
  lp::WarmTableau work_;  // scratch for TestWithRow (not part of the state)
};

/// Warm bound solver for one closed cell and many objectives: the tableau
/// is built once per Reset and every Minimize/Maximize re-optimises from
/// the previous basis after an objective reload. Falls back to the cold
/// solver per call on numerical trouble, so results are always available.
///
/// Prefix snapshots (redundancy elimination). BeginPrefix, ExtendPrefix
/// and ResetFromPrefix bind the solver to (prefix rows + rest) with the
/// same operations, in the same order, as Reset over those rows would
/// run: the zero-objective tableau of the space rows plus the prefix rows
/// is kept as a snapshot, and each ResetFromPrefix copies it and appends
/// only `rest`. A prefix row whose append is not optimal demotes every
/// later ResetFromPrefix to the cold path, exactly where Reset would have
/// demoted. Reset discards the prefix.
class CellBoundSolver {
 public:
  /// Binds the solver to the closed cell (cons + space bounds). `skip`
  /// omits one constraint index; pass -1 to keep all. Zero-norm rows are
  /// dropped exactly like the one-shot bound path does.
  void Reset(Space space, int dim, const LinIneq* cons, int n, int skip = -1);

  /// Starts a prefix holding the space rows only.
  void BeginPrefix(Space space, int dim);
  /// Appends `c` to the prefix (a zero-norm row is dropped, as in Reset).
  void ExtendPrefix(const LinIneq& c);
  /// Binds the solver to the closed cell (prefix rows + rest + space
  /// bounds), bit for bit as Reset over the prefix rows followed by rest.
  void ResetFromPrefix(const LinIneq* rest, int n);

  BoundResult Minimize(const Vec& obj, double obj_const, KsprStats* stats);
  BoundResult Maximize(const Vec& obj, double obj_const, KsprStats* stats);

 private:
  // Sets rows_ to the space rows and builds `tab` over them with a zero
  // objective; returns whether that tableau is optimal.
  bool InitSpaceTableau(Space space, int dim, lp::WarmTableau* tab);
  // Appends the non-trivial row `c` to rows_ and, while *warm, dual-appends
  // it to `tab`; a non-optimal append clears *warm.
  void AppendCellRow(const LinIneq& c, lp::WarmTableau* tab, bool* warm);
  BoundResult SolveObjective(const Vec& obj, double obj_const, bool maximize,
                             KsprStats* stats);

  Space space_ = Space::kTransformed;
  int dim_ = 0;
  bool warm_ = false;  // tab_ holds a feasible basis
  lp::WarmTableau tab_;
  lp::ConstraintBuffer rows_;  // space rows + cell rows (cold fallback)
  std::vector<double> obj_scratch_;
  // Prefix snapshot: its rows are rows_[0, prefix_rows_), and prefix_tab_
  // is their zero-objective tableau while prefix_warm_.
  lp::WarmTableau prefix_tab_;
  bool prefix_warm_ = false;
  int prefix_rows_ = -1;  // -1: no prefix
};

}  // namespace kspr

#endif  // KSPR_LP_FEASIBILITY_H_
