#include "core/bounds.h"

#include <cassert>
#include <limits>

namespace kspr {

Vec ScoreObjective(Space space, const Vec& x, double* constant) {
  if (space == Space::kOriginal) {
    *constant = 0.0;
    return x;
  }
  const int d = x.dim;
  Vec obj(d - 1);
  for (int i = 0; i < d - 1; ++i) obj.v[i] = x[i] - x[d - 1];
  *constant = x[d - 1];
  return obj;
}

namespace {

enum class Decision {
  kAbove,    // scores above p everywhere in the cell: lb and ub advance
  kBelow,    // scores below p everywhere: no effect
  kCovered,  // score interval inside p's interval: only ub advances
  kUnknown,
};

// Shared state of one rank-bound computation. All LPs of one computation
// range over the SAME cell with different objectives, so they share one
// warm CellBoundSolver: the tableau is built once and every further bound
// only reloads the objective and re-optimises from the previous basis.
struct Traversal {
  const BoundsContext* ctx;
  CellBoundSolver* lp;
  int k;
  RankBounds bounds;

  // Transformed-space interval method: p's score range over the cell.
  double sp_min = 0.0;
  double sp_max = 0.0;
  // Fast min/max weight vectors (full d dims), valid when use_fast.
  bool use_fast = false;
  Vec w_lo;
  Vec w_hi;

  bool original_space() const { return ctx->space == Space::kOriginal; }

  // ---- transformed-space interval comparisons -------------------------
  Decision DecideInterval(double lo, double hi) const {
    if (lo > sp_max) return Decision::kAbove;
    if (hi < sp_min) return Decision::kBelow;
    if (sp_min <= lo && hi <= sp_max) return Decision::kCovered;
    return Decision::kUnknown;
  }

  // Fast (O(d)) score interval of a box [lo, hi] in data space, given as
  // d coordinates per corner; a record passes its Dataset row as both.
  // The sums are Vec::Dot's, term for term.
  Decision FastDecide(const double* lo, const double* hi) const {
    if (!use_fast) return Decision::kUnknown;
    double s_lo = 0.0;
    double s_hi = 0.0;
    for (int i = 0; i < w_lo.dim; ++i) s_lo += w_lo.v[i] * lo[i];
    for (int i = 0; i < w_hi.dim; ++i) s_hi += w_hi.v[i] * hi[i];
    return DecideInterval(s_lo, s_hi);
  }

  // True when the entry is more likely to resolve as kBelow than kAbove,
  // based on its (cheap) fast interval; used to order the two tight LPs so
  // that the common case needs only one.
  bool LikelyBelow(const Vec& lo, const Vec& hi) const {
    if (!use_fast) return false;
    return w_lo.Dot(lo) + w_hi.Dot(hi) < sp_min + sp_max;
  }

  // Tight (one- or two-LP) score interval of a box.
  Decision TightDecide(const Vec& lo, const Vec& hi) const {
    if (original_space()) {
      // Difference objective S(x) - S(p); every cell contains the origin,
      // so plain intervals are useless (Appendix C).
      double c0;
      Vec diff_lo = lo - ctx->p;
      Vec obj_lo = ScoreObjective(ctx->space, diff_lo, &c0);
      BoundResult r_lo = lp->Minimize(obj_lo, c0, ctx->stats);
      if (r_lo.ok && r_lo.value > 0) return Decision::kAbove;
      Vec diff_hi = hi - ctx->p;
      Vec obj_hi = ScoreObjective(ctx->space, diff_hi, &c0);
      BoundResult r_hi = lp->Maximize(obj_hi, c0, ctx->stats);
      if (r_hi.ok && r_hi.value <= 0) return Decision::kBelow;
      return Decision::kUnknown;
    }
    // Lazy evaluation: the min-score LP alone decides kAbove and the
    // max-score LP alone decides kBelow; solve the likelier one first so
    // the common case needs a single LP.
    if (LikelyBelow(lo, hi)) {
      double c1;
      Vec obj_hi = ScoreObjective(ctx->space, hi, &c1);
      BoundResult r_hi = lp->Maximize(obj_hi, c1, ctx->stats);
      if (!r_hi.ok) return Decision::kUnknown;
      if (r_hi.value < sp_min) return Decision::kBelow;
      double c0;
      Vec obj_lo = ScoreObjective(ctx->space, lo, &c0);
      BoundResult r_lo = lp->Minimize(obj_lo, c0, ctx->stats);
      if (!r_lo.ok) return Decision::kUnknown;
      return DecideInterval(r_lo.value, r_hi.value);
    }
    double c0;
    Vec obj_lo = ScoreObjective(ctx->space, lo, &c0);
    BoundResult r_lo = lp->Minimize(obj_lo, c0, ctx->stats);
    if (!r_lo.ok) return Decision::kUnknown;
    if (r_lo.value > sp_max) return Decision::kAbove;
    double c1;
    Vec obj_hi = ScoreObjective(ctx->space, hi, &c1);
    BoundResult r_hi = lp->Maximize(obj_hi, c1, ctx->stats);
    if (!r_hi.ok) return Decision::kUnknown;
    return DecideInterval(r_lo.value, r_hi.value);
  }

  void Apply(Decision d, int count) {
    switch (d) {
      case Decision::kAbove:
        bounds.lb += count;
        bounds.ub += count;
        break;
      case Decision::kCovered:
        bounds.ub += count;
        break;
      case Decision::kBelow:
      case Decision::kUnknown:
        break;
    }
  }

  // Tight (LP-based) refinement is worthwhile only while the cell can
  // still be reported early: once ub > k, LPs can no longer flip the
  // outcome to "report", and the lower bound keeps growing through the
  // cheap O(d) fast checks. This keeps the per-cell LP budget proportional
  // to k instead of to the number of straddling records.
  bool RefinementPays() const { return bounds.ub <= k; }

  // Lemma-5 pruning: everything weakly dominated by a pivot of the cell
  // scores below p throughout the cell.
  bool PivotDominated(const Mbr& box) const {
    const PivotSet* pivots = ctx->pivots.get();
    return pivots != nullptr && pivots->DominatesBox(box);
  }
  bool PivotDominated(const double* r) const {
    const PivotSet* pivots = ctx->pivots.get();
    return pivots != nullptr && pivots->DominatesPoint(r);
  }

  // Both filters below only ever skip an entry, and a kBelow verdict
  // applies nothing, so the cheap fast interval runs first and the pivot
  // scan only sees entries it does not already rule out.
  void VisitNode(int node_id) {
    if (bounds.lb > k) return;  // cell will be pruned regardless
    const RTree::Node& node = ctx->tree->Fetch(node_id);
    if (node.leaf) {
      for (RecordId rid : node.items) {
        if (rid == ctx->focal_id) continue;
        const double* r = ctx->data->Row(rid);
        Decision d = FastDecide(r, r);
        if (d == Decision::kBelow) continue;
        if (PivotDominated(r)) continue;  // kBelow, no LP needed
        if (d == Decision::kUnknown && RefinementPays()) {
          const Vec rec = ctx->data->Get(rid);
          d = TightDecide(rec, rec);
        }
        // A record whose interval merely overlaps p's may or may not score
        // above p inside the cell: advance only the upper bound.
        Apply(d == Decision::kUnknown ? Decision::kCovered : d, 1);
        if (bounds.lb > k) return;
      }
      return;
    }
    for (int c : node.items) {
      if (bounds.lb > k) return;
      // The child is decided from its resident entry summary; its page
      // is fetched only if the traversal descends into it.
      const Mbr& box = ctx->tree->EntryMbr(c);
      Decision d = FastDecide(box.lo.v.data(), box.hi.v.data());
      if (d == Decision::kBelow) continue;
      if (PivotDominated(box)) continue;  // kBelow, no LP needed
      if (d == Decision::kUnknown && ctx->mode != BoundMode::kRecord &&
          RefinementPays()) {
        d = TightDecide(box.lo, box.hi);
      }
      if (d == Decision::kUnknown) {
        VisitNode(c);
      } else {
        Apply(d, ctx->tree->EntryCount(c));
      }
    }
  }
};

}  // namespace

RankBounds ComputeRankBounds(const BoundsContext& ctx,
                             const std::vector<LinIneq>& cell_cons, int k) {
  // One warm solver per computation, rebuilt from the cell constraints on
  // entry: reuse across calls would make results depend on traversal
  // order, a full Reset keeps every computation self-contained (and hence
  // bitwise-identical between the serial and parallel look-ahead passes).
  thread_local CellBoundSolver solver;
  solver.Reset(ctx.space, ctx.pref_dim, cell_cons.data(),
               static_cast<int>(cell_cons.size()));
  Traversal t;
  t.ctx = &ctx;
  t.lp = &solver;
  t.k = k;

  if (ctx.space == Space::kTransformed) {
    // p's score interval over the cell.
    double c0;
    Vec obj = ScoreObjective(ctx.space, ctx.p, &c0);
    BoundResult lo = solver.Minimize(obj, c0, ctx.stats);
    BoundResult hi = solver.Maximize(obj, c0, ctx.stats);
    if (!lo.ok || !hi.ok) {
      // Numerical trouble: return vacuous (but valid) bounds.
      RankBounds rb;
      rb.lb = 1;
      rb.ub = ctx.data->size() + 1;
      return rb;
    }
    t.sp_min = lo.value;
    t.sp_max = hi.value;

    if (ctx.mode == BoundMode::kFast) {
      // Min/max vectors (Sec 6.3): per-axis extremes of w over the cell,
      // plus the extremes of sum(w) for the implied d-th weight.
      const int dp = ctx.pref_dim;
      t.w_lo = Vec(dp + 1);
      t.w_hi = Vec(dp + 1);
      bool ok = true;
      for (int j = 0; j < dp && ok; ++j) {
        Vec axis(dp);
        axis.v[j] = 1.0;
        BoundResult mn = solver.Minimize(axis, 0.0, ctx.stats);
        BoundResult mx = solver.Maximize(axis, 0.0, ctx.stats);
        ok = mn.ok && mx.ok;
        if (ok) {
          t.w_lo.v[j] = mn.value;
          t.w_hi.v[j] = mx.value;
        }
      }
      if (ok) {
        Vec ones(dp);
        for (int j = 0; j < dp; ++j) ones.v[j] = 1.0;
        BoundResult smn = solver.Minimize(ones, 0.0, ctx.stats);
        BoundResult smx = solver.Maximize(ones, 0.0, ctx.stats);
        ok = smn.ok && smx.ok;
        if (ok) {
          t.w_lo.v[dp] = std::max(0.0, 1.0 - smx.value);
          t.w_hi.v[dp] = std::max(0.0, 1.0 - smn.value);
        }
      }
      t.use_fast = ok;
    }
  }
  // Original space: intervals replaced by the difference objective inside
  // TightDecide; fast bounds unavailable (Appendix C).

  if (!ctx.tree->empty()) t.VisitNode(ctx.tree->root());
  return t.bounds;
}

}  // namespace kspr
