// Property tests for the warm-started LP kernel: on randomised
// descent-shaped constraint sequences, the incremental dual-simplex path
// (CellLpContext / CellBoundSolver) must agree with the cold two-phase
// solver on feasibility and bounds, pops must restore solver state
// bitwise, and fork copies must reproduce the original's results exactly.
// A differential suite drives the condensed lp::WarmTableau and the dense
// reference tableau (reference_dense_tableau.h) through identical random
// operation sequences and requires bitwise-equal answers after every step.

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/types.h"
#include "geom/hyperplane.h"
#include "lp/feasibility.h"
#include "lp/warm_tableau.h"
#include "reference_dense_tableau.h"

namespace kspr {
namespace {

// Random record-hyperplane sides in `dim`-dimensional preference space —
// the same constraint population the CellTree feeds the kernel.
std::vector<LinIneq> RandomSides(int dim, int count, Rng* rng) {
  std::vector<LinIneq> out;
  Vec p(dim + 1);
  for (int j = 0; j <= dim; ++j) p.v[j] = rng->Uniform();
  while (static_cast<int>(out.size()) < count) {
    Vec r(dim + 1);
    for (int j = 0; j <= dim; ++j) r.v[j] = rng->Uniform();
    RecordHyperplane h = MakeHyperplane(p, r, Space::kTransformed);
    if (h.kind != RecordHyperplane::Kind::kRegular) continue;
    LinIneq c;
    if (rng->Uniform() < 0.5) {
      c.a = h.a;
      c.b = h.b;
    } else {
      c.a = h.a * -1.0;
      c.b = -h.b;
    }
    out.push_back(c);
  }
  return out;
}

struct WarmCase {
  int dim;
  int depth;
  uint64_t seed;
};

class WarmColdAgreement : public ::testing::TestWithParam<WarmCase> {};

// Walk a random descent: push one constraint per level and run a side
// test per level; the warm answer must match a cold one-shot solve of the
// identical constraint set.
TEST_P(WarmColdAgreement, DescentSideTestsMatchColdSolves) {
  const WarmCase& wc = GetParam();
  Rng rng(wc.seed);
  std::vector<LinIneq> path = RandomSides(wc.dim, wc.depth, &rng);
  std::vector<LinIneq> sides = RandomSides(wc.dim, wc.depth, &rng);

  CellLpContext ctx;
  ctx.Reset(Space::kTransformed, wc.dim);
  std::vector<LinIneq> accumulated;
  int feasible_levels = 0;
  for (int level = 0; level < wc.depth; ++level) {
    ctx.PushConstraint(path[level]);
    accumulated.push_back(path[level]);

    // The side test through the warm kernel...
    KsprStats warm_stats;
    FeasibilityResult warm =
        ctx.TestWithRow(sides[level], &warm_stats);
    // ...against the cold one-shot path over the identical rows.
    std::vector<LinIneq> cold_cons = accumulated;
    cold_cons.push_back(sides[level]);
    FeasibilityResult cold =
        TestInterior(Space::kTransformed, wc.dim, cold_cons, nullptr);

    EXPECT_EQ(warm.feasible, cold.feasible)
        << "level " << level << " seed " << wc.seed;
    EXPECT_EQ(warm_stats.feasibility_lps, 1);
    EXPECT_EQ(warm_stats.lp_warm_starts + warm_stats.lp_cold_starts, 1);
    if (warm.feasible && cold.feasible) {
      ++feasible_levels;
      // The inscribed-ball radius is the unique LP optimum.
      EXPECT_NEAR(warm.radius, cold.radius, 1e-7)
          << "level " << level << " seed " << wc.seed;
      // The warm witness must be strictly inside every constraint.
      for (const LinIneq& c : cold_cons) {
        EXPECT_GT(c.Margin(warm.witness), 0.0) << "level " << level;
      }
    }

    // The path ball itself must agree with the cold solve as well.
    FeasibilityResult warm_cur = ctx.TestCurrent(nullptr);
    FeasibilityResult cold_cur =
        TestInterior(Space::kTransformed, wc.dim, accumulated, nullptr);
    EXPECT_EQ(warm_cur.feasible, cold_cur.feasible) << "level " << level;
    EXPECT_NEAR(warm_cur.radius, cold_cur.radius, 1e-7) << "level " << level;
  }
  // Moderately deep instances must exercise the feasible warm path, not
  // degenerate into empty cells immediately (very deep random descents
  // legitimately empty out early).
  if (wc.depth >= 4 && wc.depth <= 12) {
    EXPECT_GT(feasible_levels, 0) << "seed " << wc.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, WarmColdAgreement,
    ::testing::Values(WarmCase{2, 6, 1}, WarmCase{2, 12, 2},
                      WarmCase{3, 8, 3}, WarmCase{3, 16, 4},
                      WarmCase{4, 10, 5}, WarmCase{5, 8, 6},
                      WarmCase{6, 8, 7}, WarmCase{3, 24, 8},
                      WarmCase{4, 20, 9}, WarmCase{7, 6, 10}));

// Pops must restore the solver bitwise: the radius reported at depth d
// before descending deeper is reproduced exactly after unwinding back.
TEST(CellLpContextTest, PopRestoresStateBitwise) {
  Rng rng(77);
  const int dim = 3;
  const int depth = 14;
  std::vector<LinIneq> path = RandomSides(dim, depth, &rng);

  CellLpContext ctx;
  ctx.Reset(Space::kTransformed, dim);
  std::vector<double> radius_at;
  std::vector<char> feasible_at;
  for (const LinIneq& c : path) {
    ctx.PushConstraint(c);
    FeasibilityResult f = ctx.TestCurrent(nullptr);
    radius_at.push_back(f.radius);
    feasible_at.push_back(f.feasible ? 1 : 0);
  }
  for (int level = depth - 1; level >= 1; --level) {
    ctx.PopConstraint();
    FeasibilityResult f = ctx.TestCurrent(nullptr);
    // Bitwise equality: the pop restored a snapshot, not a re-solve.
    EXPECT_EQ(f.radius, radius_at[level - 1]) << "level " << level;
    EXPECT_EQ(f.feasible ? 1 : 0, feasible_at[level - 1]);
  }
  ctx.PopConstraint();
  EXPECT_EQ(ctx.depth(), 0);
}

// A fork copy (AssignForFork) must produce bitwise-identical side tests —
// this is the property the parallel traversal's task snapshots rely on.
TEST(CellLpContextTest, ForkCopyReproducesResultsBitwise) {
  Rng rng(123);
  const int dim = 4;
  std::vector<LinIneq> path = RandomSides(dim, 10, &rng);
  std::vector<LinIneq> probes = RandomSides(dim, 6, &rng);

  CellLpContext a;
  a.Reset(Space::kTransformed, dim);
  for (const LinIneq& c : path) a.PushConstraint(c);

  CellLpContext b;
  b.AssignForFork(a);
  EXPECT_EQ(b.depth(), a.depth());
  for (const LinIneq& probe : probes) {
    FeasibilityResult fa = a.TestWithRow(probe, nullptr);
    FeasibilityResult fb = b.TestWithRow(probe, nullptr);
    EXPECT_EQ(fa.feasible, fb.feasible);
    EXPECT_EQ(fa.radius, fb.radius);  // bitwise
    EXPECT_TRUE(fa.witness == fb.witness);
  }
  // The fork can keep descending on its own.
  b.PushConstraint(probes[0]);
  FeasibilityResult f = b.TestCurrent(nullptr);
  std::vector<LinIneq> cold_cons = path;
  cold_cons.push_back(probes[0]);
  FeasibilityResult cold =
      TestInterior(Space::kTransformed, dim, cold_cons, nullptr);
  EXPECT_EQ(f.feasible, cold.feasible);
  EXPECT_NEAR(f.radius, cold.radius, 1e-7);
}

// Degenerate pushed rows: 0.w < b is a no-op when b > 0 and forces
// emptiness when b <= 0 — matching the cold BuildBallProblem encodings.
TEST(CellLpContextTest, DegenerateRows) {
  CellLpContext ctx;
  ctx.Reset(Space::kTransformed, 2);
  LinIneq trivial;
  trivial.a = Vec(2);
  trivial.b = 1.0;
  ctx.PushConstraint(trivial);
  EXPECT_TRUE(ctx.TestCurrent(nullptr).feasible);

  LinIneq impossible;
  impossible.a = Vec(2);
  impossible.b = -1.0;
  ctx.PushConstraint(impossible);
  EXPECT_FALSE(ctx.TestCurrent(nullptr).feasible);
  LinIneq side;
  side.a = Vec{1.0, 0.0};
  side.b = 0.9;
  EXPECT_FALSE(ctx.TestWithRow(side, nullptr).feasible);
  ctx.PopConstraint();
  EXPECT_TRUE(ctx.TestCurrent(nullptr).feasible);
  ctx.PopConstraint();
  EXPECT_EQ(ctx.depth(), 0);
}

// Original preference space: the base tableau is the unit box.
TEST(CellLpContextTest, OriginalSpace) {
  CellLpContext ctx;
  ctx.Reset(Space::kOriginal, 3);
  FeasibilityResult f = ctx.TestCurrent(nullptr);
  ASSERT_TRUE(f.feasible);
  EXPECT_NEAR(f.radius, 0.5, 1e-6);  // inscribed ball of the unit cube

  Rng rng(5);
  std::vector<LinIneq> rows = RandomSides(3, 8, &rng);
  std::vector<LinIneq> acc;
  for (const LinIneq& c : rows) {
    ctx.PushConstraint(c);
    acc.push_back(c);
    FeasibilityResult warm = ctx.TestCurrent(nullptr);
    FeasibilityResult cold = TestInterior(Space::kOriginal, 3, acc, nullptr);
    EXPECT_EQ(warm.feasible, cold.feasible);
    EXPECT_NEAR(warm.radius, cold.radius, 1e-7);
  }
}

// CellBoundSolver: many objectives over one cell must match the one-shot
// cold bound path on value and status.
class BoundAgreement : public ::testing::TestWithParam<WarmCase> {};

TEST_P(BoundAgreement, WarmBoundsMatchColdBounds) {
  const WarmCase& wc = GetParam();
  Rng rng(wc.seed * 31 + 7);
  std::vector<LinIneq> cons = RandomSides(wc.dim, wc.depth, &rng);

  CellBoundSolver solver;
  solver.Reset(Space::kTransformed, wc.dim, cons.data(),
               static_cast<int>(cons.size()));
  for (int trial = 0; trial < 12; ++trial) {
    Vec obj(wc.dim);
    for (int j = 0; j < wc.dim; ++j) obj.v[j] = rng.Uniform(-1, 1);
    const double c0 = rng.Uniform(-1, 1);

    KsprStats stats;
    BoundResult wmin = solver.Minimize(obj, c0, &stats);
    BoundResult wmax = solver.Maximize(obj, c0, &stats);
    BoundResult cmin =
        MinimizeOverCell(Space::kTransformed, wc.dim, obj, c0, cons, nullptr);
    BoundResult cmax =
        MaximizeOverCell(Space::kTransformed, wc.dim, obj, c0, cons, nullptr);

    EXPECT_EQ(stats.bound_lps, 2);
    ASSERT_EQ(wmin.ok, cmin.ok) << "trial " << trial;
    ASSERT_EQ(wmax.ok, cmax.ok) << "trial " << trial;
    if (wmin.ok) {
      EXPECT_NEAR(wmin.value, cmin.value, 1e-7) << trial;
    }
    if (wmax.ok) {
      EXPECT_NEAR(wmax.value, cmax.value, 1e-7) << trial;
    }
    if (wmin.ok && wmax.ok) {
      EXPECT_LE(wmin.value, wmax.value + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, BoundAgreement,
    ::testing::Values(WarmCase{2, 5, 11}, WarmCase{3, 8, 12},
                      WarmCase{3, 16, 13}, WarmCase{4, 10, 14},
                      WarmCase{5, 12, 15}, WarmCase{6, 8, 16},
                      WarmCase{7, 10, 17}));

// The skip parameter must behave exactly like physically removing the row.
TEST(CellBoundSolverTest, SkipIndexMatchesRemoval) {
  Rng rng(99);
  const int dim = 3;
  std::vector<LinIneq> cons = RandomSides(dim, 9, &rng);
  for (int skip = 0; skip < static_cast<int>(cons.size()); ++skip) {
    CellBoundSolver with_skip;
    with_skip.Reset(Space::kTransformed, dim, cons.data(),
                    static_cast<int>(cons.size()), skip);
    std::vector<LinIneq> removed = cons;
    removed.erase(removed.begin() + skip);
    CellBoundSolver without;
    without.Reset(Space::kTransformed, dim, removed.data(),
                  static_cast<int>(removed.size()));
    Vec obj = cons[static_cast<size_t>(skip)].a;
    BoundResult a = with_skip.Maximize(obj, 0.0, nullptr);
    BoundResult b = without.Maximize(obj, 0.0, nullptr);
    ASSERT_EQ(a.ok, b.ok) << "skip " << skip;
    if (a.ok) {
      EXPECT_NEAR(a.value, b.value, 1e-9) << "skip " << skip;
    }
  }
}

// WarmTableau unit: dual row append on a textbook LP.
TEST(WarmTableauTest, AppendRowMatchesColdResolve) {
  // max 3x + 5y, x <= 4, 2y <= 12, then append 3x + 2y <= 18.
  lp::ConstraintBuffer base;
  base.Reset(2);
  base.Add({1, 0}, 4);
  base.Add({0, 2}, 12);
  const double obj[2] = {3, 5};
  lp::WarmTableau tab;
  ASSERT_EQ(tab.InitFromFeasibleRows(2, obj, base), lp::Status::kOptimal);
  EXPECT_NEAR(tab.ObjectiveValue(), 3 * 4 + 5 * 6, 1e-9);
  const double row[2] = {3, 2};
  ASSERT_EQ(tab.AddRowReoptimize(row, 2, 18), lp::Status::kOptimal);
  EXPECT_NEAR(tab.ObjectiveValue(), 36.0, 1e-9);
  EXPECT_NEAR(tab.VarValue(0), 2.0, 1e-9);
  EXPECT_NEAR(tab.VarValue(1), 6.0, 1e-9);
  // Append a row that empties the feasible set: x + y <= -1.
  const double bad[2] = {1, 1};
  EXPECT_EQ(tab.AddRowReoptimize(bad, 2, -1), lp::Status::kInfeasible);
}

TEST(WarmTableauTest, ObjectiveReloadReusesBasis) {
  lp::ConstraintBuffer base;
  base.Reset(2);
  base.Add({1, 0}, 1);
  base.Add({0, 1}, 1);
  const double obj1[2] = {1, 0};
  lp::WarmTableau tab;
  ASSERT_EQ(tab.InitFromFeasibleRows(2, obj1, base), lp::Status::kOptimal);
  EXPECT_NEAR(tab.ObjectiveValue(), 1.0, 1e-12);
  const double obj2[2] = {-1, 2};
  ASSERT_EQ(tab.SetObjectiveReoptimize(obj2), lp::Status::kOptimal);
  EXPECT_NEAR(tab.ObjectiveValue(), 2.0, 1e-12);
  EXPECT_NEAR(tab.VarValue(0), 0.0, 1e-12);
  EXPECT_NEAR(tab.VarValue(1), 1.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Differential suite: condensed kernel vs the dense reference tableau.

// Drives a condensed and a dense tableau in lock step. Every operation is
// applied to both; Check() then requires the same status and bit-identical
// objective and variable values (slacks included).
class KernelPair {
 public:
  lp::Status Init(int num_vars, const std::vector<double>& obj,
                  const lp::ConstraintBuffer& rows) {
    return Both(cond_.InitFromFeasibleRows(num_vars, obj.data(), rows),
                dense_.InitFromFeasibleRows(num_vars, obj.data(), rows));
  }
  lp::Status AddRow(const std::vector<double>& a, double b) {
    const int len = static_cast<int>(a.size());
    return Both(cond_.AddRowReoptimize(a.data(), len, b),
                dense_.AddRowReoptimize(a.data(), len, b));
  }
  lp::Status SetObjective(const std::vector<double>& obj) {
    return Both(cond_.SetObjectiveReoptimize(obj.data()),
                dense_.SetObjectiveReoptimize(obj.data()));
  }
  void CopyFrom(const KernelPair& o) {
    cond_.CopyFrom(o.cond_);
    dense_.CopyFrom(o.dense_);
  }

  // Bitwise agreement of everything the kernel exposes.
  void Check(const std::string& where) const {
    ASSERT_EQ(cond_.num_rows(), dense_.num_rows()) << where;
    ASSERT_EQ(cond_.num_vars(), dense_.num_vars()) << where;
    EXPECT_EQ(Bits(cond_.ObjectiveValue()), Bits(dense_.ObjectiveValue()))
        << where << ": objective " << cond_.ObjectiveValue() << " vs "
        << dense_.ObjectiveValue();
    const int n = cond_.num_vars();
    std::vector<double> read(static_cast<size_t>(n));
    cond_.ReadVars(n, read.data());
    for (int v = 0; v < n + cond_.num_rows(); ++v) {
      EXPECT_EQ(Bits(cond_.VarValue(v)), Bits(dense_.VarValue(v)))
          << where << ": var " << v;
      if (v < n) {
        EXPECT_EQ(Bits(read[v]), Bits(dense_.VarValue(v)))
            << where << ": ReadVars " << v;
      }
    }
  }

 private:
  static uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }
  static lp::Status Both(lp::Status a, lp::Status b) {
    EXPECT_EQ(a, b);
    return a;
  }

  lp::WarmTableau cond_;
  lp::reference::DenseWarmTableau dense_;
};

struct DiffCase {
  int dim;
  bool ball;  // ball LP (dim + 2 vars) or closed bound LP (dim vars)
  Space space;
  uint64_t seed;
};

class KernelDifferential : public ::testing::TestWithParam<DiffCase> {};

// Random row over `n` structural variables in the population the callers
// feed the kernel, plus the degenerate shapes: zero-norm rows, exact copies
// of earlier rows, near-copies a few ulps away, tiny coefficients around
// the pivot tolerance and small-integer rows that produce exact ratio ties.
std::vector<double> RandomRow(int dim, bool ball, int n,
                              const std::vector<std::vector<double>>& seen,
                              double* b, Rng* rng) {
  std::vector<double> a(static_cast<size_t>(n), 0.0);
  const int kind = static_cast<int>(rng->UniformInt(10));
  if (kind == 0) {  // zero-norm row
    *b = rng->Uniform() < 0.5 ? rng->Uniform(-1.0, 1.0) : 0.0;
    return a;
  }
  if ((kind == 1 || kind == 2) && !seen.empty()) {  // copy / near-copy
    a = seen[rng->UniformInt(seen.size())];
    *b = a.back();
    a.pop_back();
    if (kind == 2) {
      for (double& x : a) x *= 1.0 + 1e-14 * rng->Uniform(-1.0, 1.0);
      *b += 1e-13 * rng->Uniform(-1.0, 1.0);
    }
    return a;
  }
  for (int j = 0; j < dim; ++j) {
    if (kind == 3) {
      a[j] = static_cast<double>(rng->UniformInt(5)) - 2.0;
    } else if (kind == 4) {
      a[j] = 1e-11 * rng->Uniform(-2.0, 2.0);
    } else {
      a[j] = rng->Uniform(-1.0, 1.0);
    }
  }
  *b = kind == 3 ? static_cast<double>(rng->UniformInt(3)) - 1.0
                 : rng->Uniform(-0.3, 0.6);
  if (ball) {
    double s = 0.0;
    for (int j = 0; j < dim; ++j) s += a[j] * a[j];
    a[dim] = std::sqrt(s);
    a[dim + 1] = -a[dim];
  }
  return a;
}

std::vector<double> RandomObjective(int dim, bool ball, int n, Rng* rng) {
  std::vector<double> obj(static_cast<size_t>(n), 0.0);
  for (int j = 0; j < dim; ++j) {
    obj[j] = rng->UniformInt(4) == 0 ? 0.0 : rng->Uniform(-1.0, 1.0);
  }
  if (ball) {  // keep the radius term so the optimum stays bounded
    obj[dim] = 1.0;
    obj[dim + 1] = -1.0;
  }
  return obj;
}

TEST_P(KernelDifferential, RandomOpSequencesMatchDenseBitwise) {
  const DiffCase& dc = GetParam();
  Rng rng(dc.seed);
  const int n = dc.ball ? dc.dim + 2 : dc.dim;

  // Space-boundary rows: non-negative rhs, a feasible slack basis.
  lp::ConstraintBuffer base;
  base.Reset(n);
  std::vector<std::vector<double>> seen;
  auto add_base = [&](std::vector<double> a, double b) {
    base.Add(a.data(), n, b);
    a.push_back(b);
    seen.push_back(std::move(a));
  };
  for (int j = 0; j < dc.dim; ++j) {
    std::vector<double> a(static_cast<size_t>(n), 0.0);
    a[j] = -1.0;
    if (dc.ball) {
      a[dc.dim] = 1.0;
      a[dc.dim + 1] = -1.0;
    }
    add_base(a, 0.0);
  }
  if (dc.space == Space::kTransformed) {
    std::vector<double> a(static_cast<size_t>(n), 1.0);
    if (dc.ball) {
      a[dc.dim] = std::sqrt(static_cast<double>(dc.dim));
      a[dc.dim + 1] = -a[dc.dim];
    }
    add_base(a, 1.0);
  } else {
    for (int j = 0; j < dc.dim; ++j) {
      std::vector<double> a(static_cast<size_t>(n), 0.0);
      a[j] = 1.0;
      if (dc.ball) {
      a[dc.dim] = 1.0;
      a[dc.dim + 1] = -1.0;
    }
      add_base(a, 1.0);
    }
  }

  KernelPair cur;
  std::vector<double> obj(static_cast<size_t>(n), 0.0);
  if (dc.ball) {
    obj[dc.dim] = 1.0;
    obj[dc.dim + 1] = -1.0;
  }
  ASSERT_EQ(cur.Init(n, obj, base), lp::Status::kOptimal);
  cur.Check("init");

  // Push/pop snapshot stack, exactly like the descent's save/restore.
  std::vector<KernelPair> stack;
  KernelPair work;
  int optimal_appends = 0;
  for (int op = 0; op < 120 && !HasFailure(); ++op) {
    const std::string where = "seed " + std::to_string(dc.seed) + " op " +
                              std::to_string(op);
    const int pick = static_cast<int>(rng.UniformInt(10));
    if (pick < 4) {  // push: snapshot, append, pop back on failure
      double b = 0.0;
      std::vector<double> a = RandomRow(dc.dim, dc.ball, n, seen, &b, &rng);
      stack.emplace_back();
      stack.back().CopyFrom(cur);
      const lp::Status s = cur.AddRow(a, b);
      cur.Check(where + " push");
      if (s == lp::Status::kOptimal) {
        ++optimal_appends;
        a.push_back(b);
        seen.push_back(std::move(a));
      } else {
        cur.CopyFrom(stack.back());
        stack.pop_back();
        cur.Check(where + " push-restore");
      }
    } else if (pick < 6) {  // side test on a scratch copy
      double b = 0.0;
      std::vector<double> a = RandomRow(dc.dim, dc.ball, n, seen, &b, &rng);
      work.CopyFrom(cur);
      work.AddRow(a, b);
      work.Check(where + " side");
    } else if (pick < 8) {  // objective reload
      KernelPair saved;
      saved.CopyFrom(cur);
      const lp::Status s =
          cur.SetObjective(RandomObjective(dc.dim, dc.ball, n, &rng));
      cur.Check(where + " objective");
      if (s != lp::Status::kOptimal) {
        cur.CopyFrom(saved);
        cur.Check(where + " objective-restore");
      }
    } else if (!stack.empty()) {  // pop
      cur.CopyFrom(stack.back());
      stack.pop_back();
      cur.Check(where + " pop");
    }
  }
  EXPECT_GT(optimal_appends, 0) << "seed " << dc.seed;
}

std::vector<DiffCase> DiffCases() {
  std::vector<DiffCase> cases;
  uint64_t seed = 1000;
  for (int dim = 2; dim <= 8; ++dim) {
    for (bool ball : {true, false}) {
      for (Space space : {Space::kTransformed, Space::kOriginal}) {
        for (int rep = 0; rep < 3; ++rep) {
          cases.push_back(DiffCase{dim, ball, space, ++seed});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Random, KernelDifferential, ::testing::ValuesIn(DiffCases()),
    [](const ::testing::TestParamInfo<DiffCase>& info) {
      const DiffCase& dc = info.param;
      return "d" + std::to_string(dc.dim) + (dc.ball ? "_ball" : "_bound") +
             (dc.space == Space::kTransformed ? "_transformed_"
                                              : "_original_") +
             std::to_string(dc.seed);
    });

}  // namespace
}  // namespace kspr
