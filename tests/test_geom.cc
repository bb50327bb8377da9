// Tests for hyperplane mapping, vertex enumeration, redundancy removal and
// volume computation.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geom/hyperplane.h"
#include "geom/polytope.h"
#include "geom/volume.h"
#include "reference_remove_redundant.h"

namespace kspr {
namespace {

LinIneq Ineq(std::initializer_list<double> a, double b) {
  LinIneq c;
  c.a = Vec(a);
  c.b = b;
  return c;
}

// --------------------------------------------------------------------------
// Hyperplanes.

TEST(Hyperplane, TransformedSpaceSign) {
  // Restaurants from Fig 1: p = Kyma (5,5,7), r1 = L'Entrecote (3,8,8).
  Vec p{5, 5, 7};
  Vec r{3, 8, 8};
  RecordHyperplane h = MakeHyperplane(p, r, Space::kTransformed);
  ASSERT_EQ(h.kind, RecordHyperplane::Kind::kRegular);
  // At w = (w1, w2), S(r) - S(p) has the sign of h.Eval(w).
  // Take w1 = 0.6, w2 = 0.2 (w3 = 0.2): S(r) = 0.6*3+0.2*8+0.2*8 = 5.0,
  // S(p) = 0.6*5+0.2*5+0.2*7 = 5.4 -> r below p.
  EXPECT_LT(h.Eval(Vec{0.6, 0.2}), 0.0);
  // w = (0.1, 0.6): S(r) = 0.3+4.8+2.4 = 7.5 > S(p) = 0.5+3.0+2.1 = 5.6.
  EXPECT_GT(h.Eval(Vec{0.1, 0.6}), 0.0);
}

TEST(Hyperplane, EvalMatchesScoreGapSign) {
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const int d = 2 + static_cast<int>(rng.UniformInt(5));
    Vec p(d), r(d);
    for (int j = 0; j < d; ++j) {
      p.v[j] = rng.Uniform();
      r.v[j] = rng.Uniform();
    }
    RecordHyperplane h = MakeHyperplane(p, r, Space::kTransformed);
    // Random weight vector in the simplex.
    Vec w(d);
    double total = 0.0;
    for (int j = 0; j < d; ++j) {
      w.v[j] = rng.Uniform() + 1e-3;
      total += w.v[j];
    }
    for (int j = 0; j < d; ++j) w.v[j] /= total;
    const double gap = r.Dot(w) - p.Dot(w);
    Vec w_pref(d - 1);
    for (int j = 0; j < d - 1; ++j) w_pref.v[j] = w.v[j];
    if (h.kind == RecordHyperplane::Kind::kRegular) {
      if (std::abs(gap) > 1e-9) {
        EXPECT_EQ(gap > 0, h.Eval(w_pref) > 0)
            << "trial " << trial << " gap " << gap;
      }
    } else if (h.kind == RecordHyperplane::Kind::kAlwaysPositive) {
      EXPECT_GT(gap, -1e-12);
    } else {
      EXPECT_LT(gap, 1e-12);
    }
  }
}

TEST(Hyperplane, OriginalSpacePassesThroughOrigin) {
  Vec p{5, 5, 7};
  Vec r{9, 4, 4};
  RecordHyperplane h = MakeHyperplane(p, r, Space::kOriginal);
  ASSERT_EQ(h.kind, RecordHyperplane::Kind::kRegular);
  EXPECT_NEAR(h.b, 0.0, 1e-12);
  EXPECT_EQ(h.a.dim, 3);
  // S(r) > S(p) iff (r - p) . w > 0.
  Vec w{0.5, 0.25, 0.25};
  EXPECT_EQ(h.Eval(w) > 0, r.Dot(w) > p.Dot(w));
}

TEST(Hyperplane, DominatorIsAlwaysPositive) {
  Vec p{1, 1, 1};
  Vec r{2, 2, 2};  // dominates p with equal per-dim gaps -> degenerate
  RecordHyperplane h = MakeHyperplane(p, r, Space::kTransformed);
  EXPECT_EQ(h.kind, RecordHyperplane::Kind::kAlwaysPositive);
}

TEST(Hyperplane, TieIsAlwaysNegative) {
  Vec p{3, 4};
  RecordHyperplane h = MakeHyperplane(p, p, Space::kTransformed);
  EXPECT_EQ(h.kind, RecordHyperplane::Kind::kAlwaysNegative);
}

TEST(Hyperplane, NormalisedCoefficients) {
  Vec p{0, 0};
  Vec r{10, -10};
  RecordHyperplane h = MakeHyperplane(p, r, Space::kTransformed);
  ASSERT_EQ(h.kind, RecordHyperplane::Kind::kRegular);
  EXPECT_NEAR(h.a.NormL2(), 1.0, 1e-12);
}

TEST(HyperplaneStore, LazyAndStable) {
  Dataset data(2);
  data.Add(Vec{1, 2});
  data.Add(Vec{2, 1});
  HyperplaneStore store(&data, Vec{1.5, 1.5}, Space::kTransformed);
  EXPECT_EQ(store.pref_dim(), 1);
  const RecordHyperplane& h0 = store.Get(0);
  const RecordHyperplane& h0_again = store.Get(0);
  EXPECT_EQ(&h0, &h0_again);
  // AsStrictIneq(h+) flips the sign.
  LinIneq pos = store.AsStrictIneq({0, true});
  LinIneq neg = store.AsStrictIneq({0, false});
  EXPECT_NEAR(pos.a[0], -neg.a[0], 1e-12);
  EXPECT_NEAR(pos.b, -neg.b, 1e-12);
}

// --------------------------------------------------------------------------
// Linear systems & vertex enumeration.

TEST(LinearSystem, Solves2x2) {
  std::vector<Vec> rows = {Vec{2, 1}, Vec{1, -1}};
  Vec rhs{5, 1};
  Vec x;
  ASSERT_TRUE(SolveLinearSystem(2, rows, rhs, &x));
  EXPECT_NEAR(x[0], 2.0, 1e-9);
  EXPECT_NEAR(x[1], 1.0, 1e-9);
}

TEST(LinearSystem, DetectsSingular) {
  std::vector<Vec> rows = {Vec{1, 1}, Vec{2, 2}};
  Vec rhs{1, 2};
  Vec x;
  EXPECT_FALSE(SolveLinearSystem(2, rows, rhs, &x));
}

TEST(Vertices, UnitSimplex2D) {
  // No extra constraints: the transformed space itself, a right triangle.
  std::vector<Vec> vs = EnumerateVertices(Space::kTransformed, 2, {});
  ASSERT_EQ(vs.size(), 3u);
}

TEST(Vertices, BoxCorners3D) {
  // Original space: unit cube, 8 corners.
  std::vector<Vec> vs = EnumerateVertices(Space::kOriginal, 3, {});
  EXPECT_EQ(vs.size(), 8u);
}

TEST(Vertices, HalvedTriangle) {
  // Cut the 2D simplex with w0 < 0.5: quadrilateral.
  std::vector<LinIneq> cons = {Ineq({1, 0}, 0.5)};
  std::vector<Vec> vs = EnumerateVertices(Space::kTransformed, 2, cons);
  EXPECT_EQ(vs.size(), 4u);
}

TEST(Vertices, GuardReturnsEmpty) {
  std::vector<LinIneq> cons;
  for (int i = 0; i < 40; ++i) {
    cons.push_back(Ineq({1.0, static_cast<double>(i) / 40.0, 0.3, 0.4, 0.5},
                        2.0 + i));
  }
  std::vector<Vec> vs =
      EnumerateVertices(Space::kTransformed, 5, cons, /*max_combinations=*/10);
  EXPECT_TRUE(vs.empty());
}

TEST(Redundancy, RemovesLooseConstraint) {
  // w0 < 0.9 is redundant given w0 < 0.5.
  std::vector<LinIneq> cons = {Ineq({1, 0}, 0.5), Ineq({1, 0}, 0.9)};
  std::vector<LinIneq> kept =
      RemoveRedundant(Space::kTransformed, 2, cons, nullptr);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_NEAR(kept[0].b, 0.5, 1e-12);
}

TEST(Redundancy, KeepsOneOfDuplicates) {
  std::vector<LinIneq> cons = {Ineq({1, 0}, 0.5), Ineq({1, 0}, 0.5)};
  std::vector<LinIneq> kept =
      RemoveRedundant(Space::kTransformed, 2, cons, nullptr);
  EXPECT_EQ(kept.size(), 1u);
}

TEST(Redundancy, SpaceBoundsMakeEverythingRedundant) {
  // w0 < 2 can never bind inside the simplex.
  std::vector<LinIneq> cons = {Ineq({1, 0}, 2.0)};
  EXPECT_TRUE(RemoveRedundant(Space::kTransformed, 2, cons, nullptr).empty());
}

// The prefix-snapshot RemoveRedundant against the per-skip Reset oracle
// (reference_remove_redundant.h): the same kept rows, bit for bit, and the
// same finalize LP count.
bool SameBits(double x, double y) {
  return std::memcmp(&x, &y, sizeof(double)) == 0;
}

void ExpectSameAsOracle(Space space, int dim,
                        const std::vector<LinIneq>& cons,
                        const std::string& label) {
  KsprStats got_stats;
  KsprStats want_stats;
  const std::vector<LinIneq> got = RemoveRedundant(space, dim, cons,
                                                   &got_stats);
  const std::vector<LinIneq> want =
      reference::RemoveRedundantPerSkip(space, dim, cons, &want_stats);
  EXPECT_EQ(got_stats.finalize_lps, want_stats.finalize_lps) << label;
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].a.dim, want[i].a.dim) << label << " row " << i;
    for (int j = 0; j < got[i].a.dim; ++j) {
      EXPECT_TRUE(SameBits(got[i].a.v[j], want[i].a.v[j]))
          << label << " row " << i << " coefficient " << j;
    }
    EXPECT_TRUE(SameBits(got[i].b, want[i].b)) << label << " row " << i;
  }
}

// A random constraint set around an interior point, salted with the inputs
// redundancy elimination must get right: zero-norm rows, exact duplicates,
// 1-ulp near-duplicates and rows no point of the space can violate.
std::vector<LinIneq> RandomRedundancyCase(int dim, Rng* rng) {
  Vec centre(dim);
  for (int j = 0; j < dim; ++j) centre.v[j] = rng->Uniform(0.05, 0.9 / dim);
  const int m = 3 + static_cast<int>(rng->UniformInt(12));
  std::vector<LinIneq> cons;
  for (int i = 0; i < m; ++i) {
    const uint64_t kind = cons.empty() ? 0 : rng->UniformInt(6);
    LinIneq c;
    c.a = Vec(dim);
    if (kind == 1) {
      c.b = rng->Uniform() < 0.8 ? 0.5 : -0.25;  // zero-norm row
    } else if (kind == 2) {
      c = cons[rng->UniformInt(cons.size())];  // exact duplicate
    } else if (kind == 3) {
      c = cons[rng->UniformInt(cons.size())];  // 1-ulp near-duplicate
      if (rng->Uniform() < 0.5) {
        c.b = std::nextafter(c.b, rng->Uniform() < 0.5 ? 10.0 : -10.0);
      } else {
        const int j = static_cast<int>(rng->UniformInt(dim));
        c.a.v[j] = std::nextafter(c.a.v[j], 10.0);
      }
    } else if (kind == 4) {
      c.b = 1.0;  // never binds inside the unit box
      for (int j = 0; j < dim; ++j) {
        c.a.v[j] = rng->Uniform(-1, 1);
        c.b += std::abs(c.a.v[j]);
      }
    } else {
      for (int j = 0; j < dim; ++j) c.a.v[j] = rng->Uniform(-1, 1);
      c.b = c.a.Dot(centre) + rng->Uniform(0.0, 0.2);
    }
    cons.push_back(c);
  }
  return cons;
}

TEST(Redundancy, PrefixSnapshotMatchesPerSkipOracle) {
  for (Space space : {Space::kTransformed, Space::kOriginal}) {
    for (int dim = 2; dim <= 5; ++dim) {
      Rng rng(1000 * dim + (space == Space::kOriginal ? 7 : 0));
      for (int trial = 0; trial < 60; ++trial) {
        ExpectSameAsOracle(space, dim, RandomRedundancyCase(dim, &rng),
                           "space " + std::to_string(static_cast<int>(space)) +
                               " dim " + std::to_string(dim) + " trial " +
                               std::to_string(trial));
      }
    }
  }
}

TEST(Redundancy, AllRedundantCellMatchesOracle) {
  for (Space space : {Space::kTransformed, Space::kOriginal}) {
    std::vector<LinIneq> cons = {Ineq({1, 0, 0}, 3.0), Ineq({0, 1, 0}, 2.0),
                                 Ineq({1, 1, 1}, 5.0), Ineq({1, 0, 0}, 3.0)};
    EXPECT_TRUE(RemoveRedundant(space, 3, cons, nullptr).empty());
    ExpectSameAsOracle(space, 3, cons, "all redundant");
  }
}

// Row 0 is kept (the other rows allow w0 up to 0.8) but no point of the
// closed simplex satisfies w0 <= -0.5, so its prefix append is not optimal
// (the dual simplex reports infeasible) and every later test runs cold.
TEST(Redundancy, NonOptimalPrefixAppendMatchesOracle) {
  const std::vector<LinIneq> cons = {Ineq({1, 0}, -0.5), Ineq({0, 1}, 0.5),
                                     Ineq({1, 1}, 0.8), Ineq({0, 1}, 0.9)};
  ExpectSameAsOracle(Space::kTransformed, 2, cons, "cold prefix");

  CellBoundSolver prefix;
  prefix.BeginPrefix(Space::kTransformed, 2);
  prefix.ExtendPrefix(cons[0]);
  prefix.ResetFromPrefix(cons.data() + 1, 3);
  CellBoundSolver reset;
  reset.Reset(Space::kTransformed, 2, cons.data(), 4);
  KsprStats prefix_stats;
  KsprStats reset_stats;
  const BoundResult a = prefix.Maximize(Vec{0, 1}, 0.0, &prefix_stats);
  const BoundResult b = reset.Maximize(Vec{0, 1}, 0.0, &reset_stats);
  EXPECT_EQ(prefix_stats.lp_cold_starts, 1);
  EXPECT_EQ(prefix_stats.lp_warm_starts, 0);
  EXPECT_EQ(reset_stats.lp_cold_starts, 1);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_TRUE(SameBits(a.value, b.value));
}

TEST(StrictlyInside, RespectsConstraintsAndSpace) {
  std::vector<LinIneq> cons = {Ineq({1, 0}, 0.5)};
  EXPECT_TRUE(
      StrictlyInside(Space::kTransformed, 2, cons, Vec{0.2, 0.3}, 1e-9));
  EXPECT_FALSE(
      StrictlyInside(Space::kTransformed, 2, cons, Vec{0.6, 0.3}, 1e-9));
  EXPECT_FALSE(
      StrictlyInside(Space::kTransformed, 2, cons, Vec{0.4, 0.7}, 1e-9));
}

// --------------------------------------------------------------------------
// Volumes.

TEST(Volume, SpaceVolumes) {
  EXPECT_NEAR(SpaceVolume(Space::kTransformed, 1), 1.0, 1e-12);
  EXPECT_NEAR(SpaceVolume(Space::kTransformed, 2), 0.5, 1e-12);
  EXPECT_NEAR(SpaceVolume(Space::kTransformed, 3), 1.0 / 6, 1e-12);
  EXPECT_NEAR(SpaceVolume(Space::kOriginal, 4), 1.0, 1e-12);
}

TEST(Volume, PolygonArea) {
  std::vector<Vec> square = {Vec{0, 0}, Vec{1, 0}, Vec{1, 1}, Vec{0, 1}};
  EXPECT_NEAR(ConvexPolygonArea(square), 1.0, 1e-12);
  std::vector<Vec> tri = {Vec{0, 0}, Vec{1, 0}, Vec{0, 1}};
  EXPECT_NEAR(ConvexPolygonArea(tri), 0.5, 1e-12);
}

TEST(Volume, Interval1D) {
  std::vector<LinIneq> cons = {Ineq({1}, 0.75), Ineq({-1}, -0.25)};
  EXPECT_NEAR(PolytopeVolume(Space::kTransformed, 1, cons), 0.5, 1e-12);
}

TEST(Volume, EmptyInterval1D) {
  std::vector<LinIneq> cons = {Ineq({1}, 0.25), Ineq({-1}, -0.75)};
  EXPECT_NEAR(PolytopeVolume(Space::kTransformed, 1, cons), 0.0, 1e-12);
}

TEST(Volume, FullSimplex2D) {
  EXPECT_NEAR(PolytopeVolume(Space::kTransformed, 2, {}), 0.5, 1e-9);
}

TEST(Volume, MonteCarlo3DHalfCube) {
  // Original space, cut the cube at w0 < 0.5: volume 0.5.
  std::vector<LinIneq> cons = {Ineq({1, 0, 0}, 0.5)};
  const double v = PolytopeVolume(Space::kOriginal, 3, cons, 40000);
  EXPECT_NEAR(v, 0.5, 0.02);
}

TEST(Volume, SimplexSamplerStaysInSimplex) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    Vec w = SampleSpacePoint(Space::kTransformed, 3, &rng);
    double sum = 0.0;
    for (int j = 0; j < 3; ++j) {
      EXPECT_GT(w[j], 0.0);
      sum += w[j];
    }
    EXPECT_LT(sum, 1.0);
  }
}

TEST(Volume, NegLogClampedFloorsDegenerateDraws) {
  ResetVolumeSampleClamps();
  // Normal draws are untouched and not counted.
  EXPECT_DOUBLE_EQ(NegLogClamped(1.0), 0.0);
  EXPECT_DOUBLE_EQ(NegLogClamped(0.5), -std::log(0.5));
  EXPECT_EQ(VolumeSampleClamps(), 0);
  // A zero draw (possible: Uniform() is [0, 1)) would be -log(0) = inf;
  // the documented floor keeps it finite and counts the clamp.
  const double v = NegLogClamped(0.0);
  EXPECT_TRUE(std::isfinite(v));
  EXPECT_DOUBLE_EQ(v, -std::log(tol::kMinLogSample));
  EXPECT_EQ(VolumeSampleClamps(), 1);
  NegLogClamped(1e-305);  // below the floor: clamped too
  EXPECT_EQ(VolumeSampleClamps(), 2);
  ResetVolumeSampleClamps();
  EXPECT_EQ(VolumeSampleClamps(), 0);
}

TEST(Volume, DegeneratePolytopesHaveZeroVolume) {
  // 1-D: contradictory halfspaces leave an empty interval.
  std::vector<LinIneq> cons1 = {Ineq({1}, 0.25), Ineq({-1}, -0.75)};
  EXPECT_NEAR(PolytopeVolume(Space::kTransformed, 1, cons1), 0.0, 1e-12);
  // 1-D: an infeasible constant constraint (a = 0, b < 0).
  EXPECT_NEAR(PolytopeVolume(Space::kTransformed, 1, {Ineq({0}, -1.0)}), 0.0,
              1e-12);
  // 3-D Monte-Carlo: the empty slab w0 < 0.2 AND w0 > 0.8.
  std::vector<LinIneq> cons3 = {Ineq({1, 0, 0}, 0.2), Ineq({-1, 0, 0}, -0.8)};
  EXPECT_NEAR(PolytopeVolume(Space::kOriginal, 3, cons3, 5000), 0.0, 1e-12);
  // 3-D Monte-Carlo: a measure-zero slice (hyperplane-thin polytope).
  std::vector<LinIneq> thin = {Ineq({1, 0, 0}, 0.5), Ineq({-1, 0, 0}, -0.5)};
  EXPECT_NEAR(PolytopeVolume(Space::kOriginal, 3, thin, 5000), 0.0, 1e-12);
}

}  // namespace
}  // namespace kspr
