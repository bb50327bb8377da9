#include "geom/polytope.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/types.h"

namespace kspr {

namespace {

// Fixed-size square system for SolveInPlace: row i of A is a[i][0..dim).
struct System {
  double a[kMaxDim][kMaxDim];
  double rhs[kMaxDim];
};

// Gaussian elimination with partial pivoting on `sys` (overwritten);
// writes x[0..dim). Returns false when (numerically) singular.
bool SolveInPlace(int dim, System* sys, double* x) {
  auto& a = sys->a;
  double* rhs = sys->rhs;
  for (int col = 0; col < dim; ++col) {
    int piv = col;
    double best = std::abs(a[col][col]);
    for (int i = col + 1; i < dim; ++i) {
      const double v = std::abs(a[i][col]);
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    if (best < 1e-10) return false;
    std::swap(a[col], a[piv]);
    std::swap(rhs[col], rhs[piv]);
    const double inv = 1.0 / a[col][col];
    for (int i = col + 1; i < dim; ++i) {
      const double f = a[i][col] * inv;
      if (f == 0.0) continue;
      for (int j = col; j < dim; ++j) a[i][j] -= f * a[col][j];
      rhs[i] -= f * rhs[col];
    }
  }
  for (int i = dim - 1; i >= 0; --i) {
    double s = rhs[i];
    for (int j = i + 1; j < dim; ++j) s -= a[i][j] * x[j];
    x[i] = s / a[i][i];
  }
  return true;
}

}  // namespace

bool SolveLinearSystem(int dim, std::vector<Vec> rows, Vec rhs, Vec* out) {
  assert(static_cast<int>(rows.size()) == dim);
  System sys{};
  for (int i = 0; i < dim; ++i) {
    for (int j = 0; j < dim; ++j) sys.a[i][j] = rows[i][j];
    sys.rhs[i] = rhs[i];
  }
  Vec x(dim);
  if (!SolveInPlace(dim, &sys, x.v.data())) return false;
  *out = x;
  return true;
}

std::vector<LinIneq> RemoveRedundant(Space space, int dim,
                                     const std::vector<LinIneq>& cons,
                                     KsprStats* stats) {
  std::vector<LinIneq> kept = cons;
  // Test each constraint against the others (plus space bounds); remove
  // as we go so duplicated constraints don't mask each other. Every test
  // at index i sees the kept rows 0..i-1 first, so the solver keeps their
  // tableau as a prefix snapshot: test i copies it and appends only rows
  // i+1.., and a kept row extends the prefix by one append.
  thread_local CellBoundSolver solver;
  solver.BeginPrefix(space, dim);
  for (size_t i = 0; i < kept.size();) {
    if (stats != nullptr) ++stats->finalize_lps;
    solver.ResetFromPrefix(kept.data() + i + 1,
                           static_cast<int>(kept.size() - i - 1));
    BoundResult r = solver.Maximize(kept[i].a, 0.0, /*stats=*/nullptr);
    if (r.ok && r.value <= kept[i].b + tol::kGeom) {
      kept.erase(kept.begin() + static_cast<long>(i));
    } else {
      solver.ExtendPrefix(kept[i]);
      ++i;
    }
  }
  return kept;
}

namespace {

// Appends the closed space-boundary constraints.
std::vector<LinIneq> WithSpaceBounds(Space space, int dim,
                                     const std::vector<LinIneq>& cons) {
  std::vector<LinIneq> all = cons;
  AppendSpaceBounds(space, dim, &all);
  return all;
}

bool SatisfiesAll(const std::vector<LinIneq>& cons, const Vec& w, double eps) {
  for (const LinIneq& c : cons) {
    if (c.Margin(w) < -eps) return false;
  }
  return true;
}

}  // namespace

std::vector<Vec> EnumerateVertices(Space space, int dim,
                                   const std::vector<LinIneq>& cons,
                                   long max_combinations) {
  std::vector<LinIneq> all = WithSpaceBounds(space, dim, cons);
  const int m = static_cast<int>(all.size());
  if (m < dim) return {};

  // Guard against C(m, dim) blow-up.
  long combos = 1;
  for (int i = 0; i < dim; ++i) {
    combos = combos * (m - i) / (i + 1);
    if (combos > max_combinations) return {};
  }

  std::vector<Vec> vertices;
  std::vector<int> idx(dim);
  for (int i = 0; i < dim; ++i) idx[i] = i;

  System sys{};
  auto process = [&]() {
    for (int i = 0; i < dim; ++i) {
      const LinIneq& c = all[idx[i]];
      for (int j = 0; j < dim; ++j) sys.a[i][j] = c.a.v[j];
      sys.rhs[i] = c.b;
    }
    Vec x(dim);
    if (!SolveInPlace(dim, &sys, x.v.data())) return;
    if (!SatisfiesAll(all, x, tol::kGeom)) return;
    for (const Vec& v : vertices) {
      if (Distance(v, x) < tol::kGeom * 10) return;  // duplicate
    }
    vertices.push_back(x);
  };

  // Iterate over all dim-subsets of the m constraints.
  while (true) {
    process();
    int i = dim - 1;
    while (i >= 0 && idx[i] == m - dim + i) --i;
    if (i < 0) break;
    ++idx[i];
    for (int j = i + 1; j < dim; ++j) idx[j] = idx[j - 1] + 1;
  }
  return vertices;
}

bool StrictlyInside(Space space, int dim, const std::vector<LinIneq>& cons,
                    const Vec& w, double eps) {
  std::vector<LinIneq> all = WithSpaceBounds(space, dim, cons);
  for (const LinIneq& c : all) {
    if (c.Margin(w) <= eps) return false;
  }
  return true;
}

}  // namespace kspr
