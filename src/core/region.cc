#include "core/region.h"

#include "geom/polytope.h"
#include "geom/volume.h"

namespace kspr {

bool Region::Contains(const Vec& w, double eps) const {
  return StrictlyInside(space, dim, constraints, w, eps);
}

double KsprResult::TotalVolume() const {
  double v = 0.0;
  for (const Region& r : regions) {
    if (r.volume >= 0) v += r.volume;
  }
  return v;
}

double KsprResult::TopKProbability() const {
  if (regions.empty()) return 0.0;
  return TotalVolume() / SpaceVolume(regions[0].space, regions[0].dim);
}

bool RegionsBitwiseEqual(const Region& ra, const Region& rb) {
  if (ra.space != rb.space || ra.dim != rb.dim) return false;
  if (ra.rank_lb != rb.rank_lb || ra.rank_ub != rb.rank_ub) return false;
  if (!(ra.witness == rb.witness)) return false;
  if (ra.volume != rb.volume) return false;
  if (ra.constraints.size() != rb.constraints.size()) return false;
  for (size_t c = 0; c < ra.constraints.size(); ++c) {
    if (ra.constraints[c].b != rb.constraints[c].b) return false;
    if (!(ra.constraints[c].a == rb.constraints[c].a)) return false;
  }
  if (ra.vertices.size() != rb.vertices.size()) return false;
  for (size_t v = 0; v < ra.vertices.size(); ++v) {
    if (!(ra.vertices[v] == rb.vertices[v])) return false;
  }
  return true;
}

bool StatsBitwiseEqual(const KsprStats& sa, const KsprStats& sb) {
#define KSPR_STATS_EQ(name) && sa.name == sb.name
  return true KSPR_STATS_COUNTERS(KSPR_STATS_EQ);
#undef KSPR_STATS_EQ
}

bool ResultsBitwiseEqual(const KsprResult& a, const KsprResult& b) {
  if (a.regions.size() != b.regions.size()) return false;
  for (size_t i = 0; i < a.regions.size(); ++i) {
    if (!RegionsBitwiseEqual(a.regions[i], b.regions[i])) return false;
  }
  return StatsBitwiseEqual(a.stats, b.stats);
}

ResultDiff DiffResults(const KsprResult& before, const KsprResult& after) {
  ResultDiff diff;
  const size_t nb = before.regions.size();
  const size_t na = after.regions.size();
  size_t prefix = 0;
  while (prefix < nb && prefix < na &&
         RegionsBitwiseEqual(before.regions[prefix], after.regions[prefix])) {
    ++prefix;
  }
  size_t suffix = 0;
  while (suffix < nb - prefix && suffix < na - prefix &&
         RegionsBitwiseEqual(before.regions[nb - 1 - suffix],
                             after.regions[na - 1 - suffix])) {
    ++suffix;
  }
  diff.splice_begin = prefix;
  diff.regions_removed = nb - prefix - suffix;
  diff.regions_added.assign(after.regions.begin() + prefix,
                            after.regions.end() - suffix);
  diff.stats_changed = !StatsBitwiseEqual(before.stats, after.stats);
  if (diff.stats_changed) diff.stats = after.stats;
  return diff;
}

void ApplyResultDiff(const ResultDiff& diff, KsprResult* result) {
  auto first = result->regions.begin() + diff.splice_begin;
  result->regions.erase(first, first + diff.regions_removed);
  result->regions.insert(result->regions.begin() + diff.splice_begin,
                         diff.regions_added.begin(), diff.regions_added.end());
  if (diff.stats_changed) result->stats = diff.stats;
}

void FinalizeRegion(Region* region, bool compute_volume, int volume_samples,
                    KsprStats* stats) {
  region->constraints =
      RemoveRedundant(region->space, region->dim, region->constraints, stats);
  region->vertices =
      EnumerateVertices(region->space, region->dim, region->constraints);
  if (compute_volume) {
    region->volume = PolytopeVolume(region->space, region->dim,
                                    region->constraints, volume_samples);
  }
}

}  // namespace kspr
