// MergedSkyband against the from-scratch reduction it replaces.
//
// The router keeps the union U of shard k-skybands as a MergedSkyband and
// toggles records into and out of it as update batches move the local
// skybands (core/candidates.h). Seeded random enter/leave sequences check
// it step by step against ReduceToGlobalSkyband of the same union: the
// kept global skyband must equal the from-scratch one, and Apply must
// return exactly the records whose membership flipped. The record pools
// draw from a coarse grid, so ties on some attributes are common, and
// carry exact duplicate rows, which do not dominate each other.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <vector>

#include "common/rng.h"
#include "core/candidates.h"

namespace kspr {
namespace {

std::vector<RecordId> Ids(const std::vector<Candidate>& candidates) {
  std::vector<RecordId> ids;
  for (const Candidate& c : candidates) ids.push_back(c.global_id);
  return ids;
}

/// ReduceToGlobalSkyband + SortCandidates over the ids in `members`.
std::vector<RecordId> FromScratch(const std::vector<Candidate>& pool,
                                  const std::set<RecordId>& members, int k) {
  std::vector<Candidate> u;
  for (RecordId id : members) u.push_back(pool[id]);
  ReduceToGlobalSkyband(&u, k);
  SortCandidates(&u);
  return Ids(u);
}

/// `pool` rows in an order scrambled by `rng` (the band takes any order).
std::vector<Candidate> Shuffled(const std::vector<Candidate>& pool,
                                const std::set<RecordId>& members, Rng* rng) {
  std::vector<Candidate> out;
  for (RecordId id : members) out.push_back(pool[id]);
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng->UniformInt(i)]);
  }
  return out;
}

/// Records on a 5-level grid per attribute; about one row in six repeats
/// an earlier row exactly.
std::vector<Candidate> MakePool(int d, int n, Rng* rng) {
  std::vector<Candidate> pool;
  for (RecordId id = 0; id < n; ++id) {
    Vec v(d);
    if (id > 0 && rng->UniformInt(6) == 0) {
      v = pool[rng->UniformInt(static_cast<uint64_t>(id))].value;
    } else {
      for (int j = 0; j < d; ++j) {
        v.v[j] = static_cast<double>(rng->UniformInt(5)) / 4.0;
      }
    }
    pool.push_back({id, v});
  }
  return pool;
}

TEST(MergedSkybandTest, MatchesFromScratchReductionUnderRandomToggles) {
  constexpr int kPool = 40;
  constexpr int kSteps = 60;
  for (int d = 2; d <= 5; ++d) {
    for (int k = 1; k <= 5; ++k) {
      for (uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(testing::Message()
                     << "d=" << d << " k=" << k << " seed=" << seed);
        Rng rng(seed * 1000 + static_cast<uint64_t>(d * 10 + k));
        const std::vector<Candidate> pool = MakePool(d, kPool, &rng);

        std::set<RecordId> members;
        for (RecordId id = 0; id < kPool; ++id) {
          if (rng.UniformInt(2) == 0) members.insert(id);
        }
        MergedSkyband band(k);
        band.Assign(Shuffled(pool, members, &rng));
        ASSERT_EQ(Ids(band.GlobalSkyband()), FromScratch(pool, members, k));

        for (int step = 0; step < kSteps; ++step) {
          // Toggle one to four distinct records; every 15th step empties
          // the union instead, down to deleting its last member.
          std::set<RecordId> toggled;
          if (step % 15 == 14) {
            toggled = members;
          } else {
            const uint64_t count = 1 + rng.UniformInt(4);
            while (toggled.size() < count) {
              toggled.insert(static_cast<RecordId>(rng.UniformInt(kPool)));
            }
          }
          std::vector<Candidate> changed;
          for (RecordId id : toggled) changed.push_back(pool[id]);
          for (size_t i = changed.size(); i > 1; --i) {
            std::swap(changed[i - 1], changed[rng.UniformInt(i)]);
          }

          const std::vector<RecordId> before = FromScratch(pool, members, k);
          for (RecordId id : toggled) {
            if (!members.erase(id)) members.insert(id);
          }
          const std::vector<RecordId> after = FromScratch(pool, members, k);
          std::vector<RecordId> flipped;
          std::set_symmetric_difference(before.begin(), before.end(),
                                        after.begin(), after.end(),
                                        std::back_inserter(flipped));

          const std::vector<Candidate> diff = band.Apply(changed);
          ASSERT_EQ(Ids(diff), flipped) << "step " << step;
          for (const Candidate& c : diff) {
            EXPECT_EQ(c.value, pool[c.global_id].value);
          }
          ASSERT_EQ(Ids(band.GlobalSkyband()), after) << "step " << step;
          ASSERT_EQ(band.size(), members.size());
          EXPECT_TRUE(band.SameMembers(Shuffled(pool, members, &rng)));
        }
      }
    }
  }
}

TEST(MergedSkybandTest, SameMembersComparesIdSets) {
  Rng rng(7);
  const std::vector<Candidate> pool = MakePool(3, 10, &rng);
  const std::set<RecordId> members = {1, 3, 4, 8};
  MergedSkyband band(2);
  band.Assign(Shuffled(pool, members, &rng));
  EXPECT_TRUE(band.SameMembers(Shuffled(pool, members, &rng)));
  EXPECT_FALSE(band.SameMembers(Shuffled(pool, {1, 3, 4}, &rng)));
  EXPECT_FALSE(band.SameMembers(Shuffled(pool, {1, 3, 4, 8, 9}, &rng)));
  EXPECT_FALSE(band.SameMembers(Shuffled(pool, {1, 3, 4, 9}, &rng)));

  MergedSkyband empty(2);
  EXPECT_TRUE(empty.SameMembers({}));
  EXPECT_TRUE(empty.GlobalSkyband().empty());
}

TEST(MergedSkybandTest, DuplicateRowsDoNotDominateEachOther) {
  // k copies of one row: none dominates another, so all stay in the
  // k-skyband; a strictly better row then pushes each copy to one
  // dominator, which takes them out at k = 1 only.
  const Vec row{0.5, 0.5, 0.5};
  std::vector<Candidate> copies;
  for (RecordId id = 0; id < 3; ++id) copies.push_back({id, row});
  for (int k = 1; k <= 2; ++k) {
    MergedSkyband band(k);
    band.Assign(copies);
    EXPECT_EQ(Ids(band.GlobalSkyband()), (std::vector<RecordId>{0, 1, 2}));
    const Candidate better{3, Vec{0.6, 0.5, 0.5}};
    const std::vector<Candidate> diff = band.Apply({better});
    if (k == 1) {
      EXPECT_EQ(Ids(diff), (std::vector<RecordId>{0, 1, 2, 3}));
      EXPECT_EQ(Ids(band.GlobalSkyband()), (std::vector<RecordId>{3}));
    } else {
      EXPECT_EQ(Ids(diff), (std::vector<RecordId>{3}));
      EXPECT_EQ(Ids(band.GlobalSkyband()),
                (std::vector<RecordId>{0, 1, 2, 3}));
    }
  }
}

}  // namespace
}  // namespace kspr
