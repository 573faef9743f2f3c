#include "hint/hint.h"

#include <algorithm>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "hint/cost_model.h"

namespace irhint {
namespace {

std::vector<ObjectId> BruteForce(const std::vector<IntervalRecord>& records,
                                 const Interval& q) {
  std::vector<ObjectId> out;
  for (const IntervalRecord& rec : records) {
    if (Overlaps(rec.interval, q)) out.push_back(rec.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<IntervalRecord> RandomRecords(size_t n, Time domain_end,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<IntervalRecord> records;
  records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Time st = rng.Uniform(domain_end + 1);
    // Mix of short and long intervals.
    const Time max_len = rng.NextBool(0.2) ? domain_end / 2 + 1 : 20;
    const Time end = std::min<Time>(domain_end, st + rng.Uniform(max_len));
    records.push_back(IntervalRecord{static_cast<ObjectId>(i),
                                     Interval(st, end)});
  }
  return records;
}

std::vector<ObjectId> Sorted(std::vector<ObjectId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

// gtest names each case after the bytes of its HintParam (the struct has
// no printer), so the struct must have no padding: padding bytes are
// uninitialized and would give the cases different names from one build
// to the next. Hence the flag is an int, not a bool.
struct HintParam {
  int m;
  HintSortMode sort;
  int storage_opt;  // 0 or 1
};
static_assert(std::has_unique_object_representations_v<HintParam>,
              "padding would put uninitialized bytes into the test names");

class HintRandomizedTest : public ::testing::TestWithParam<HintParam> {};

TEST_P(HintRandomizedTest, MatchesBruteForce) {
  const HintParam param = GetParam();
  const Time domain_end = 997;  // non-power-of-two domain
  const auto records = RandomRecords(400, domain_end, 101 + param.m);

  HintOptions options;
  options.num_bits = param.m;
  options.sort_mode = param.sort;
  options.storage_optimization = param.storage_opt != 0;
  HintIndex hint;
  ASSERT_TRUE(hint.Build(records, domain_end, options).ok());

  Rng rng(55);
  std::vector<ObjectId> out;
  for (int i = 0; i < 500; ++i) {
    const Time st = rng.Uniform(domain_end + 1);
    const Time end = std::min<Time>(domain_end, st + rng.Uniform(200));
    const Interval q(st, end);
    out.clear();
    hint.RangeQuery(q, &out);
    EXPECT_EQ(Sorted(out), BruteForce(records, q)) << "q=[" << st << "," << end
                                                   << "] m=" << param.m;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, HintRandomizedTest,
    ::testing::Values(HintParam{0, HintSortMode::kBeneficial, 0},
                      HintParam{1, HintSortMode::kBeneficial, 0},
                      HintParam{3, HintSortMode::kBeneficial, 0},
                      HintParam{5, HintSortMode::kBeneficial, 0},
                      HintParam{8, HintSortMode::kBeneficial, 0},
                      HintParam{10, HintSortMode::kBeneficial, 0},
                      HintParam{5, HintSortMode::kNone, 0},
                      HintParam{5, HintSortMode::kById, 0},
                      HintParam{5, HintSortMode::kBeneficial, 1},
                      HintParam{8, HintSortMode::kById, 1}));

TEST(HintTest, EmptyIndex) {
  HintIndex hint;
  ASSERT_TRUE(hint.Build({}, 100, HintOptions{}).ok());
  std::vector<ObjectId> out;
  hint.RangeQuery(Interval(0, 100), &out);
  EXPECT_TRUE(out.empty());
}

TEST(HintTest, QueryBeyondDomainIsEmpty) {
  HintIndex hint;
  const std::vector<IntervalRecord> records{{1, Interval(10, 20)}};
  ASSERT_TRUE(hint.Build(records, 100, HintOptions{}).ok());
  std::vector<ObjectId> out;
  hint.RangeQuery(Interval(101, 200), &out);
  EXPECT_TRUE(out.empty());
  // Query overlapping the domain end still works.
  hint.RangeQuery(Interval(15, 400), &out);
  EXPECT_EQ(out, std::vector<ObjectId>{1});
}

TEST(HintTest, StabbingQueries) {
  const Time domain_end = 499;
  const auto records = RandomRecords(200, domain_end, 77);
  HintIndex hint;
  HintOptions options;
  options.num_bits = 6;
  ASSERT_TRUE(hint.Build(records, domain_end, options).ok());
  std::vector<ObjectId> out;
  for (Time t = 0; t <= domain_end; t += 7) {
    out.clear();
    hint.RangeQuery(Interval(t, t), &out);
    EXPECT_EQ(Sorted(out), BruteForce(records, Interval(t, t))) << t;
  }
}

TEST(HintTest, InsertMatchesBulkBuild) {
  const Time domain_end = 800;
  const auto records = RandomRecords(300, domain_end, 88);

  HintOptions options;
  options.num_bits = 6;
  HintIndex bulk, incremental;
  ASSERT_TRUE(bulk.Build(records, domain_end, options).ok());
  ASSERT_TRUE(incremental.Build({}, domain_end, options).ok());
  for (const IntervalRecord& rec : records) {
    ASSERT_TRUE(incremental.Insert(rec.id, rec.interval).ok());
  }

  Rng rng(99);
  std::vector<ObjectId> a, b;
  for (int i = 0; i < 200; ++i) {
    const Time st = rng.Uniform(domain_end + 1);
    const Time end = std::min<Time>(domain_end, st + rng.Uniform(100));
    a.clear();
    b.clear();
    bulk.RangeQuery(Interval(st, end), &a);
    incremental.RangeQuery(Interval(st, end), &b);
    EXPECT_EQ(Sorted(a), Sorted(b));
  }
}

TEST(HintTest, InsertBeyondDomainGoesToOverflow) {
  HintIndex hint;
  ASSERT_TRUE(hint.Build({}, 100, HintOptions{}).ok());
  EXPECT_TRUE(hint.Insert(1, Interval(50, 150)).ok());
  EXPECT_EQ(hint.NumOverflow(), 1u);
  EXPECT_TRUE(hint.Insert(1, Interval(80, 20)).IsInvalidArgument());
}

TEST(HintTest, EraseTombstonesAllReplicas) {
  const Time domain_end = 255;
  HintOptions options;
  options.num_bits = 4;
  HintIndex hint;
  // A long interval with many replicas plus a short one.
  std::vector<IntervalRecord> records{{1, Interval(10, 200)},
                                      {2, Interval(50, 60)}};
  ASSERT_TRUE(hint.Build(records, domain_end, options).ok());

  std::vector<ObjectId> out;
  hint.RangeQuery(Interval(0, 255), &out);
  EXPECT_EQ(Sorted(out), (std::vector<ObjectId>{1, 2}));

  ASSERT_TRUE(hint.Erase(1, Interval(10, 200)).ok());
  for (Time t = 0; t <= 255; t += 5) {
    out.clear();
    hint.RangeQuery(Interval(t, t), &out);
    for (ObjectId id : out) EXPECT_NE(id, 1u) << "stab " << t;
  }
  // Erasing again reports NotFound.
  EXPECT_TRUE(hint.Erase(1, Interval(10, 200)).IsNotFound());
}

TEST(HintTest, EraseThenQueryMatchesBruteForce) {
  const Time domain_end = 600;
  auto records = RandomRecords(250, domain_end, 111);
  HintOptions options;
  options.num_bits = 6;
  HintIndex hint;
  ASSERT_TRUE(hint.Build(records, domain_end, options).ok());

  // Erase every third record.
  std::vector<IntervalRecord> remaining;
  for (size_t i = 0; i < records.size(); ++i) {
    if (i % 3 == 0) {
      ASSERT_TRUE(hint.Erase(records[i].id, records[i].interval).ok());
    } else {
      remaining.push_back(records[i]);
    }
  }
  Rng rng(13);
  std::vector<ObjectId> out;
  for (int i = 0; i < 200; ++i) {
    const Time st = rng.Uniform(domain_end + 1);
    const Time end = std::min<Time>(domain_end, st + rng.Uniform(150));
    out.clear();
    hint.RangeQuery(Interval(st, end), &out);
    EXPECT_EQ(Sorted(out), BruteForce(remaining, Interval(st, end)));
  }
  EXPECT_GT(hint.NumTombstones(), 0u);
}

TEST(HintTest, RangeQueryFilteredKeepsOnlyCandidates) {
  const Time domain_end = 500;
  const auto records = RandomRecords(200, domain_end, 131);
  HintOptions options;
  options.num_bits = 5;
  HintIndex hint;
  ASSERT_TRUE(hint.Build(records, domain_end, options).ok());

  const std::vector<ObjectId> candidates{3, 50, 77, 120, 199};
  Rng rng(7);
  std::vector<ObjectId> filtered;
  for (int i = 0; i < 100; ++i) {
    const Time st = rng.Uniform(domain_end + 1);
    const Time end = std::min<Time>(domain_end, st + rng.Uniform(200));
    filtered.clear();
    hint.RangeQueryFiltered(Interval(st, end), candidates, &filtered);
    std::vector<ObjectId> expected;
    for (ObjectId id : BruteForce(records, Interval(st, end))) {
      if (std::binary_search(candidates.begin(), candidates.end(), id)) {
        expected.push_back(id);
      }
    }
    EXPECT_EQ(Sorted(filtered), expected);
  }
}

TEST(HintTest, IntersectRelevantEqualsFilteredResults) {
  const Time domain_end = 500;
  const auto records = RandomRecords(300, domain_end, 151);
  HintOptions options;
  options.num_bits = 5;
  options.sort_mode = HintSortMode::kById;
  HintIndex hint;
  ASSERT_TRUE(hint.Build(records, domain_end, options).ok());

  Rng rng(17);
  std::vector<ObjectId> out;
  for (int i = 0; i < 100; ++i) {
    const Time st = rng.Uniform(domain_end + 1);
    const Time end = std::min<Time>(domain_end, st + rng.Uniform(200));
    const Interval q(st, end);
    // Candidates: a random subset of ids that overlap q (plus noise ids
    // that do not overlap — those must never be reported because they are
    // never stored in a relevant division... they are, however, not
    // temporally qualifying, so Algorithm 4's contract excludes them).
    std::vector<ObjectId> candidates;
    for (ObjectId id : BruteForce(records, q)) {
      if (rng.NextBool(0.5)) candidates.push_back(id);
    }
    out.clear();
    hint.IntersectRelevant(q, candidates, &out);
    EXPECT_EQ(Sorted(out), candidates);
  }
}

TEST(CostModelTest, PicksReasonableM) {
  const Time domain_end = 1 << 20;
  const auto records = RandomRecords(5000, domain_end, 171);
  CostModelOptions options;
  const int m = ChooseHintBits(records, domain_end, options);
  EXPECT_GE(m, options.min_bits);
  EXPECT_LE(m, options.max_bits);
}

TEST(CostModelTest, CostIsPositiveAndFiniteAcrossM) {
  const Time domain_end = 100000;
  const auto records = RandomRecords(2000, domain_end, 181);
  for (int m = 1; m <= 15; ++m) {
    const double cost =
        EstimateHintQueryCost(records, domain_end, m, CostModelOptions{});
    EXPECT_GT(cost, 0.0);
    EXPECT_TRUE(std::isfinite(cost));
  }
}

TEST(HintTest, MemoryUsageGrowsWithData) {
  HintOptions options;
  options.num_bits = 6;
  HintIndex small, large;
  ASSERT_TRUE(small.Build(RandomRecords(100, 999, 1), 999, options).ok());
  ASSERT_TRUE(large.Build(RandomRecords(10000, 999, 2), 999, options).ok());
  EXPECT_GT(large.MemoryUsageBytes(), small.MemoryUsageBytes());
  EXPECT_GT(large.NumEntries(), large.NumEntries() == 0 ? 0u : 9999u);
}

TEST(HintTest, StatsReflectStructure) {
  HintOptions options;
  options.num_bits = 3;
  HintIndex hint;
  // Interval spanning cells [1,4] of Figure 4: P3,1 original; P2,1 and
  // P3,4 replicas (domain 0..7 so cells == raw times).
  const std::vector<IntervalRecord> records{{1, Interval(1, 4)}};
  ASSERT_TRUE(hint.Build(records, 7, options).ok());
  const HintStats stats = hint.Stats(/*distinct_intervals=*/1);
  ASSERT_EQ(stats.levels.size(), 4u);
  EXPECT_EQ(stats.levels[3].partitions, 2u);  // P3,1 and P3,4
  EXPECT_EQ(stats.levels[3].originals, 1u);
  EXPECT_EQ(stats.levels[3].replicas, 1u);
  EXPECT_EQ(stats.levels[2].partitions, 1u);  // P2,1
  EXPECT_EQ(stats.levels[2].replicas, 1u);
  EXPECT_EQ(stats.total_entries, 3u);
  EXPECT_DOUBLE_EQ(stats.replication_factor, 3.0);
  EXPECT_EQ(stats.tombstones, 0u);
  ASSERT_TRUE(hint.Erase(1, Interval(1, 4)).ok());
  EXPECT_EQ(hint.Stats().tombstones, 3u);
}

TEST(HintTest, StorageOptimizationReducesMemory) {
  const auto records = RandomRecords(5000, 9999, 3);
  HintOptions plain;
  plain.num_bits = 8;
  HintOptions optimized = plain;
  optimized.storage_optimization = true;
  HintIndex a, b;
  ASSERT_TRUE(a.Build(records, 9999, plain).ok());
  ASSERT_TRUE(b.Build(records, 9999, optimized).ok());
  EXPECT_LT(b.MemoryUsageBytes(), a.MemoryUsageBytes());
}

}  // namespace
}  // namespace irhint
