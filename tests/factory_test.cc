#include "core/factory.h"

#include <map>
#include <string_view>

#include <gtest/gtest.h>

#include "data/synthetic.h"

namespace irhint {
namespace {

TEST(FactoryTest, CreatesEveryKindWithMatchingName) {
  const IndexKind kinds[] = {
      IndexKind::kNaiveScan,       IndexKind::kTif,
      IndexKind::kTifSlicing,      IndexKind::kTifSharding,
      IndexKind::kTifHintBinarySearch, IndexKind::kTifHintMergeSort,
      IndexKind::kTifHintSlicing,  IndexKind::kIrHintPerf,
      IndexKind::kIrHintSize,
  };
  for (const IndexKind kind : kinds) {
    auto index = CreateIndex(kind);
    ASSERT_NE(index, nullptr);
    EXPECT_EQ(index->Name(), IndexKindName(kind));
  }
}

// The command-line names (--index) come from one table: every kind
// CreateIndex builds is reachable by exactly one name, and any other name
// — typos included — is refused instead of falling back to a default.
TEST(FactoryTest, EveryKindHasExactlyOneFlagName) {
  std::map<IndexKind, int> names_per_kind;
  for (const std::string_view name : IndexKindFlagNames()) {
    const StatusOr<IndexKind> kind = ParseIndexKind(name);
    ASSERT_TRUE(kind.ok()) << name << ": " << kind.status().ToString();
    ++names_per_kind[*kind];
  }
  for (int k = 0; k <= static_cast<int>(IndexKind::kScoredIrHint); ++k) {
    const IndexKind kind = static_cast<IndexKind>(k);
    ASSERT_NE(CreateIndex(kind), nullptr);
    EXPECT_EQ(names_per_kind[kind], 1) << IndexKindName(kind);
  }
  for (const char* bad : {"", "bogus", "scored-irHINT", "irhint_perf",
                          "irhint-perf "}) {
    EXPECT_TRUE(ParseIndexKind(bad).status().IsInvalidArgument()) << bad;
  }
}

// An inverted interval covers no time point, so it matches nothing on
// every kind — including objects that overlap [end, st].
TEST(FactoryTest, InvertedQueryIntervalMatchesNothingOnEveryKind) {
  Corpus corpus;
  corpus.Append(Interval(5, 10), {1, 2});
  corpus.Append(Interval(0, 100), {1});
  corpus.Append(Interval(50, 60), {1});
  ASSERT_TRUE(corpus.Finalize().ok());
  for (const std::string_view name : IndexKindFlagNames()) {
    const StatusOr<IndexKind> kind = ParseIndexKind(name);
    ASSERT_TRUE(kind.ok()) << name;
    auto index = CreateIndex(*kind);
    ASSERT_TRUE(index->Build(corpus).ok()) << name;
    std::vector<ObjectId> out = {42};
    index->Query(Query(Interval(10, 5), {1}), &out);
    EXPECT_TRUE(out.empty()) << name;
    index->Query(Query(Interval(5, 10), {1}), &out);
    EXPECT_EQ(out.size(), 2u) << name;
  }
}

TEST(FactoryTest, ComparisonLineupMatchesFigure11) {
  const auto kinds = ComparisonIndexKinds();
  ASSERT_EQ(kinds.size(), 5u);  // 2 competitors + hybrid + 2 irHINT
  EXPECT_EQ(kinds.front(), IndexKind::kTifSlicing);
  EXPECT_EQ(kinds.back(), IndexKind::kIrHintSize);
}

TEST(FactoryTest, AllLineupMatchesTable5) {
  EXPECT_EQ(AllIndexKinds().size(), 7u);
}

TEST(FactoryTest, ConfigIsApplied) {
  SyntheticParams params;
  params.cardinality = 300;
  params.domain = 10000;
  params.dictionary_size = 20;
  params.description_size = 4;
  const Corpus corpus = GenerateSynthetic(params);

  IndexConfig small;
  small.num_slices = 2;
  IndexConfig large;
  large.num_slices = 200;
  auto a = CreateIndex(IndexKind::kTifSlicing, small);
  auto b = CreateIndex(IndexKind::kTifSlicing, large);
  ASSERT_TRUE(a->Build(corpus).ok());
  ASSERT_TRUE(b->Build(corpus).ok());
  // More slices -> more replication -> bigger index.
  EXPECT_LT(a->MemoryUsageBytes(), b->MemoryUsageBytes());
}

TEST(FactoryTest, BuiltIndexesAnswerQueries) {
  SyntheticParams params;
  params.cardinality = 400;
  params.domain = 10000;
  params.dictionary_size = 10;
  params.description_size = 3;
  const Corpus corpus = GenerateSynthetic(params);
  const Query q(Interval(0, 9999), {0});
  std::vector<ObjectId> reference;
  std::vector<ObjectId> out;
  for (const IndexKind kind : AllIndexKinds()) {
    auto index = CreateIndex(kind);
    ASSERT_TRUE(index->Build(corpus).ok()) << index->Name();
    index->Query(q, &out);
    std::sort(out.begin(), out.end());
    if (reference.empty()) {
      reference = out;
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(out, reference) << index->Name();
    }
  }
}

}  // namespace
}  // namespace irhint
