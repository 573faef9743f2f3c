// Tests of the ranked-retrieval subsystem (src/rank/): the acceptance
// property is byte-identical agreement between the MaxScore traversal
// (TopKQuery) and the exhaustive oracle (TopKOracle) on every workload —
// across index kinds, k values, score ties, live updates, WAL replay,
// snapshot roundtrips and the sharded serving engine — while the work
// counters prove the traversal actually pruned.

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/durable_index.h"
#include "core/factory.h"
#include "data/query_gen.h"
#include "data/synthetic.h"
#include "rank/scored_index.h"
#include "serve/engine.h"
#include "serve/server_loop.h"
#include "storage/index_io.h"

namespace irhint {
namespace {

using Hits = std::vector<ScoredHit>;

std::string TempPath(const std::string& name) {
  std::string unique = name;
  if (const auto* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    unique = std::string(info->test_suite_name()) + "_" + info->name() + "_" +
             name;
    for (char& c : unique) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.') c = '_';
    }
  }
  return std::string(::testing::TempDir()) + "/" + unique;
}

Corpus MakeCorpus(uint64_t cardinality = 2000, uint64_t seed = 17) {
  SyntheticParams params;
  params.cardinality = cardinality;
  params.domain = 200000;
  params.sigma = 20000;
  params.dictionary_size = 200;
  params.description_size = 5;
  params.seed = seed;
  return GenerateSynthetic(params);
}

std::vector<Query> MakeQueries(const Corpus& corpus, size_t count = 60) {
  WorkloadGenerator generator(corpus, /*seed=*/3);
  std::vector<Query> queries = generator.ExtentWorkload(0.5, 2, count / 3);
  const std::vector<Query> wide = generator.ExtentWorkload(5.0, 3, count / 3);
  queries.insert(queries.end(), wide.begin(), wide.end());
  const std::vector<Query> stabs = generator.ExtentWorkload(0.0, 1, count / 3);
  queries.insert(queries.end(), stabs.begin(), stabs.end());
  return queries;
}

Hits MustTopK(const TemporalIrIndex& index, const Query& query, uint32_t k) {
  Hits hits;
  const Status status = index.TopKQuery(query, k, &hits);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return hits;
}

Hits MustOracle(const ScoredIndex& index, const Query& query, uint32_t k) {
  Hits hits;
  const Status status = index.TopKOracle(query, k, &hits);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return hits;
}

std::string HitsString(const Hits& hits) {
  std::ostringstream out;
  for (const ScoredHit& hit : hits) out << hit.id << ":" << hit.score << " ";
  return out.str();
}

TEST(ImpactScoreTest, PureFunctionOfTermAndEnd) {
  // Deterministic, always >= 1 for a live posting, fits the u16 quantizer.
  EXPECT_EQ(ImpactScore(0, 0), ImpactScore(0, 0));
  EXPECT_GE(ImpactScore(0, 0), 1u);
  EXPECT_GE(ImpactScore(123, 456), 1u);
  // Longer-lived objects never score lower for the same term (LogQuant16
  // is monotone in its argument).
  EXPECT_LE(ImpactScore(7, 100), ImpactScore(7, 1000000));
  // The saturation guard: the maximal end must not wrap to impact 1.
  EXPECT_GE(ImpactScore(7, static_cast<Time>(-1)), ImpactScore(7, 1000000));
}

TEST(FactoryTest, ScoredKindsAndTopKSupport) {
  const std::vector<IndexKind> scored = ScoredIndexKinds();
  ASSERT_EQ(scored.size(), 2u);
  for (const IndexKind kind : scored) {
    EXPECT_TRUE(KindSupportsTopK(kind)) << IndexKindName(kind);
    std::unique_ptr<TemporalIrIndex> index = CreateIndex(kind);
    EXPECT_EQ(index->Kind(), kind);
  }
  for (const IndexKind kind : AllIndexKinds()) {
    EXPECT_FALSE(KindSupportsTopK(kind)) << IndexKindName(kind);
  }
}

TEST(ScoredIndexTest, PlainKindsReportNotSupported) {
  const Corpus corpus = MakeCorpus(300);
  std::unique_ptr<TemporalIrIndex> index = CreateIndex(IndexKind::kIrHintPerf);
  ASSERT_TRUE(index->Build(corpus).ok());
  Hits hits;
  const Status status =
      index->TopKQuery(Query(Interval(0, 1000), {1, 2}), 10, &hits);
  EXPECT_TRUE(status.IsNotSupported()) << status.ToString();
}

// The core acceptance property: the MaxScore traversal returns exactly the
// oracle's ids AND scores for both scored kinds, every workload shape and
// k in {1, 10, 100}. Boolean results must also match the wrapped kind.
TEST(ScoredIndexTest, TopKMatchesOracleAcrossKindsAndK) {
  const Corpus corpus = MakeCorpus();
  const std::vector<Query> queries = MakeQueries(corpus);
  Hits reference;  // scored-tif answer, to cross-check kinds against
  for (const IndexKind kind : ScoredIndexKinds()) {
    std::unique_ptr<TemporalIrIndex> index = CreateIndex(kind);
    ASSERT_TRUE(index->Build(corpus).ok());
    auto* scored = dynamic_cast<ScoredIndex*>(index.get());
    ASSERT_NE(scored, nullptr);
    for (const uint32_t k : {1u, 10u, 100u}) {
      for (size_t i = 0; i < queries.size(); ++i) {
        const Hits got = MustTopK(*index, queries[i], k);
        const Hits want = MustOracle(*scored, queries[i], k);
        ASSERT_EQ(got, want)
            << IndexKindName(kind) << " query " << i << " k=" << k << "\n got "
            << HitsString(got) << "\nwant " << HitsString(want);
      }
    }
    // Kind-independence: scored-tif (1 division) and scored-irhint (32
    // divisions) must agree hit-for-hit — impacts are a pure function of
    // the posting, never of the store geometry.
    const Hits all = MustTopK(*index, queries.front(), 100);
    if (reference.empty()) {
      reference = all;
    } else {
      EXPECT_EQ(all, reference);
    }
  }
}

TEST(ScoredIndexTest, ScoreTiesBreakByAscendingId) {
  // Identical intervals and descriptions => identical scores; the total
  // order must then fall back to ascending id, traversal and oracle alike.
  Corpus corpus;
  for (int i = 0; i < 50; ++i) corpus.Append(Interval(100, 200), {1, 2});
  ASSERT_TRUE(corpus.Finalize().ok());
  for (const IndexKind kind : ScoredIndexKinds()) {
    std::unique_ptr<TemporalIrIndex> index = CreateIndex(kind);
    ASSERT_TRUE(index->Build(corpus).ok());
    const Hits hits = MustTopK(*index, Query(Interval(150, 160), {1, 2}), 10);
    ASSERT_EQ(hits.size(), 10u);
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].id, static_cast<ObjectId>(i));
      EXPECT_EQ(hits[i].score, hits[0].score);
    }
    auto* scored = dynamic_cast<ScoredIndex*>(index.get());
    ASSERT_NE(scored, nullptr);
    EXPECT_EQ(hits, MustOracle(*scored, Query(Interval(150, 160), {1, 2}), 10));
  }
}

TEST(ScoredIndexTest, EdgeCases) {
  const Corpus corpus = MakeCorpus(200);
  std::unique_ptr<TemporalIrIndex> index =
      CreateIndex(IndexKind::kScoredIrHint);
  ASSERT_TRUE(index->Build(corpus).ok());
  auto* scored = dynamic_cast<ScoredIndex*>(index.get());
  ASSERT_NE(scored, nullptr);

  // k far beyond the result set returns every match, still ranked. The
  // largest k must not size the traversal's heap (it would reserve
  // 64 GiB).
  const Query query(Interval(0, 200000), {1});
  const Hits all = MustTopK(*index, query, 100000);
  EXPECT_EQ(all, MustOracle(*scored, query, 100000));
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_TRUE(ScoredBetter(all[i - 1], all[i]));
  }
  constexpr uint32_t kHugeK = std::numeric_limits<uint32_t>::max();
  EXPECT_EQ(MustTopK(*index, query, kHugeK), all);
  EXPECT_EQ(MustOracle(*scored, query, kHugeK), all);

  // k == 0 and element-less queries are empty, not errors.
  EXPECT_TRUE(MustTopK(*index, query, 0).empty());
  EXPECT_TRUE(MustTopK(*index, Query(Interval(0, 1000), {}), 10).empty());

  // Inverted intervals are rejected.
  Hits hits;
  EXPECT_TRUE(
      index->TopKQuery(Query(Interval(10, 5), {1}), 3, &hits)
          .IsInvalidArgument());
}

TEST(ScoredIndexTest, CountersProvePruning) {
  const Corpus corpus = MakeCorpus(4000);
  const std::vector<Query> queries = MakeQueries(corpus);
  std::unique_ptr<TemporalIrIndex> index =
      CreateIndex(IndexKind::kScoredIrHint);
  ASSERT_TRUE(index->Build(corpus).ok());
  auto* scored = dynamic_cast<ScoredIndex*>(index.get());
  ASSERT_NE(scored, nullptr);
  index->EnableStats(true);

  Hits hits;
  for (const Query& query : queries) {
    ASSERT_TRUE(index->TopKQuery(query, 10, &hits).ok());
  }
  const QueryCounters topk = *index->Stats();
  index->ResetStats();
  for (const Query& query : queries) {
    ASSERT_TRUE(scored->TopKOracle(query, 10, &hits).ok());
  }
  const QueryCounters oracle = *index->Stats();

  EXPECT_GT(topk.postings_scored, 0u);
  EXPECT_LT(topk.postings_scored, oracle.postings_scored);
  EXPECT_GT(topk.blocks_skipped + topk.divisions_skipped, 0u);
  EXPECT_EQ(oracle.blocks_skipped, 0u);

  // Boolean queries leave the ranked counters untouched.
  index->ResetStats();
  std::vector<ObjectId> ids;
  for (const Query& query : queries) index->Query(query, &ids);
  const QueryCounters boolean = *index->Stats();
  EXPECT_EQ(boolean.postings_scored, 0u);
  EXPECT_EQ(boolean.blocks_skipped, 0u);
  EXPECT_EQ(boolean.divisions_skipped, 0u);
}

TEST(ScoredIndexTest, LiveInsertAndEraseKeepOracleAgreement) {
  const Corpus corpus = MakeCorpus(1000);
  const std::vector<Query> queries = MakeQueries(corpus);
  for (const IndexKind kind : ScoredIndexKinds()) {
    std::unique_ptr<TemporalIrIndex> index = CreateIndex(kind);
    ASSERT_TRUE(index->Build(corpus.Prefix(800)).ok());
    auto* scored = dynamic_cast<ScoredIndex*>(index.get());
    ASSERT_NE(scored, nullptr);
    // Insert the tail live (delta overlay), erase every third object of it.
    for (size_t i = 800; i < corpus.size(); ++i) {
      ASSERT_TRUE(index->Insert(corpus.object(static_cast<ObjectId>(i))).ok());
    }
    for (size_t i = 800; i < corpus.size(); i += 3) {
      ASSERT_TRUE(index->Erase(corpus.object(static_cast<ObjectId>(i))).ok());
    }
    for (const Query& query : queries) {
      const Hits got = MustTopK(*index, query, 10);
      ASSERT_EQ(got, MustOracle(*scored, query, 10)) << IndexKindName(kind);
      // Erased ids must be gone.
      for (const ScoredHit& hit : got) {
        EXPECT_TRUE(hit.id < 800 || (hit.id - 800) % 3 != 0);
      }
    }
    EXPECT_TRUE(index->IntegrityCheck(CheckLevel::kDeep).ok());
  }
}

TEST(ScoredIndexTest, DurableReplayMatchesDirect) {
  const Corpus corpus = MakeCorpus(600);
  const std::vector<Query> queries = MakeQueries(corpus, 30);
  const std::string dir = TempPath("wal");
  std::filesystem::remove_all(dir);

  // A direct (non-durable) scored index fed the same update stream is the
  // reference; impacts are pure functions, so replay must reproduce it.
  // Built empty first, matching the recovery path's insert-only start.
  std::unique_ptr<TemporalIrIndex> direct =
      CreateIndex(IndexKind::kScoredIrHint);
  Corpus empty;
  empty.DeclareDomain(corpus.domain_end());
  ASSERT_TRUE(empty.Finalize().ok());
  ASSERT_TRUE(direct->Build(empty).ok());
  DurableIndexOptions options;
  options.kind = IndexKind::kScoredIrHint;
  {
    StatusOr<std::unique_ptr<DurableIndex>> opened =
        DurableIndex::Open(dir, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    for (const Object& object : corpus.objects()) {
      ASSERT_TRUE((*opened)->Insert(object).ok());
      ASSERT_TRUE(direct->Insert(object).ok());
    }
    for (ObjectId id = 0; id < 100; id += 5) {
      ASSERT_TRUE((*opened)->Erase(corpus.object(id)).ok());
      ASSERT_TRUE(direct->Erase(corpus.object(id)).ok());
    }
    ASSERT_TRUE((*opened)->Flush().ok());
    for (const Query& query : queries) {
      EXPECT_EQ(MustTopK(**opened, query, 10), MustTopK(*direct, query, 10));
    }
  }
  // Reopen: recovery replays the WAL into a fresh scored index.
  StatusOr<std::unique_ptr<DurableIndex>> reopened =
      DurableIndex::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  for (const Query& query : queries) {
    EXPECT_EQ(MustTopK(**reopened, query, 10), MustTopK(*direct, query, 10));
  }
  EXPECT_TRUE((*reopened)->IntegrityCheck(CheckLevel::kDeep).ok());
  std::filesystem::remove_all(dir);
}

TEST(ScoredIndexTest, SnapshotRoundtripBufferedAndMmap) {
  const Corpus corpus = MakeCorpus(1200);
  const std::vector<Query> queries = MakeQueries(corpus, 30);
  for (const IndexKind kind : ScoredIndexKinds()) {
    std::unique_ptr<TemporalIrIndex> built = CreateIndex(kind);
    ASSERT_TRUE(built->Build(corpus).ok());
    const std::string path =
        TempPath(std::string(IndexKindName(kind)) + ".irh");
    ASSERT_TRUE(SaveIndex(*built, path).ok());
    for (const bool use_mmap : {false, true}) {
      SnapshotReadOptions options;
      options.use_mmap = use_mmap;
      StatusOr<LoadedIndex> loaded = LoadIndexSnapshot(path, options);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_EQ(loaded->index->Kind(), kind);
      EXPECT_TRUE(loaded->index->IntegrityCheck(CheckLevel::kDeep).ok());
      for (const Query& query : queries) {
        for (const uint32_t k : {1u, 10u, 100u}) {
          EXPECT_EQ(MustTopK(*loaded->index, query, k),
                    MustTopK(*built, query, k))
              << IndexKindName(kind) << (use_mmap ? " mmap" : " buffered");
        }
      }
    }
    std::remove(path.c_str());
  }
}

TEST(ServeTopKTest, EngineMatchesDirectIndexAcrossGeometries) {
  const Corpus corpus = MakeCorpus(1500);
  const std::vector<Query> queries = MakeQueries(corpus);
  std::unique_ptr<TemporalIrIndex> direct =
      CreateIndex(IndexKind::kScoredIrHint);
  ASSERT_TRUE(direct->Build(corpus).ok());

  struct Geometry {
    uint32_t shards, buckets;
  };
  for (const Geometry g : {Geometry{1, 1}, Geometry{3, 2}}) {
    serve::ServeOptions options;
    options.time_shards = g.shards;
    options.term_buckets = g.buckets;
    options.kind = IndexKind::kScoredIrHint;
    StatusOr<std::unique_ptr<serve::ServeEngine>> engine =
        serve::ServeEngine::Create(corpus, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    for (const Query& query : queries) {
      for (const uint32_t k : {1u, 10u}) {
        StatusOr<Hits> got = (*engine)->ExecuteTopK(query, k);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(*got, MustTopK(*direct, query, k))
            << g.shards << "x" << g.buckets;
      }
    }
  }
}

// On a quiet engine (no other future open, target shard idle) a ranked
// request's leg runs on the caller and answers like the oracle.
TEST(ServeTopKTest, QuietEngineRunsTheLegOnTheCaller) {
  const Corpus corpus = MakeCorpus(800);
  serve::ServeOptions options;
  options.time_shards = 1;
  options.kind = IndexKind::kScoredIrHint;
  StatusOr<std::unique_ptr<serve::ServeEngine>> engine =
      serve::ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ScoredIndex oracle(ScoredIndexOptions{}, IndexConfig{});
  ASSERT_TRUE(oracle.Build(corpus).ok());

  const Query query = MakeQueries(corpus).front();
  StatusOr<Hits> got = (*engine)->ExecuteTopK(query, 10);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, MustOracle(oracle, query, 10));
  EXPECT_FALSE(got->empty());
  const serve::EngineStats stats = (*engine)->Stats();
  EXPECT_EQ(stats.total_submitted, 1u);
  EXPECT_EQ(stats.total_ran_on_caller, 1u);
}

TEST(ServeTopKTest, LiveUpdatesStayConsistent) {
  const Corpus corpus = MakeCorpus(800);
  serve::ServeOptions options;
  options.time_shards = 3;
  options.term_buckets = 2;
  options.kind = IndexKind::kScoredIrHint;
  StatusOr<std::unique_ptr<serve::ServeEngine>> engine =
      serve::ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Mirror the engine's update stream into a direct scored index.
  std::unique_ptr<TemporalIrIndex> direct =
      CreateIndex(IndexKind::kScoredIrHint);
  ASSERT_TRUE(direct->Build(corpus).ok());
  std::vector<Object> inserted;
  for (int i = 0; i < 40; ++i) {
    const Interval interval(1000 * static_cast<Time>(i),
                            1000 * static_cast<Time>(i) + 5000);
    std::vector<ElementId> elements = {static_cast<ElementId>(i % 7),
                                       static_cast<ElementId>(50 + i % 3)};
    StatusOr<ObjectId> id = (*engine)->AppendInsert(interval, elements);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    Object object(*id, interval, elements);
    std::sort(object.elements.begin(), object.elements.end());
    ASSERT_TRUE(direct->Insert(object).ok());
    inserted.push_back(std::move(object));
  }
  for (size_t i = 0; i < inserted.size(); i += 4) {
    ASSERT_TRUE((*engine)->Erase(inserted[i]).ok());
    ASSERT_TRUE(direct->Erase(inserted[i]).ok());
  }
  (*engine)->WaitIdle();

  const std::vector<Query> queries = MakeQueries(corpus, 30);
  for (const Query& query : queries) {
    StatusOr<Hits> got = (*engine)->ExecuteTopK(query, 10);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, MustTopK(*direct, query, 10));
  }
}

TEST(ServeTopKTest, PlainKindFailsLegsWithNotSupported) {
  const Corpus corpus = MakeCorpus(300);
  serve::ServeOptions options;
  options.time_shards = 2;
  options.kind = IndexKind::kIrHintPerf;
  StatusOr<std::unique_ptr<serve::ServeEngine>> engine =
      serve::ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  StatusOr<Hits> result =
      (*engine)->ExecuteTopK(Query(Interval(0, 200000), {1}), 5);
  EXPECT_TRUE(result.status().IsNotSupported())
      << result.status().ToString();
}

TEST(ServeTopKTest, ServerLoopSpeaksTopk) {
  const Corpus corpus = MakeCorpus(500);
  serve::ServeOptions options;
  options.time_shards = 2;
  options.kind = IndexKind::kScoredIrHint;
  StatusOr<std::unique_ptr<serve::ServeEngine>> engine =
      serve::ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::unique_ptr<TemporalIrIndex> direct =
      CreateIndex(IndexKind::kScoredIrHint);
  ASSERT_TRUE(direct->Build(corpus).ok());
  auto reply = [&](uint32_t k) {
    const Hits want = MustTopK(*direct, Query(Interval(0, 200000), {1, 2}), k);
    std::ostringstream expected;
    expected << "OK " << want.size();
    for (const ScoredHit& hit : want) {
      expected << " " << hit.id << ":" << hit.score;
    }
    return expected.str();
  };

  // The largest k answers every match, and the engine keeps serving.
  std::istringstream in(
      "topk 3 0 200000 1 2\n"
      "topk 4294967295 0 200000 1 2\n"
      "topk\n"
      "quit\n");
  std::ostringstream out;
  serve::RunServerLoop(engine->get(), in, out);
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, reply(3));
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, reply(std::numeric_limits<uint32_t>::max()));
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.rfind("ERR", 0), 0u) << line;
}

// Fan-out of element-less top-k queries, observed through the per-shard
// submitted counters: bucket 0 of each time shard, the rule for requests
// without an element to pick a bucket by (element-less objects live
// there). The answer is an empty top-k on a scored kind and NotSupported
// on a plain one. An element-less Boolean query, by contrast, visits
// every bucket (ServeEngineTest.EmptyElementQueriesFanOutToAllBuckets).
TEST(ServeTopKTest, ElementLessQueriesVisitBucketZero) {
  const Corpus corpus = MakeCorpus(600);
  for (const IndexKind kind :
       {IndexKind::kScoredIrHint, IndexKind::kIrHintPerf}) {
    serve::ServeOptions options;
    options.time_shards = 3;
    options.term_buckets = 4;
    options.kind = kind;
    StatusOr<std::unique_ptr<serve::ServeEngine>> engine =
        serve::ServeEngine::Create(corpus, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    const StatusOr<Hits> result =
        (*engine)->ExecuteTopK(Query(Interval(0, 200000), {}), 5);
    if (KindSupportsTopK(kind)) {
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_TRUE(result->empty());
    } else {
      EXPECT_TRUE(result.status().IsNotSupported())
          << result.status().ToString();
    }
    (*engine)->WaitIdle();
    const serve::EngineStats stats = (*engine)->Stats();
    EXPECT_EQ(stats.total_submitted, 3u) << IndexKindName(kind);
    for (size_t shard = 0; shard < stats.shards.size(); ++shard) {
      EXPECT_EQ(stats.shards[shard].submitted, shard % 4 == 0 ? 1u : 0u)
          << IndexKindName(kind) << " shard " << shard;
    }
  }
}

// Concurrent ranked and Boolean traffic through the engine: every thread
// must see exactly the single-threaded answer (this is the test the TSan
// CI job runs to certify the new path).
TEST(ServeTopKTest, ConcurrentSubmittersSeeConsistentResults) {
  const Corpus corpus = MakeCorpus(1000);
  const std::vector<Query> queries = MakeQueries(corpus, 24);
  serve::ServeOptions options;
  options.time_shards = 2;
  options.term_buckets = 2;
  options.kind = IndexKind::kScoredIrHint;
  StatusOr<std::unique_ptr<serve::ServeEngine>> engine =
      serve::ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::vector<Hits> expected;
  for (const Query& query : queries) {
    StatusOr<Hits> hits = (*engine)->ExecuteTopK(query, 10);
    ASSERT_TRUE(hits.ok());
    expected.push_back(*std::move(hits));
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 10;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      std::vector<ObjectId> ids;
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          StatusOr<Hits> hits = (*engine)->ExecuteTopK(queries[i], 10);
          if (!hits.ok() || *hits != expected[i]) mismatches[t]++;
          // Interleave Boolean traffic over the same shards.
          StatusOr<std::vector<ObjectId>> boolean =
              (*engine)->Execute(queries[i]);
          if (!boolean.ok()) mismatches[t]++;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

}  // namespace
}  // namespace irhint
