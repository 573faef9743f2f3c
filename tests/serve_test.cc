// Tests of the sharded serving engine (src/serve/): routing and merge
// against a NaiveScan ground truth and a 1-shard engine, every request
// kind at the router's edges against the direct index, the Boolean merge
// against sort + unique on random legs, batching and duplicate
// coalescing, admission control under a slow-shard fault, who runs a leg
// (the caller on a quiet engine, the worker otherwise) and the hand-off
// between the two, live updates through the shard queues, durable mode,
// and the line-oriented server loop.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/factory.h"
#include "data/query_gen.h"
#include "data/synthetic.h"
#include "rank/scored_index.h"
#include "serve/engine.h"
#include "serve/server_loop.h"

namespace irhint {
namespace serve {
namespace {

using Ids = std::vector<ObjectId>;

Corpus TestCorpus(uint64_t cardinality = 1200, uint64_t seed = 13) {
  SyntheticParams params;
  params.cardinality = cardinality;
  params.domain = 200000;
  params.sigma = 40000;
  params.dictionary_size = 250;
  params.description_size = 6;
  params.seed = seed;
  return GenerateSynthetic(params);
}

std::vector<Query> TestQueries(const Corpus& corpus, size_t count = 60) {
  WorkloadGenerator generator(corpus, /*seed=*/3);
  std::vector<Query> queries =
      generator.ExtentWorkload(0.5, 1, count / 3);
  const std::vector<Query> wide = generator.ExtentWorkload(5.0, 2, count / 3);
  queries.insert(queries.end(), wide.begin(), wide.end());
  const std::vector<Query> stabs = generator.ExtentWorkload(0.0, 1, count / 3);
  queries.insert(queries.end(), stabs.begin(), stabs.end());
  return queries;
}

Ids MustGet(ResultFuture future) {
  StatusOr<Ids> result = future.Get();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *std::move(result) : Ids();
}

// Intervals at the router's edges for `engine`'s layout: for every time
// shard a single point at its first time point, an interval inverted
// inside it and one ending at the last shard's saturated end; for every
// shard boundary an interval straddling it, the same one inverted, and
// the two points around it.
std::vector<Interval> EdgeIntervals(const ServeEngine& engine) {
  constexpr Time kEnd = std::numeric_limits<Time>::max();
  std::vector<Interval> edges = {Interval(0, kEnd), Interval(kEnd, kEnd),
                                 Interval(kEnd, 0)};
  for (uint32_t t = 0; t < engine.time_shards(); ++t) {
    const Time lo = engine.shard_time_range(t * engine.term_buckets()).st;
    edges.emplace_back(lo, lo);
    edges.emplace_back(lo + 2000, lo + 1000);
    edges.emplace_back(lo + 100, kEnd);
    if (lo > 0) {
      edges.emplace_back(lo - 1500, lo + 1500);
      edges.emplace_back(lo + 1500, lo - 1500);
      edges.emplace_back(lo - 1, lo);
    }
  }
  return edges;
}

struct Geometry {
  uint32_t shards, buckets;
};
constexpr Geometry kEdgeGeometries[] = {{1, 1}, {3, 1}, {3, 2}, {4, 4}};

// Element-less, one-element and two-element descriptions drawn from the
// corpus, so the non-empty ones match something.
std::vector<std::vector<ElementId>> EdgeDescriptions(const Corpus& corpus) {
  const std::vector<ElementId>& d = corpus.object(0).elements;
  return {{}, {d[0]}, {d[0], d[1]}};
}

TEST(TermBucketTest, DeterministicAndInRange) {
  for (uint32_t buckets : {1u, 2u, 7u}) {
    for (ElementId e = 0; e < 1000; ++e) {
      const uint32_t b = TermBucket(e, buckets);
      EXPECT_LT(b, buckets);
      EXPECT_EQ(b, TermBucket(e, buckets));
    }
  }
}

// The acceptance property of the router: for every shard/bucket geometry
// (one shard included) the merged answer equals the sorted NaiveScan
// answer, an oracle that shares no code with the merge. The half-domain
// single-term queries are wide enough to take the merge's bitmap path.
TEST(ServeEngineTest, MergedResultsMatchNaiveScanOracle) {
  const Corpus corpus = TestCorpus();
  std::vector<Query> queries = TestQueries(corpus);
  const std::vector<Query> dense =
      WorkloadGenerator(corpus, /*seed=*/5).ExtentWorkload(50.0, 1, 10);
  queries.insert(queries.end(), dense.begin(), dense.end());

  std::unique_ptr<TemporalIrIndex> oracle = CreateIndex(IndexKind::kNaiveScan);
  ASSERT_TRUE(oracle->Build(corpus).ok());
  std::vector<Ids> expected;
  expected.reserve(queries.size());
  size_t dense_answers = 0;
  size_t sparse_answers = 0;
  for (const Query& query : queries) {
    Ids want;
    // Element-less queries answer empty on irHINT (library contract).
    if (!query.elements.empty()) oracle->Query(query, &want);
    std::sort(want.begin(), want.end());
    // Replicas only add to the merge's id count, so a dense answer means
    // a dense merge for every geometry.
    if (!want.empty()) {
      ++(MergeIsDense(want.size(), want.back()) ? dense_answers
                                                 : sparse_answers);
    }
    expected.push_back(std::move(want));
  }
  EXPECT_GT(dense_answers, 0u);
  EXPECT_GT(sparse_answers, 0u);

  for (const uint32_t shards : {1u, 2u, 3u, 5u}) {
    for (const uint32_t buckets : {1u, 3u}) {
      ServeOptions options;
      options.time_shards = shards;
      options.term_buckets = buckets;
      StatusOr<std::unique_ptr<ServeEngine>> engine =
          ServeEngine::Create(corpus, options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      EXPECT_EQ((*engine)->num_shards(), shards * buckets);
      for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(MustGet((*engine)->Submit(queries[i])), expected[i])
            << "query " << i << " diverges at " << shards << "x" << buckets;
      }
    }
  }
}

// Sharding must not change an answer: every geometry is byte-identical
// to a 1-shard engine over the same corpus. The test above checks the
// answers themselves against an oracle outside the engine.
TEST(ServeEngineTest, MergedResultsMatchOneShardOracle) {
  const Corpus corpus = TestCorpus();
  const std::vector<Query> queries = TestQueries(corpus);

  ServeOptions oracle_options;
  oracle_options.time_shards = 1;
  StatusOr<std::unique_ptr<ServeEngine>> oracle =
      ServeEngine::Create(corpus, oracle_options);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  std::vector<Ids> expected;
  expected.reserve(queries.size());
  for (const Query& query : queries) {
    expected.push_back(MustGet((*oracle)->Submit(query)));
  }

  for (const uint32_t shards : {2u, 3u, 5u}) {
    for (const uint32_t buckets : {1u, 3u}) {
      ServeOptions options;
      options.time_shards = shards;
      options.term_buckets = buckets;
      StatusOr<std::unique_ptr<ServeEngine>> engine =
          ServeEngine::Create(corpus, options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      EXPECT_EQ((*engine)->num_shards(), shards * buckets);
      for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(MustGet((*engine)->Submit(queries[i])), expected[i])
            << "query " << i << " diverges at " << shards << "x" << buckets;
      }
    }
  }
}

// The Boolean merge against sort + unique of the concatenated legs, on
// random legs: empty legs, lone legs, ids shared across legs, dense
// results (bitmap path) and sparse ones reaching ids 0 and 2^32 - 2.
TEST(MergeIdsTest, MatchesSortUniqueOnRandomLegs) {
  constexpr ObjectId kTopId = 0xFFFFFFFEu;
  Rng rng(17);
  size_t dense = 0;
  size_t sparse = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const bool wide = trial % 2 == 0;
    const uint64_t universe =
        wide ? 1 + rng.Uniform(5000) : uint64_t{kTopId} + 1;
    // Every leg draws from one shared pool, so legs overlap.
    std::vector<ObjectId> pool;
    const size_t pool_size = wide ? rng.Uniform(universe) : rng.Uniform(8);
    for (size_t i = 0; i < pool_size; ++i) {
      pool.push_back(static_cast<ObjectId>(rng.Uniform(universe)));
    }
    if (rng.Uniform(4) == 0) pool.push_back(0);
    if (!wide && rng.Uniform(4) == 0) pool.push_back(kTopId);
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());

    const size_t num_legs = 1 + rng.Uniform(4);
    std::vector<Ids> legs(num_legs);
    Ids concatenated;
    size_t total = 0;
    ObjectId max_id = 0;
    for (Ids& leg : legs) {
      // Indexes report each id once, in no particular order.
      for (const ObjectId id : pool) {
        if (rng.Uniform(3) != 0) leg.push_back(id);
      }
      for (size_t i = leg.size(); i > 1; --i) {
        std::swap(leg[i - 1], leg[rng.Uniform(i)]);
      }
      concatenated.insert(concatenated.end(), leg.begin(), leg.end());
      total += leg.size();
      for (const ObjectId id : leg) max_id = std::max(max_id, id);
    }
    std::sort(concatenated.begin(), concatenated.end());
    concatenated.erase(std::unique(concatenated.begin(), concatenated.end()),
                       concatenated.end());
    if (total > 0) ++(MergeIsDense(total, max_id) ? dense : sparse);
    EXPECT_EQ(MergeIds(std::move(legs)), concatenated) << "trial " << trial;
  }
  EXPECT_GT(dense, 100u);
  EXPECT_GT(sparse, 100u);

  EXPECT_EQ(MergeIds({}), Ids());
  EXPECT_EQ(MergeIds({{}, {}}), Ids());
  EXPECT_EQ(MergeIds({{0}}), Ids{0});
  EXPECT_EQ(MergeIds({{}, {3, 1, 2}, {}}), (Ids{1, 2, 3}));
  EXPECT_EQ(MergeIds({{2, 0}, {0, 1}, {1, 2}}), (Ids{0, 1, 2}));
}

// Few ids under a huge max id must sort: a bitmap over [0, 2^32 - 2]
// would take 512 MiB for three ids.
TEST(MergeIdsTest, FewIdsNearTheTopTakeTheSparsePath) {
  constexpr ObjectId kTopId = 0xFFFFFFFEu;
  EXPECT_FALSE(MergeIsDense(4, kTopId));
  EXPECT_EQ(MergeIds({{kTopId, 7}, {7, 0}}), (Ids{0, 7, kTopId}));
  // The rule itself: four bitmap words per id at most.
  EXPECT_TRUE(MergeIsDense(1000, 256000));
  EXPECT_FALSE(MergeIsDense(1000, 256256));
}

// Same property under concurrent submitters: many client threads racing
// into the shard queues must not change any answer.
TEST(ServeEngineTest, ConcurrentSubmittersGetIdenticalAnswers) {
  const Corpus corpus = TestCorpus();
  const std::vector<Query> queries = TestQueries(corpus);

  ServeOptions oracle_options;
  oracle_options.time_shards = 1;
  StatusOr<std::unique_ptr<ServeEngine>> oracle =
      ServeEngine::Create(corpus, oracle_options);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  std::vector<Ids> expected;
  for (const Query& query : queries) {
    expected.push_back(MustGet((*oracle)->Submit(query)));
  }

  ServeOptions options;
  options.time_shards = 4;
  options.term_buckets = 2;
  StatusOr<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  constexpr size_t kThreads = 4;
  constexpr size_t kRounds = 3;
  std::vector<std::vector<Ids>> got(kThreads);
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (size_t c = 0; c < kThreads; ++c) {
    clients.emplace_back([&, c]() {
      for (size_t round = 0; round < kRounds; ++round) {
        for (const Query& query : queries) {
          StatusOr<Ids> result = (*engine)->Execute(query);
          got[c].push_back(result.ok() ? *std::move(result) : Ids());
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (size_t c = 0; c < kThreads; ++c) {
    ASSERT_EQ(got[c].size(), kRounds * queries.size());
    for (size_t i = 0; i < got[c].size(); ++i) {
      EXPECT_EQ(got[c][i], expected[i % queries.size()])
          << "client " << c << " request " << i;
    }
  }
}

// Element-less queries cannot pick a term bucket, so the router must fan
// them out to every bucket of each overlapping time shard. Results are
// empty either way (the library-wide contract for element-less queries),
// so the routing is observed through the per-shard submitted counters.
TEST(ServeEngineTest, EmptyElementQueriesFanOutToAllBuckets) {
  const Corpus corpus = TestCorpus(600);
  ServeOptions options;
  options.time_shards = 3;
  options.term_buckets = 4;
  StatusOr<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Full-domain interval: overlaps all 3 time shards x 4 buckets.
  EXPECT_EQ(MustGet((*engine)->Submit(Query(Interval(0, 200000), {}))), Ids());
  (*engine)->WaitIdle();
  EngineStats stats = (*engine)->Stats();
  EXPECT_EQ(stats.total_submitted, 12u);
  for (const ShardStats& shard : stats.shards) {
    EXPECT_EQ(shard.submitted, 1u);
  }

  // A query with elements routes to exactly one bucket per time shard.
  EXPECT_TRUE((*engine)->Execute(Query(Interval(0, 200000), {1})).ok());
  (*engine)->WaitIdle();
  stats = (*engine)->Stats();
  EXPECT_EQ(stats.total_submitted, 15u);
}

// `object` with an inverted interval: it starts one past its end.
Object Inverted(const Object& object) {
  return Object(object.id,
                Interval(object.interval.end + 1, object.interval.st),
                object.elements);
}

// The engine answers like the direct index for every request kind and
// shard layout, at the router's edges (EdgeIntervals): Boolean queries
// like a sorted NaiveScan, before and after interleaved inserts and
// erases mirrored into it. An inverted interval covers no time point, so
// a Boolean query over one matches nothing, and an inverted insert or
// erase is refused without burning an id, whichever shards its endpoints
// fall in.
TEST(ServeEngineTest, AnswersLikeTheDirectIndexAtRoutingEdges) {
  const Corpus corpus = TestCorpus(600);
  const size_t offline = corpus.size() * 3 / 4;
  const Corpus prefix = corpus.Prefix(offline);
  const std::vector<std::vector<ElementId>> descriptions =
      EdgeDescriptions(corpus);

  for (const Geometry g : kEdgeGeometries) {
    SCOPED_TRACE(std::to_string(g.shards) + "x" + std::to_string(g.buckets));
    ServeOptions options;
    options.time_shards = g.shards;
    options.term_buckets = g.buckets;
    StatusOr<std::unique_ptr<ServeEngine>> engine =
        ServeEngine::Create(prefix, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    std::unique_ptr<TemporalIrIndex> mirror =
        CreateIndex(IndexKind::kNaiveScan);
    ASSERT_TRUE(mirror->Build(prefix).ok());

    const std::vector<Interval> edges = EdgeIntervals(**engine);
    auto expect_match = [&](const char* stage) {
      for (const Interval& interval : edges) {
        for (const std::vector<ElementId>& elements : descriptions) {
          const Query query(interval, elements);
          Ids want;
          if (interval.st <= interval.end) mirror->Query(query, &want);
          std::sort(want.begin(), want.end());
          EXPECT_EQ(MustGet((*engine)->Submit(query)), want)
              << stage << ": [" << interval.st << ", " << interval.end
              << "] with " << elements.size() << " elements";
        }
      }
    };
    expect_match("after build");

    for (size_t i = offline; i < corpus.size(); ++i) {
      const Object& object = corpus.object(static_cast<ObjectId>(i));
      EXPECT_TRUE((*engine)->Insert(Inverted(object)).IsInvalidArgument());
      EXPECT_EQ((*engine)->next_object_id(), object.id);
      ASSERT_TRUE((*engine)->Insert(object).ok());
      ASSERT_TRUE(mirror->Insert(object).ok());
      if (i % 3 == 0) {
        const Object& old = corpus.object(static_cast<ObjectId>(i - offline));
        EXPECT_TRUE((*engine)->Erase(Inverted(old)).IsInvalidArgument());
        ASSERT_TRUE((*engine)->Erase(old).ok());
        ASSERT_TRUE(mirror->Erase(old).ok());
      }
    }
    EXPECT_EQ((*engine)->next_object_id(), corpus.size());
    expect_match("after updates");
  }
}

// The top-k half of the property above: ranked answers equal TopKOracle
// on a mirrored scored index, statuses included (an inverted interval is
// InvalidArgument on every layout, an element-less query an empty top-k).
TEST(ServeEngineTest, TopKAnswersLikeTheOracleAtRoutingEdges) {
  const Corpus corpus = TestCorpus(600);
  const size_t offline = corpus.size() * 3 / 4;
  const Corpus prefix = corpus.Prefix(offline);
  const std::vector<std::vector<ElementId>> descriptions =
      EdgeDescriptions(corpus);

  for (const Geometry g : kEdgeGeometries) {
    SCOPED_TRACE(std::to_string(g.shards) + "x" + std::to_string(g.buckets));
    ServeOptions options;
    options.time_shards = g.shards;
    options.term_buckets = g.buckets;
    options.kind = IndexKind::kScoredIrHint;
    StatusOr<std::unique_ptr<ServeEngine>> engine =
        ServeEngine::Create(prefix, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ScoredIndex mirror(ScoredIndexOptions{}, IndexConfig{});
    ASSERT_TRUE(mirror.Build(prefix).ok());

    const std::vector<Interval> edges = EdgeIntervals(**engine);
    auto expect_match = [&](const char* stage) {
      for (const Interval& interval : edges) {
        for (const std::vector<ElementId>& elements : descriptions) {
          for (const uint32_t k : {1u, 10u}) {
            const Query query(interval, elements);
            std::vector<ScoredHit> want;
            const Status want_status = mirror.TopKOracle(query, k, &want);
            const StatusOr<std::vector<ScoredHit>> got =
                (*engine)->ExecuteTopK(query, k);
            const std::string where =
                std::string(stage) + ": [" + std::to_string(interval.st) +
                ", " + std::to_string(interval.end) + "] with " +
                std::to_string(elements.size()) + " elements, k=" +
                std::to_string(k);
            ASSERT_EQ(got.status(), want_status)
                << where << ": " << got.status().ToString();
            if (got.ok()) {
              EXPECT_EQ(*got, want) << where;
            }
          }
        }
      }
    };
    expect_match("after build");

    for (size_t i = offline; i < corpus.size(); ++i) {
      const Object& object = corpus.object(static_cast<ObjectId>(i));
      ASSERT_TRUE((*engine)->Insert(object).ok());
      ASSERT_TRUE(mirror.Insert(object).ok());
      if (i % 3 == 0) {
        const Object& old = corpus.object(static_cast<ObjectId>(i - offline));
        ASSERT_TRUE((*engine)->Erase(old).ok());
        ASSERT_TRUE(mirror.Erase(old).ok());
      }
    }
    expect_match("after updates");
  }
}

// Live updates ride the shard queues: inserts spanning shard boundaries
// become visible everywhere, erases tombstone every replica, and the
// engine keeps matching a NaiveScan subjected to the same stream.
TEST(ServeEngineTest, LiveInsertAndEraseStayConsistent) {
  const Corpus corpus = TestCorpus(800);
  const size_t offline = corpus.size() * 9 / 10;
  const Corpus prefix = corpus.Prefix(offline);

  ServeOptions options;
  options.time_shards = 3;
  options.term_buckets = 2;
  StatusOr<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::Create(prefix, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->next_object_id(), offline);

  std::unique_ptr<TemporalIrIndex> reference =
      CreateIndex(IndexKind::kNaiveScan);
  ASSERT_TRUE(reference->Build(prefix).ok());

  const std::vector<Query> queries = TestQueries(corpus, 30);
  auto expect_match = [&](const char* stage) {
    for (size_t i = 0; i < queries.size(); ++i) {
      if (queries[i].elements.empty()) continue;  // irHINT contract
      Ids want;
      reference->Query(queries[i], &want);
      std::sort(want.begin(), want.end());
      ASSERT_EQ(MustGet((*engine)->Submit(queries[i])), want)
          << stage << ": query " << i;
    }
  };
  expect_match("after build");

  for (size_t i = offline; i < corpus.size(); ++i) {
    const Object& object = corpus.object(static_cast<ObjectId>(i));
    ASSERT_TRUE((*engine)->Insert(object).ok());
    ASSERT_TRUE(reference->Insert(object).ok());
  }
  expect_match("after live inserts");
  EXPECT_EQ((*engine)->next_object_id(), corpus.size());

  // Out-of-order / duplicate ids are rejected up front.
  EXPECT_TRUE((*engine)->Insert(corpus.object(0)).IsInvalidArgument());

  for (ObjectId id = 0; id < corpus.size(); id += 3) {
    ASSERT_TRUE((*engine)->Erase(corpus.object(id)).ok());
    ASSERT_TRUE(reference->Erase(corpus.object(id)).ok());
  }
  expect_match("after erases");

  const EngineStats stats = (*engine)->Stats();
  EXPECT_GT(stats.total_updates_applied, 0u);
}

// Durable mode: every shard persists through its own WAL directory, live
// AppendInsert survives the queues, and Flush syncs all shards.
TEST(ServeEngineTest, DurableModeServesAndIngests) {
  const Corpus corpus = TestCorpus(400);
  const std::string dir =
      std::string(::testing::TempDir()) + "/serve_durable_test";
  std::filesystem::remove_all(dir);  // the engine requires a fresh dir

  ServeOptions options;
  options.time_shards = 2;
  options.term_buckets = 2;
  options.wal_dir = dir;
  StatusOr<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::unique_ptr<TemporalIrIndex> reference =
      CreateIndex(IndexKind::kNaiveScan);
  ASSERT_TRUE(reference->Build(corpus).ok());

  // Live ingestion with engine-assigned ids, mirrored into the reference.
  for (int i = 0; i < 20; ++i) {
    const Time st = static_cast<Time>(1000 * i);
    const Interval interval(st, st + 5000);
    std::vector<ElementId> elements = {static_cast<ElementId>(i % 7),
                                       static_cast<ElementId>(100 + i)};
    StatusOr<ObjectId> id = (*engine)->AppendInsert(interval, elements);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    std::sort(elements.begin(), elements.end());
    ASSERT_TRUE(reference->Insert(Object(*id, interval, elements)).ok());
  }
  ASSERT_TRUE((*engine)->Flush().ok());

  const std::vector<Query> queries = TestQueries(corpus, 30);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].elements.empty()) continue;
    Ids want;
    reference->Query(queries[i], &want);
    std::sort(want.begin(), want.end());
    ASSERT_EQ(MustGet((*engine)->Submit(queries[i])), want) << "query " << i;
  }

  // A second engine over the same (now dirty) directory must refuse — the
  // sharded layout is not recoverable across runs yet.
  StatusOr<std::unique_ptr<ServeEngine>> second =
      ServeEngine::Create(corpus, options);
  EXPECT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsInvalidArgument())
      << second.status().ToString();
}

// Admission control under a slow-shard fault: a sleep hook makes every
// batch slow, the queue bound is tiny, and an open-loop burst must shed
// (kUnavailable) rather than queue without limit — and still drain.
TEST(ServeEngineTest, SlowShardShedsAtBoundedDepth) {
  const Corpus corpus = TestCorpus(300);
  ServeOptions options;
  options.time_shards = 1;  // one queue, so the burst targets one worker
  options.max_queue_depth = 8;
  options.batch_hook = [](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  StatusOr<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const Query query(Interval(0, 200000), {1});
  std::vector<ResultFuture> futures;
  futures.reserve(200);
  for (int i = 0; i < 200; ++i) futures.push_back((*engine)->Submit(query));

  size_t ok = 0, shed = 0;
  for (ResultFuture& future : futures) {
    const StatusOr<Ids> result = future.Get();
    if (result.ok()) {
      ++ok;
    } else {
      ASSERT_TRUE(result.status().IsUnavailable())
          << result.status().ToString();
      ++shed;
    }
  }
  EXPECT_GT(ok, 0u);
  EXPECT_GT(shed, 0u);

  (*engine)->WaitIdle();
  const EngineStats stats = (*engine)->Stats();
  EXPECT_EQ(stats.total_shed, shed);
  EXPECT_LE(stats.max_peak_queue_depth, options.max_queue_depth);
  EXPECT_EQ(stats.max_queue_depth, 0u);  // drained

  // The engine still answers once the burst is over (no deadlock, no
  // poisoned worker).
  EXPECT_TRUE((*engine)->Execute(query).ok());
}

// Batch coalescing: with the worker pinned slow, a burst of one popular
// query must collapse into few batches with most duplicates served by a
// twin's descent.
TEST(ServeEngineTest, BatchingCoalescesDuplicateQueries) {
  const Corpus corpus = TestCorpus(300);
  ServeOptions options;
  options.time_shards = 1;
  options.max_queue_depth = 256;
  options.max_batch = 64;
  options.batch_hook = [](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  StatusOr<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const Query popular(Interval(0, 100000), {2});
  std::vector<ResultFuture> futures;
  for (int i = 0; i < 100; ++i) futures.push_back((*engine)->Submit(popular));
  Ids first = MustGet(std::move(futures.front()));
  for (size_t i = 1; i < futures.size(); ++i) {
    EXPECT_EQ(MustGet(std::move(futures[i])), first);
  }

  const EngineStats stats = (*engine)->Stats();
  EXPECT_GT(stats.total_dedup_hits, 0u);
  EXPECT_LT(stats.total_batches, 100u);
  EXPECT_EQ(stats.total_executed_queries + stats.total_dedup_hits, 100u);
}

// The sorted NaiveScan answer to `query` over `corpus`.
Ids OracleIds(const Corpus& corpus, const Query& query) {
  std::unique_ptr<TemporalIrIndex> naive = CreateIndex(IndexKind::kNaiveScan);
  EXPECT_TRUE(naive->Build(corpus).ok());
  Ids want;
  naive->Query(query, &want);
  std::sort(want.begin(), want.end());
  return want;
}

// A query over [st, end] with the first element of the first object
// overlapping it, so the answer is never empty.
Query MatchingQuery(const Corpus& corpus, Time st, Time end) {
  for (const Object& object : corpus.objects()) {
    if (Overlaps(object.interval, Interval(st, end))) {
      return Query(Interval(st, end), {object.elements.front()});
    }
  }
  ADD_FAILURE() << "no object overlaps [" << st << ", " << end << "]";
  return Query(Interval(st, end), {});
}

// Polls `done` for up to ten seconds, so a lost wake-up fails a test
// instead of hanging it.
bool Eventually(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Who runs a leg (DESIGN.md §11): on a quiet engine (no other future
// open, target shard idle) the caller runs its request's last leg and
// queues the others, so a single-shard query runs entirely on the caller
// and a query over three of four time shards runs one leg there.
TEST(ServeEngineTest, QuietEngineRunsTheLastLegOnTheCaller) {
  const Corpus corpus = TestCorpus();
  ServeOptions options;
  options.time_shards = 4;
  for (const uint32_t first_shard : {1u, 0u}) {
    const uint32_t last_shard = first_shard == 1 ? 1 : 2;
    StatusOr<std::unique_ptr<ServeEngine>> engine =
        ServeEngine::Create(corpus, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    const Query query = MatchingQuery(
        corpus, (*engine)->shard_time_range(first_shard).st + 100,
        (*engine)->shard_time_range(last_shard).st + 100);
    SCOPED_TRACE("time shards " + std::to_string(first_shard) + ".." +
                 std::to_string(last_shard));

    EXPECT_EQ(MustGet((*engine)->Submit(query)), OracleIds(corpus, query));
    (*engine)->WaitIdle();
    const EngineStats stats = (*engine)->Stats();
    EXPECT_EQ(stats.total_submitted, last_shard - first_shard + 1);
    EXPECT_EQ(stats.total_ran_on_caller, 1u);
    EXPECT_EQ(stats.shards[last_shard].ran_on_caller, 1u);
    EXPECT_EQ(stats.total_batches, stats.total_submitted);
  }
}

// A client with requests in flight keeps the queue: of 64 Submits made
// before any Get(), only the first finds no other future open and runs on
// the caller. Every answer still matches the oracle.
TEST(ServeEngineTest, OpenFuturesKeepTheQueue) {
  const Corpus corpus = TestCorpus();
  const std::vector<Query> queries = TestQueries(corpus);
  ServeOptions options;
  options.time_shards = 3;
  options.term_buckets = 2;
  StatusOr<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::vector<ResultFuture> futures;
  for (size_t i = 0; i < 64; ++i) {
    futures.push_back((*engine)->Submit(queries[i % queries.size()]));
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    EXPECT_EQ(MustGet(std::move(futures[i])),
              OracleIds(corpus, queries[i % queries.size()]))
        << "query " << i;
  }
  (*engine)->WaitIdle();
  EXPECT_EQ((*engine)->Stats().total_ran_on_caller, 1u);
}

// The hand-off between a caller-run leg and the worker: while the caller
// holds the shard's execution token (parked in the batch hook), a second
// request to the same shard must queue, and the worker may run it only
// after the token is released. WaitIdle() waits for both.
TEST(ServeEngineTest, CallerRunLegHandsQueuedWorkToTheWorker) {
  const Corpus corpus = TestCorpus(300);
  std::atomic<int> batches{0};
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  ServeOptions options;
  options.time_shards = 1;
  options.batch_hook = [&](size_t) {
    if (batches.fetch_add(1) > 0) return;
    parked = true;
    EXPECT_TRUE(Eventually([&] { return release.load(); }));
  };
  StatusOr<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const Query first(Interval(0, 200000), {1});
  const Query second(Interval(0, 100000), {2});

  Ids first_ids;
  std::thread caller([&] { first_ids = MustGet((*engine)->Submit(first)); });
  if (!Eventually([&] { return parked.load(); })) {
    ADD_FAILURE() << "the caller-run leg never reached the batch hook";
    release = true;
    caller.join();
    return;
  }
  ResultFuture queued = (*engine)->Submit(second);
  std::atomic<bool> idle{false};
  std::thread idler([&] {
    (*engine)->WaitIdle();
    idle = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EngineStats stats = (*engine)->Stats();
  EXPECT_EQ(stats.total_ran_on_caller, 1u);
  EXPECT_EQ(stats.max_queue_depth, 1u);  // the worker waits for the token
  EXPECT_FALSE(queued.Ready());
  EXPECT_FALSE(idle.load());

  release = true;
  EXPECT_TRUE(Eventually([&] { return queued.Ready(); }));
  EXPECT_TRUE(Eventually([&] { return idle.load(); }));
  // A lost wake-up leaves the worker asleep with the leg queued; a fresh
  // submission wakes it, so the joins below return and the test fails
  // above instead of hanging here.
  if (!idle.load()) (*engine)->Submit(second);
  caller.join();
  idler.join();

  EXPECT_EQ(first_ids, OracleIds(corpus, first));
  EXPECT_EQ(MustGet(std::move(queued)), OracleIds(corpus, second));
  stats = (*engine)->Stats();
  EXPECT_EQ(stats.total_ran_on_caller, 1u);
  EXPECT_EQ(stats.total_batches, 2u);
  EXPECT_EQ(stats.max_queue_depth, 0u);
}

// Condition (b) alone: a client whose other futures have all retired
// (one resolved, one abandoned while its leg still runs on the worker)
// finds no future open, but the shard is busy, so its leg must queue
// behind the worker's batch instead of running beside it.
TEST(ServeEngineTest, BusyShardQueuesTheLegOfAQuietClient) {
  const Corpus corpus = TestCorpus(300);
  std::atomic<int> batches{0};
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  ServeOptions options;
  options.time_shards = 1;
  options.batch_hook = [&](size_t) {
    if (batches.fetch_add(1) != 1) return;  // park the worker's batch
    parked = true;
    EXPECT_TRUE(Eventually([&] { return release.load(); }));
  };
  StatusOr<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const Query query(Interval(0, 100000), {2});

  ResultFuture on_caller = (*engine)->Submit(query);
  {
    ResultFuture abandoned = (*engine)->Submit(query);  // queued: one open
  }
  ASSERT_TRUE(Eventually([&] { return parked.load(); }));
  EXPECT_EQ(MustGet(std::move(on_caller)), OracleIds(corpus, query));
  ResultFuture queued = (*engine)->Submit(query);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(queued.Ready());
  EXPECT_EQ((*engine)->Stats().total_ran_on_caller, 1u);

  release = true;
  EXPECT_TRUE(Eventually([&] { return queued.Ready(); }));
  EXPECT_EQ(MustGet(std::move(queued)), OracleIds(corpus, query));
  (*engine)->WaitIdle();
  EXPECT_EQ((*engine)->Stats().total_batches, 3u);
}

// Stop() wakes the worker while a submitter holds the execution token
// (parked in the batch hook) and a leg is queued behind it. The worker
// must wait for the token before it drains the queue, and Stop() returns
// only after both legs ran.
TEST(ShardTest, StopWaitsForTheTokenHolder) {
  const Corpus corpus = TestCorpus(300);
  std::unique_ptr<TemporalIrIndex> index = CreateIndex(IndexKind::kNaiveScan);
  ASSERT_TRUE(index->Build(corpus).ok());
  std::vector<ObjectId> id_map(corpus.size());
  std::iota(id_map.begin(), id_map.end(), ObjectId{0});
  std::atomic<int> batches{0};
  std::atomic<bool> parked{false};
  std::atomic<bool> release{false};
  ShardOptions options;
  options.batch_hook = [&](size_t) {
    if (batches.fetch_add(1) > 0) return;
    parked = true;
    EXPECT_TRUE(Eventually([&] { return release.load(); }));
  };
  Shard shard(0, Interval(0, std::numeric_limits<Time>::max()),
              std::move(index), std::move(id_map), options);
  shard.Start();
  const auto leg = [](std::shared_ptr<ResultState> state) {
    Shard::Request request;
    request.query = Query(Interval(0, 200000), {1});
    request.result = std::move(state);
    return request;
  };
  const auto first = std::make_shared<ResultState>(1);
  const auto second = std::make_shared<ResultState>(1);

  std::thread caller([&] {
    EXPECT_TRUE(shard.Submit(leg(first), /*caller_may_run=*/true).ok());
  });
  if (!Eventually([&] { return parked.load(); })) {
    ADD_FAILURE() << "the caller-run leg never reached the batch hook";
    release = true;
    caller.join();
    return;
  }
  EXPECT_TRUE(shard.Submit(leg(second), /*caller_may_run=*/true).ok());
  std::atomic<bool> stopped{false};
  std::thread stopper([&] {
    shard.Stop();
    stopped = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(batches.load(), 1) << "the worker ran beside the token holder";
  EXPECT_FALSE(stopped.load());
  EXPECT_EQ(shard.Stats().ran_on_caller, 1u);

  release = true;
  EXPECT_TRUE(Eventually([&] { return stopped.load(); }));
  caller.join();
  stopper.join();
  EXPECT_EQ(batches.load(), 2);
  EXPECT_TRUE(first->Ready());
  EXPECT_TRUE(second->Ready());
}

TEST(ServeEngineTest, RejectsInvalidOptions) {
  const Corpus corpus = TestCorpus(100);
  ServeOptions options;
  options.time_shards = 0;
  EXPECT_FALSE(ServeEngine::Create(corpus, options).ok());
  options.time_shards = 2;
  options.max_queue_depth = 0;
  EXPECT_FALSE(ServeEngine::Create(corpus, options).ok());
}

TEST(ServeEngineTest, ClampsShardsToTinyDomains) {
  Corpus corpus;
  corpus.Append(Interval(0, 1), {1});
  corpus.Append(Interval(1, 2), {2});
  corpus.DeclareDomain(2);
  ASSERT_TRUE(corpus.Finalize().ok());

  ServeOptions options;
  options.time_shards = 64;  // domain has 3 points; must clamp, not crash
  StatusOr<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_LE((*engine)->time_shards(), 3u);
  EXPECT_EQ(MustGet((*engine)->Submit(Query(Interval(0, 2), {1}))), Ids{0});
}

// The server loop speaks the documented protocol over plain streams.
TEST(ServerLoopTest, SpeaksTheLineProtocol) {
  Corpus corpus;
  corpus.Append(Interval(0, 10), {1, 2});
  corpus.Append(Interval(5, 20), {2, 3});
  corpus.DeclareDomain(1000);
  ASSERT_TRUE(corpus.Finalize().ok());

  ServeOptions options;
  options.time_shards = 2;
  StatusOr<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::istringstream in(
      "# comment\n"
      "\n"
      "query 0 10 2\n"
      "insert 8 30 2 9\n"
      "query 0 10 2\n"
      "erase 0 0 10 1 2\n"
      "query 0 10 2\n"
      "bogus\n"
      "stats\n"
      "flush\n"
      "quit\n"
      "query 0 10 2\n");  // after quit: must not run
  std::ostringstream out;
  const size_t commands = RunServerLoop(engine->get(), in, out);
  EXPECT_EQ(commands, 9u);

  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "OK 2 0 1");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "OK id=2");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "OK 3 0 1 2");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "OK");  // erase
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "OK 2 1 2");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.substr(0, 3), "ERR");  // bogus command
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.substr(0, 11), "stat shards");
  bool saw_bye = false;
  while (std::getline(lines, line)) saw_bye = (line == "BYE");
  EXPECT_TRUE(saw_bye);
}

// An inverted interval is checked before routing, so it gets one answer
// on every layout. Two shards over [0, 10^6] meet at 500000:
// [600000, 400000] straddles the boundary, [400000, 300000] lies inside
// shard 0. A Boolean query over either matches nothing; top-k, insert and
// erase are refused, and the refused inserts burn no id.
TEST(ServerLoopTest, InvertedIntervalsGetOneAnswerOnEveryLayout) {
  Corpus corpus;
  corpus.Append(Interval(300000, 700000), {1, 3});
  corpus.DeclareDomain(1000000);
  ASSERT_TRUE(corpus.Finalize().ok());

  ServeOptions options;
  options.time_shards = 2;
  options.kind = IndexKind::kScoredIrHint;
  StatusOr<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_EQ((*engine)->shard_time_range(1).st, 500000u);

  std::istringstream in(
      "insert 600000 400000 3\n"
      "insert 400000 300000 3\n"
      "erase 0 700000 300000 1 3\n"
      "query 600000 400000 3\n"
      "query 400000 300000 3\n"
      "topk 5 600000 400000 3\n"
      "topk 5 400000 300000 3\n"
      "insert 10 20 3\n"
      "query 0 1000000 3\n");
  std::ostringstream out;
  EXPECT_EQ(RunServerLoop(engine->get(), in, out), 9u);
  const std::vector<std::string> want = {
      "ERR InvalidArgument", "ERR InvalidArgument", "ERR InvalidArgument",
      "OK 0",                "OK 0",                "ERR InvalidArgument",
      "ERR InvalidArgument", "OK id=1",             "OK 2 0 1"};
  std::istringstream lines(out.str());
  std::string line;
  for (const std::string& prefix : want) {
    ASSERT_TRUE(std::getline(lines, line)) << "missing reply " << prefix;
    EXPECT_EQ(line.substr(0, prefix.size()), prefix) << line;
    if (prefix.rfind("OK", 0) == 0) {
      EXPECT_EQ(line, prefix);
    }
  }
}

// An element id at or past kElementIdLimit is refused at the engine: an
// in-memory shard would otherwise grow its per-element table out to the
// id on its worker thread (2 GiB here, 32 GiB at 2^32 - 1). The id is
// not burned and the engine keeps serving.
TEST(ServerLoopTest, RejectsOutOfRangeElementIds) {
  Corpus corpus;
  corpus.Append(Interval(0, 10), {1, 2});
  corpus.DeclareDomain(1000);
  ASSERT_TRUE(corpus.Finalize().ok());

  ServeOptions options;
  options.time_shards = 2;
  StatusOr<std::unique_ptr<ServeEngine>> engine =
      ServeEngine::Create(corpus, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::istringstream in(
      "insert 0 5 268435456\n"
      "insert 0 5 2\n"
      "query 0 10 2\n");
  std::ostringstream out;
  EXPECT_EQ(RunServerLoop(engine->get(), in, out), 3u);
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line.substr(0, 20), "ERR InvalidArgument:") << line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "OK id=1");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "OK 2 0 1");
  const Object bad(0, Interval(0, 10), {1, 2, kElementIdLimit});
  EXPECT_TRUE((*engine)->Erase(bad).IsInvalidArgument());
}

}  // namespace
}  // namespace serve
}  // namespace irhint
