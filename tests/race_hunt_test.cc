// Concurrency race hunt for the durable query/ingest stack. For every
// index kind, a DurableIndex is hammered by a mix of concurrent threads —
// inserts, lagging erases, queries, stats reads, integrity audits, and
// checkpoint triggers (on top of the automatic background checkpointer) —
// then the final state is verified three ways: a deep IntegrityCheck, a
// differential check against a NaiveScan reference of the surviving
// objects, and the same two again after closing and recovering the
// directory. The schedule is nondeterministic by design; the workload is
// seeded and deterministic, so the final expected state is exact.
//
// A second hunt drives the serving engine: a durable sharded engine takes
// the single writer's appends and erases while synchronous clients, a
// client with futures in flight and a stats reader run beside it, so a
// shard's execution token keeps changing hands between submitting threads
// and the shard workers.
//
// This is the test the TSan CI job promotes (TSAN_OPTIONS=halt_on_error=1)
// and the lock-order registry rides along in Debug/sanitizer builds.
//
// Knobs (environment variables):
//   IRHINT_RACE_HUNT_OPS   objects inserted per kind, and by the serving
//                          hunt's writer (default 160)
//   IRHINT_RACE_HUNT_MS    wall-clock budget per kind, and for the serving
//                          hunt's writer; past it the threads wind down
//                          where they are (default 10000 per kind, 2000
//                          for the serving hunt)
//   IRHINT_RACE_HUNT_SEED  workload RNG seed (default 20260805)

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/durable_index.h"
#include "core/factory.h"
#include "core/integrity.h"
#include "serve/engine.h"

namespace irhint {
namespace {

using Ids = std::vector<ObjectId>;

uint64_t EnvKnob(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr && *value != '\0'
             ? std::strtoull(value, nullptr, 10)
             : fallback;
}

Object HuntObject(ObjectId id, std::mt19937_64* rng) {
  Object o;
  o.id = id;
  const uint64_t st = (*rng)() % 100000;
  o.interval = Interval(st, st + 1 + (*rng)() % 5000);
  const size_t n = 1 + (*rng)() % 6;
  for (size_t i = 0; i < n; ++i) o.elements.push_back((*rng)() % 40);
  std::sort(o.elements.begin(), o.elements.end());
  o.elements.erase(std::unique(o.elements.begin(), o.elements.end()),
                   o.elements.end());
  return o;
}

std::vector<Query> HuntQueries(std::mt19937_64* rng) {
  std::vector<Query> queries;
  for (int i = 0; i < 32; ++i) {
    const uint64_t st = (*rng)() % 100000;
    std::vector<ElementId> elements = {
        static_cast<ElementId>((*rng)() % 40)};
    if (i % 3 == 0) elements.push_back(static_cast<ElementId>((*rng)() % 40));
    std::sort(elements.begin(), elements.end());
    elements.erase(std::unique(elements.begin(), elements.end()),
                   elements.end());
    queries.push_back(
        Query(Interval(st, st + 1 + (*rng)() % 20000), std::move(elements)));
  }
  return queries;
}

Ids Answer(const TemporalIrIndex& index, const Query& query) {
  Ids out;
  index.Query(query, &out);
  std::sort(out.begin(), out.end());
  return out;
}

// A NaiveScan holding exactly `objects` (ascending ids).
std::unique_ptr<TemporalIrIndex> NaiveScanOf(
    const std::vector<Object>& objects) {
  std::unique_ptr<TemporalIrIndex> naive = CreateIndex(IndexKind::kNaiveScan);
  Corpus empty;
  empty.DeclareDomain(1);
  EXPECT_TRUE(empty.Finalize().ok());
  EXPECT_TRUE(naive->Build(empty).ok());
  for (const Object& object : objects) {
    EXPECT_TRUE(naive->Insert(object).ok());
  }
  return naive;
}

class RaceHuntTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(RaceHuntTest, ConcurrentMixedWorkloadStaysConsistent) {
  const uint64_t num_objects = EnvKnob("IRHINT_RACE_HUNT_OPS", 160);
  const uint64_t budget_ms = EnvKnob("IRHINT_RACE_HUNT_MS", 10000);
  const uint64_t seed = EnvKnob("IRHINT_RACE_HUNT_SEED", 20260805);
  SCOPED_TRACE("seed=" + std::to_string(seed) +
               " ops=" + std::to_string(num_objects));

  // The workload is generated up front and immutable while the threads
  // run, so sharing the vectors needs no lock.
  std::mt19937_64 rng(seed);
  std::vector<Object> objects;
  objects.reserve(num_objects);
  for (uint64_t i = 0; i < num_objects; ++i) {
    objects.push_back(HuntObject(static_cast<ObjectId>(i), &rng));
  }
  const std::vector<Query> queries = HuntQueries(&rng);

  std::string name(IndexKindName(GetParam()));
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  const std::string dir =
      std::string(::testing::TempDir()) + "/race_hunt_" + name;
  std::filesystem::remove_all(dir);

  DurableIndexOptions options;
  options.kind = GetParam();
  options.durability = WalDurability::kBatch;
  options.batch_bytes = 1024;  // frequent syncs
  options.checkpoint_bytes = 8 * 1024;
  options.background_checkpoint = true;  // automatic checkpointer churns too
  auto opened = DurableIndex::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  DurableIndex* index = opened->get();
  index->EnableStats(true);

  // inserted/erased are contiguous progress watermarks: objects
  // [erased, inserted) are live. The erase thread trails the insert thread
  // by kEraseLag so it only ever erases objects whose Insert has returned.
  constexpr uint64_t kEraseLag = 24;
  std::atomic<uint64_t> inserted{0};
  std::atomic<uint64_t> erased{0};
  std::atomic<bool> halt{false};  // wall-clock budget exhausted
  std::atomic<bool> stop{false};  // insert/erase wound down; drain the rest

  std::thread insert_thread([&] {
    for (uint64_t i = 0; i < num_objects && !halt.load(); ++i) {
      ASSERT_TRUE(index->Insert(objects[i]).ok());
      inserted.store(i + 1, std::memory_order_release);
    }
  });

  std::thread erase_thread([&] {
    uint64_t j = 0;
    while (!halt.load()) {
      const uint64_t limit = inserted.load(std::memory_order_acquire);
      if (j + kEraseLag >= limit) {
        if (limit == num_objects) break;  // inserts done; stop lagging
        std::this_thread::yield();
        continue;
      }
      ASSERT_TRUE(index->Erase(objects[j]).ok());
      ++j;
      erased.store(j, std::memory_order_release);
    }
  });

  std::vector<std::thread> query_threads;
  for (int t = 0; t < 2; ++t) {
    query_threads.emplace_back([&] {
      size_t qi = 0;
      while (!stop.load()) {
        // Erases of objects [0, floor) returned before this query locked
        // the index, so none of those ids may ever come back.
        const uint64_t floor = erased.load(std::memory_order_acquire);
        const Ids out = Answer(*index, queries[qi % queries.size()]);
        ++qi;
        for (const ObjectId id : out) {
          ASSERT_LT(static_cast<uint64_t>(id), num_objects);
          ASSERT_GE(static_cast<uint64_t>(id), floor)
              << "query returned an object whose erase completed earlier";
        }
      }
    });
  }

  std::thread stats_thread([&] {
    uint64_t ticks = 0;
    while (!stop.load()) {
      (void)index->Stats();
      (void)index->MemoryUsageBytes();
      (void)index->Kind();
      (void)index->next_lsn();
      if (++ticks % 64 == 0) index->ResetStats();
      std::this_thread::yield();
    }
  });

  std::thread integrity_thread([&] {
    while (!stop.load()) {
      const Status st = index->IntegrityCheck(CheckLevel::kQuick);
      ASSERT_TRUE(st.ok()) << st.ToString();
      std::this_thread::yield();
    }
  });

  std::thread checkpoint_thread([&] {
    while (!stop.load()) {
      const Status st = index->TriggerCheckpoint();
      ASSERT_TRUE(st.ok()) << st.ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Wind down: give the mutators the budget, then drain the readers.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);
  while (inserted.load() < num_objects &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  halt.store(true);
  insert_thread.join();
  erase_thread.join();
  stop.store(true);
  for (std::thread& t : query_threads) t.join();
  stats_thread.join();
  integrity_thread.join();
  checkpoint_thread.join();
  ASSERT_TRUE(index->WaitForCheckpoint().ok());

  // The quiescent state is exact: objects [final_erased, final_inserted)
  // survive. Verify deep integrity and differential equality against a
  // NaiveScan reference, then once more after close + recovery.
  const uint64_t final_inserted = inserted.load();
  const uint64_t final_erased = erased.load();
  ASSERT_GE(final_inserted, final_erased);
  {
    const Status st = index->IntegrityCheck(CheckLevel::kDeep);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  std::unique_ptr<TemporalIrIndex> reference =
      CreateIndex(IndexKind::kNaiveScan);
  Corpus empty;
  empty.DeclareDomain(1);
  ASSERT_TRUE(empty.Finalize().ok());
  ASSERT_TRUE(reference->Build(empty).ok());
  for (uint64_t i = final_erased; i < final_inserted; ++i) {
    ASSERT_TRUE(reference->Insert(objects[i]).ok());
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(Answer(*index, queries[i]), Answer(*reference, queries[i]))
        << "query " << i << " diverges after the concurrent mix";
  }

  opened->reset();  // clean close: checkpointer stops, log syncs
  auto recovered = DurableIndex::Open(dir, options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  {
    const Status st = (*recovered)->IntegrityCheck(CheckLevel::kDeep);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(Answer(**recovered, queries[i]), Answer(*reference, queries[i]))
        << "query " << i << " diverges after recovery";
  }
  recovered->reset();
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, RaceHuntTest,
    ::testing::Values(IndexKind::kNaiveScan, IndexKind::kTif,
                      IndexKind::kTifSlicing, IndexKind::kTifSharding,
                      IndexKind::kTifHintBinarySearch,
                      IndexKind::kTifHintMergeSort, IndexKind::kTifHintSlicing,
                      IndexKind::kIrHintPerf, IndexKind::kIrHintSize),
    [](const ::testing::TestParamInfo<IndexKind>& info) {
      std::string name(IndexKindName(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// The serving hunt. The engine is durable, 2 time shards x 2 term buckets,
// built over `ops` objects. The single writer appends `ops` more and
// erases every third built one; two synchronous clients, a client that
// submits bursts before it collects them, and a Stats/WaitIdle reader run
// beside it. While the writer runs, an answer must lie between the answer
// over the objects no update touches and the answer over every object the
// run ever holds, as servebench checks ingest_mixed. Once the writer is
// done and the engine idle, answers equal a NaiveScan mirror exactly.
TEST(ServeRaceHuntTest, WriterAndClientsStayConsistent) {
  const uint64_t ops = EnvKnob("IRHINT_RACE_HUNT_OPS", 160);
  const uint64_t budget_ms = EnvKnob("IRHINT_RACE_HUNT_MS", 2000);
  const uint64_t seed = EnvKnob("IRHINT_RACE_HUNT_SEED", 20260805);
  SCOPED_TRACE("seed=" + std::to_string(seed) + " ops=" + std::to_string(ops));

  std::mt19937_64 rng(seed);
  std::vector<Object> objects;
  objects.reserve(2 * ops);
  for (uint64_t i = 0; i < 2 * ops; ++i) {
    objects.push_back(HuntObject(static_cast<ObjectId>(i), &rng));
  }
  const std::vector<Query> queries = HuntQueries(&rng);
  Corpus built;
  std::vector<Object> untouched;  // built objects the writer never erases
  for (uint64_t i = 0; i < ops; ++i) {
    built.Append(objects[i].interval, objects[i].elements);
    if (i % 3 != 0) untouched.push_back(objects[i]);
  }
  ASSERT_TRUE(built.Finalize().ok());
  std::vector<Ids> lower, upper;
  {
    const std::unique_ptr<TemporalIrIndex> stable = NaiveScanOf(untouched);
    const std::unique_ptr<TemporalIrIndex> every = NaiveScanOf(objects);
    for (const Query& query : queries) {
      lower.push_back(Answer(*stable, query));
      upper.push_back(Answer(*every, query));
    }
  }

  const std::string dir =
      std::string(::testing::TempDir()) + "/race_hunt_serve";
  std::filesystem::remove_all(dir);
  serve::ServeOptions options;
  options.time_shards = 2;
  options.term_buckets = 2;
  options.wal_dir = dir;
  auto engine = serve::ServeEngine::Create(built, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  serve::ServeEngine* server = engine->get();

  // Read by the main thread only after the writer is joined.
  uint64_t inserted = 0;
  std::vector<ObjectId> erased;
  std::atomic<uint64_t> writer_failures{0};
  std::atomic<uint64_t> wrong_answers{0};
  std::atomic<bool> stop{false};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(budget_ms);

  std::thread writer([&] {
    for (uint64_t i = 0; i < ops; ++i) {
      if (std::chrono::steady_clock::now() >= deadline) break;
      const Object& object = objects[ops + i];
      const StatusOr<ObjectId> id =
          server->AppendInsert(object.interval, object.elements);
      if (!id.ok() || *id != object.id) ++writer_failures;
      ++inserted;
      if (i % 3 == 0) {
        if (!server->Erase(objects[i]).ok()) ++writer_failures;
        erased.push_back(objects[i].id);
      }
    }
  });
  const auto check = [&](size_t q, const StatusOr<Ids>& got) {
    if (!got.ok() ||
        !std::includes(got->begin(), got->end(), lower[q].begin(),
                       lower[q].end()) ||
        !std::includes(upper[q].begin(), upper[q].end(), got->begin(),
                       got->end())) {
      ++wrong_answers;
    }
  };
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 2; ++c) {
    clients.emplace_back([&, c] {
      for (size_t q = c; !stop.load(); q = (q + 1) % queries.size()) {
        check(q, server->Execute(queries[q]));
      }
    });
  }
  clients.emplace_back([&] {
    constexpr size_t kBurst = 8;
    for (size_t first = 0; !stop.load(); first += kBurst) {
      std::vector<serve::ResultFuture> futures;
      for (size_t i = 0; i < kBurst; ++i) {
        futures.push_back(
            server->Submit(queries[(first + i) % queries.size()]));
      }
      for (size_t i = 0; i < kBurst; ++i) {
        check((first + i) % queries.size(), futures[i].Get());
      }
    }
  });
  clients.emplace_back([&] {
    while (!stop.load()) {
      (void)server->Stats();
      server->WaitIdle();
      std::this_thread::yield();
    }
  });

  writer.join();
  stop.store(true);
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(writer_failures.load(), 0u);
  EXPECT_EQ(wrong_answers.load(), 0u)
      << "an answer fell outside the before/after bounds mid-ingest";

  server->WaitIdle();
  std::vector<Object> live;
  for (uint64_t i = 0; i < ops + inserted; ++i) {
    if (!std::binary_search(erased.begin(), erased.end(), objects[i].id)) {
      live.push_back(objects[i]);
    }
  }
  const std::unique_ptr<TemporalIrIndex> mirror = NaiveScanOf(live);
  for (size_t q = 0; q < queries.size(); ++q) {
    const StatusOr<Ids> got = server->Execute(queries[q]);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, Answer(*mirror, queries[q])) << "query " << q;
  }
  const serve::EngineStats stats = server->Stats();
  EXPECT_EQ(stats.total_shed, 0u);
  EXPECT_EQ(stats.total_completed, stats.total_submitted);
  EXPECT_GT(stats.total_ran_on_caller, 0u);
  engine->reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace irhint
