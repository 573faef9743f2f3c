// irhint_cli — command-line driver for the library.
//
// Subcommands:
//   generate   synthesize a corpus and write it to disk
//       --out FILE [--kind synthetic|eclog|wikipedia] [--scale S]
//       [--cardinality N] [--domain T] [--alpha A] [--sigma S]
//       [--dictionary D] [--dsize K] [--zeta Z] [--seed S]
//   stats      print Table 3-style statistics of a corpus file
//       --in FILE
//   build      build one index over a corpus and save it as a snapshot
//       --in FILE --save FILE [--index NAME]
//   bench      build one index over a corpus and measure throughput
//       --in FILE [--index NAME] [--queries N] [--extent PCT] [--k K]
//       [--threads N] (0/1 = serial; defaults to IRHINT_THREADS)
//       [--stats 1]   (collect and print per-index work counters)
//       [--load FILE] (load a snapshot instead of building; reports the
//                      cold-start load time) [--mmap 0|1] (default 1)
//       [--verify 1]  (with --load: also rebuild from the corpus and check
//                      that both indexes answer the workload identically)
//   query      evaluate one time-travel IR query
//       --in FILE --st T --end T --elements e1,e2,... [--index NAME]
//   topk       evaluate one ranked top-k query (disjunctive, impact-scored;
//              needs a scored-* index, default scored-irhint)
//       --in FILE --st T --end T --elements e1,e2,... [--k K] [--index NAME]
//       [--oracle 1] (also run the exhaustive scorer and cross-check)
//   ingest     durably ingest a corpus into a WAL-backed live index; the
//              directory is recovered first, so re-running after a crash
//              (or on a half-ingested directory) resumes where it stopped
//       --in FILE --wal-dir DIR [--index NAME]
//       [--durability none|batch|always] (default batch)
//       [--checkpoint-bytes N] (default 64 MiB; 0 = never checkpoint)
//       [--batch-bytes N]      (group-commit threshold, default 256 KiB)
//       [--count N] [--start N] (object range to ingest; default: all)
//       [--verify 1]  (answer a workload on the ingested index and on a
//                      NaiveScan over the same objects, compare)
//   serve      run the sharded serving engine behind the line protocol of
//              src/serve/server_loop.h on stdin/stdout
//       --in FILE [--shards N] [--buckets N] [--index NAME]
//       [--queue-depth N] [--max-batch N]
//       [--wal-dir DIR] [--durability none|batch|always]
//       [--checkpoint-bytes N]
//       e.g. irhint_cli generate --out c.bin --cardinality 20000
//                --domain 1000000
//            printf 'query 0 500000 3 17\nstats\nquit\n' |
//                irhint_cli serve --in c.bin
//
// Index names (ParseIndexKind; any other name is refused): naive, tif,
// slicing, sharding, hint-bs, hint-ms, hybrid, irhint-perf (default),
// irhint-size, scored-tif, scored-irhint.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/timer.h"
#include "core/durable_index.h"
#include "core/factory.h"
#include "core/integrity.h"
#include "data/query_gen.h"
#include "data/real_sim.h"
#include "data/serialize.h"
#include "data/synthetic.h"
#include "eval/runner.h"
#include "rank/scored_index.h"
#include "serve/server_loop.h"
#include "storage/index_io.h"

using namespace irhint;

namespace {

struct Args {
  std::string command;
  FlatHashMap<std::string, std::string> options;

  const char* Get(const std::string& key, const char* fallback) const {
    const std::string* value = options.find(key);
    return value != nullptr ? value->c_str() : fallback;
  }
  double GetDouble(const std::string& key, double fallback) const {
    const std::string* value = options.find(key);
    return value != nullptr ? std::atof(value->c_str()) : fallback;
  }
  uint64_t GetU64(const std::string& key, uint64_t fallback) const {
    const std::string* value = options.find(key);
    return value != nullptr
               ? static_cast<uint64_t>(std::atoll(value->c_str()))
               : fallback;
  }
  bool Has(const std::string& key) const {
    return options.find(key) != nullptr;
  }
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return false;
    args->options.insert_or_assign(argv[i] + 2, argv[i + 1]);
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: irhint_cli "
               "<generate|stats|build|bench|query|topk|ingest|serve> "
               "[--opt value]\n"
               "see the header of tools/irhint_cli.cc for details\n");
  return 2;
}

/// The --index flag, or `fallback` when it is absent. An unknown name is
/// reported on stderr and comes back as an error.
StatusOr<IndexKind> KindFromArgs(const Args& args, const char* fallback) {
  StatusOr<IndexKind> kind = ParseIndexKind(args.Get("index", fallback));
  if (!kind.ok()) {
    std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
  }
  return kind;
}

int Generate(const Args& args) {
  if (!args.Has("out")) return Usage();
  const std::string kind = args.Get("kind", "synthetic");
  Corpus corpus;
  if (kind == "eclog") {
    corpus = MakeEclogLike(args.GetDouble("scale", 0.05),
                           args.GetU64("seed", 7));
  } else if (kind == "wikipedia") {
    corpus = MakeWikipediaLike(args.GetDouble("scale", 0.005),
                               args.GetU64("seed", 11));
  } else {
    SyntheticParams params;
    params.cardinality = args.GetU64("cardinality", 100000);
    params.domain = args.GetU64("domain", 16'000'000);
    params.alpha = args.GetDouble("alpha", 1.2);
    params.sigma = args.GetU64("sigma", 1'000'000);
    params.dictionary_size = args.GetU64("dictionary", 10'000);
    params.description_size =
        static_cast<uint32_t>(args.GetU64("dsize", 10));
    params.zeta = args.GetDouble("zeta", 1.5);
    params.seed = args.GetU64("seed", 42);
    corpus = GenerateSynthetic(params);
  }
  const Status st = SaveCorpus(corpus, args.Get("out", ""));
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu objects to %s\n", corpus.size(),
              args.Get("out", ""));
  return 0;
}

/// The --in corpus; a failure is reported on stderr and comes back as an
/// error.
StatusOr<Corpus> LoadFromArgs(const Args& args) {
  StatusOr<Corpus> corpus = Status::InvalidArgument("--in required");
  if (args.Has("in")) corpus = LoadCorpus(args.Get("in", ""));
  if (!corpus.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 corpus.status().ToString().c_str());
  }
  return corpus;
}

/// The query given by --st, --end and --elements e1,e2,...
Query QueryFromArgs(const Args& args) {
  std::vector<ElementId> elements;
  const char* spec = args.Get("elements", "");
  while (*spec != '\0') {
    char* next = nullptr;
    elements.push_back(
        static_cast<ElementId>(std::strtoull(spec, &next, 10)));
    spec = (*next == ',') ? next + 1 : next;
  }
  return Query(Interval(args.GetU64("st", 0), args.GetU64("end", 0)),
               std::move(elements));
}

int Stats(const Args& args) {
  StatusOr<Corpus> corpus = LoadFromArgs(args);
  if (!corpus.ok()) return 1;
  std::printf("%s", corpus->Stats().ToString().c_str());
  return 0;
}

int Build(const Args& args) {
  if (!args.Has("save")) return Usage();
  const StatusOr<IndexKind> kind = KindFromArgs(args, "irhint-perf");
  if (!kind.ok()) return 1;
  StatusOr<Corpus> corpus = LoadFromArgs(args);
  if (!corpus.ok()) return 1;
  std::unique_ptr<TemporalIrIndex> index = CreateIndex(*kind);
  const BuildStats build = MeasureBuild(index.get(), *corpus);
  if (build.seconds < 0) {
    std::fprintf(stderr, "build failed\n");
    return 1;
  }
  std::printf("built %s in %.2fs (%.1f MB)\n",
              std::string(index->Name()).c_str(), build.seconds,
              static_cast<double>(build.bytes) / 1048576.0);
  Timer timer;
  const Status st = SaveIndex(*index, args.Get("save", ""));
  if (!st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("saved snapshot to %s in %.2fs\n", args.Get("save", ""),
              timer.Seconds());
  return 0;
}

int Bench(const Args& args) {
  StatusOr<Corpus> corpus = LoadFromArgs(args);
  if (!corpus.ok()) return 1;
  std::unique_ptr<TemporalIrIndex> index;
  if (args.Has("load")) {
    SnapshotReadOptions options;
    options.use_mmap = args.GetU64("mmap", 1) != 0;
    Timer timer;
    StatusOr<LoadedIndex> loaded =
        LoadIndexSnapshot(args.Get("load", ""), options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "snapshot load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    const double seconds = timer.Seconds();
    index = std::move(loaded->index);
    std::printf("loaded %s from %s in %.4fs (cold start, %s; %.1f MB heap)\n",
                std::string(index->Name()).c_str(), args.Get("load", ""),
                seconds, options.use_mmap ? "mmap" : "buffered",
                static_cast<double>(index->MemoryUsageBytes()) / 1048576.0);
  } else {
    const StatusOr<IndexKind> kind = KindFromArgs(args, "irhint-perf");
    if (!kind.ok()) return 1;
    index = CreateIndex(*kind);
    const BuildStats build = MeasureBuild(index.get(), *corpus);
    if (build.seconds < 0) {
      std::fprintf(stderr, "build failed\n");
      return 1;
    }
    std::printf("built %s in %.2fs (%.1f MB)\n",
                std::string(index->Name()).c_str(), build.seconds,
                static_cast<double>(build.bytes) / 1048576.0);
  }
  WorkloadGenerator generator(*corpus, args.GetU64("seed", 1));
  const std::vector<Query> queries = generator.ExtentWorkload(
      args.GetDouble("extent", 0.1),
      static_cast<uint32_t>(args.GetU64("k", 3)),
      args.GetU64("queries", 1000));

  if (args.Has("load") && args.GetU64("verify", 0) != 0) {
    // Same deep pass as irhint_fsck: structural invariants first, then the
    // behavioural cross-check against a fresh build.
    if (Status st = index->IntegrityCheck(CheckLevel::kDeep); !st.ok()) {
      std::fprintf(stderr, "verify FAILED: integrity check: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::unique_ptr<TemporalIrIndex> fresh = CreateIndex(index->Kind());
    if (Status st = fresh->Build(*corpus); !st.ok()) {
      std::fprintf(stderr, "verify build failed: %s\n", st.ToString().c_str());
      return 1;
    }
    std::vector<ObjectId> got, want;
    for (size_t i = 0; i < queries.size(); ++i) {
      index->Query(queries[i], &got);
      fresh->Query(queries[i], &want);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      if (got != want) {
        std::fprintf(stderr,
                     "verify FAILED: query %zu differs (%zu vs %zu results)\n",
                     i, got.size(), want.size());
        return 1;
      }
    }
    std::printf("verify: %zu queries answered identically by the loaded "
                "and rebuilt index\n",
                queries.size());
  }

  const bool collect_stats = args.GetU64("stats", 0) != 0;
  if (collect_stats) index->EnableStats(true);

  // A negative --threads would wrap to a huge size_t; treat it as serial.
  const long long threads_flag = static_cast<long long>(
      args.GetU64("threads", BenchThreadsFromEnv(1)));
  const size_t threads =
      threads_flag > 0 ? static_cast<size_t>(threads_flag) : 1;
  if (threads > 1) {
    const QueryStats stats = ParallelMeasureQueries(*index, queries, threads);
    std::printf(
        "%zu queries x %zu threads: %.0f queries/s (%llu results, "
        "p50 %.1f us, p99 %.1f us)\n",
        queries.size(), stats.num_threads, stats.queries_per_second,
        static_cast<unsigned long long>(stats.total_results),
        stats.latency_p50_us, stats.latency_p99_us);
  } else {
    const QueryStats stats = MeasureQueries(*index, queries);
    std::printf("%zu queries: %.0f queries/s (%llu results)\n",
                queries.size(), stats.queries_per_second,
                static_cast<unsigned long long>(stats.total_results));
  }

  if (collect_stats) {
    if (const std::optional<QueryCounters> counters = index->Stats()) {
      std::printf("work counters:\n");
      std::printf("  divisions_visited        %llu\n",
                  static_cast<unsigned long long>(counters->divisions_visited));
      std::printf("  postings_scanned         %llu\n",
                  static_cast<unsigned long long>(counters->postings_scanned));
      std::printf(
          "  intersections_performed  %llu\n",
          static_cast<unsigned long long>(counters->intersections_performed));
      std::printf(
          "  candidates_verified      %llu\n",
          static_cast<unsigned long long>(counters->candidates_verified));
      std::printf("  postings_scored          %llu\n",
                  static_cast<unsigned long long>(counters->postings_scored));
      std::printf("  blocks_skipped           %llu\n",
                  static_cast<unsigned long long>(counters->blocks_skipped));
      std::printf(
          "  divisions_skipped        %llu\n",
          static_cast<unsigned long long>(counters->divisions_skipped));
    } else {
      std::printf("work counters: not supported by %s\n",
                  std::string(index->Name()).c_str());
    }
  }
  return 0;
}

int RunQuery(const Args& args) {
  const StatusOr<IndexKind> kind = KindFromArgs(args, "irhint-perf");
  if (!kind.ok()) return 1;
  StatusOr<Corpus> corpus = LoadFromArgs(args);
  if (!corpus.ok()) return 1;
  if (!args.Has("st") || !args.Has("end") || !args.Has("elements")) {
    return Usage();
  }
  std::unique_ptr<TemporalIrIndex> index = CreateIndex(*kind);
  if (Status st = index->Build(*corpus); !st.ok()) {
    std::fprintf(stderr, "build failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const Query query = QueryFromArgs(args);
  std::vector<ObjectId> results;
  Timer timer;
  index->Query(query, &results);
  const double micros = timer.Seconds() * 1e6;
  std::printf("%zu results in %.1f us:", results.size(), micros);
  const size_t shown = std::min<size_t>(results.size(), 20);
  for (size_t i = 0; i < shown; ++i) std::printf(" %u", results[i]);
  if (results.size() > shown) std::printf(" ...");
  std::printf("\n");
  return 0;
}

int TopK(const Args& args) {
  const StatusOr<IndexKind> kind = KindFromArgs(args, "scored-irhint");
  if (!kind.ok()) return 1;
  StatusOr<Corpus> corpus = LoadFromArgs(args);
  if (!corpus.ok()) return 1;
  if (!args.Has("st") || !args.Has("end") || !args.Has("elements")) {
    return Usage();
  }
  std::unique_ptr<TemporalIrIndex> index = CreateIndex(*kind);
  if (Status st = index->Build(*corpus); !st.ok()) {
    std::fprintf(stderr, "build failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const Query query = QueryFromArgs(args);
  const uint32_t k = static_cast<uint32_t>(args.GetU64("k", 10));
  std::vector<ScoredHit> hits;
  Timer timer;
  if (Status st = index->TopKQuery(query, k, &hits); !st.ok()) {
    std::fprintf(stderr, "topk failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const double micros = timer.Seconds() * 1e6;
  std::printf("top-%u (%zu hits) in %.1f us:", k, hits.size(), micros);
  for (const ScoredHit& hit : hits) {
    std::printf(" %u:%llu", hit.id, static_cast<unsigned long long>(hit.score));
  }
  std::printf("\n");
  if (args.GetU64("oracle", 0) != 0) {
    auto* scored = dynamic_cast<ScoredIndex*>(index.get());
    if (scored == nullptr) {
      std::fprintf(stderr, "--oracle needs a scored-* index\n");
      return 1;
    }
    std::vector<ScoredHit> oracle;
    if (Status st = scored->TopKOracle(query, k, &oracle); !st.ok()) {
      std::fprintf(stderr, "oracle failed: %s\n", st.ToString().c_str());
      return 1;
    }
    if (oracle != hits) {
      std::fprintf(stderr, "MISMATCH: traversal and oracle disagree\n");
      return 1;
    }
    std::printf("oracle: identical (%zu hits)\n", oracle.size());
  }
  return 0;
}

int Ingest(const Args& args) {
  if (!args.Has("wal-dir")) return Usage();
  const StatusOr<IndexKind> kind = KindFromArgs(args, "irhint-perf");
  if (!kind.ok()) return 1;
  StatusOr<Corpus> corpus = LoadFromArgs(args);
  if (!corpus.ok()) return 1;

  DurableIndexOptions options;
  options.kind = *kind;
  StatusOr<WalDurability> durability =
      ParseWalDurability(args.Get("durability", "batch"));
  if (!durability.ok()) {
    std::fprintf(stderr, "%s\n", durability.status().ToString().c_str());
    return 1;
  }
  options.durability = durability.value();
  options.checkpoint_bytes = args.GetU64("checkpoint-bytes", 64ull << 20);
  options.batch_bytes = args.GetU64("batch-bytes", 256 * 1024);

  Timer open_timer;
  StatusOr<std::unique_ptr<DurableIndex>> opened =
      DurableIndex::Open(args.Get("wal-dir", ""), options);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<DurableIndex> index = std::move(opened).value();
  const RecoveryResult& recovery = index->recovery_info();
  std::printf("recovered %s in %.3fs: last LSN %llu", args.Get("wal-dir", ""),
              open_timer.Seconds(),
              static_cast<unsigned long long>(recovery.last_lsn));
  if (!recovery.snapshot_file.empty()) {
    std::printf(", snapshot %s (LSN %llu)", recovery.snapshot_file.c_str(),
                static_cast<unsigned long long>(recovery.snapshot_lsn));
  }
  std::printf(", %llu records replayed",
              static_cast<unsigned long long>(recovery.records_replayed));
  if (recovery.torn_bytes_dropped > 0) {
    std::printf(", %llu torn bytes dropped",
                static_cast<unsigned long long>(recovery.torn_bytes_dropped));
  }
  std::printf("\n");

  const size_t start =
      std::min<size_t>(args.GetU64("start", 0), corpus->size());
  const size_t count =
      std::min<size_t>(args.GetU64("count", corpus->size() - start),
                       corpus->size() - start);
  size_t inserted = 0, already = 0;
  Timer timer;
  for (size_t i = start; i < start + count; ++i) {
    const Status st = index->Insert(corpus->object(static_cast<ObjectId>(i)));
    if (st.ok()) {
      ++inserted;
    } else if (st.IsAlreadyExists()) {
      ++already;  // a previous (possibly crashed) run got this far
    } else {
      std::fprintf(stderr, "insert of object %zu failed: %s\n", i,
                   st.ToString().c_str());
      return 1;
    }
  }
  if (Status st = index->Flush(); !st.ok()) {
    std::fprintf(stderr, "flush failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const double seconds = timer.Seconds();
  std::printf(
      "ingested %zu objects (%zu already present) in %.3fs under "
      "durability=%s: %.0f objects/s\n",
      inserted, already, seconds,
      std::string(WalDurabilityName(options.durability)).c_str(),
      seconds > 0 ? static_cast<double>(inserted) / seconds : 0.0);
  if (Status st = index->WaitForCheckpoint(); !st.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wal: next LSN %llu, synced LSN %llu, live segment %llu "
              "(%llu bytes)\n",
              static_cast<unsigned long long>(index->next_lsn()),
              static_cast<unsigned long long>(index->last_synced_lsn()),
              static_cast<unsigned long long>(index->wal_segment_seq()),
              static_cast<unsigned long long>(index->wal_segment_bytes()));

  if (args.GetU64("verify", 0) != 0) {
    // Same deep pass as irhint_fsck, covering the WAL watermarks and the
    // inner index, before the behavioural cross-check.
    if (Status st = index->IntegrityCheck(CheckLevel::kDeep); !st.ok()) {
      std::fprintf(stderr, "verify FAILED: integrity check: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    // The directory may have been ingested across several runs, but always
    // from a prefix of this corpus (inserts only), so NaiveScan over the
    // same prefix is the ground truth.
    const Corpus prefix = corpus->Prefix(start + count);
    std::unique_ptr<TemporalIrIndex> naive =
        CreateIndex(IndexKind::kNaiveScan);
    if (Status st = naive->Build(prefix); !st.ok()) {
      std::fprintf(stderr, "verify build failed: %s\n", st.ToString().c_str());
      return 1;
    }
    WorkloadGenerator generator(*corpus, args.GetU64("seed", 1));
    const std::vector<Query> queries = generator.ExtentWorkload(
        0.1, /*k=*/3, args.GetU64("queries", 200));
    std::vector<ObjectId> got, want;
    for (size_t i = 0; i < queries.size(); ++i) {
      index->Query(queries[i], &got);
      naive->Query(queries[i], &want);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      if (got != want) {
        std::fprintf(stderr,
                     "verify FAILED: query %zu differs (%zu vs %zu results)\n",
                     i, got.size(), want.size());
        return 1;
      }
    }
    std::printf("verify: %zu queries answered identically by the durable "
                "index and a NaiveScan reference\n",
                queries.size());
  }
  return 0;
}

int Serve(const Args& args) {
  const StatusOr<IndexKind> kind = KindFromArgs(args, "irhint-perf");
  if (!kind.ok()) return 1;
  StatusOr<Corpus> corpus = LoadFromArgs(args);
  if (!corpus.ok()) return 1;

  serve::ServeOptions options;
  options.time_shards = static_cast<uint32_t>(args.GetU64("shards", 4));
  options.term_buckets = static_cast<uint32_t>(args.GetU64("buckets", 1));
  options.kind = *kind;
  options.max_queue_depth = args.GetU64("queue-depth", 1024);
  options.max_batch = args.GetU64("max-batch", 64);
  options.wal_dir = args.Get("wal-dir", "");
  options.checkpoint_bytes = args.GetU64("checkpoint-bytes", 0);
  StatusOr<WalDurability> durability =
      ParseWalDurability(args.Get("durability", "batch"));
  if (!durability.ok()) {
    std::fprintf(stderr, "%s\n", durability.status().ToString().c_str());
    return 1;
  }
  options.durability = durability.value();

  StatusOr<std::unique_ptr<serve::ServeEngine>> engine =
      serve::ServeEngine::Create(*corpus, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine start failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "serving %zu objects across %zu shards (%u time x %u term, "
               "%s%s); type 'help'\n",
               corpus->size(), (*engine)->num_shards(),
               (*engine)->time_shards(), (*engine)->term_buckets(),
               std::string(IndexKindName(options.kind)).c_str(),
               options.wal_dir.empty() ? "" : ", durable");
  serve::RunServerLoop(engine->get(), std::cin, std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  if (args.command == "generate") return Generate(args);
  if (args.command == "stats") return Stats(args);
  if (args.command == "build") return Build(args);
  if (args.command == "bench") return Bench(args);
  if (args.command == "query") return RunQuery(args);
  if (args.command == "topk") return TopK(args);
  if (args.command == "ingest") return Ingest(args);
  if (args.command == "serve") return Serve(args);
  return Usage();
}
