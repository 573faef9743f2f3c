#include "serve/engine.h"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <numeric>
#include <type_traits>
#include <utility>

#include "core/durable_index.h"

namespace irhint {
namespace serve {

uint32_t TermBucket(ElementId element, uint32_t buckets) {
  // splitmix64 finalizer: cheap, well-mixed, stable across platforms.
  uint64_t z = static_cast<uint64_t>(element) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<uint32_t>(z % buckets);
}

StatusOr<std::unique_ptr<ServeEngine>> ServeEngine::Create(
    const Corpus& corpus, const ServeOptions& options) {
  if (options.time_shards < 1 || options.term_buckets < 1) {
    return Status::InvalidArgument("time_shards and term_buckets must be >= 1");
  }
  if (options.max_queue_depth < 1 || options.max_batch < 1) {
    return Status::InvalidArgument(
        "max_queue_depth and max_batch must be >= 1");
  }

  std::unique_ptr<ServeEngine> engine(new ServeEngine());
  const Time domain_end = corpus.domain_end();
  // Number of representable time points; 128-bit so domain_end ==
  // Time::max does not wrap.
  const unsigned __int128 span =
      static_cast<unsigned __int128>(domain_end) + 1;
  const uint32_t time_shards = static_cast<uint32_t>(
      std::min<unsigned __int128>(options.time_shards, span));
  engine->time_shards_ = time_shards;
  engine->term_buckets_ = options.term_buckets;
  engine->shard_starts_.reserve(time_shards);
  for (uint32_t t = 0; t < time_shards; ++t) {
    engine->shard_starts_.push_back(static_cast<Time>(span * t / time_shards));
  }

  // Per-time-shard coordinate frames: shard t serves [lo, hi] rebased to
  // 0 (hi saturated for the last shard so live inserts past the built
  // domain still route somewhere). Building over the rebased 1/N span
  // makes each shard's divisions proportionally finer — the throughput
  // lever narrow queries pay for.
  std::vector<Interval> ranges(time_shards);
  for (uint32_t t = 0; t < time_shards; ++t) {
    ranges[t] = Interval(engine->shard_starts_[t],
                         t + 1 < time_shards
                             ? engine->shard_starts_[t + 1] - 1
                             : std::numeric_limits<Time>::max());
  }

  // Partition: replicate every object into each covering (time, bucket)
  // cell, clamped+rebased to the shard frame and renumbered to dense local
  // ids with the global id remembered in the shard's id map. Scored kinds
  // keep GLOBAL coordinates instead: an impact score is a pure function of
  // the global interval end, so a rebased replica would score differently
  // than the same object on another shard and break the cross-shard merge.
  const bool scored = KindSupportsTopK(options.kind);
  const size_t num_shards =
      static_cast<size_t>(time_shards) * options.term_buckets;
  std::vector<Corpus> locals(num_shards);
  std::vector<std::vector<ObjectId>> id_maps(num_shards);
  for (size_t shard = 0; shard < num_shards; ++shard) {
    const Interval& range = ranges[shard / options.term_buckets];
    locals[shard].set_dictionary(corpus.dictionary());
    locals[shard].DeclareDomain(
        scored ? domain_end : std::min(domain_end, range.end) - range.st);
  }
  std::vector<size_t> cells;
  for (const Object& object : corpus.objects()) {
    engine->Route(/*conjunctive=*/false, object.interval, object.elements,
                  &cells);
    for (const size_t shard : cells) {
      locals[shard].Append(
          scored ? object.interval
                 : Rebase(object.interval,
                          ranges[shard / options.term_buckets]),
          object.elements);
      id_maps[shard].push_back(object.id);
    }
  }

  const bool durable = !options.wal_dir.empty();
  if (durable) {
    std::error_code ec;
    std::filesystem::create_directories(options.wal_dir, ec);
    if (ec) {
      return Status::IoError("cannot create wal_dir " + options.wal_dir +
                             ": " + ec.message());
    }
  }

  ShardOptions shard_options;
  shard_options.max_queue_depth = options.max_queue_depth;
  shard_options.max_batch = options.max_batch;
  shard_options.localize = !scored;
  shard_options.batch_hook = options.batch_hook;

  engine->shards_.reserve(num_shards);
  for (size_t shard = 0; shard < num_shards; ++shard) {
    const uint32_t t = static_cast<uint32_t>(shard / options.term_buckets);
    const Interval& range = ranges[t];
    IRHINT_RETURN_NOT_OK(locals[shard].Finalize());

    std::unique_ptr<TemporalIrIndex> index;
    if (durable) {
      const std::string dir =
          options.wal_dir + "/shard-" +
          std::to_string(t) + "-" +
          std::to_string(shard % options.term_buckets);
      std::error_code ec;
      if (std::filesystem::exists(dir, ec) &&
          !std::filesystem::is_empty(dir, ec)) {
        return Status::InvalidArgument(
            "serve wal_dir must be fresh; found existing state in " + dir);
      }
      DurableIndexOptions durable_options;
      durable_options.kind = options.kind;
      durable_options.config = options.config;
      durable_options.durability = options.durability;
      durable_options.checkpoint_bytes = options.checkpoint_bytes;
      durable_options.snapshot_read.use_mmap = options.mmap_snapshots;
      StatusOr<std::unique_ptr<DurableIndex>> opened =
          DurableIndex::Open(dir, durable_options);
      IRHINT_RETURN_NOT_OK(opened.status());
      IRHINT_RETURN_NOT_OK((*opened)->Build(locals[shard]));
      index = std::move(opened).value();
    } else {
      index = CreateIndex(options.kind, options.config);
      IRHINT_RETURN_NOT_OK(index->Build(locals[shard]));
    }
    engine->shards_.push_back(std::make_unique<Shard>(
        shard, range, std::move(index), std::move(id_maps[shard]),
        shard_options));
    // Free the replicated sub-corpus before building the next shard.
    locals[shard] = Corpus();
  }
  engine->next_object_id_.store(static_cast<ObjectId>(corpus.size()),
                                std::memory_order_relaxed);
  for (std::unique_ptr<Shard>& shard : engine->shards_) shard->Start();
  return engine;
}

ServeEngine::~ServeEngine() {
  for (std::unique_ptr<Shard>& shard : shards_) shard->Stop();
}

uint32_t ServeEngine::TimeShardOf(Time t) const {
  // shard_starts_ is strictly ascending and starts at 0, so the covering
  // shard is the last start <= t.
  const auto it =
      std::upper_bound(shard_starts_.begin(), shard_starts_.end(), t);
  return static_cast<uint32_t>(it - shard_starts_.begin()) - 1;
}

void ServeEngine::Route(bool conjunctive, const Interval& interval,
                        const std::vector<ElementId>& elements,
                        std::vector<size_t>* cells) const {
  // The bucket rule first. A conjunctive (Boolean) query's matches contain
  // every query element, so they were all placed in its first element's
  // bucket. A disjunctive top-k query can rank an object through any one
  // element, and an object is placed in each of its elements' buckets, so
  // both visit the distinct buckets of the elements.
  cells->clear();
  if (term_buckets_ == 1) {
    cells->push_back(0);
  } else if (elements.empty()) {
    // No element picks a bucket: a Boolean query visits them all (the
    // merge deduplicates replicas); anything else has bucket 0.
    cells->resize(conjunctive ? term_buckets_ : 1);
    std::iota(cells->begin(), cells->end(), size_t{0});
  } else if (conjunctive) {
    cells->push_back(TermBucket(elements[0], term_buckets_));
  } else {
    for (const ElementId element : elements) {
      cells->push_back(TermBucket(element, term_buckets_));
    }
    std::sort(cells->begin(), cells->end());
    cells->erase(std::unique(cells->begin(), cells->end()), cells->end());
  }
  // Then those buckets in every time shard the interval overlaps.
  const size_t buckets = cells->size();
  const uint32_t t0 = TimeShardOf(interval.st);
  const uint32_t t1 = TimeShardOf(interval.end);
  for (uint32_t t = t0 + 1; t <= t1; ++t) {
    for (size_t i = 0; i < buckets; ++i) {
      cells->push_back(ShardAt(t, (*cells)[i]));
    }
  }
  for (size_t i = 0; i < buckets; ++i) (*cells)[i] = ShardAt(t0, (*cells)[i]);
}

template <typename Hit>
LegFuture<Hit> ServeEngine::FanOut(Shard::Request request) {
  using Kind = Shard::Request::Kind;
  // The interval is checked once, here, so every shard layout answers an
  // inverted one alike: a Boolean query matches nothing, anything else is
  // refused (Insert and Erase refuse it earlier, in CheckObject).
  const bool inverted = request.query.interval.st > request.query.interval.end;
  std::vector<size_t> cells;
  if (!inverted) {
    Route(request.kind == Kind::kQuery, request.query.interval,
          request.query.elements, &cells);
  }
  auto state = std::make_shared<LegState<Hit>>(
      static_cast<uint32_t>(cells.size()), request.k);
  // Condition (a) of who runs a leg (DESIGN.md §11): no other future of
  // this engine is open. Condition (b), an idle target shard, is the
  // shard's to check.
  const bool quiet = open_futures_->fetch_add(1) == 0;
  LegFuture<Hit> future(state, open_futures_);
  if (inverted && request.kind != Kind::kQuery) {
    state->FailLeg(Status::InvalidArgument("query interval is inverted"));
  }
  if constexpr (std::is_same_v<Hit, ScoredHit>) {
    request.topk = state;
  } else {
    request.result = state;
  }
  const auto submit = [&](size_t shard, Shard::Request leg, bool may_run) {
    const Status admitted = shards_[shard]->Submit(std::move(leg), may_run);
    if (!admitted.ok()) state->FailLeg(admitted);
  };
  // Every leg but the last gets a copy and is queued first, so the legs
  // run in parallel; the last takes the request, and on a quiet engine
  // the caller may run it.
  for (size_t i = 0; i + 1 < cells.size(); ++i) {
    submit(cells[i], request, false);
  }
  if (!cells.empty()) submit(cells.back(), std::move(request), quiet);
  return future;
}

ResultFuture ServeEngine::Submit(const Query& query) {
  Shard::Request request;
  request.query = query;
  return FanOut<ObjectId>(std::move(request));
}

StatusOr<std::vector<ObjectId>> ServeEngine::Execute(const Query& query) {
  return Submit(query).Get();
}

TopKFuture ServeEngine::SubmitTopK(const Query& query, uint32_t k) {
  Shard::Request request;
  request.kind = Shard::Request::Kind::kTopK;
  request.query = query;
  request.k = k;
  return FanOut<ScoredHit>(std::move(request));
}

StatusOr<std::vector<ScoredHit>> ServeEngine::ExecuteTopK(const Query& query,
                                                          uint32_t k) {
  return SubmitTopK(query, k).Get();
}

Status ServeEngine::Update(Shard::Request::Kind kind, const Object& object) {
  // Refused here, not on the shard workers: an in-memory index would grow
  // its per-element tables out to the id first (32 GiB at 2^32 - 1).
  IRHINT_RETURN_NOT_OK(CheckObject(object));
  Shard::Request request;
  request.kind = kind;
  request.query = Query(object.interval, object.elements);
  request.id = object.id;
  return FanOut<ObjectId>(std::move(request)).Get().status();
}

Status ServeEngine::Insert(const Object& object) {
  if (object.id < next_object_id_.load(std::memory_order_relaxed)) {
    return Status::InvalidArgument(
        "insert ids must strictly increase (single-writer model)");
  }
  IRHINT_RETURN_NOT_OK(Update(Shard::Request::Kind::kInsert, object));
  next_object_id_.store(object.id + 1, std::memory_order_relaxed);
  return Status::OK();
}

StatusOr<ObjectId> ServeEngine::AppendInsert(
    Interval interval, std::vector<ElementId> elements) {
  // Descriptions carry set semantics, like Corpus::Finalize produces.
  std::sort(elements.begin(), elements.end());
  elements.erase(std::unique(elements.begin(), elements.end()),
                 elements.end());
  Object object(next_object_id_.load(std::memory_order_relaxed), interval,
                std::move(elements));
  IRHINT_RETURN_NOT_OK(Insert(object));
  return object.id;
}

Status ServeEngine::Erase(const Object& object) {
  return Update(Shard::Request::Kind::kErase, object);
}

void ServeEngine::WaitIdle() {
  for (const std::unique_ptr<Shard>& shard : shards_) shard->WaitIdle();
}

Status ServeEngine::Flush() {
  for (const std::unique_ptr<Shard>& shard : shards_) {
    if (auto* durable = dynamic_cast<DurableIndex*>(shard->index())) {
      IRHINT_RETURN_NOT_OK(durable->Flush());
    }
  }
  return Status::OK();
}

EngineStats ServeEngine::Stats() const {
  EngineStats stats;
  stats.shards.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    ShardStats s = shard->Stats();
    stats.total_submitted += s.submitted;
    stats.total_shed += s.shed;
    stats.total_completed += s.completed;
    stats.total_executed_queries += s.executed_queries;
    stats.total_dedup_hits += s.dedup_hits;
    stats.total_updates_applied += s.updates_applied;
    stats.total_ran_on_caller += s.ran_on_caller;
    stats.total_batches += s.batches;
    stats.max_queue_depth = std::max(stats.max_queue_depth, s.queue_depth);
    stats.max_peak_queue_depth =
        std::max(stats.max_peak_queue_depth, s.peak_queue_depth);
    stats.shards.push_back(std::move(s));
  }
  return stats;
}

size_t ServeEngine::MemoryUsageBytes() const {
  size_t total = 0;
  for (const std::unique_ptr<Shard>& shard : shards_) {
    total += shard->index()->MemoryUsageBytes();
  }
  return total;
}

}  // namespace serve
}  // namespace irhint
