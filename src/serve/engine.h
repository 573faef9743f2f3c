// The sharded serving engine (DESIGN.md §11): partitions a corpus into
// time_shards contiguous time ranges (optionally sub-partitioned into
// term_buckets hashed-term buckets, boolIR-style), builds one index per
// shard — plain in-memory, or a DurableIndex over a per-shard WAL
// directory — and serves concurrent traffic through a thread-safe
// Submit(Query) -> ResultFuture API.
//
// Routing: every request, and the placement of every object, takes one
// path — the time shards its interval overlaps, times the term buckets of
// a bucket rule. With term_buckets > 1 an object lands in bucket h(e) for
// each of its elements e (bucket 0 when it has none). A Boolean query is
// conjunctive, so its first element's bucket holds every match (all
// buckets for element-less queries); a top-k query is disjunctive and
// visits the buckets of all its elements (bucket 0 when it has none). An
// inverted interval is refused before routing: a Boolean query matches
// nothing, every other request is InvalidArgument. The future merges the
// legs deterministically (serve/result_future.h), so results are
// byte-identical to a 1-shard engine for any shard/bucket/thread count.
//
// Who runs a leg: a request's last leg runs on the submitting thread when
// the engine is quiet — no other future it handed out is open, and the
// target shard is idle — and is queued for the shard worker otherwise.
// Its other legs are always queued first, so they run in parallel. The
// rule reads only state the engine already has (DESIGN.md §11).
//
// Updates: Insert/Erase route like placement and take the same path (the
// holder of a shard's execution token is the only thread touching its
// index, so plain indexes need no locking). The engine is single-writer,
// like the paper's Section 5.5 update model: one thread issues updates
// with strictly increasing ids; queries are fully concurrent.

#ifndef IRHINT_SERVE_ENGINE_H_
#define IRHINT_SERVE_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/factory.h"
#include "data/corpus.h"
#include "serve/shard.h"
#include "wal/wal_writer.h"

namespace irhint {
namespace serve {

/// \brief Engine configuration. Defaults serve an in-memory engine of 4
/// time shards with no term sub-partitioning.
struct ServeOptions {
  /// Contiguous time-range partitions (>= 1). Clamped down when the
  /// domain has fewer time points than shards.
  uint32_t time_shards = 4;
  /// Hashed-term sub-partitions per time shard (>= 1; 1 disables).
  uint32_t term_buckets = 1;

  /// Index kind (and tuning) instantiated per shard.
  IndexKind kind = IndexKind::kIrHintPerf;
  IndexConfig config;

  /// Admission control: per-shard bounded queue depth; queries past it
  /// are shed with kUnavailable, updates block (backpressure).
  size_t max_queue_depth = 1024;
  /// Batch coalescing cap: requests popped per worker wakeup.
  size_t max_batch = 64;

  /// Non-empty: durable mode. Each shard owns a DurableIndex under
  /// wal_dir/shard-<t>-<b>; the directories must be fresh (the engine
  /// does not yet recover a sharded layout across runs).
  std::string wal_dir;
  WalDurability durability = WalDurability::kBatch;
  uint64_t checkpoint_bytes = 0;
  /// Checkpoint snapshots load back through mmap (zero-copy) when true.
  bool mmap_snapshots = true;

  /// Test hook forwarded to every shard (see ShardOptions::batch_hook).
  std::function<void(size_t shard_index)> batch_hook;
};

/// \brief Aggregate of the per-shard counters (sums; max for the gauges).
struct EngineStats {
  std::vector<ShardStats> shards;
  uint64_t total_submitted = 0;
  uint64_t total_shed = 0;
  uint64_t total_completed = 0;
  uint64_t total_executed_queries = 0;
  uint64_t total_dedup_hits = 0;
  uint64_t total_updates_applied = 0;
  uint64_t total_ran_on_caller = 0;
  uint64_t total_batches = 0;
  uint64_t max_queue_depth = 0;
  uint64_t max_peak_queue_depth = 0;
};

/// \brief Deterministic hashed-term bucket (splitmix64 finalizer).
uint32_t TermBucket(ElementId element, uint32_t buckets);

/// \brief N-shard serving engine over one corpus.
class ServeEngine {
 public:
  /// \brief Partition `corpus`, bulk-build every shard index, start the
  /// workers. The corpus must be finalized; objects keep their global ids
  /// in every result.
  static StatusOr<std::unique_ptr<ServeEngine>> Create(
      const Corpus& corpus, const ServeOptions& options);

  /// Stops every shard worker (outstanding requests complete first).
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  // -- Query path (thread-safe, any number of concurrent callers) ----------

  /// \brief Route the query to the shards overlapping its interval and
  /// return a future over the merged result (empty for an inverted
  /// interval). Never waits for other requests' work, but on a quiet
  /// engine it runs one leg of its own request before returning (see
  /// "Who runs a leg" above); a full target queue fails that leg with
  /// kUnavailable (the future's Get() then reports the shed).
  ResultFuture Submit(const Query& query);

  /// \brief Submit + Get in one call.
  StatusOr<std::vector<ObjectId>> Execute(const Query& query);

  /// \brief Route a ranked top-k query (kind must support TopKQuery, see
  /// KindSupportsTopK) to the shards overlapping its interval — across
  /// the buckets of ALL its elements, the query being disjunctive — and
  /// return a future over the deterministically merged global top-k
  /// (InvalidArgument for an inverted interval).
  TopKFuture SubmitTopK(const Query& query, uint32_t k);

  /// \brief SubmitTopK + Get in one call.
  StatusOr<std::vector<ScoredHit>> ExecuteTopK(const Query& query, uint32_t k);

  // -- Update path (single writer, Section 5.5 model) -----------------------

  /// \brief Route an insert to every covering shard and wait for it to
  /// apply. `object.id` must exceed every id inserted so far, and the
  /// object must pass CheckObject (InvalidArgument otherwise, as for
  /// Erase; a refused insert does not advance next_object_id()).
  Status Insert(const Object& object);

  /// \brief Convenience for live ingestion: assigns the next global id.
  StatusOr<ObjectId> AppendInsert(Interval interval,
                                  std::vector<ElementId> elements);

  /// \brief Route a tombstoning erase (same interval/description as the
  /// insert) to every covering shard and wait.
  Status Erase(const Object& object);

  // -- Control & observability ----------------------------------------------

  /// \brief Block until every shard queue is drained and idle.
  void WaitIdle();

  /// \brief Durable mode: fsync every shard's WAL. No-op otherwise.
  Status Flush();

  EngineStats Stats() const;

  /// \brief Heap footprint across shard indexes. Quiesce (WaitIdle) first:
  /// plain-index shards are worker-owned.
  size_t MemoryUsageBytes() const;

  uint32_t time_shards() const { return time_shards_; }
  uint32_t term_buckets() const { return term_buckets_; }
  size_t num_shards() const { return shards_.size(); }
  const Interval& shard_time_range(size_t shard) const {
    return shards_[shard]->time_range();
  }
  /// \brief The id AppendInsert() will assign next.
  ObjectId next_object_id() const { return next_object_id_; }

 private:
  ServeEngine() = default;

  /// The shards (indexes into shards_) covering `interval` under the
  /// bucket rule: a conjunctive request visits its first element's bucket
  /// (all of them when it has no elements), any other the distinct buckets
  /// of its elements (bucket 0 when it has none). `interval` must not be
  /// inverted.
  void Route(bool conjunctive, const Interval& interval,
             const std::vector<ElementId>& elements,
             std::vector<size_t>* cells) const;
  /// Route `request`, submit one leg per target shard (the last one may
  /// run on the caller) and return the future over the merged legs.
  template <typename Hit>
  LegFuture<Hit> FanOut(Shard::Request request);
  Status Update(Shard::Request::Kind kind, const Object& object);

  size_t ShardAt(uint32_t time_shard, size_t bucket) const {
    return static_cast<size_t>(time_shard) * term_buckets_ + bucket;
  }
  /// First time shard whose range may overlap a point at or after `t`.
  uint32_t TimeShardOf(Time t) const;

  uint32_t time_shards_ = 1;         // unguarded: immutable after Create
  uint32_t term_buckets_ = 1;        // unguarded: immutable after Create
  std::vector<Time> shard_starts_;   // unguarded: immutable after Create
  std::vector<std::unique_ptr<Shard>> shards_;  // unguarded: immutable ptrs
  // Single-writer id allocator for AppendInsert (monitoring reads relaxed).
  std::atomic<ObjectId> next_object_id_{0};
  // unguarded: atomic; shared with every future handed out (result_future.h)
  const std::shared_ptr<OpenFutures> open_futures_ =
      std::make_shared<OpenFutures>(0);
};

}  // namespace serve
}  // namespace irhint

#endif  // IRHINT_SERVE_ENGINE_H_
