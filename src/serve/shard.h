// One serving shard: a time-range (and optionally hashed-term) partition
// of the corpus, owning its own TemporalIrIndex (plain in-memory or a
// DurableIndex over a per-shard WAL directory) plus a bounded request
// queue drained by a dedicated worker thread. A leg that finds the shard
// idle on a quiet engine skips the queue: the submitting thread runs it.
//
// Batching: the worker pops every queued request up to max_batch in one
// lock acquisition — the natural coalescing window is however long the
// previous batch took — applies the batch's updates in submission order,
// then sorts its queries so identical ones (common under Zipf traffic)
// run the index descent once and fan the ids out to every duplicate.
//
// Admission control: Submit() sheds a query (Boolean or top-k) when the
// queue is at max_queue_depth (the router fails that leg with
// kUnavailable and the shard counts a shed), but blocks an update —
// shedding a query costs a retry, shedding an update would lose data — so
// ingestion sees backpressure, not loss. A leg the caller runs never
// queues, so it is never shed.
//
// Concurrency (DESIGN.md §11): "serve::Shard::queue" guards the queue, the
// execution token (executing_) and the worker handshake. Whoever holds the
// token is the only thread touching the index and the local→global id
// map: the worker while it runs a batch, or a submitter running its own
// leg (bulk build happens before Start(), on the constructing thread). The
// token is taken and released under the lock, and the lock is released
// before a batch executes, so index locks (e.g. "DurableIndex::state")
// and the LegState leaf mutex are only ever acquired with no shard lock
// held. The worker waits for the token as well as for work; a submitter
// releasing the token wakes it only if requests queued meanwhile or the
// shard is stopping.

#ifndef IRHINT_SERVE_SHARD_H_
#define IRHINT_SERVE_SHARD_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/synchronization.h"
#include "common/thread_annotations.h"
#include "core/temporal_ir_index.h"
#include "data/object.h"
#include "serve/result_future.h"

namespace irhint {
namespace serve {

/// \brief Monotonic counters plus instantaneous gauges for one shard.
/// Snapshot reads are relaxed and best-effort (monitoring semantics, like
/// QueryCounters).
struct ShardStats {
  uint64_t submitted = 0;        ///< requests accepted (queued or run)
  uint64_t shed = 0;             ///< queries rejected at max_queue_depth
  uint64_t completed = 0;        ///< requests resolved (incl. dedup twins)
  uint64_t executed_queries = 0; ///< distinct index descents performed
  uint64_t dedup_hits = 0;       ///< batched duplicates served by a twin
  uint64_t updates_applied = 0;  ///< inserts + erases applied
  uint64_t ran_on_caller = 0;    ///< legs run by their submitting thread
  uint64_t batches = 0;          ///< batches executed (a caller's leg is one)
  uint64_t max_batch = 0;        ///< largest batch popped so far
  uint64_t queue_depth = 0;      ///< instantaneous queued requests
  uint64_t peak_queue_depth = 0; ///< high-water mark of queue_depth
  double busy_seconds = 0.0;     ///< wall time spent executing batches
};

/// \brief Clamp `interval` to a shard's time `range` and rebase it to the
/// range's origin. A shard index covers only [lo, hi] rebased to 0, so its
/// divisions are proportionally finer; correctness is unchanged because a
/// query and an object replica that both overlap [lo, hi] intersect
/// somewhere iff their clamped images do, and the router covers every
/// shard the true intersection can fall in. `interval` must overlap
/// `range` (the router guarantees it).
inline Interval Rebase(const Interval& interval, const Interval& range) {
  return Interval(std::max(interval.st, range.st) - range.st,
                  std::min(interval.end, range.end) - range.st);
}

/// \brief Knobs one shard needs (the engine fans ServeOptions out).
struct ShardOptions {
  size_t max_queue_depth = 1024;
  size_t max_batch = 64;
  /// Clamp+rebase intervals into the shard's local frame at enqueue.
  /// Scored engines disable this: impact scores are a function of the
  /// GLOBAL interval end, so every shard must keep global coordinates or
  /// replicas of one object would score differently across shards.
  bool localize = true;
  /// Test hook: runs before each batch executes (no lock held), on the
  /// thread that executes it: the worker, or a submitter running its own
  /// leg. The admission-control tests inject a sleep here to make a shard
  /// slow; never set in production configs.
  std::function<void(size_t shard_index)> batch_hook;
};

/// \brief A single serving partition. Construction takes the already
/// bulk-built index plus the local→global id map; Start() arms the worker.
class Shard {
 public:
  /// \param time_range   the [lo, hi] slice of the time domain this shard
  ///                     covers (hi is saturated for the last shard).
  /// \param id_map       global id of each local id, ascending (bulk-built
  ///                     objects; live inserts append).
  Shard(size_t shard_index, Interval time_range,
        std::unique_ptr<TemporalIrIndex> index,
        std::vector<ObjectId> id_map, ShardOptions options);

  /// Stops and joins the worker; any still-queued requests are resolved
  /// (queries execute, updates apply) before the thread exits.
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// \brief Arm the worker thread. Call exactly once, after construction.
  void Start();

  /// \brief Drain the queue and join the worker. Idempotent; the
  /// destructor calls it too.
  void Stop();

  /// \brief One leg of a routed request: what to run, and where its
  /// answer goes.
  struct Request {
    enum class Kind { kQuery, kTopK, kInsert, kErase };
    Kind kind = Kind::kQuery;
    /// The query, or the updated object's interval and elements. Global
    /// coordinates; Submit() localizes them.
    Query query;
    /// kTopK: the ranked cut-off.
    uint32_t k = 0;
    /// kInsert / kErase: the object's global id.
    ObjectId id = 0;
    /// Completion state: `topk` for kTopK, `result` for the other kinds.
    std::shared_ptr<ResultState> result;
    std::shared_ptr<TopKState> topk;
  };

  /// \brief Admit one leg. With `caller_may_run` set and the shard idle
  /// (queue empty, nobody executing), the calling thread takes the
  /// execution token and runs the leg itself, as a batch of one, before
  /// returning. Otherwise the leg is queued: a query is shed (Unavailable,
  /// counted) when the queue is at max_queue_depth; an update blocks until
  /// there is room. Returns OK once the leg ran or is queued; otherwise
  /// the caller must fail the leg with the returned status. The executor
  /// reports global ids, and answers a top-k leg with the index's
  /// TopKQuery (NotSupported for kinds without scored postings).
  Status Submit(Request request, bool caller_may_run);

  /// \brief Block until the queue is empty and no batch is executing.
  void WaitIdle();

  ShardStats Stats() const;
  size_t shard_index() const { return shard_index_; }
  const Interval& time_range() const { return time_range_; }

  /// \brief The wrapped index. Only for thread-safe operations (e.g.
  /// DurableIndex::Flush) or quiesced inspection after WaitIdle().
  TemporalIrIndex* index() { return index_.get(); }
  const TemporalIrIndex* index() const { return index_.get(); }

  /// \brief Local objects currently mapped (bulk-built + live inserts).
  /// Quiesced inspection only.
  size_t mapped_objects() const { return id_map_.size(); }

 private:
  void WorkerLoop();
  /// Runs one batch with no shard lock held; the calling thread holds the
  /// execution token.
  void ExecuteBatch(std::vector<Request>* batch) IRHINT_EXCLUDES(mu_);
  /// A submitter's half of the token: run `request` as a batch of one,
  /// then give the token back (also if the leg throws).
  void RunOnCaller(Request request) IRHINT_EXCLUDES(mu_);
  void ApplyUpdate(Request* request);
  void ExecuteTopK(Request* request);

  /// The shard-local frame of `interval` (see Rebase), or the interval
  /// itself when options_.localize is off.
  Interval Localize(const Interval& interval) const {
    return options_.localize ? Rebase(interval, time_range_) : interval;
  }

  const size_t shard_index_;       // unguarded: immutable after construction
  const Interval time_range_;      // unguarded: immutable after construction
  const ShardOptions options_;     // unguarded: immutable after construction

  // Touched only by the execution-token holder once Start() ran (bulk
  // build precedes Start on the constructing thread); quiesced readers
  // must WaitIdle() first.
  std::unique_ptr<TemporalIrIndex> index_;  // unguarded: token holder's
  std::vector<ObjectId> id_map_;            // unguarded: token holder's

  mutable Mutex mu_{"serve::Shard::queue"};
  CondVar work_cv_;
  CondVar idle_cv_;
  std::deque<Request> queue_ IRHINT_GUARDED_BY(mu_);
  bool stopping_ IRHINT_GUARDED_BY(mu_) = false;
  // The execution token: held by the worker while it runs a batch, or by
  // a submitter running its own leg.
  bool executing_ IRHINT_GUARDED_BY(mu_) = false;

  // Monitoring counters: relaxed atomics, racy-by-design best-effort reads
  // (same contract as core/query_counters.h).
  mutable std::atomic<uint64_t> submitted_{0};
  mutable std::atomic<uint64_t> shed_{0};
  mutable std::atomic<uint64_t> completed_{0};
  mutable std::atomic<uint64_t> executed_queries_{0};
  mutable std::atomic<uint64_t> dedup_hits_{0};
  mutable std::atomic<uint64_t> updates_applied_{0};
  mutable std::atomic<uint64_t> ran_on_caller_{0};
  mutable std::atomic<uint64_t> batches_{0};
  mutable std::atomic<uint64_t> max_batch_{0};
  mutable std::atomic<uint64_t> peak_queue_depth_{0};
  mutable std::atomic<uint64_t> busy_nanos_{0};

  std::thread worker_;  // unguarded: Start() arms it, Stop() joins it
};

}  // namespace serve
}  // namespace irhint

#endif  // IRHINT_SERVE_SHARD_H_
