#include "serve/shard.h"

#include <algorithm>
#include <string>
#include <tuple>

#include "common/timer.h"

namespace irhint {
namespace serve {

namespace {

/// Strict weak order grouping identical queries next to each other so the
/// batch executor can reuse one descent for all duplicates.
bool QueryLess(const Query& a, const Query& b) {
  return std::tie(a.interval.st, a.interval.end, a.elements) <
         std::tie(b.interval.st, b.interval.end, b.elements);
}

bool QueryEqual(const Query& a, const Query& b) {
  return a.interval == b.interval && a.elements == b.elements;
}

void BumpMax(std::atomic<uint64_t>& cell, uint64_t value) {
  uint64_t seen = cell.load(std::memory_order_relaxed);
  while (seen < value &&
         !cell.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

Shard::Shard(size_t shard_index, Interval time_range,
             std::unique_ptr<TemporalIrIndex> index,
             std::vector<ObjectId> id_map, ShardOptions options)
    : shard_index_(shard_index),
      time_range_(time_range),
      options_(std::move(options)),
      index_(std::move(index)),
      id_map_(std::move(id_map)) {}

Shard::~Shard() { Stop(); }

void Shard::Start() {
  worker_ = std::thread([this]() { WorkerLoop(); });
}

void Shard::Stop() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
    work_cv_.NotifyAll();
    // Unblock updates waiting in Submit() for queue space.
    idle_cv_.NotifyAll();
  }
  if (worker_.joinable()) worker_.join();
}

Status Shard::Submit(Request request, bool caller_may_run) {
  // Localized at enqueue so the batch executor's duplicate grouping
  // compares shard-local coordinates.
  request.query.interval = Localize(request.query.interval);
  const bool update = request.kind == Request::Kind::kInsert ||
                      request.kind == Request::Kind::kErase;
  {
    MutexLock lock(&mu_);
    // Backpressure, not shedding, for updates: block the ingesting thread
    // until the worker drains below the limit (or the shard shuts down).
    while (update && !stopping_ && queue_.size() >= options_.max_queue_depth) {
      idle_cv_.Wait(&mu_);
    }
    if (stopping_) return Status::Unavailable("shard is shutting down");
    // Everything admitted earlier has finished, so running the leg now
    // keeps admission order.
    caller_may_run = caller_may_run && queue_.empty() && !executing_;
    if (caller_may_run) {
      executing_ = true;
    } else if (queue_.size() < options_.max_queue_depth) {
      queue_.push_back(std::move(request));
      submitted_.fetch_add(1, std::memory_order_relaxed);
      BumpMax(peak_queue_depth_, queue_.size());
      // A token holder hands off when it releases the token.
      if (!executing_) work_cv_.NotifyOne();
      return Status::OK();
    }
  }
  if (caller_may_run) {
    RunOnCaller(std::move(request));
    return Status::OK();
  }
  shed_.fetch_add(1, std::memory_order_relaxed);
  return Status::Unavailable("shard " + std::to_string(shard_index_) +
                             " queue full; query shed");
}

void Shard::RunOnCaller(Request request) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  ran_on_caller_.fetch_add(1, std::memory_order_relaxed);
  // Gives the token back even if the leg throws (bad_alloc), so the shard
  // is never left without an executor.
  struct TokenRelease {
    Shard* shard;
    ~TokenRelease() {
      MutexLock lock(&shard->mu_);
      shard->executing_ = false;
      // Requests that queued while the token was out, or a Stop() that
      // came meanwhile, need the worker; otherwise it sleeps on.
      if (!shard->queue_.empty() || shard->stopping_) {
        shard->work_cv_.NotifyOne();
      }
      if (shard->queue_.empty()) shard->idle_cv_.NotifyAll();
    }
  } release{this};
  std::vector<Request> batch;
  batch.push_back(std::move(request));
  ExecuteBatch(&batch);
}

void Shard::WaitIdle() {
  MutexLock lock(&mu_);
  while (!queue_.empty() || executing_) idle_cv_.Wait(&mu_);
}

ShardStats Shard::Stats() const {
  ShardStats stats;
  stats.submitted = submitted_.load(std::memory_order_relaxed);
  stats.shed = shed_.load(std::memory_order_relaxed);
  stats.completed = completed_.load(std::memory_order_relaxed);
  stats.executed_queries = executed_queries_.load(std::memory_order_relaxed);
  stats.dedup_hits = dedup_hits_.load(std::memory_order_relaxed);
  stats.updates_applied = updates_applied_.load(std::memory_order_relaxed);
  stats.ran_on_caller = ran_on_caller_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.max_batch = max_batch_.load(std::memory_order_relaxed);
  stats.peak_queue_depth = peak_queue_depth_.load(std::memory_order_relaxed);
  stats.busy_seconds =
      static_cast<double>(busy_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  {
    MutexLock lock(&mu_);
    stats.queue_depth = queue_.size();
  }
  return stats;
}

void Shard::WorkerLoop() {
  std::vector<Request> batch;
  while (true) {
    batch.clear();
    {
      MutexLock lock(&mu_);
      // Work alone is not enough: a submitter may hold the token.
      while (executing_ || (queue_.empty() && !stopping_)) {
        work_cv_.Wait(&mu_);
      }
      if (queue_.empty()) return;  // stopping, and drained
      const size_t take = std::min(queue_.size(), options_.max_batch);
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      executing_ = true;
      // Updates blocked in Submit() can refill the freed queue slots.
      idle_cv_.NotifyAll();
    }
    ExecuteBatch(&batch);
    {
      MutexLock lock(&mu_);
      executing_ = false;
      if (queue_.empty()) idle_cv_.NotifyAll();
    }
  }
}

void Shard::ExecuteBatch(std::vector<Request>* batch) {
  if (options_.batch_hook) options_.batch_hook(shard_index_);
  Timer timer;
  batches_.fetch_add(1, std::memory_order_relaxed);
  BumpMax(max_batch_, batch->size());

  // Updates first, in submission order (ids are strictly increasing, so
  // order matters); queries in the batch then observe every update that
  // was admitted before the batch formed.
  std::vector<size_t> query_indices;
  std::vector<size_t> topk_indices;
  query_indices.reserve(batch->size());
  for (size_t i = 0; i < batch->size(); ++i) {
    Request& request = (*batch)[i];
    if (request.kind == Request::Kind::kQuery) {
      query_indices.push_back(i);
    } else if (request.kind == Request::Kind::kTopK) {
      topk_indices.push_back(i);
    } else {
      ApplyUpdate(&request);
    }
  }

  // Group identical queries: one index descent per distinct query, the
  // ids fan out to every duplicate. Zipf-popular queries make this the
  // main amortization lever of the batch.
  std::stable_sort(query_indices.begin(), query_indices.end(),
                   [batch](size_t a, size_t b) {
                     return QueryLess((*batch)[a].query, (*batch)[b].query);
                   });
  std::vector<ObjectId> local_ids;
  for (size_t first = 0; first < query_indices.size();) {
    const Query& query = (*batch)[query_indices[first]].query;
    size_t end = first + 1;
    while (end < query_indices.size() &&
           QueryEqual(query, (*batch)[query_indices[end]].query)) {
      ++end;
    }
    index_->Query(query, &local_ids);
    executed_queries_.fetch_add(1, std::memory_order_relaxed);
    if (end - first > 1) {
      dedup_hits_.fetch_add(end - first - 1, std::memory_order_relaxed);
    }
    std::vector<ObjectId> global_ids;
    global_ids.reserve(local_ids.size());
    for (const ObjectId local : local_ids) {
      global_ids.push_back(id_map_[local]);
    }
    // Batched duplicates get copies; the last request of the group takes
    // the ids themselves.
    for (size_t i = first; i + 1 < end; ++i) {
      (*batch)[query_indices[i]].result->CompleteLeg(global_ids);
    }
    (*batch)[query_indices[end - 1]].result->CompleteLeg(
        std::move(global_ids));
    completed_.fetch_add(end - first, std::memory_order_relaxed);
    first = end;
  }

  // Top-k legs run after the batch's updates for the same visibility
  // guarantee as Boolean queries. No duplicate grouping: ranked traffic
  // is rarer and each leg's k can differ.
  for (const size_t i : topk_indices) ExecuteTopK(&(*batch)[i]);

  busy_nanos_.fetch_add(timer.Nanos(), std::memory_order_relaxed);
}

void Shard::ExecuteTopK(Request* request) {
  std::vector<ScoredHit> hits;
  const Status status = index_->TopKQuery(request->query, request->k, &hits);
  executed_queries_.fetch_add(1, std::memory_order_relaxed);
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (!status.ok()) {
    request->topk->FailLeg(status);
    return;
  }
  // Report global ids; scores are already global because scored shards
  // never rebase intervals (options_.localize == false).
  for (ScoredHit& hit : hits) hit.id = id_map_[hit.id];
  request->topk->CompleteLeg(std::move(hits));
}

void Shard::ApplyUpdate(Request* request) {
  Object local(0, request->query.interval, std::move(request->query.elements));
  Status status;
  if (request->kind == Request::Kind::kInsert) {
    local.id = static_cast<ObjectId>(id_map_.size());
    status = index_->Insert(local);
    if (status.ok()) id_map_.push_back(request->id);
  } else {
    // The id map is ascending (inserts arrive in global id order), so the
    // global→local translation is a binary search.
    const auto it =
        std::lower_bound(id_map_.begin(), id_map_.end(), request->id);
    if (it == id_map_.end() || *it != request->id) {
      status = Status::NotFound("object not mapped on this shard");
    } else {
      local.id = static_cast<ObjectId>(it - id_map_.begin());
      status = index_->Erase(local);
    }
  }
  updates_applied_.fetch_add(1, std::memory_order_relaxed);
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (status.ok()) {
    request->result->CompleteLeg({});
  } else {
    request->result->FailLeg(status);
  }
}

}  // namespace serve
}  // namespace irhint
