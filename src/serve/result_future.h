// Completion futures shared between the query router and the shard
// workers. A routed request owns one LegState with one "leg" per target
// shard; legs complete (or fail) in any order on the shard worker
// threads (or on the submitting thread, for a leg it ran itself), and the
// submitting client blocks in LegFuture::Get() until every leg has
// landed. Get() then merges the legs on the client's thread. The merge is
// deterministic, so the final result is byte-identical for any shard
// count, bucket count, thread count or completion order (the property
// tests/serve_test.cc locks in). The hit type selects the merge and
// nothing else:
//   * ObjectId (Boolean queries; updates carry empty legs): MergeIds,
//     sorted and duplicate-free ids;
//   * ScoredHit (ranked top-k, DESIGN.md §12): MergeTopK, the global
//     top-k in ranked order.
//
// Concurrency (DESIGN.md §11): one leaf Mutex per state object,
// "serve::LegState::mu" — it is never held while acquiring another lock
// (completion moves the payload in, Wait() moves the legs out and merges
// after releasing it), so it cannot participate in a cycle.
//
// Open futures: the engine counts the futures it has handed out and not
// yet retired (OpenFutures), and runs a leg on the submitting thread only
// when no other future is open (DESIGN.md §11, "Who runs a leg"). A
// future retires its request once, when Get() returns or when it is
// destroyed unresolved. Futures are move-only, so no copy can retire a
// request twice; a moved-from future is empty and retires nothing.

#ifndef IRHINT_SERVE_RESULT_FUTURE_H_
#define IRHINT_SERVE_RESULT_FUTURE_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/synchronization.h"
#include "common/thread_annotations.h"
#include "data/object.h"

namespace irhint {
namespace serve {

/// \brief The Boolean merge's path rule, from the id count (duplicates
/// included) and the largest id alone. Dense: a bitmap over [0, max_id]
/// holds at most four 64-bit words per id, so setting and scanning it is
/// linear in `total`; at that density it beat sort + unique at every
/// id-space size measured (EXPERIMENTS.md). Otherwise the ids are sorted,
/// which never allocates in proportion to the id space.
inline bool MergeIsDense(size_t total, ObjectId max_id) {
  return max_id / 256 <= total;
}

/// \brief Union of Boolean legs as sorted, duplicate-free ids. Legs come
/// in any order and may overlap (an object replicated into several
/// shards). Global ids are dense in [0, N), so wide results take the
/// bitmap path of MergeIsDense; narrow ones sort + unique.
inline std::vector<ObjectId> MergeIds(std::vector<std::vector<ObjectId>> legs) {
  size_t total = 0;
  ObjectId max_id = 0;
  for (const std::vector<ObjectId>& leg : legs) {
    total += leg.size();
    for (const ObjectId id : leg) max_id = std::max(max_id, id);
  }
  if (total == 0) return {};
  if (!MergeIsDense(total, max_id)) {
    std::vector<ObjectId> merged = std::move(legs.front());
    for (size_t i = 1; i < legs.size(); ++i) {
      merged.insert(merged.end(), legs[i].begin(), legs[i].end());
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    return merged;
  }
  std::vector<uint64_t> bits(static_cast<size_t>(max_id) / 64 + 1, 0);
  for (const std::vector<ObjectId>& leg : legs) {
    for (const ObjectId id : leg) bits[id / 64] |= uint64_t{1} << (id % 64);
  }
  // The output reuses the first leg's buffer (a lone leg's already fits).
  std::vector<ObjectId> merged = std::move(legs.front());
  merged.clear();
  merged.reserve(total);
  for (size_t w = 0; w < bits.size(); ++w) {
    for (uint64_t word = bits[w]; word != 0; word &= word - 1) {
      merged.push_back(static_cast<ObjectId>(w * 64 + std::countr_zero(word)));
    }
  }
  return merged;
}

/// \brief Union of top-k legs as the global top-k. Replicas of an object
/// across shards report identical scores (shards hold whole objects and
/// impacts are a pure function of term and interval), so the merge
/// dedups by id, re-sorts by the ranked total order (score desc, id asc)
/// and truncates to k — byte-identical to a 1-shard engine.
inline std::vector<ScoredHit> MergeTopK(
    std::vector<std::vector<ScoredHit>> legs, uint32_t k) {
  std::vector<ScoredHit> merged;
  for (const std::vector<ScoredHit>& leg : legs) {
    merged.insert(merged.end(), leg.begin(), leg.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const ScoredHit& a, const ScoredHit& b) { return a.id < b.id; });
  merged.erase(std::unique(merged.begin(), merged.end(),
                           [](const ScoredHit& a, const ScoredHit& b) {
                             return a.id == b.id;
                           }),
               merged.end());
  std::sort(merged.begin(), merged.end(), ScoredBetter);
  if (merged.size() > static_cast<size_t>(k)) merged.resize(k);
  return merged;
}

/// \brief Shared completion state of one routed request.
///
/// Constructed with the number of legs (target shards); every leg must be
/// resolved exactly once via CompleteLeg() or FailLeg().
template <typename Hit>
class LegState {
 public:
  /// \param k  the ranked cut-off; only the top-k merge reads it.
  explicit LegState(uint32_t legs, uint32_t k = 0) : pending_(legs), k_(k) {}

  LegState(const LegState&) = delete;
  LegState& operator=(const LegState&) = delete;

  /// \brief Resolve one leg with the hits a shard reported (global ids;
  /// replicas across shards are deduplicated by the final merge).
  void CompleteLeg(std::vector<Hit> hits) {
    MutexLock lock(&mu_);
    legs_.push_back(std::move(hits));
    FinishLegLocked();
  }

  /// \brief Resolve one leg as failed (shed under admission control, or an
  /// update error). The first failure wins; the request still waits for
  /// the remaining legs so no completion is ever lost.
  void FailLeg(const Status& status) {
    MutexLock lock(&mu_);
    if (error_.ok() && !status.ok()) error_ = status;
    FinishLegLocked();
  }

  /// \brief Block until every leg resolved; single consumer. Returns the
  /// first leg failure, or the merged hits (see MergeIds / MergeTopK).
  StatusOr<std::vector<Hit>> Wait() {
    std::vector<std::vector<Hit>> legs;
    {
      MutexLock lock(&mu_);
      while (pending_ > 0) cv_.Wait(&mu_);
      if (!error_.ok()) return error_;
      legs.swap(legs_);
    }
    if constexpr (std::is_same_v<Hit, ScoredHit>) {
      return MergeTopK(std::move(legs), k_);
    } else {
      return MergeIds(std::move(legs));
    }
  }

  /// \brief True once every leg has resolved (non-blocking probe).
  bool Ready() const {
    MutexLock lock(&mu_);
    return (pending_ == 0);
  }

 private:
  void FinishLegLocked() IRHINT_REQUIRES(mu_) {
    if (pending_ > 0) --pending_;
    if (pending_ == 0) cv_.NotifyAll();
  }

  mutable Mutex mu_{"serve::LegState::mu"};
  CondVar cv_;
  uint32_t pending_ IRHINT_GUARDED_BY(mu_) = 0;
  const uint32_t k_;  // unguarded: immutable after construction
  std::vector<std::vector<Hit>> legs_ IRHINT_GUARDED_BY(mu_);
  Status error_ IRHINT_GUARDED_BY(mu_);
};

/// \brief The number of futures an engine has handed out and not yet
/// retired. The engine and its futures share it through a shared_ptr, so a
/// future may outlive its engine. Only client threads change it: the
/// engine as it hands a future out, the future as it retires.
using OpenFutures = std::atomic<uint64_t>;

/// \brief Client-side handle on a submitted request. Move-only, with a
/// single consumer, like std::future; Get() blocks until the router's
/// legs are all resolved.
template <typename Hit>
class LegFuture {
 public:
  LegFuture() = default;
  /// \param open  the engine's open-future count, already incremented for
  ///              this request; the future decrements it when it retires.
  LegFuture(std::shared_ptr<LegState<Hit>> state,
            std::shared_ptr<OpenFutures> open)
      : state_(std::move(state)), open_(std::move(open)) {}

  LegFuture(LegFuture&&) noexcept = default;
  LegFuture& operator=(LegFuture&& other) noexcept {
    if (this != &other) {
      Retire();
      state_ = std::move(other.state_);
      open_ = std::move(other.open_);
    }
    return *this;
  }
  LegFuture(const LegFuture&) = delete;
  LegFuture& operator=(const LegFuture&) = delete;
  /// An unresolved future retires its request here; the legs still run.
  ~LegFuture() { Retire(); }

  bool valid() const { return state_ != nullptr; }
  bool Ready() const { return state_ != nullptr && state_->Ready(); }

  /// \brief Block for the merged result (see LegState::Wait), then retire
  /// the request.
  StatusOr<std::vector<Hit>> Get() {
    if (state_ == nullptr) {
      return Status::InvalidArgument("Get() on an empty future");
    }
    StatusOr<std::vector<Hit>> result = state_->Wait();
    Retire();
    return result;
  }

 private:
  void Retire() {
    if (open_ != nullptr) {
      open_->fetch_sub(1);
      open_.reset();
    }
  }

  // unguarded: owned by the single client thread holding the future
  std::shared_ptr<LegState<Hit>> state_;
  // unguarded: as state_; null once the request has retired
  std::shared_ptr<OpenFutures> open_;
};

using ResultState = LegState<ObjectId>;
using TopKState = LegState<ScoredHit>;
using ResultFuture = LegFuture<ObjectId>;
using TopKFuture = LegFuture<ScoredHit>;

}  // namespace serve
}  // namespace irhint

#endif  // IRHINT_SERVE_RESULT_FUTURE_H_
