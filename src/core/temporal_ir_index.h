// The common interface of every time-travel IR index in this library:
// the baselines (tIF, tIF+Slicing, tIF+Sharding), the novel IR-first
// methods (tIF+HINT variants, tIF+HINT+Slicing) and the time-first irHINT
// variants.

#ifndef IRHINT_CORE_TEMPORAL_IR_INDEX_H_
#define IRHINT_CORE_TEMPORAL_IR_INDEX_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/index_kind.h"
#include "core/integrity.h"
#include "core/query_counters.h"
#include "data/corpus.h"
#include "data/object.h"

namespace irhint {

class SnapshotReader;
class SnapshotWriter;

/// \brief Abstract time-travel IR index.
///
/// Query semantics (Definition 2.1): report the ids of all live objects o
/// with Overlap([o.t_st, o.t_end], [q.t_st, q.t_end]) and o.d ⊇ q.d.
/// Every implementation reports each qualifying id exactly once; output
/// order is unspecified.
class TemporalIrIndex {
 public:
  virtual ~TemporalIrIndex() = default;

  /// \brief Build from a finalized corpus. May be called once.
  virtual Status Build(const Corpus& corpus) = 0;

  /// \brief Evaluate a time-travel IR query. `out` is cleared first. An
  /// inverted interval (st > end) covers no time point, so it matches
  /// nothing on every kind.
  virtual void Query(const irhint::Query& query, std::vector<ObjectId>* out) const = 0;

  /// \brief Ranked top-k retrieval (DESIGN.md §12): among the live objects
  /// whose lifespan overlaps query.interval and whose description contains
  /// at least one query element (disjunctive semantics, unlike the
  /// conjunctive Boolean Query above), report the k best by accumulated
  /// impact score, ordered by (score desc, id asc). `out` is cleared first
  /// and holds at most k hits. Indexes without impact-scored postings
  /// return NotSupported.
  virtual Status TopKQuery(const irhint::Query& query, uint32_t k,
                           std::vector<ScoredHit>* out) const {
    (void)query;
    (void)k;
    out->clear();
    return Status::NotSupported(std::string(Name()) +
                                " has no impact-scored postings");
  }

  /// \brief Insert a new object. Preconditions: ids strictly increase
  /// across inserts (the update model of Section 5.5) and `elements` is
  /// sorted and duplicate-free (set semantics, as Corpus::Finalize
  /// produces).
  virtual Status Insert(const Object& object) = 0;

  /// \brief Logically delete an object (tombstoning; Section 5.5). The
  /// object must carry the same interval/description it was inserted with.
  virtual Status Erase(const Object& object) = 0;

  /// \brief Heap footprint of the index structure in bytes.
  virtual size_t MemoryUsageBytes() const = 0;

  /// \brief Query-work counters merged across all querying threads since
  /// the last ResetStats(), or nullopt for indexes without counter support.
  /// Counting starts after EnableStats(true); it is off by default so the
  /// measurement paths pay nothing.
  virtual std::optional<QueryCounters> Stats() const { return std::nullopt; }

  /// \brief Zero the counters (no-op without counter support). Safe to call
  /// concurrently with queries; per-thread stripes are cleared relaxed.
  virtual void ResetStats() {}

  /// \brief Turn counter collection on or off (no-op without support).
  virtual void EnableStats(bool enabled) { (void)enabled; }

  /// \brief Stable display name, e.g. "irHINT-perf".
  virtual std::string_view Name() const = 0;

  /// \brief Which factory kind this index is (drives snapshot tagging).
  virtual IndexKind Kind() const = 0;

  /// \brief Serialize the built index into an open SnapshotWriter. The
  /// writer's header/kind is managed by SaveIndex (storage/index_io.h);
  /// implementations only emit their sections.
  virtual Status SaveTo(SnapshotWriter* writer) const = 0;

  /// \brief Restore state from a validated snapshot, replacing any current
  /// contents. On the mmap path large arrays become zero-copy views; the
  /// caller (LoadIndexSnapshot) hands the mapping to set_storage_keepalive()
  /// afterwards so those views stay valid.
  virtual Status LoadFrom(SnapshotReader* reader) = 0;

  /// \brief Audit the index's structural invariants (see DESIGN.md §9).
  /// kQuick validates shapes and bookkeeping in O(metadata); kDeep
  /// re-validates every stored entry (canonical HINT partition assignment,
  /// postings sortedness, cross-structure referential integrity). Returns
  /// Corruption describing the first violation found; never crashes on a
  /// malformed structure. The default covers indexes with no invariants
  /// beyond what their Load paths already enforce.
  virtual Status IntegrityCheck(CheckLevel level) const {
    (void)level;
    return Status::OK();
  }

  /// \brief Retain the resource (e.g. an mmap) backing zero-copy views.
  void set_storage_keepalive(std::shared_ptr<void> keepalive) {
    storage_keepalive_ = std::move(keepalive);
  }

 protected:
  std::shared_ptr<void> storage_keepalive_;
};

/// \brief Convenience base for indexes that maintain QueryCounters: owns
/// the sink and implements the optional stats interface. Query()
/// implementations tally a stack-local QueryCounters and flush it with
/// counters_.Accumulate(local) once per query.
class CountingTemporalIrIndex : public TemporalIrIndex {
 public:
  std::optional<QueryCounters> Stats() const override {
    return counters_.Merged();
  }
  void ResetStats() override { counters_.Reset(); }
  void EnableStats(bool enabled) override { counters_.set_enabled(enabled); }

 protected:
  CounterSink counters_;
};

/// \brief The object check shared by the update entry points that take
/// objects from callers (DurableIndex before it logs, ServeEngine before
/// it routes). An inverted interval covers no time point, so the engine
/// cannot place it, and WAL replay rejects it as corruption. Per-element
/// tables grow out to the largest id, and replay rejects ids at or past
/// kElementIdLimit, so such an id is refused up front too instead of
/// being logged or allocated.
inline Status CheckObject(const Object& object) {
  if (object.interval.st > object.interval.end) {
    return Status::InvalidArgument("interval start exceeds end");
  }
  for (const ElementId e : object.elements) {
    if (e >= kElementIdLimit) {
      return Status::InvalidArgument(
          "element id " + std::to_string(e) + " is at or past the limit " +
          std::to_string(kElementIdLimit));
    }
  }
  return Status::OK();
}

}  // namespace irhint

#endif  // IRHINT_CORE_TEMPORAL_IR_INDEX_H_
