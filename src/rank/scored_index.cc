#include "rank/scored_index.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>

#include "storage/snapshot_format.h"
#include "storage/snapshot_reader.h"
#include "storage/snapshot_writer.h"

namespace irhint {

namespace {

/// \brief Sane ceiling on divisions accepted from a snapshot (a hostile
/// count would otherwise drive a huge allocation before any data check).
constexpr uint32_t kMaxDivisions = 1u << 16;

ScoredPosting MakePosting(ElementId element, const Object& object) {
  ScoredPosting p;
  p.id = object.id;
  p.impact = ImpactScore(element, object.interval.end);
  p.st = object.interval.st;
  p.end = object.interval.end;
  return p;
}

/// \brief Query terms deduplicated (set semantics: a repeated term must
/// not double its contribution).
std::vector<ElementId> UniqueTerms(const std::vector<ElementId>& elements) {
  std::vector<ElementId> terms = elements;
  std::sort(terms.begin(), terms.end());
  terms.erase(std::unique(terms.begin(), terms.end()), terms.end());
  return terms;
}

/// \brief One term's traversal state inside a division.
struct TermCursor {
  ScoreBlockStore::ListRef ref;
  uint64_t ub = 0;  // bound on any single posting's contribution
  size_t pos = 0;   // [0, core_len) core, then the delta overlay

  bool exhausted() const { return pos >= ref.total_len(); }
  const ScoredPosting& at() const {
    return pos < ref.core_len ? ref.core[pos] : ref.delta[pos - ref.core_len];
  }
};

/// \brief Worst-on-top comparator: the heap root is the hit every other
/// entry beats, i.e. the current k-th best — the threshold θ.
bool WorseOnTop(const ScoredHit& a, const ScoredHit& b) {
  return ScoredBetter(a, b);
}

uint64_t Threshold(const std::vector<ScoredHit>& heap, uint32_t k) {
  return heap.size() >= k ? heap.front().score : 0;
}

void HeapOffer(std::vector<ScoredHit>* heap, uint32_t k,
               const ScoredHit& hit) {
  if (heap->size() < k) {
    heap->push_back(hit);
    std::push_heap(heap->begin(), heap->end(), WorseOnTop);
    return;
  }
  if (ScoredBetter(hit, heap->front())) {
    std::pop_heap(heap->begin(), heap->end(), WorseOnTop);
    heap->back() = hit;
    std::push_heap(heap->begin(), heap->end(), WorseOnTop);
  }
}

/// \brief Advance the cursor past every leading block that provably holds
/// no winner. Time pruning is always sound (overlap is a property of the
/// object, shared by all of its postings). Impact pruning is sound only
/// when this is the single essential list — then no other list generates
/// candidates, so a skipped document's total score is bounded by
/// block.max_impact + the non-essential bounds; strictly below θ means
/// it cannot enter the heap even on an id tie.
void SkipPrunedBlocks(TermCursor* c, const Interval& q, bool sole_essential,
                      uint64_t nonessential_ub, uint64_t theta,
                      QueryCounters* counters) {
  for (;;) {
    if (c->pos < c->ref.core_len) {
      if (c->pos % kScoreBlockSize != 0) return;  // mid-block: committed
      const size_t b = c->pos / kScoreBlockSize;
      const ScoreBlockMeta& meta = c->ref.blocks[b];
      const bool skip =
          meta.MissesInterval(q) ||
          (sole_essential && theta > 0 &&
           meta.max_impact + nonessential_ub < theta);
      if (!skip) return;
      counters->blocks_skipped++;
      c->pos = std::min((b + 1) * kScoreBlockSize, c->ref.core_len);
      continue;
    }
    if (c->pos == c->ref.core_len && c->ref.delta_len > 0) {
      // The delta overlay acts as one pseudo-block.
      const ScoreBlockMeta& meta = c->ref.delta_meta;
      const bool skip =
          meta.MissesInterval(q) ||
          (sole_essential && theta > 0 &&
           meta.max_impact + nonessential_ub < theta);
      if (skip) {
        counters->blocks_skipped++;
        c->pos = c->ref.total_len();
      }
    }
    return;
  }
}

/// \brief Binary-search a list (core span, then delta overlay) for an id.
const ScoredPosting* FindInList(const ScoreBlockStore::ListRef& ref,
                                ObjectId id) {
  const auto id_less = [](const ScoredPosting& p, ObjectId v) {
    return p.id < v;
  };
  const ScoredPosting* it =
      std::lower_bound(ref.core, ref.core + ref.core_len, id, id_less);
  if (it != ref.core + ref.core_len && it->id == id) return it;
  it = std::lower_bound(ref.delta, ref.delta + ref.delta_len, id, id_less);
  if (it != ref.delta + ref.delta_len && it->id == id) return it;
  return nullptr;
}

/// \brief MaxScore document-at-a-time over one division, folding winners
/// into the shared heap (θ carries across divisions).
void TopKDivision(const ScoreBlockStore& store, const Interval& q,
                  const std::vector<ElementId>& terms, uint32_t k,
                  std::vector<ScoredHit>* heap, QueryCounters* counters) {
  if (store.empty()) return;
  if (store.division_meta().MissesInterval(q)) {
    counters->divisions_skipped++;
    return;
  }
  std::vector<TermCursor> lists;
  lists.reserve(terms.size());
  uint64_t division_ub = 0;
  for (ElementId t : terms) {
    TermCursor c;
    if (!store.FindList(t, &c.ref)) continue;
    if (c.ref.MissesInterval(q)) continue;
    c.ub = c.ref.max_impact();
    division_ub += c.ub;
    lists.push_back(c);
  }
  if (lists.empty()) return;
  {
    const uint64_t theta = Threshold(*heap, k);
    if (theta > 0 && division_ub < theta) {
      counters->divisions_skipped++;
      return;
    }
  }
  counters->divisions_visited++;

  // MaxScore order: ascending bound, ties longer-list-first, so the
  // cheap-but-heavy lists are first in line for probe-only demotion.
  std::sort(lists.begin(), lists.end(),
            [](const TermCursor& a, const TermCursor& b) {
              if (a.ub != b.ub) return a.ub < b.ub;
              return a.ref.total_len() > b.ref.total_len();
            });
  std::vector<uint64_t> prefix_ub(lists.size() + 1, 0);
  for (size_t i = 0; i < lists.size(); ++i) {
    prefix_ub[i + 1] = prefix_ub[i] + lists[i].ub;
  }

  // Lists [0, split) are non-essential: their combined bounds are
  // STRICTLY below θ, so a document found only there scores < θ and
  // loses to the whole heap regardless of id ties. Candidates therefore
  // come from the essential suffix alone; non-essential lists are only
  // probed. The split is re-derived whenever θ grows.
  size_t split = 0;
  uint64_t split_theta = static_cast<uint64_t>(-1);

  for (;;) {
    const uint64_t theta = Threshold(*heap, k);
    if (theta != split_theta) {
      if (theta > 0 && prefix_ub[lists.size()] < theta) return;
      split = 0;
      while (prefix_ub[split + 1] < theta) ++split;
      split_theta = theta;
    }
    const bool sole_essential = split + 1 == lists.size();
    const uint64_t nonessential_ub = prefix_ub[split];

    uint64_t cand = static_cast<uint64_t>(-1);
    for (size_t i = split; i < lists.size(); ++i) {
      SkipPrunedBlocks(&lists[i], q, sole_essential && i == split,
                       nonessential_ub, theta, counters);
      if (!lists[i].exhausted()) {
        cand = std::min(cand, static_cast<uint64_t>(lists[i].at().id));
      }
    }
    if (cand == static_cast<uint64_t>(-1)) return;  // essentials drained
    const ObjectId cand_id = static_cast<ObjectId>(cand);

    uint64_t score = 0;
    for (size_t i = split; i < lists.size(); ++i) {
      TermCursor& c = lists[i];
      if (!c.exhausted() && c.at().id == cand_id) {
        const ScoredPosting& p = c.at();
        counters->postings_scored++;
        if (!p.tombstoned() && p.st <= q.end && p.end >= q.st) {
          score += p.impact;
        }
        c.pos++;
      }
    }
    // A dead or non-overlapping candidate stays dead in every other list
    // (liveness and lifespan belong to the object, not the posting).
    if (score == 0) continue;

    for (size_t j = split; j-- > 0;) {
      // Even perfect probes below j cannot lift the score to θ.
      if (theta > 0 && score + prefix_ub[j + 1] < theta) break;
      const ScoredPosting* p = FindInList(lists[j].ref, cand_id);
      if (p != nullptr) {
        counters->postings_scored++;
        if (!p->tombstoned() && p->st <= q.end && p->end >= q.st) {
          score += p->impact;
        }
      }
    }
    HeapOffer(heap, k, ScoredHit{cand_id, score});
  }
}

}  // namespace

ScoredIndex::ScoredIndex(const ScoredIndexOptions& options,
                         const IndexConfig& config)
    : options_(options) {
  if (options_.base != IndexKind::kTif &&
      options_.base != IndexKind::kIrHintPerf) {
    options_.base = IndexKind::kIrHintPerf;
  }
  if (options_.divisions == 0) options_.divisions = 1;
  name_ = options_.base == IndexKind::kTif ? "scored-tIF" : "scored-irHINT";
  inner_ = CreateIndex(options_.base, config);
  stores_.resize(1);
  division_starts_.assign(1, 0);
}

Status ScoredIndex::Build(const Corpus& corpus) {
  if (built_) {
    return Status::InvalidArgument("scored index is already built");
  }
  for (const ScoreBlockStore& store : stores_) {
    if (!store.empty()) {
      return Status::InvalidArgument("scored index Build after Insert");
    }
  }
  IRHINT_RETURN_NOT_OK(inner_->Build(corpus));
  const std::vector<Object>& objects = corpus.objects();

  // Freeze equal-population start-time boundaries: each division gets
  // ~n/G objects, so suffix pruning by min_st removes postings, not just
  // (possibly empty) time span. Duplicate quantiles collapse.
  division_starts_.assign(1, 0);
  if (options_.divisions > 1 && !objects.empty()) {
    std::vector<Time> starts;
    starts.reserve(objects.size());
    for (const Object& o : objects) starts.push_back(o.interval.st);
    std::sort(starts.begin(), starts.end());
    for (uint32_t j = 1; j < options_.divisions; ++j) {
      const Time b =
          starts[static_cast<size_t>(j) * starts.size() / options_.divisions];
      if (b > division_starts_.back()) division_starts_.push_back(b);
    }
  }

  std::vector<std::map<ElementId, std::vector<ScoredPosting>>> lists(
      division_starts_.size());
  for (const Object& o : objects) {
    auto& division = lists[DivisionFor(o.interval.st)];
    for (ElementId e : o.elements) {
      division[e].push_back(MakePosting(e, o));
    }
  }
  stores_.assign(division_starts_.size(), ScoreBlockStore());
  for (size_t d = 0; d < stores_.size(); ++d) stores_[d].Assemble(lists[d]);
  built_ = true;
  return Status::OK();
}

void ScoredIndex::Query(const irhint::Query& query,
                        std::vector<ObjectId>* out) const {
  inner_->Query(query, out);
}

Status ScoredIndex::TopKQuery(const irhint::Query& query, uint32_t k,
                              std::vector<ScoredHit>* out) const {
  out->clear();
  if (query.interval.st > query.interval.end) {
    return Status::InvalidArgument("query interval is inverted");
  }
  if (k == 0) return Status::OK();
  QueryCounters local;
  const std::vector<ElementId> terms = UniqueTerms(query.elements);
  // The heap never holds more hits than the stores hold postings, so a
  // huge k must not size it (k = 2^32 - 1 would reserve 64 GiB).
  size_t postings = 0;
  for (const ScoreBlockStore& store : stores_) {
    postings += store.posting_count();
  }
  std::vector<ScoredHit> heap;
  heap.reserve(std::min<size_t>(k, postings));
  for (const ScoreBlockStore& store : stores_) {
    TopKDivision(store, query.interval, terms, k, &heap, &local);
  }
  std::sort(heap.begin(), heap.end(), ScoredBetter);
  *out = std::move(heap);
  counters_.Accumulate(local);
  return Status::OK();
}

Status ScoredIndex::TopKOracle(const irhint::Query& query, uint32_t k,
                               std::vector<ScoredHit>* out) const {
  out->clear();
  if (query.interval.st > query.interval.end) {
    return Status::InvalidArgument("query interval is inverted");
  }
  if (k == 0) return Status::OK();
  QueryCounters local;
  const std::vector<ElementId> terms = UniqueTerms(query.elements);
  std::unordered_map<ObjectId, uint64_t> scores;
  for (const ScoreBlockStore& store : stores_) {
    bool touched = false;
    for (ElementId t : terms) {
      ScoreBlockStore::ListRef ref;
      if (!store.FindList(t, &ref)) continue;
      touched = true;
      for (size_t i = 0; i < ref.total_len(); ++i) {
        const ScoredPosting& p =
            i < ref.core_len ? ref.core[i] : ref.delta[i - ref.core_len];
        local.postings_scored++;
        if (!p.tombstoned() && p.st <= query.interval.end &&
            p.end >= query.interval.st) {
          scores[p.id] += p.impact;
        }
      }
    }
    if (touched) local.divisions_visited++;
  }
  std::vector<ScoredHit> hits;
  hits.reserve(scores.size());
  for (const auto& [id, score] : scores) hits.push_back(ScoredHit{id, score});
  std::sort(hits.begin(), hits.end(), ScoredBetter);
  if (hits.size() > static_cast<size_t>(k)) hits.resize(k);
  *out = std::move(hits);
  counters_.Accumulate(local);
  return Status::OK();
}

Status ScoredIndex::Insert(const Object& object) {
  IRHINT_RETURN_NOT_OK(inner_->Insert(object));
  ScoreBlockStore& store = stores_[DivisionFor(object.interval.st)];
  for (ElementId e : object.elements) store.Append(e, MakePosting(e, object));
  return Status::OK();
}

Status ScoredIndex::Erase(const Object& object) {
  IRHINT_RETURN_NOT_OK(inner_->Erase(object));
  stores_[DivisionFor(object.interval.st)].Tombstone(object);
  return Status::OK();
}

size_t ScoredIndex::MemoryUsageBytes() const {
  size_t bytes = inner_->MemoryUsageBytes() +
                 division_starts_.capacity() * sizeof(Time);
  for (const ScoreBlockStore& store : stores_) {
    bytes += store.MemoryUsageBytes();
  }
  return bytes;
}

std::optional<QueryCounters> ScoredIndex::Stats() const {
  QueryCounters total = counters_.Merged();
  if (auto inner = inner_->Stats()) total += *inner;
  return total;
}

void ScoredIndex::ResetStats() {
  counters_.Reset();
  inner_->ResetStats();
}

void ScoredIndex::EnableStats(bool enabled) {
  counters_.set_enabled(enabled);
  inner_->EnableStats(enabled);
}

IndexKind ScoredIndex::Kind() const {
  return options_.base == IndexKind::kTif ? IndexKind::kScoredTif
                                          : IndexKind::kScoredIrHint;
}

Status ScoredIndex::SaveTo(SnapshotWriter* writer) const {
  IRHINT_RETURN_NOT_OK(inner_->SaveTo(writer));
  writer->BeginSection(kSectionRank);
  writer->WriteU32(static_cast<uint32_t>(stores_.size()));
  writer->WriteU32(built_ ? 1 : 0);
  writer->WriteVector(division_starts_);
  for (const ScoreBlockStore& store : stores_) store.SaveTo(writer);
  return writer->EndSection();
}

Status ScoredIndex::LoadFrom(SnapshotReader* reader) {
  IRHINT_RETURN_NOT_OK(inner_->LoadFrom(reader));
  auto cursor = reader->OpenSection(kSectionRank);
  IRHINT_RETURN_NOT_OK(cursor.status());
  uint32_t ndiv = 0;
  uint32_t built = 0;
  IRHINT_RETURN_NOT_OK(cursor->ReadU32(&ndiv));
  IRHINT_RETURN_NOT_OK(cursor->ReadU32(&built));
  if (ndiv == 0 || ndiv > kMaxDivisions) {
    return Status::Corruption("rank section has implausible division count");
  }
  std::vector<Time> starts;
  IRHINT_RETURN_NOT_OK(cursor->ReadVector(&starts));
  if (starts.size() != ndiv || starts[0] != 0) {
    return Status::Corruption("rank section division starts malformed");
  }
  for (size_t i = 1; i < starts.size(); ++i) {
    if (starts[i - 1] >= starts[i]) {
      return Status::Corruption("rank section division starts not sorted");
    }
  }
  std::vector<ScoreBlockStore> stores(ndiv);
  for (ScoreBlockStore& store : stores) {
    IRHINT_RETURN_NOT_OK(store.LoadFrom(&cursor.value()));
  }
  division_starts_ = std::move(starts);
  stores_ = std::move(stores);
  built_ = built != 0;
  return Status::OK();
}

Status ScoredIndex::IntegrityCheck(CheckLevel level) const {
  IRHINT_RETURN_NOT_OK(inner_->IntegrityCheck(level));
  if (stores_.empty() || stores_.size() != division_starts_.size() ||
      division_starts_[0] != 0) {
    return Status::Corruption("scored index division directory malformed");
  }
  for (size_t i = 1; i < division_starts_.size(); ++i) {
    if (division_starts_[i - 1] >= division_starts_[i]) {
      return Status::Corruption("scored index division starts not sorted");
    }
  }
  for (size_t i = 0; i < stores_.size(); ++i) {
    IRHINT_RETURN_NOT_OK(stores_[i].Check(level));
    if (level == CheckLevel::kDeep && !stores_[i].empty() &&
        stores_[i].division_meta().min_st < division_starts_[i]) {
      return Status::Corruption("scored index posting below its division");
    }
  }
  return Status::OK();
}

size_t ScoredIndex::DivisionFor(Time st) const {
  // First boundary strictly above st, minus one (division_starts_[0] is 0).
  size_t lo = 0, hi = division_starts_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (division_starts_[mid] <= st) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo - 1;
}

}  // namespace irhint
