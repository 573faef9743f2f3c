#include "core/factory.h"

#include <iterator>
#include <string>

#include "core/irhint_perf.h"
#include "core/irhint_size.h"
#include "core/naive_scan.h"
#include "ir/tif.h"
#include "irfirst/tif_hint.h"
#include "rank/scored_index.h"
#include "irfirst/tif_hint_slicing.h"
#include "irfirst/tif_sharding.h"
#include "irfirst/tif_slicing.h"

namespace irhint {

std::unique_ptr<TemporalIrIndex> CreateIndex(IndexKind kind,
                                             const IndexConfig& config) {
  switch (kind) {
    case IndexKind::kNaiveScan:
      return std::make_unique<NaiveScan>();
    case IndexKind::kTif:
      return std::make_unique<TemporalInvertedFile>();
    case IndexKind::kTifSlicing: {
      TifSlicingOptions options;
      options.num_slices = config.num_slices;
      return std::make_unique<TifSlicing>(options);
    }
    case IndexKind::kTifSharding: {
      TifShardingOptions options;
      options.max_shards_per_list = config.max_shards_per_list;
      return std::make_unique<TifSharding>(options);
    }
    case IndexKind::kTifHintBinarySearch: {
      TifHintOptions options;
      options.num_bits = config.tif_hint_bits_bs;
      options.mode = TifHintMode::kBinarySearch;
      return std::make_unique<TifHint>(options);
    }
    case IndexKind::kTifHintMergeSort: {
      TifHintOptions options;
      options.num_bits = config.tif_hint_bits_ms;
      options.mode = TifHintMode::kMergeSort;
      return std::make_unique<TifHint>(options);
    }
    case IndexKind::kTifHintSlicing: {
      TifHintSlicingOptions options;
      options.num_bits = config.tif_hint_bits_ms;
      options.num_slices = config.num_slices;
      return std::make_unique<TifHintSlicing>(options);
    }
    case IndexKind::kIrHintPerf: {
      IrHintOptions options;
      options.num_bits = config.irhint_bits;
      return std::make_unique<IrHintPerf>(options);
    }
    case IndexKind::kIrHintSize: {
      IrHintSizeOptions options;
      options.num_bits = config.irhint_bits;
      return std::make_unique<IrHintSize>(options);
    }
    case IndexKind::kScoredTif: {
      ScoredIndexOptions options;
      options.base = IndexKind::kTif;
      // tIF keeps one flat postings store; divisions are a HINT notion.
      options.divisions = 1;
      return std::make_unique<ScoredIndex>(options, config);
    }
    case IndexKind::kScoredIrHint: {
      ScoredIndexOptions options;
      options.base = IndexKind::kIrHintPerf;
      options.divisions = config.rank_divisions;
      return std::make_unique<ScoredIndex>(options, config);
    }
  }
  return nullptr;
}

std::string_view IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kNaiveScan: return "NaiveScan";
    case IndexKind::kTif: return "tIF";
    case IndexKind::kTifSlicing: return "tIF+Slicing";
    case IndexKind::kTifSharding: return "tIF+Sharding";
    case IndexKind::kTifHintBinarySearch: return "tIF+HINT(bs)";
    case IndexKind::kTifHintMergeSort: return "tIF+HINT(ms)";
    case IndexKind::kTifHintSlicing: return "tIF+HINT+Slicing";
    case IndexKind::kIrHintPerf: return "irHINT-perf";
    case IndexKind::kIrHintSize: return "irHINT-size";
    case IndexKind::kScoredTif: return "scored-tIF";
    case IndexKind::kScoredIrHint: return "scored-irHINT";
  }
  return "unknown";
}

namespace {

struct FlagName {
  IndexKind kind;
  std::string_view name;
};

constexpr FlagName kFlagNames[] = {
    {IndexKind::kNaiveScan, "naive"},
    {IndexKind::kTif, "tif"},
    {IndexKind::kTifSlicing, "slicing"},
    {IndexKind::kTifSharding, "sharding"},
    {IndexKind::kTifHintBinarySearch, "hint-bs"},
    {IndexKind::kTifHintMergeSort, "hint-ms"},
    {IndexKind::kTifHintSlicing, "hybrid"},
    {IndexKind::kIrHintPerf, "irhint-perf"},
    {IndexKind::kIrHintSize, "irhint-size"},
    {IndexKind::kScoredTif, "scored-tif"},
    {IndexKind::kScoredIrHint, "scored-irhint"},
};

}  // namespace

StatusOr<IndexKind> ParseIndexKind(std::string_view name) {
  std::string known;
  for (const FlagName& flag : kFlagNames) {
    if (flag.name == name) return flag.kind;
    known += known.empty() ? "" : ", ";
    known += flag.name;
  }
  return Status::InvalidArgument("unknown index '" + std::string(name) +
                                 "' (one of: " + known + ")");
}

std::vector<std::string_view> IndexKindFlagNames() {
  std::vector<std::string_view> names;
  names.reserve(std::size(kFlagNames));
  for (const FlagName& flag : kFlagNames) names.push_back(flag.name);
  return names;
}

std::vector<IndexKind> ComparisonIndexKinds() {
  return {IndexKind::kTifSlicing, IndexKind::kTifSharding,
          IndexKind::kTifHintSlicing, IndexKind::kIrHintPerf,
          IndexKind::kIrHintSize};
}

std::vector<IndexKind> AllIndexKinds() {
  return {IndexKind::kTifSlicing,    IndexKind::kTifSharding,
          IndexKind::kTifHintBinarySearch, IndexKind::kTifHintMergeSort,
          IndexKind::kTifHintSlicing, IndexKind::kIrHintPerf,
          IndexKind::kIrHintSize};
}

std::vector<IndexKind> ScoredIndexKinds() {
  return {IndexKind::kScoredTif, IndexKind::kScoredIrHint};
}

bool KindSupportsTopK(IndexKind kind) {
  return kind == IndexKind::kScoredTif || kind == IndexKind::kScoredIrHint;
}

}  // namespace irhint
