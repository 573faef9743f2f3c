// Factory for every time-travel IR index in the library; used by the
// benchmark harness and the examples to instantiate indexes by kind.

#ifndef IRHINT_CORE_FACTORY_H_
#define IRHINT_CORE_FACTORY_H_

#include <memory>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/index_kind.h"
#include "core/temporal_ir_index.h"

namespace irhint {

/// \brief Tuning knobs for all index kinds (each kind reads only its own).
struct IndexConfig {
  /// tIF+Slicing and the hybrid: number of time-domain slices.
  uint32_t num_slices = 50;
  /// Postings-HINT bits. The paper tunes the binary-search variant to
  /// m = 10 and the merge-sort / hybrid variants to m = 5 (Figure 9).
  int tif_hint_bits_bs = 10;
  int tif_hint_bits_ms = 5;
  /// irHINT variants: hierarchy bits (-1 = cost model).
  int irhint_bits = -1;
  /// tIF+Sharding: shard cap per list.
  uint32_t max_shards_per_list = 16;
  /// Scored kinds (src/rank): pruning divisions per ScoreBlockStore.
  uint32_t rank_divisions = 32;
};

/// \brief Instantiate an (unbuilt) index of the given kind.
std::unique_ptr<TemporalIrIndex> CreateIndex(IndexKind kind,
                                             const IndexConfig& config = {});

/// \brief Display name without instantiating.
std::string_view IndexKindName(IndexKind kind);

/// \brief The kind a command-line name (--index) selects; InvalidArgument
/// naming the accepted names for any other string.
StatusOr<IndexKind> ParseIndexKind(std::string_view name);

/// \brief Every name ParseIndexKind accepts, one per kind.
std::vector<std::string_view> IndexKindFlagNames();

/// \brief The five indexes compared in Figures 11/12 (competitors + ours).
std::vector<IndexKind> ComparisonIndexKinds();

/// \brief All seven indexes of Table 5.
std::vector<IndexKind> AllIndexKinds();

/// \brief The kinds with impact-scored postings (TopKQuery support); kept
/// out of the two lists above so the Boolean comparison surfaces stay as
/// the paper defines them.
std::vector<IndexKind> ScoredIndexKinds();

/// \brief True iff CreateIndex(kind) produces an index whose TopKQuery is
/// implemented (i.e. a scored kind).
bool KindSupportsTopK(IndexKind kind);

}  // namespace irhint

#endif  // IRHINT_CORE_FACTORY_H_
