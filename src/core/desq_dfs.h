// DESQ-DFS: pattern-growth mining under flexible constraints.
//
// Sequential baseline (Beedkar & Gemulla, ICDM'16; paper Tab. V) and — in
// its pivot-restricted form — the local miner of D-SEQ partitions (paper
// Sec. V-C). The search is the shared pattern growth of pattern_growth.h
// over postings (sequence, last-read position, FST state); a sequence
// supports a prefix if some posting can reach the end of the sequence in a
// final state via ε-output transitions only.
//
// Pivot restriction (local mining at partition P_k):
//  * items larger than the pivot are never used to extend a prefix,
//  * only sequences containing the pivot item are output,
//  * early stopping: a sequence no longer extends a pivot-free prefix once
//    its last position that can produce the pivot item has passed.
// D-SEQ's reduce (MineDSeqPartition) builds its grids capped at the pivot
// (GridOptions::max_output_item), so they hold no larger item at all; the
// search's per-item "larger than the pivot" check serves callers that pass
// uncapped grids, such as MineDesqDfs with a pivot.
#ifndef DSEQ_CORE_DESQ_DFS_H_
#define DSEQ_CORE_DESQ_DFS_H_

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "src/core/grid.h"
#include "src/core/mining.h"
#include "src/dict/dictionary.h"
#include "src/fst/fst.h"
#include "src/util/common.h"

namespace dseq {

/// Thrown when a configured memory budget is exceeded (used by benches to
/// reproduce the paper's OOM entries faithfully instead of thrashing).
class MiningBudgetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct DesqDfsOptions {
  uint64_t sigma = 1;

  /// If not kNoItem: mine only sequences whose pivot (max item) equals this
  /// item; larger items are never expanded.
  ItemId pivot = kNoItem;

  /// Early-stopping heuristic for pivot-restricted mining (Sec. V-C).
  bool early_stop = true;

  /// If > 0: abort with MiningBudgetError when the total number of live grid
  /// edges across all sequences exceeds this bound (OOM emulation).
  uint64_t max_total_grid_edges = 0;
};

/// Mines all frequent subsequences of `db` under the FST with threshold
/// `options.sigma`. Builds one grid per sequence (σ-pruned) and runs
/// pattern growth. Result is canonicalized (sorted by pattern).
MiningResult MineDesqDfs(const std::vector<Sequence>& db, const Fst& fst,
                         const Dictionary& dict, const DesqDfsOptions& options);

/// Same, over pre-built grids (used by D-SEQ local mining, which receives
/// rewritten sequences and has already built their grids).
MiningResult MineDesqDfsGrids(const std::vector<StateGrid>& grids,
                              const DesqDfsOptions& options);

/// Weighted variant: grid i counts with multiplicity weights[i] (used when
/// identical rewritten input sequences were aggregated in the shuffle).
MiningResult MineDesqDfsGrids(const std::vector<StateGrid>& grids,
                              const std::vector<uint64_t>& weights,
                              const DesqDfsOptions& options);

}  // namespace dseq

#endif  // DSEQ_CORE_DESQ_DFS_H_
