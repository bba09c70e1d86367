// Specialized distributed gap/length miner (LASH / MG-FSM baseline).
//
// Reproduces the constraint class of MG-FSM (max gap, max length) and LASH
// (plus item hierarchies): subsequences of 2..lambda items whose consecutive
// picks are at most `gamma` positions apart in the input, each item
// optionally generalized to any of its ancestors. This is exactly the
// semantics of the paper's T2(σ,γ,λ) and T3(σ,γ,λ) pattern expressions —
// but mined with specialized data structures instead of an FST, which is
// what gives the specialized systems their edge in Fig. 12.
//
// Distribution follows LASH: item-based partitioning, rewritten (trimmed)
// input sequences, pivot-restricted local mining with early stopping. The
// local miner is the shared pattern growth of pattern_growth.h over gap
// windows.
#ifndef DSEQ_BASELINES_GAP_MINER_H_
#define DSEQ_BASELINES_GAP_MINER_H_

#include "src/dict/dictionary.h"
#include "src/dist/distributed.h"

namespace dseq {

struct GapMinerOptions : DistributedRunOptions {
  uint64_t sigma = 1;
  uint32_t gamma = 0;   // max gap between consecutive picked positions
  uint32_t lambda = 5;  // max output length
  uint32_t min_length = 2;
  bool use_hierarchy = true;  // LASH (T3) if true, MG-FSM (T2) if false
};

/// Runs the specialized miner. Result patterns are canonicalized and agree
/// with MineDesqDfs / MineDSeq on the corresponding T2/T3 pattern.
DistributedResult MineGapConstrained(const std::vector<Sequence>& db,
                                     const Dictionary& dict,
                                     const GapMinerOptions& options);

}  // namespace dseq

#endif  // DSEQ_BASELINES_GAP_MINER_H_
