// D-CAND: distributed mining with candidate-represented partitions (paper
// Sec. VI).
//
// One map-shuffle-reduce round:
//   map    : per input sequence T, enumerate the accepting runs of the
//            σ-pruned grid and insert each run into the output NFA of every
//            pivot k the run can produce; minimize (or canonicalize) and
//            serialize each NFA in DFS order
//   shuffle: partitions keyed by pivot item; a combiner aggregates identical
//            serialized NFAs into weighted NFAs (Sec. VI-A)
//   reduce : each partition decodes its weighted NFAs into one NfaPartition
//            arena and mines them directly by the shared pattern growth of
//            pattern_growth.h over NFA states, counting distinct-NFA support
//
// Per-thread reuse: the map keeps one OutputNfa per pivot slot per thread
// and the reduce one NfaPartition arena per thread, each cleared (capacity
// kept) before use, so after warm-up neither side allocates per NFA.
#ifndef DSEQ_DIST_DCAND_MINER_H_
#define DSEQ_DIST_DCAND_MINER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/core/desq_dfs.h"
#include "src/dict/dictionary.h"
#include "src/dist/distributed.h"
#include "src/fst/fst.h"
#include "src/nfa/output_nfa.h"
#include "src/nfa/serializer.h"

namespace dseq {

struct DCandOptions : DistributedRunOptions {
  uint64_t sigma = 1;

  /// Minimize NFAs before serialization (Revuz, linear for the acyclic
  /// tries). When false, tries are only canonicalized (paper Fig. 10b
  /// "tries" ablation).
  bool minimize_nfas = true;

  /// Aggregate identical serialized NFAs into weighted NFAs in the shuffle
  /// (paper Sec. VI-A). When false, every NFA is shipped individually.
  bool aggregate_nfas = true;

  /// Per-sequence accepting-run budget; exceeding it throws
  /// MiningBudgetError (run explosion = certain OOM). 0 = unlimited.
  uint64_t max_runs_per_sequence = 0;

  /// Per-sequence budget on the total number of trie states across all of
  /// the sequence's partition NFAs; exceeding it throws MiningBudgetError
  /// (the paper's per-container memory limit). 0 = unlimited.
  uint64_t max_trie_states_per_sequence = 0;
};

/// Local miner of one candidate partition: pattern growth directly over the
/// weighted NFAs. A candidate is counted once per NFA (distinct-sequence
/// support) with the NFA's weight; only sequences containing `pivot` are
/// reported (every sequence when `pivot` is kNoItem). Result is
/// canonicalized.
MiningResult MineNfas(const NfaPartition& partition, uint64_t sigma,
                      ItemId pivot);

/// The same over separately built NFAs: appends them into a partition and
/// mines that.
MiningResult MineNfas(const std::vector<OutputNfa>& nfas,
                      const std::vector<uint64_t>& weights, uint64_t sigma,
                      ItemId pivot);

/// D-CAND's map body for one input sequence T: builds T's σ-pruned grid and
/// one NFA per pivot of K(T), inserting every accepting run into the NFA of
/// each pivot it can produce, then minimizes (or canonicalizes) each
/// non-empty NFA and emits it, serialized behind weight 1, under its pivot
/// key. Throws MiningBudgetError past `options`' run or trie-state budget.
void MapDCandSequence(const Sequence& T, const Fst& fst,
                      const Dictionary& dict, const DCandOptions& options,
                      const EmitFn& emit);

/// D-CAND's reduce body for one partition: decodes the partition's weighted
/// NFA records (`values`) into the calling thread's arena and mines them at
/// `sigma` for `pivot`. Throws NfaParseError on a malformed record.
MiningResult MineDCandPartition(const std::vector<std::string_view>& values,
                                ItemId pivot, uint64_t sigma);

/// Runs D-CAND. `db` must be fid-recoded with `dict`.
DistributedResult MineDCand(const std::vector<Sequence>& db, const Fst& fst,
                            const Dictionary& dict,
                            const DCandOptions& options);

}  // namespace dseq

#endif  // DSEQ_DIST_DCAND_MINER_H_
