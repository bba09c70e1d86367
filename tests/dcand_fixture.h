// Shared fixtures of the D-CAND byte-identity tests: each sequence's pivot
// NFAs rebuilt through the public trie API (the map step as the paper
// states it), a hash that pins their bytes, and the corpora they are pinned
// over.
#ifndef DSEQ_TESTS_DCAND_FIXTURE_H_
#define DSEQ_TESTS_DCAND_FIXTURE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/candidates.h"
#include "src/core/grid.h"
#include "src/core/pivot.h"
#include "src/datagen/text_corpus.h"
#include "src/dict/sequence.h"
#include "src/nfa/output_nfa.h"
#include "src/nfa/serializer.h"

namespace dseq {
namespace testing {

// Tab. III's N4 and N5 over the NYT'-style text corpus.
inline constexpr char kPatternN4[] = ".* (.^){3} NOUN .*";
inline constexpr char kPatternN5[] = ".* ([.^. .]|[. .^.]|[. . .^]) .*";

struct PivotNfa {
  ItemId pivot;
  std::string bytes;  // the serialized NFA, without the weight prefix
};

/// The D-CAND map step for one sequence through the public trie API: every
/// accepting run of the σ-pruned grid goes into the trie of each pivot it
/// can produce, then each non-empty trie is minimized (or, for the paper's
/// Fig. 10b "tries" ablation, only canonicalized) and serialized. Pivots
/// ascend.
inline std::vector<PivotNfa> ReferencePivotNfas(const Sequence& T,
                                                const Fst& fst,
                                                const Dictionary& dict,
                                                uint64_t sigma,
                                                bool minimize) {
  GridOptions options;
  options.prune_sigma = sigma;
  StateGrid grid = StateGrid::Build(T, fst, dict, options);
  std::vector<PivotNfa> result;
  if (!grid.HasAcceptingRun()) return result;
  Sequence pivots = FindPivotItems(grid);
  std::vector<OutputNfa> tries(pivots.size());
  ForEachAcceptingRun(grid, 10'000'000,
                      [&](const std::vector<const StateGrid::Edge*>& run) {
                        for (ItemId k : PivotsOfRun(run).items) {
                          auto it = std::lower_bound(pivots.begin(),
                                                     pivots.end(), k);
                          tries[it - pivots.begin()].AddRun(run, k);
                        }
                      });
  for (size_t i = 0; i < pivots.size(); ++i) {
    if (tries[i].empty()) continue;
    if (minimize) {
      tries[i].Minimize();
    } else {
      tries[i].Canonicalize();
    }
    result.push_back(PivotNfa{pivots[i], SerializeNfa(tries[i])});
  }
  return result;
}

/// Folds pivot NFAs into a running FNV-1a hash (pivot, length, bytes).
inline uint64_t HashPivotNfas(const std::vector<PivotNfa>& nfas,
                              uint64_t hash = 1469598103934665603ULL) {
  auto mix = [&](uint64_t byte) {
    hash = (hash ^ (byte & 0xff)) * 1099511628211ULL;
  };
  for (const PivotNfa& nfa : nfas) {
    for (int shift = 0; shift < 32; shift += 8) mix(nfa.pivot >> shift);
    for (int shift = 0; shift < 64; shift += 8) {
      mix(static_cast<uint64_t>(nfa.bytes.size()) >> shift);
    }
    for (char c : nfa.bytes) mix(static_cast<uint8_t>(c));
  }
  return hash;
}

/// The first 64 sentences of bench_micro_components' --tiny corpus (the
/// micro fixture its N4/N5 rows mine), with the corpus's dictionary.
/// Generated through the standard library's distributions, so pinned
/// hashes over it hold for one standard library (libstdc++).
inline SequenceDatabase MicroTextCorpus() {
  TextCorpusOptions options;
  options.num_sentences = 300;
  options.lemmas_per_pos = 80;
  options.num_entities = 40;
  SequenceDatabase db = GenerateTextCorpus(options);
  db.sequences.resize(std::min<size_t>(db.sequences.size(), 64));
  return db;
}

}  // namespace testing
}  // namespace dseq

#endif  // DSEQ_TESTS_DCAND_FIXTURE_H_
