#include "src/dist/dcand_miner.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "src/core/candidates.h"
#include "src/core/grid.h"
#include "src/core/pattern_growth.h"
#include "src/core/pivot.h"

namespace dseq {
namespace {

// The candidate partition's projected database: a posting is a state of
// one weighted NFA, accepted where the state is final. The NFAs are
// acyclic, so growth terminates without position tracking.
class NfaDb {
 public:
  struct Posting {
    uint32_t input;
    StateId state;  // global state id in the partition

    bool operator<(const Posting& o) const {
      return std::tie(input, state) < std::tie(o.input, o.state);
    }
  };

  explicit NfaDb(const NfaPartition& partition) : partition_(partition) {}

  std::vector<Posting> Roots() const {
    std::vector<Posting> roots;
    for (uint32_t n = 0; n < partition_.size(); ++n) {
      StateId root = partition_.Root(n);
      if (!partition_.EdgesOf(root).empty()) roots.push_back(Posting{n, root});
    }
    return roots;
  }

  uint64_t Weight(uint32_t input) const { return partition_.Weight(input); }

  bool Accepts(const Posting& p, size_t /*length*/) const {
    return partition_.IsFinal(p.state);
  }

  template <typename Emit>
  void Extend(const Posting& p, bool /*has_pivot*/, size_t /*length*/,
              const Emit& emit) const {
    for (const NfaPartition::Edge& e : partition_.EdgesOf(p.state)) {
      for (ItemId w : partition_.Label(e)) {
        emit(w, Posting{p.input, e.target});
      }
    }
  }

 private:
  const NfaPartition& partition_;
};

// The map's per-thread NFAs, one per pivot slot, cleared before each
// sequence, and the serialized value buffer.
struct MapScratch {
  std::vector<OutputNfa> nfas;
  std::string value;
};

MapScratch& ThreadMapScratch() {
  thread_local MapScratch scratch;
  return scratch;
}

}  // namespace

MiningResult MineNfas(const NfaPartition& partition, uint64_t sigma,
                      ItemId pivot) {
  MiningResult result;
  NfaDb db(partition);
  PatternGrowth<NfaDb>(db, sigma, pivot, &result).Run();
  Canonicalize(&result);
  return result;
}

MiningResult MineNfas(const std::vector<OutputNfa>& nfas,
                      const std::vector<uint64_t>& weights, uint64_t sigma,
                      ItemId pivot) {
  thread_local NfaPartition partition;
  partition.Clear();
  for (size_t i = 0; i < nfas.size(); ++i) {
    partition.Append(nfas[i], weights[i]);
  }
  return MineNfas(partition, sigma, pivot);
}

void MapDCandSequence(const Sequence& T, const Fst& fst,
                      const Dictionary& dict, const DCandOptions& options,
                      const EmitFn& emit) {
  GridOptions grid_options;
  grid_options.prune_sigma = options.sigma;
  StateGrid grid = StateGrid::Build(T, fst, dict, grid_options);
  if (!grid.HasAcceptingRun()) return;
  Sequence pivots = FindPivotItems(grid);
  if (pivots.empty()) return;

  // One NFA per pivot partition; every accepting run is inserted into the
  // NFAs of exactly the pivots it can produce (Theorem 1 on its output
  // sets), with items above the pivot dropped.
  MapScratch& scratch = ThreadMapScratch();
  if (scratch.nfas.size() < pivots.size()) scratch.nfas.resize(pivots.size());
  for (size_t i = 0; i < pivots.size(); ++i) scratch.nfas[i].Clear();
  const uint64_t max_runs = options.max_runs_per_sequence == 0
                                ? std::numeric_limits<uint64_t>::max()
                                : options.max_runs_per_sequence;
  uint64_t trie_states = pivots.size();  // every trie starts with its root
  bool within_budget = ForEachAcceptingRun(
      grid, max_runs, [&](const std::vector<const StateGrid::Edge*>& run) {
        PivotSet run_pivots = PivotsOfRun(run);
        for (ItemId k : run_pivots.items) {
          auto it = std::lower_bound(pivots.begin(), pivots.end(), k);
          OutputNfa& nfa = scratch.nfas[it - pivots.begin()];
          trie_states -= nfa.num_states();
          nfa.AddRun(run, k);
          trie_states += nfa.num_states();
        }
        if (options.max_trie_states_per_sequence > 0 &&
            trie_states > options.max_trie_states_per_sequence) {
          throw MiningBudgetError(
              "D-CAND trie construction exceeded its per-sequence state "
              "budget");
        }
      });
  if (!within_budget) {
    throw MiningBudgetError(
        "D-CAND run enumeration exceeded its per-sequence budget");
  }

  for (size_t i = 0; i < pivots.size(); ++i) {
    OutputNfa& nfa = scratch.nfas[i];
    if (nfa.empty()) continue;
    if (options.minimize_nfas) {
      nfa.Minimize();
    } else {
      nfa.Canonicalize();
    }
    scratch.value.clear();
    PutVarint(&scratch.value, 1);
    SerializeNfaTo(nfa, &scratch.value);
    emit(EncodePivotKey(pivots[i]), scratch.value);
  }
}

MiningResult MineDCandPartition(const std::vector<std::string_view>& values,
                                ItemId pivot, uint64_t sigma) {
  thread_local NfaPartition arena;
  arena.Clear();
  for (std::string_view v : values) arena.AppendRecord(v);
  return MineNfas(arena, sigma, pivot);
}

DistributedResult MineDCand(const std::vector<Sequence>& db, const Fst& fst,
                            const Dictionary& dict,
                            const DCandOptions& options) {
  MapFn map_fn = [&](size_t index, const EmitFn& emit) {
    MapDCandSequence(db[index], fst, dict, options, emit);
  };

  CombinerFactory combiner_factory;
  if (options.aggregate_nfas) {
    combiner_factory = MakeWeightedValueCombiner;
  }

  PartitionReduceFn reduce_fn = [&](std::string_view key,
                                    std::vector<std::string_view>& values,
                                    MiningResult& out) {
    MiningResult local =
        MineDCandPartition(values, DecodePivotKey(key), options.sigma);
    out.insert(out.end(), std::make_move_iterator(local.begin()),
               std::make_move_iterator(local.end()));
  };

  return RunDistributedMining(db.size(), map_fn, combiner_factory, reduce_fn,
                              options);
}

}  // namespace dseq
