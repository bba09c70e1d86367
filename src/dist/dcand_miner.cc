#include "src/dist/dcand_miner.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <tuple>

#include "src/core/candidates.h"
#include "src/core/grid.h"
#include "src/core/pattern_growth.h"
#include "src/core/pivot.h"
#include "src/nfa/serializer.h"

namespace dseq {
namespace {

// The candidate partition's projected database: a posting is a state of
// one weighted NFA, accepted where the state is final. The NFAs are
// acyclic, so growth terminates without position tracking.
class NfaDb {
 public:
  struct Posting {
    uint32_t input;
    StateId state;

    bool operator<(const Posting& o) const {
      return std::tie(input, state) < std::tie(o.input, o.state);
    }
  };

  NfaDb(const std::vector<OutputNfa>& nfas,
        const std::vector<uint64_t>& weights)
      : nfas_(nfas), weights_(weights) {}

  std::vector<Posting> Roots() const {
    std::vector<Posting> roots;
    for (uint32_t n = 0; n < nfas_.size(); ++n) {
      if (!nfas_[n].empty()) roots.push_back(Posting{n, 0});
    }
    return roots;
  }

  uint64_t Weight(uint32_t input) const { return weights_[input]; }

  bool Accepts(const Posting& p, size_t /*length*/) const {
    return nfas_[p.input].IsFinal(p.state);
  }

  template <typename Emit>
  void Extend(const Posting& p, bool /*has_pivot*/, size_t /*length*/,
              const Emit& emit) const {
    const OutputNfa& nfa = nfas_[p.input];
    for (const OutputNfa::Edge& e : nfa.EdgesOf(p.state)) {
      for (ItemId w : nfa.Label(e.label)) emit(w, Posting{p.input, e.target});
    }
  }

 private:
  const std::vector<OutputNfa>& nfas_;
  const std::vector<uint64_t>& weights_;
};

}  // namespace

MiningResult MineNfas(const std::vector<OutputNfa>& nfas,
                      const std::vector<uint64_t>& weights, uint64_t sigma,
                      ItemId pivot) {
  MiningResult result;
  NfaDb db(nfas, weights);
  PatternGrowth<NfaDb>(db, sigma, pivot, &result).Run();
  Canonicalize(&result);
  return result;
}

DistributedResult MineDCand(const std::vector<Sequence>& db, const Fst& fst,
                            const Dictionary& dict,
                            const DCandOptions& options) {
  GridOptions grid_options;
  grid_options.prune_sigma = options.sigma;
  const uint64_t max_runs =
      options.max_runs_per_sequence == 0
          ? std::numeric_limits<uint64_t>::max()
          : options.max_runs_per_sequence;

  MapFn map_fn = [&](size_t index, const EmitFn& emit) {
    StateGrid grid = StateGrid::Build(db[index], fst, dict, grid_options);
    if (!grid.HasAcceptingRun()) return;
    Sequence pivots = FindPivotItems(grid);
    if (pivots.empty()) return;

    // One NFA per pivot partition; every accepting run is inserted into the
    // NFAs of exactly the pivots it can produce (Theorem 1 on its output
    // sets), with items above the pivot dropped.
    std::vector<OutputNfa> partition_nfas(pivots.size());
    uint64_t trie_states = pivots.size();  // every trie starts with its root
    bool within_budget = ForEachAcceptingRun(
        grid, max_runs, [&](const std::vector<const StateGrid::Edge*>& run) {
          PivotSet run_pivots = PivotsOfRun(run);
          for (ItemId k : run_pivots.items) {
            auto it = std::lower_bound(pivots.begin(), pivots.end(), k);
            OutputNfa& nfa = partition_nfas[it - pivots.begin()];
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

    std::string value;
    for (size_t i = 0; i < pivots.size(); ++i) {
      OutputNfa& nfa = partition_nfas[i];
      if (nfa.empty()) continue;
      if (options.minimize_nfas) {
        nfa.Minimize();
      } else {
        nfa.Canonicalize();
      }
      value.clear();
      PutVarint(&value, 1);
      SerializeNfaTo(nfa, &value);
      emit(EncodePivotKey(pivots[i]), value);
    }
  };

  CombinerFactory combiner_factory;
  if (options.aggregate_nfas) {
    combiner_factory = MakeWeightedValueCombiner;
  }

  PartitionReduceFn reduce_fn = [&](std::string_view key,
                                    std::vector<std::string_view>& values,
                                    MiningResult& out) {
    ItemId pivot = DecodePivotKey(key);
    std::vector<OutputNfa> nfas;
    nfas.reserve(values.size());
    std::vector<uint64_t> weights;
    weights.reserve(values.size());
    for (std::string_view v : values) {
      size_t pos = 0;
      uint64_t weight = 0;
      if (!GetVarint(v, &pos, &weight) || weight == 0) {
        throw NfaParseError("malformed weighted NFA record");
      }
      nfas.push_back(DeserializeNfa(v, &pos));
      if (pos != v.size()) {
        throw NfaParseError("trailing bytes after NFA record");
      }
      weights.push_back(weight);
    }
    MiningResult local = MineNfas(nfas, weights, options.sigma, pivot);
    out.insert(out.end(), std::make_move_iterator(local.begin()),
               std::make_move_iterator(local.end()));
  };

  return RunDistributedMining(db.size(), map_fn, combiner_factory, reduce_fn,
                              options);
}

}  // namespace dseq
