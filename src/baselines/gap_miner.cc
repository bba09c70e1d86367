#include "src/baselines/gap_miner.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "src/core/pattern_growth.h"

namespace dseq {
namespace {

// Frequent "pick items" of an input item: the item and (with hierarchies)
// its ancestors, restricted to frequent items. Sorted ascending.
Sequence FrequentAncestors(ItemId t, const Dictionary& dict, uint64_t sigma,
                           bool use_hierarchy) {
  Sequence result;
  if (use_hierarchy) {
    for (ItemId a : dict.Ancestors(t)) {
      if (dict.DocFrequency(a) >= sigma) result.push_back(a);
    }
  } else if (dict.DocFrequency(t) >= sigma) {
    result.push_back(t);
  }
  return result;
}

// One partition's projected database (pivot k): a posting is the last
// picked position of a sequence, and the next pick lies within the gap
// window after it. Every prefix of min_length..lambda items is accepted.
class GapDb {
 public:
  struct Posting {
    uint32_t input;
    uint32_t last_pos;  // UINT32_MAX at the root (no position picked yet)

    bool operator<(const Posting& o) const {
      return std::tie(input, last_pos) < std::tie(o.input, o.last_pos);
    }
  };

  GapDb(const std::vector<Sequence>& sequences, const Dictionary& dict,
        const GapMinerOptions& options, ItemId pivot)
      : options_(options), pivot_(pivot) {
    fanc_.resize(sequences.size());
    last_pivot_pos_.assign(sequences.size(), -1);
    for (size_t s = 0; s < sequences.size(); ++s) {
      const Sequence& T = sequences[s];
      fanc_[s].resize(T.size());
      for (size_t p = 0; p < T.size(); ++p) {
        Sequence items = FrequentAncestors(T[p], dict, options.sigma,
                                           options.use_hierarchy);
        // Items above the pivot can only produce larger pivots.
        items.erase(std::upper_bound(items.begin(), items.end(), pivot),
                    items.end());
        if (std::binary_search(items.begin(), items.end(), pivot)) {
          last_pivot_pos_[s] = static_cast<int64_t>(p);
        }
        fanc_[s][p] = std::move(items);
      }
    }
  }

  std::vector<Posting> Roots() const {
    std::vector<Posting> roots;
    for (uint32_t s = 0; s < fanc_.size(); ++s) {
      if (last_pivot_pos_[s] >= 0) roots.push_back(Posting{s, UINT32_MAX});
    }
    return roots;
  }

  uint64_t Weight(uint32_t /*input*/) const { return 1; }

  bool Accepts(const Posting& /*p*/, size_t length) const {
    return length >= options_.min_length;
  }

  template <typename Emit>
  void Extend(const Posting& p, bool has_pivot, size_t length,
              const Emit& emit) const {
    if (length >= options_.lambda) return;
    const auto& fanc = fanc_[p.input];
    bool root = p.last_pos == UINT32_MAX;  // the first pick may be anywhere
    size_t begin = root ? 0 : p.last_pos + 1;
    size_t end = root ? fanc.size()
                      : std::min<size_t>(fanc.size(),
                                         p.last_pos + 1 + options_.gamma + 1);
    for (size_t j = begin; j < end; ++j) {
      // Early stopping: after a pick at j the pivot can no longer follow.
      bool past_pivot = static_cast<int64_t>(j) >= last_pivot_pos_[p.input];
      for (ItemId w : fanc[j]) {
        if (past_pivot && !has_pivot && w != pivot_) continue;
        emit(w, Posting{p.input, static_cast<uint32_t>(j)});
      }
    }
  }

 private:
  const GapMinerOptions& options_;
  ItemId pivot_;
  std::vector<std::vector<Sequence>> fanc_;
  std::vector<int64_t> last_pivot_pos_;
};

}  // namespace

DistributedResult MineGapConstrained(const std::vector<Sequence>& db,
                                     const Dictionary& dict,
                                     const GapMinerOptions& options) {
  uint32_t reach = (options.gamma + 1) * (options.lambda - 1);

  MapFn map_fn = [&](size_t index, const EmitFn& emit) {
    const Sequence& T = db[index];
    size_t n = T.size();
    if (n == 0) return;
    std::vector<Sequence> fanc(n);
    for (size_t p = 0; p < n; ++p) {
      fanc[p] = FrequentAncestors(T[p], dict, options.sigma,
                                  options.use_hierarchy);
    }
    // Pivot items: k is a pivot iff some position can pick k and another
    // position within gap reach can pick an item <= k (exact for
    // min_length == 2; a superset otherwise, which only costs shuffle).
    std::map<ItemId, std::pair<size_t, size_t>> pivot_spans;  // k -> [lo, hi]
    for (size_t p = 0; p < n; ++p) {
      for (ItemId k : fanc[p]) {
        // Length-1 candidates have no partner requirement.
        bool partner = options.min_length <= 1;
        size_t lo = p > options.gamma ? p - options.gamma - 1 : 0;
        size_t hi = std::min(n - 1, p + options.gamma + 1);
        for (size_t q = lo; q <= hi && !partner; ++q) {
          if (q == p || fanc[q].empty()) continue;
          if (fanc[q].front() <= k) partner = true;
        }
        if (!partner) continue;
        auto [it, inserted] = pivot_spans.emplace(k, std::make_pair(p, p));
        if (!inserted) {
          it->second.first = std::min(it->second.first, p);
          it->second.second = std::max(it->second.second, p);
        }
      }
    }
    // Rewritten sequence for pivot k: the window around k-producing
    // positions that any candidate containing k can reach.
    for (const auto& [k, span] : pivot_spans) {
      size_t lo = span.first > reach ? span.first - reach : 0;
      size_t hi = std::min(n - 1, span.second + reach);
      std::string value;
      PutSequence(&value, Sequence(T.begin() + lo, T.begin() + hi + 1));
      emit(EncodePivotKey(k), std::move(value));
    }
  };

  PartitionReduceFn reduce_fn = [&](std::string_view key,
                                    std::vector<std::string_view>& values,
                                    MiningResult& out) {
    ItemId pivot = DecodePivotKey(key);
    std::vector<Sequence> sequences;
    sequences.reserve(values.size());
    Sequence seq;
    for (std::string_view v : values) {
      size_t pos = 0;
      GetSequence(v, &pos, &seq);
      sequences.push_back(seq);
    }
    MiningResult local;
    GapDb db(sequences, dict, options, pivot);
    PatternGrowth<GapDb>(db, options.sigma, pivot, &local).Run();
    out.insert(out.end(), std::make_move_iterator(local.begin()),
               std::make_move_iterator(local.end()));
  };

  return RunDistributedMining(db.size(), map_fn, nullptr, reduce_fn, options);
}

}  // namespace dseq
