// Pattern growth over a projected database: the one local miner behind
// DESQ-DFS and D-SEQ's partitions (grid cells), D-CAND's partitions (NFA
// states) and the LASH/MG-FSM baseline (gap windows).
//
// The search extends the empty prefix one item at a time. A node's postings
// mark where its prefix can end; the total weight of their inputs bounds the
// support of the prefix and all its extensions, so nodes below σ are cut. A
// prefix's support counts each input with an accepting posting once. Items
// above the pivot never extend a prefix, and only prefixes holding the pivot
// are reported (every prefix when the pivot is kNoItem; paper Sec. V-C).
//
// The `Db` adapter supplies:
//   Posting                   ordered (operator<) by its `input` field first
//   Roots()                   the root postings, sorted and unique
//   Weight(input)             an input's multiplicity
//   Accepts(posting, length)  whether the posting ends an accepted prefix
//   Extend(posting, has_pivot, length, emit)
//                             calls emit(w, child) for every item w that
//                             extends the prefix from the posting
#ifndef DSEQ_CORE_PATTERN_GROWTH_H_
#define DSEQ_CORE_PATTERN_GROWTH_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "src/core/mining.h"
#include "src/util/common.h"

namespace dseq {

template <typename Db>
class PatternGrowth {
 public:
  using Posting = typename Db::Posting;

  PatternGrowth(Db& db, uint64_t sigma, ItemId pivot, MiningResult* out)
      : db_(db), sigma_(sigma), pivot_(pivot), out_(out),
        max_item_(pivot == kNoItem ? std::numeric_limits<ItemId>::max()
                                   : pivot) {}

  void Run() { Expand(db_.Roots(), /*has_pivot=*/pivot_ == kNoItem); }

 private:
  uint64_t PotentialSupport(const std::vector<Posting>& postings) const {
    uint64_t total = 0;
    uint32_t prev = UINT32_MAX;
    for (const Posting& p : postings) {
      if (p.input != prev) {
        total += db_.Weight(p.input);
        prev = p.input;
      }
    }
    return total;
  }

  uint64_t Support(const std::vector<Posting>& postings) const {
    uint64_t support = 0;
    uint32_t counted = UINT32_MAX;
    for (const Posting& p : postings) {
      if (p.input != counted && db_.Accepts(p, prefix_.size())) {
        support += db_.Weight(p.input);
        counted = p.input;
      }
    }
    return support;
  }

  // `postings` are sorted and unique.
  void Expand(const std::vector<Posting>& postings, bool has_pivot) {
    if (PotentialSupport(postings) < sigma_) return;
    if (has_pivot && !prefix_.empty()) {
      uint64_t support = Support(postings);
      if (support >= sigma_) out_->push_back(PatternCount{prefix_, support});
    }

    // std::map keeps the item order, and so the output order, deterministic.
    std::map<ItemId, std::vector<Posting>> children;
    auto emit = [&](ItemId w, const Posting& child) {
      if (w <= max_item_) children[w].push_back(child);
    };
    for (const Posting& p : postings) {
      db_.Extend(p, has_pivot, prefix_.size(), emit);
    }
    for (auto& [w, child] : children) {
      std::sort(child.begin(), child.end());
      // Sorted, so a posting repeats its predecessor unless it is larger.
      child.erase(std::unique(child.begin(), child.end(),
                              [](const Posting& a, const Posting& b) {
                                return !(a < b);
                              }),
                  child.end());
      prefix_.push_back(w);
      Expand(child, has_pivot || w == pivot_);
      prefix_.pop_back();
    }
  }

  Db& db_;
  uint64_t sigma_;
  ItemId pivot_;
  MiningResult* out_;
  ItemId max_item_;
  Sequence prefix_;
};

}  // namespace dseq

#endif  // DSEQ_CORE_PATTERN_GROWTH_H_
