#include "src/core/desq_dfs.h"

#include <algorithm>
#include <map>

namespace dseq {
namespace {

struct Posting {
  uint32_t seq;
  uint32_t pos;
  StateId state;

  bool operator<(const Posting& o) const {
    if (seq != o.seq) return seq < o.seq;
    if (pos != o.pos) return pos < o.pos;
    return state < o.state;
  }
  bool operator==(const Posting& o) const {
    return seq == o.seq && pos == o.pos && state == o.state;
  }
};

class Miner {
 public:
  Miner(const std::vector<StateGrid>& grids,
        const std::vector<uint64_t>* weights, const DesqDfsOptions& options,
        MiningResult* out)
      : grids_(grids), weights_(weights), options_(options), out_(out) {
    eps_accept_.resize(grids.size());
    last_pivot_layer_.assign(grids.size(), -1);
    size_t max_cells = 0;
    for (size_t s = 0; s < grids.size(); ++s) {
      const StateGrid& grid = grids[s];
      if (!grid.HasAcceptingRun()) continue;
      max_cells =
          std::max(max_cells, (grid.length() + 1) * grid.num_states());
      eps_accept_[s] = grid.ComputeEpsAcceptTable();
      if (options.pivot != kNoItem && options.early_stop) {
        for (size_t i = 0; i < grid.length(); ++i) {
          for (const auto& e : grid.EdgesAt(i)) {
            if (std::binary_search(e.out.begin(), e.out.end(),
                                   options.pivot)) {
              last_pivot_layer_[s] =
                  std::max(last_pivot_layer_[s], static_cast<int64_t>(i));
            }
          }
        }
      }
    }
    visited_.assign(max_cells, 0);
  }

  void Run() {
    std::vector<Posting> roots;
    for (size_t s = 0; s < grids_.size(); ++s) {
      if (!grids_[s].HasAcceptingRun()) continue;
      roots.push_back(Posting{static_cast<uint32_t>(s), 0,
                              grids_[s].initial_state()});
    }
    Expand(roots, /*has_pivot=*/false);
  }

 private:
  uint64_t Weight(uint32_t seq) const {
    return weights_ == nullptr ? 1 : (*weights_)[seq];
  }

  // Total weight of distinct sequences with postings: an upper bound on the
  // support of the prefix and all of its extensions.
  uint64_t PotentialSupport(const std::vector<Posting>& postings) const {
    uint64_t total = 0;
    uint32_t prev = UINT32_MAX;
    for (const Posting& p : postings) {
      if (p.seq != prev) {
        total += Weight(p.seq);
        prev = p.seq;
      }
    }
    return total;
  }

  uint64_t Support(const std::vector<Posting>& postings) const {
    uint64_t support = 0;
    uint32_t prev = UINT32_MAX;
    bool counted = false;
    for (const Posting& p : postings) {
      if (p.seq != prev) {
        prev = p.seq;
        counted = false;
      }
      if (counted) continue;
      const StateGrid& grid = grids_[p.seq];
      if (eps_accept_[p.seq][p.pos * grid.num_states() + p.state]) {
        support += Weight(p.seq);
        counted = true;
      }
    }
    return support;
  }

  // Expands the current prefix (postings sorted & deduplicated).
  void Expand(const std::vector<Posting>& postings, bool has_pivot) {
    if (PotentialSupport(postings) < options_.sigma) return;

    if (!prefix_.empty() &&
        (options_.pivot == kNoItem || has_pivot)) {
      uint64_t support = Support(postings);
      if (support >= options_.sigma) {
        out_->push_back(PatternCount{prefix_, support});
      }
    }

    // Build children projected databases. std::map keeps item order
    // deterministic.
    std::map<ItemId, std::vector<Posting>> children;
    std::vector<std::pair<uint32_t, StateId>> stack;
    for (const Posting& p : postings) {
      const StateGrid& grid = grids_[p.seq];
      size_t ns = grid.num_states();
      // ε-output closure from (p.pos, p.state) within this grid (a DAG, so
      // marking visited cells gives linear traversal). Cells count as
      // visited when stamped with this posting's generation.
      uint32_t stamp = NextGeneration();
      stack.clear();
      stack.emplace_back(p.pos, p.state);
      visited_[p.pos * ns + p.state] = stamp;
      while (!stack.empty()) {
        auto [pos, state] = stack.back();
        stack.pop_back();
        if (pos >= grid.length()) continue;
        for (const StateGrid::Edge& e : grid.EdgesFrom(pos, state)) {
          if (e.out.empty()) {
            uint32_t& mark = visited_[(pos + 1) * ns + e.to];
            if (mark != stamp) {
              mark = stamp;
              stack.emplace_back(pos + 1, e.to);
            }
            continue;
          }
          for (ItemId w : e.out) {
            if (options_.pivot != kNoItem && w > options_.pivot) continue;
            bool child_has_pivot = has_pivot || w == options_.pivot;
            if (options_.pivot != kNoItem && options_.early_stop &&
                !child_has_pivot &&
                static_cast<int64_t>(pos) + 1 > last_pivot_layer_[p.seq]) {
              // This sequence can no longer contribute the pivot item to a
              // pivot-free prefix (Sec. V-C early stopping).
              continue;
            }
            children[w].push_back(
                Posting{p.seq, static_cast<uint32_t>(pos + 1), e.to});
          }
        }
      }
    }

    for (auto& [w, child_postings] : children) {
      std::sort(child_postings.begin(), child_postings.end());
      child_postings.erase(
          std::unique(child_postings.begin(), child_postings.end()),
          child_postings.end());
      if (PotentialSupport(child_postings) < options_.sigma) continue;
      prefix_.push_back(w);
      Expand(child_postings, has_pivot || w == options_.pivot);
      prefix_.pop_back();
    }
  }

  // Starts a new visited set: every cell stamped before now counts as
  // unvisited. On wrap-around the stamps are cleared once.
  uint32_t NextGeneration() {
    if (++generation_ == 0) {
      std::fill(visited_.begin(), visited_.end(), 0);
      generation_ = 1;
    }
    return generation_;
  }

  const std::vector<StateGrid>& grids_;
  const std::vector<uint64_t>* weights_;
  const DesqDfsOptions& options_;
  MiningResult* out_;
  std::vector<std::vector<uint8_t>> eps_accept_;
  std::vector<int64_t> last_pivot_layer_;
  // Visited stamps of the current ε-closure, indexed pos * num_states +
  // state; sized for the largest grid.
  std::vector<uint32_t> visited_;
  uint32_t generation_ = 0;
  Sequence prefix_;
};

}  // namespace

MiningResult MineDesqDfsGrids(const std::vector<StateGrid>& grids,
                              const DesqDfsOptions& options) {
  MiningResult result;
  Miner miner(grids, nullptr, options, &result);
  miner.Run();
  Canonicalize(&result);
  return result;
}

MiningResult MineDesqDfsGrids(const std::vector<StateGrid>& grids,
                              const std::vector<uint64_t>& weights,
                              const DesqDfsOptions& options) {
  MiningResult result;
  Miner miner(grids, &weights, options, &result);
  miner.Run();
  Canonicalize(&result);
  return result;
}

MiningResult MineDesqDfs(const std::vector<Sequence>& db, const Fst& fst,
                         const Dictionary& dict,
                         const DesqDfsOptions& options) {
  GridOptions grid_options;
  grid_options.prune_sigma = options.sigma;
  std::vector<StateGrid> grids;
  grids.reserve(db.size());
  uint64_t total_edges = 0;
  for (const Sequence& T : db) {
    grids.push_back(StateGrid::Build(T, fst, dict, grid_options));
    total_edges += grids.back().num_edges();
    if (options.max_total_grid_edges > 0 &&
        total_edges > options.max_total_grid_edges) {
      throw MiningBudgetError("DESQ-DFS grid memory budget exceeded");
    }
  }
  return MineDesqDfsGrids(grids, options);
}

}  // namespace dseq
