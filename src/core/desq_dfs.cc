#include "src/core/desq_dfs.h"

#include <algorithm>
#include <limits>
#include <tuple>
#include <utility>

#include "src/core/pattern_growth.h"

namespace dseq {
namespace {

// DESQ-DFS over grids: a posting is a (position, state) cell of a grid, and
// a prefix is accepted where the ε-output closure of its cell reaches the
// end of the sequence in a final state.
class GridDb {
 public:
  struct Posting {
    uint32_t input;
    uint32_t pos;
    StateId state;

    bool operator<(const Posting& o) const {
      return std::tie(input, pos, state) < std::tie(o.input, o.pos, o.state);
    }
  };

  GridDb(const std::vector<StateGrid>& grids,
         const std::vector<uint64_t>* weights, const DesqDfsOptions& options)
      : grids_(grids), weights_(weights), pivot_(options.pivot) {
    eps_accept_.resize(grids.size());
    // Without early stopping no layer ever counts as past the pivot.
    bool early_stop = options.pivot != kNoItem && options.early_stop;
    last_pivot_layer_.assign(
        grids.size(), early_stop ? -1 : std::numeric_limits<int64_t>::max());
    size_t max_cells = 0;
    for (size_t s = 0; s < grids.size(); ++s) {
      const StateGrid& grid = grids[s];
      if (!grid.HasAcceptingRun()) continue;
      max_cells =
          std::max(max_cells, (grid.length() + 1) * grid.num_states());
      eps_accept_[s] = grid.ComputeEpsAcceptTable();
      if (!early_stop) continue;
      for (size_t i = 0; i < grid.length(); ++i) {
        for (const auto& e : grid.EdgesAt(i)) {
          if (std::binary_search(e.out.begin(), e.out.end(), pivot_)) {
            last_pivot_layer_[s] = static_cast<int64_t>(i);
          }
        }
      }
    }
    visited_.assign(max_cells, 0);
  }

  std::vector<Posting> Roots() const {
    std::vector<Posting> roots;
    for (uint32_t s = 0; s < grids_.size(); ++s) {
      if (grids_[s].HasAcceptingRun()) {
        roots.push_back(Posting{s, 0, grids_[s].initial_state()});
      }
    }
    return roots;
  }

  uint64_t Weight(uint32_t input) const {
    return weights_ == nullptr ? 1 : (*weights_)[input];
  }

  bool Accepts(const Posting& p, size_t /*length*/) const {
    return eps_accept_[p.input][p.pos * grids_[p.input].num_states() + p.state];
  }

  // Walks the ε-output closure of the posting's cell (a DAG, so visited
  // cells, stamped with this posting's generation, make it linear) and
  // emits every item an output edge leaving the closure produces.
  template <typename Emit>
  void Extend(const Posting& p, bool has_pivot, size_t /*length*/,
              const Emit& emit) {
    const StateGrid& grid = grids_[p.input];
    size_t ns = grid.num_states();
    uint32_t stamp = NextGeneration();
    stack_.clear();
    stack_.emplace_back(p.pos, p.state);
    visited_[p.pos * ns + p.state] = stamp;
    while (!stack_.empty()) {
      auto [pos, state] = stack_.back();
      stack_.pop_back();
      if (pos >= grid.length()) continue;
      for (const StateGrid::Edge& e : grid.EdgesFrom(pos, state)) {
        if (e.out.empty()) {
          uint32_t& mark = visited_[(pos + 1) * ns + e.to];
          if (mark != stamp) {
            mark = stamp;
            stack_.emplace_back(pos + 1, e.to);
          }
          continue;
        }
        // Early stopping (Sec. V-C): past its last pivot-producing layer, a
        // sequence can no longer add the pivot to a pivot-free prefix.
        bool past_pivot =
            static_cast<int64_t>(pos) + 1 > last_pivot_layer_[p.input];
        for (ItemId w : e.out) {
          if (past_pivot && !has_pivot && w != pivot_) continue;
          emit(w, Posting{p.input, pos + 1, e.to});
        }
      }
    }
  }

 private:
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
  ItemId pivot_;
  std::vector<std::vector<uint8_t>> eps_accept_;
  std::vector<int64_t> last_pivot_layer_;
  // Visited stamps of the current ε-closure, indexed pos * num_states +
  // state; sized for the largest grid.
  std::vector<uint32_t> visited_;
  uint32_t generation_ = 0;
  std::vector<std::pair<uint32_t, StateId>> stack_;
};

MiningResult Mine(const std::vector<StateGrid>& grids,
                  const std::vector<uint64_t>* weights,
                  const DesqDfsOptions& options) {
  MiningResult result;
  GridDb db(grids, weights, options);
  PatternGrowth<GridDb>(db, options.sigma, options.pivot, &result).Run();
  Canonicalize(&result);
  return result;
}

}  // namespace

MiningResult MineDesqDfsGrids(const std::vector<StateGrid>& grids,
                              const DesqDfsOptions& options) {
  return Mine(grids, nullptr, options);
}

MiningResult MineDesqDfsGrids(const std::vector<StateGrid>& grids,
                              const std::vector<uint64_t>& weights,
                              const DesqDfsOptions& options) {
  return Mine(grids, &weights, options);
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
