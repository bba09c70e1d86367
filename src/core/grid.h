// Position–state grid for FST simulation (paper Sec. V-A, Fig. 5b).
//
// For an input sequence T and an FST, the grid is a layered DAG over
// coordinates (i, q): "after consuming the first i items of T, the FST is in
// state q". Edges between layers i and i+1 carry the materialized output set
// of the matched transition (sorted items; empty = ε). The grid is pruned to
// coordinates that lie on at least one *accepting* run — the paper's
// dynamic-programming dead-end elimination.
//
// The grid is the single structure behind pivot search (Theorem 1),
// candidate enumeration, DESQ-DFS postings, sequence rewriting, and D-CAND
// run enumeration.
//
// Layout: a grid is three flat arrays, so building one costs a fixed number
// of allocations regardless of its size.
//  * `edges_` holds every layer's edges, layer-major; within a layer they are
//    sorted by (from, to, out) and duplicate-free.
//  * `from_begin_` holds length()·num_states() + 1 offsets into `edges_`:
//    the edges of coordinate (i, q) are [from_begin_[i·ns + q],
//    from_begin_[i·ns + q + 1]), so a layer and a coordinate's out-edges are
//    each one contiguous range (EdgesAt, EdgesFrom).
//  * `items_` is one pool behind every edge's output set; `Edge::out` is a
//    read-only ItemSpan into it.
//
// Lifetime: an ItemSpan or Edge reference is valid while the grid it came
// from lives (moving the grid keeps it valid, since the pool's buffer moves
// along). Copying a grid copies the pool and rebases the copy's spans onto
// it, so a copy never points into its source.
#ifndef DSEQ_CORE_GRID_H_
#define DSEQ_CORE_GRID_H_

#include <cstdint>
#include <vector>

#include "src/dict/dictionary.h"
#include "src/fst/fst.h"
#include "src/util/common.h"

namespace dseq {

/// Read-only view of a contiguous array of T owned by someone else.
template <typename T>
class ConstSpan {
 public:
  using value_type = T;
  using const_iterator = const T*;
  using iterator = const T*;

  ConstSpan() = default;
  ConstSpan(const T* data, size_t size)
      : data_(data), size_(static_cast<uint32_t>(size)) {}

  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](size_t i) const { return data_[i]; }

  /// Copies the viewed elements (so an output set reads as a Sequence).
  operator std::vector<T>() const {  // NOLINT: implicit by design
    return std::vector<T>(begin(), end());
  }

 private:
  const T* data_ = nullptr;
  uint32_t size_ = 0;
};

/// A sorted output set inside a grid's item pool.
using ItemSpan = ConstSpan<ItemId>;

/// Options for grid construction.
struct GridOptions {
  /// If > 0, items with document frequency < sigma are removed from output
  /// sets (they cannot appear in a frequent subsequence; paper Sec. III-A).
  /// A non-ε edge whose output set becomes empty is dropped entirely: no
  /// candidate made of frequent items can traverse it.
  uint64_t prune_sigma = 0;

  /// If not kNoItem, items larger than this are removed from output sets,
  /// and a non-ε edge left empty is dropped, as for prune_sigma. D-SEQ's
  /// reduce caps each partition P_k's grids at its pivot k: a pivot-k
  /// pattern holds no item larger than k, so every run that produces one
  /// survives the cap unchanged, while edges that can only produce larger
  /// items, and the coordinates only they keep alive, are gone before
  /// DESQ-DFS walks the grid.
  ItemId max_output_item = kNoItem;
};

/// Layered DAG of live FST simulation coordinates for one input sequence.
class StateGrid {
 public:
  struct Edge {
    StateId from;  // FST state at layer i
    StateId to;    // FST state at layer i+1
    ItemSpan out;  // sorted output items; empty = ε
  };
  using EdgeSpan = ConstSpan<Edge>;

  StateGrid() = default;
  StateGrid(const StateGrid& other);
  StateGrid& operator=(const StateGrid& other);
  StateGrid(StateGrid&&) noexcept = default;
  StateGrid& operator=(StateGrid&&) noexcept = default;

  /// Builds the pruned grid for `T` under `fst`. The build's temporary
  /// arrays (raw edges, layer offsets, item pool, keep flags) live in a
  /// per-thread scratch that is reused across calls, so a thread's scratch
  /// holds at most the high-water mark of the largest grid it has built.
  /// Building on many threads at once is safe; each uses its own scratch.
  static StateGrid Build(const Sequence& T, const Fst& fst,
                         const Dictionary& dict, const GridOptions& options = {});

  /// Length of the input sequence (number of layers minus one).
  size_t length() const { return length_; }

  /// Number of FST states (width of each layer).
  size_t num_states() const { return num_states_; }

  /// True iff at least one accepting run exists (grid non-empty).
  bool HasAcceptingRun() const { return accepting_; }

  /// Edges out of layer `pos` (consuming input item T[pos]), 0 <= pos <
  /// length, sorted by (from, to, out).
  EdgeSpan EdgesAt(size_t pos) const {
    return Range(pos * num_states_, (pos + 1) * num_states_);
  }

  /// Edges out of coordinate (pos, q), 0 <= pos < length, sorted by (to, out).
  EdgeSpan EdgesFrom(size_t pos, StateId q) const {
    size_t cell = pos * num_states_ + q;
    return Range(cell, cell + 1);
  }

  /// True iff coordinate (pos, q) lies on an accepting run.
  bool Alive(size_t pos, StateId q) const {
    return alive_[pos * num_states_ + q];
  }

  /// True iff coordinate (pos, q) is forward-reachable from (0, initial),
  /// regardless of whether an accepting run passes through it. Used by the
  /// D-SEQ rewriter's trailing-trim safety check.
  bool ForwardActive(size_t pos, StateId q) const {
    return forward_active_[pos * num_states_ + q];
  }

  /// True iff q is a final FST state (acceptance test at pos == length()).
  bool IsFinalState(StateId q) const { return finals_[q]; }

  /// Initial FST state (the unique live state of layer 0, when accepting).
  StateId initial_state() const { return initial_; }

  /// Total number of live edges (grid size metric).
  size_t num_edges() const { return edges_.size(); }

  /// Computes, for every coordinate (i,q), whether (length(), f∈F) is
  /// reachable using only ε-output edges. Used by DESQ-DFS to decide whether
  /// a prefix is a *complete* output for this sequence. Indexed i*num_states+q.
  std::vector<uint8_t> ComputeEpsAcceptTable() const;

 private:
  // Edges of the coordinate cells [first_cell, last_cell).
  EdgeSpan Range(size_t first_cell, size_t last_cell) const {
    return EdgeSpan(edges_.data() + from_begin_[first_cell],
                    from_begin_[last_cell] - from_begin_[first_cell]);
  }

  size_t length_ = 0;
  size_t num_states_ = 0;
  StateId initial_ = 0;
  bool accepting_ = false;
  std::vector<uint8_t> alive_;           // (length+1) x num_states
  std::vector<uint8_t> forward_active_;  // (length+1) x num_states
  std::vector<uint8_t> finals_;          // num_states
  std::vector<Edge> edges_;              // all layers, layer-major
  std::vector<uint32_t> from_begin_{0};  // length x num_states + 1
  std::vector<ItemId> items_;            // pool behind every Edge::out
};

}  // namespace dseq

#endif  // DSEQ_CORE_GRID_H_
