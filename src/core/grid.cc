#include "src/core/grid.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "src/util/check.h"

namespace dseq {
namespace {

// An edge while the grid is being built: its output set is
// pool[offset, offset + length) of the build's scratch item pool.
struct RawEdge {
  StateId from;
  StateId to;
  uint32_t offset;
  uint32_t length;
};

// Build's temporaries. One per thread, reused across builds: clearing keeps
// the capacity, so once a thread's scratch has grown to its largest grid a
// build allocates only the grid's own arrays.
struct BuildScratch {
  std::vector<RawEdge> raw;
  std::vector<size_t> layer_begin;  // layer i is raw[layer_begin[i], [i+1])
  std::vector<ItemId> pool;         // output sets of `raw`
  std::vector<uint8_t> keep;        // raw edge survives the backward prune
  Sequence out;                     // one transition's output set
};

BuildScratch& ThreadScratch() {
  thread_local BuildScratch scratch;
  return scratch;
}

// Applies GridOptions' output filters to one output set: the cap
// max_output_item, then σ-pruning. Output sets are sorted, so the cap cuts
// a suffix.
void FilterOutput(const GridOptions& options, const Dictionary& dict,
                  Sequence* out) {
  if (options.max_output_item != kNoItem) {
    DSEQ_DCHECK(std::is_sorted(out->begin(), out->end()));
    out->erase(
        std::upper_bound(out->begin(), out->end(), options.max_output_item),
        out->end());
  }
  if (options.prune_sigma > 0) {
    out->erase(std::remove_if(out->begin(), out->end(),
                              [&](ItemId w) {
                                return dict.DocFrequency(w) <
                                       options.prune_sigma;
                              }),
               out->end());
  }
}

}  // namespace

StateGrid::StateGrid(const StateGrid& other)
    : length_(other.length_),
      num_states_(other.num_states_),
      initial_(other.initial_),
      accepting_(other.accepting_),
      alive_(other.alive_),
      forward_active_(other.forward_active_),
      finals_(other.finals_),
      edges_(other.edges_),
      from_begin_(other.from_begin_),
      items_(other.items_) {
  // The copied spans still point into other.items_; move them onto ours.
  for (Edge& e : edges_) {
    if (e.out.empty()) continue;
    e.out = ItemSpan(items_.data() + (e.out.data() - other.items_.data()),
                     e.out.size());
  }
}

StateGrid& StateGrid::operator=(const StateGrid& other) {
  if (this != &other) *this = StateGrid(other);
  return *this;
}

StateGrid StateGrid::Build(const Sequence& T, const Fst& fst,
                           const Dictionary& dict,
                           const GridOptions& options) {
  StateGrid grid;
  size_t n = T.size();
  size_t ns = fst.num_states();
  grid.length_ = n;
  grid.num_states_ = ns;
  grid.initial_ = fst.initial();
  grid.finals_.resize(ns);
  for (StateId q = 0; q < ns; ++q) grid.finals_[q] = fst.IsFinal(q);
  grid.alive_.assign((n + 1) * ns, 0);
  grid.from_begin_.assign(n * ns + 1, 0);
  if (ns == 0) return grid;

  // Forward simulation. Layer i's edges are raw[layer_begin[i],
  // layer_begin[i + 1]).
  grid.forward_active_.assign((n + 1) * ns, 0);
  std::vector<uint8_t>& active = grid.forward_active_;
  active[fst.initial()] = 1;
  BuildScratch& scratch = ThreadScratch();
  std::vector<RawEdge>& raw = scratch.raw;
  std::vector<size_t>& layer_begin = scratch.layer_begin;
  std::vector<ItemId>& pool = scratch.pool;
  Sequence& out = scratch.out;
  raw.clear();
  layer_begin.assign(n + 1, 0);
  pool.clear();
  auto out_less = [&pool](const RawEdge& a, const RawEdge& b) {
    return std::lexicographical_compare(
        pool.begin() + a.offset, pool.begin() + a.offset + a.length,
        pool.begin() + b.offset, pool.begin() + b.offset + b.length);
  };
  auto out_equal = [&pool](const RawEdge& a, const RawEdge& b) {
    return std::equal(
        pool.begin() + a.offset, pool.begin() + a.offset + a.length,
        pool.begin() + b.offset, pool.begin() + b.offset + b.length);
  };
  bool filters = options.prune_sigma > 0 || options.max_output_item != kNoItem;
  for (size_t i = 0; i < n; ++i) {
    ItemId t = T[i];
    layer_begin[i] = raw.size();
    for (StateId q = 0; q < ns; ++q) {
      if (!active[i * ns + q]) continue;
      for (const Transition& tr : fst.From(q)) {
        if (!fst.Matches(tr, t, dict)) continue;
        fst.ComputeOutput(tr, t, dict, &out);
        if (filters && !out.empty()) {
          FilterOutput(options, dict, &out);
          // Non-ε transition with no output item left: no candidate made
          // of kept items can use this edge.
          if (out.empty()) continue;
        }
        active[(i + 1) * ns + tr.to] = 1;
        raw.push_back(RawEdge{q, tr.to, static_cast<uint32_t>(pool.size()),
                              static_cast<uint32_t>(out.size())});
        pool.insert(pool.end(), out.begin(), out.end());
      }
    }
    DSEQ_CHECK_LE(pool.size(), std::numeric_limits<uint32_t>::max());
    // Deduplicate edges (distinct FST transitions can collapse to the same
    // (from, to, output-set) edge, which would inflate run enumeration).
    auto first = raw.begin() + layer_begin[i];
    std::sort(first, raw.end(), [&](const RawEdge& a, const RawEdge& b) {
      if (a.from != b.from) return a.from < b.from;
      if (a.to != b.to) return a.to < b.to;
      return out_less(a, b);
    });
    raw.erase(std::unique(first, raw.end(),
                          [&](const RawEdge& a, const RawEdge& b) {
                            return a.from == b.from && a.to == b.to &&
                                   out_equal(a, b);
                          }),
              raw.end());
  }
  layer_begin[n] = raw.size();

  // Backward pruning: keep only coordinates that reach an accepting
  // (n, q ∈ F) coordinate.
  for (StateId q = 0; q < ns; ++q) {
    if (active[n * ns + q] && grid.finals_[q]) {
      grid.alive_[n * ns + q] = 1;
      grid.accepting_ = true;
    }
  }
  if (!grid.accepting_) return grid;
  std::vector<uint8_t>& keep = scratch.keep;
  keep.assign(raw.size(), 0);
  size_t num_kept = 0;
  size_t num_items = 0;
  for (size_t i = n; i-- > 0;) {
    for (size_t k = layer_begin[i]; k < layer_begin[i + 1]; ++k) {
      const RawEdge& e = raw[k];
      if (!grid.alive_[(i + 1) * ns + e.to]) continue;
      keep[k] = 1;
      grid.alive_[i * ns + e.from] = 1;
      ++num_kept;
      num_items += e.length;
    }
  }
  // A grid is accepting only if layer 0 retained the initial state.
  if (!grid.alive_[fst.initial()]) {
    grid.accepting_ = false;
    std::fill(grid.alive_.begin(), grid.alive_.end(), 0);
    return grid;
  }
  DSEQ_CHECK_LE(num_kept, std::numeric_limits<uint32_t>::max());

  // Emit the kept edges and their output sets, compacted, in layer order.
  grid.edges_.reserve(num_kept);
  grid.items_.resize(num_items);
  ItemId* dst = grid.items_.data();
  for (size_t i = 0; i < n; ++i) {
    for (size_t k = layer_begin[i]; k < layer_begin[i + 1]; ++k) {
      if (!keep[k]) continue;
      const RawEdge& e = raw[k];
      ++grid.from_begin_[i * ns + e.from + 1];
      ItemSpan out_span;
      if (e.length > 0) {
        std::copy_n(pool.begin() + e.offset, e.length, dst);
        out_span = ItemSpan(dst, e.length);
        dst += e.length;
      }
      grid.edges_.push_back(Edge{e.from, e.to, out_span});
    }
  }
  std::partial_sum(grid.from_begin_.begin(), grid.from_begin_.end(),
                   grid.from_begin_.begin());
  return grid;
}

std::vector<uint8_t> StateGrid::ComputeEpsAcceptTable() const {
  size_t n = length_;
  size_t ns = num_states_;
  std::vector<uint8_t> eps_accept((n + 1) * ns, 0);
  for (StateId q = 0; q < ns; ++q) {
    if (alive_[n * ns + q] && finals_[q]) eps_accept[n * ns + q] = 1;
  }
  for (size_t i = n; i-- > 0;) {
    for (const Edge& e : EdgesAt(i)) {
      if (e.out.empty() && eps_accept[(i + 1) * ns + e.to]) {
        eps_accept[i * ns + e.from] = 1;
      }
    }
  }
  return eps_accept;
}

}  // namespace dseq
