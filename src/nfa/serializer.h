// NFA (de)serialization in DFS order (paper Sec. VI-A, "Serialization").
//
// Transitions are written in DFS visit order. For each transition we write a
// header byte and then, depending on the header:
//   * the source state   — only if it is not the target of the previous
//                          transition (the paper's rule 1),
//   * the label          — varint item count + delta-coded item ids,
//   * the target state   — only if the target was visited before (rule 2);
//                          otherwise the transition implicitly creates the
//                          next fresh state,
//   * a "final" marker   — if the target is final and newly created (rule 3;
//                          re-visited targets carry their known finality).
//
// States are numbered in DFS visit order (root = 0). Weighted NFAs prepend a
// varint weight.
//
// Decoding has one parse loop, NfaPartition's: the reduce decodes a whole
// partition's weighted NFAs into one NfaPartition arena, and DeserializeNfa
// decodes through the same loop into a per-thread arena before copying the
// one NFA out.
#ifndef DSEQ_NFA_SERIALIZER_H_
#define DSEQ_NFA_SERIALIZER_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/grid.h"
#include "src/nfa/output_nfa.h"

namespace dseq {

/// Thrown on malformed serialized NFAs.
class NfaParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Serializes the NFA (call Minimize() or Canonicalize() first so that state
/// numbering is DFS preorder). The DFS walks a per-thread scratch, so
/// serializing allocates only when `*out` grows.
std::string SerializeNfa(const OutputNfa& nfa);

/// Appends the serialization to `*out` (avoids a copy in hot paths).
void SerializeNfaTo(const OutputNfa& nfa, std::string* out);

/// Parses a serialized NFA starting at `*pos`; advances `*pos` to the end of
/// the consumed bytes. Throws NfaParseError on malformed input, including an
/// NFA with a cycle (no serialized acyclic NFA has one). Takes a view so
/// shuffle records can be decoded in place.
OutputNfa DeserializeNfa(std::string_view bytes, size_t* pos);

/// Convenience whole-string parse.
OutputNfa DeserializeNfa(std::string_view bytes);

/// A candidate partition's weighted NFAs decoded into one arena: the
/// reduce-side, read-only view that MineNfas walks.
///
/// Layout: states of all NFAs are numbered consecutively; NFA i's states
/// are [Root(i), Root(i + 1)). A state's out-edges are one contiguous range
/// of `edges_` (a CSR over the whole partition), in serialization order.
/// Each edge holds its global target and its label as a range of one item
/// pool. Spans returned by EdgesOf and Label stay valid until the next
/// Append or Clear.
///
/// Reuse: Clear() keeps every array's capacity, so one arena per reducer
/// thread decodes partition after partition without allocating once it has
/// grown to the largest.
class NfaPartition {
 public:
  struct Edge {
    uint32_t items_begin;
    uint32_t items_size;
    StateId target;  // global state id
  };
  using EdgeSpan = ConstSpan<Edge>;

  NfaPartition() { Clear(); }

  /// Drops every NFA, keeping capacity.
  void Clear();

  /// Number of NFAs.
  size_t size() const { return weights_.size(); }
  uint64_t Weight(size_t i) const { return weights_[i]; }
  StateId Root(size_t i) const { return roots_[i]; }
  bool IsFinal(StateId q) const { return final_[q] != 0; }
  EdgeSpan EdgesOf(StateId q) const {
    return EdgeSpan(edges_.data() + state_begin_[q],
                    state_begin_[q + 1] - state_begin_[q]);
  }
  ItemSpan Label(const Edge& e) const {
    return ItemSpan(items_.data() + e.items_begin, e.items_size);
  }

  /// Decodes one shuffled D-CAND record: a varint weight (>= 1) followed by
  /// a serialized NFA that fills the rest of `value`. Throws NfaParseError
  /// on malformed input and then holds exactly the NFAs it held before.
  void AppendRecord(std::string_view value);

  /// Decodes the serialized NFA at `*pos` with weight `weight` and advances
  /// `*pos` past it. Throws NfaParseError on malformed input and then holds
  /// exactly the NFAs it held before.
  void Append(std::string_view bytes, size_t* pos, uint64_t weight);

  /// Appends an already built NFA with weight `weight`.
  void Append(const OutputNfa& nfa, uint64_t weight);

  /// Copies NFA i out (DeserializeNfa's last step).
  OutputNfa Extract(size_t i) const;

 private:
  // The one parse loop. With `whole`, the NFA must end at bytes.size().
  void Decode(std::string_view bytes, size_t* pos, uint64_t weight,
              bool whole);
  // Drops every state, edge and item from `base`, `edges` and `items` on.
  void Truncate(StateId base, size_t edges, size_t items);
  // Whether the NFA whose states start at `base` (the last one) is acyclic.
  bool Acyclic(StateId base);

  std::vector<uint64_t> weights_;
  std::vector<StateId> roots_;
  std::vector<uint8_t> final_;
  std::vector<uint32_t> state_begin_;  // num_states + 1 offsets into edges_
  std::vector<Edge> edges_;
  std::vector<ItemId> items_;

  // Decode's per-NFA temporaries: the edges as (local source, edge) in
  // serialization order, and per-state counters for the CSR scatter and
  // the cycle check.
  std::vector<std::pair<StateId, Edge>> pending_;
  std::vector<uint32_t> counts_;
  std::vector<StateId> ready_;
};

}  // namespace dseq

#endif  // DSEQ_NFA_SERIALIZER_H_
