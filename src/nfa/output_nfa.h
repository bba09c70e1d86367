// Output NFAs for candidate representation (paper Sec. VI-A, Fig. 7/8).
//
// D-CAND sends to partition P_k an NFA that accepts exactly ρk(T): the
// candidate subsequences of T with pivot item k. The NFA's edges are labeled
// with *output sets* (one edge per non-ε output set of an accepting run;
// items larger than the pivot are dropped — they can only produce candidates
// with a larger pivot). Runs are inserted into a trie which is subsequently
// minimized; tries are acyclic, so minimization is linear (Revuz).
//
// Layout: an NFA is a handful of flat arrays, so building one allocates
// nothing once its arrays have grown to the NFA's size.
//  * Labels live in one item pool: label l is items_[label_begin_[l],
//    label_begin_[l + 1]). Labels are interned by content through an
//    open-addressing table of label ids keyed by a content hash, so an
//    insertion costs O(label length) however many labels exist.
//  * Per state: a final flag and its first and last out-edge. Per edge: its
//    label and target, and the next out-edge of the same state. Edges of a
//    state are a linked list in insertion order while a trie is built;
//    Minimize() and Canonicalize() lay each state's edges out contiguously
//    in canonical order.
//
// Reuse: Clear() returns to the empty NFA but keeps every array's capacity
// (and the intern table's, which it empties in O(1)), so one OutputNfa per
// pivot slot and thread serves a whole map phase. Minimize() and
// Canonicalize() work in a per-thread scratch that is reused across calls.
#ifndef DSEQ_NFA_OUTPUT_NFA_H_
#define DSEQ_NFA_OUTPUT_NFA_H_

#include <cstdint>
#include <vector>

#include "src/core/grid.h"
#include "src/util/common.h"

namespace dseq {

class NfaPartition;

/// A weighted acyclic NFA over output-set labels. State 0 is the root.
class OutputNfa {
 public:
  /// Label id into Label(); labels are interned output sets.
  using LabelId = uint32_t;

  struct Edge {
    LabelId label;
    StateId target;
  };

  /// The out-edges of one state, in insertion order until Minimize() or
  /// Canonicalize() sorts them by label content. Valid until the NFA is
  /// next modified.
  class EdgeRange {
   public:
    class iterator {
     public:
      const Edge& operator*() const { return nfa_->edges_[e_]; }
      const Edge* operator->() const { return &nfa_->edges_[e_]; }
      iterator& operator++() {
        e_ = nfa_->next_[e_];
        return *this;
      }
      bool operator==(const iterator& o) const { return e_ == o.e_; }
      bool operator!=(const iterator& o) const { return e_ != o.e_; }

     private:
      friend class EdgeRange;
      iterator(const OutputNfa* nfa, uint32_t e) : nfa_(nfa), e_(e) {}
      const OutputNfa* nfa_;
      uint32_t e_;
    };

    iterator begin() const { return iterator(nfa_, first_); }
    iterator end() const { return iterator(nfa_, kNoEdge); }
    bool empty() const { return first_ == kNoEdge; }

   private:
    friend class OutputNfa;
    EdgeRange(const OutputNfa* nfa, uint32_t first)
        : nfa_(nfa), first_(first) {}
    const OutputNfa* nfa_;
    uint32_t first_;
  };

  OutputNfa() { Clear(); }

  /// Back to the empty NFA (the root alone), keeping all capacity.
  void Clear();

  size_t num_states() const { return final_.size(); }
  size_t num_edges() const { return edges_.size(); }
  bool IsFinal(StateId q) const { return final_[q] != 0; }
  EdgeRange EdgesOf(StateId q) const { return EdgeRange(this, first_[q]); }
  /// The label's items, sorted ascending; valid until the NFA is next
  /// modified.
  ItemSpan Label(LabelId id) const {
    return ItemSpan(items_.data() + label_begin_[id],
                    label_begin_[id + 1] - label_begin_[id]);
  }
  bool empty() const { return edges_.empty(); }

  /// Inserts one accepting run: the sequence of its non-ε output sets, with
  /// items > pivot removed. Sets that become empty must not occur (the pivot
  /// search guarantees every output set contains an item <= pivot when the
  /// pivot is in K(r)); such runs are skipped defensively. Runs whose label
  /// string is empty (all-ε output) are ignored — the empty candidate is
  /// never mined.
  void AddRun(const std::vector<const StateGrid::Edge*>& run, ItemId pivot);

  /// Inserts a pre-trimmed label string (used by tests and fixtures).
  void AddLabelString(const std::vector<Sequence>& label_string);

  /// Adds a single edge. Creates the target state when `create_new`.
  StateId AddEdge(StateId from, const Sequence& label, StateId to_or_new,
                  bool create_new, bool mark_final);

  /// Minimizes the acyclic automaton by bottom-up hash-consing and renumbers
  /// states in canonical DFS preorder with edges sorted by label content.
  /// Equal candidate sets inserted in any run order serialize identically
  /// afterwards (required for shuffle aggregation).
  void Minimize();

  /// Sorts edges by label content and renumbers in DFS preorder without
  /// merging states (canonicalization for unminimized tries).
  void Canonicalize();

  /// Enumerates the accepted language (expanding output sets), deduplicated
  /// and sorted; stops and returns false if more than `budget` raw sequences
  /// are produced. Test/oracle helper.
  bool Language(size_t budget, std::vector<Sequence>* out) const;

 private:
  friend class NfaPartition;  // decodes serialized NFAs into this layout

  static constexpr uint32_t kNoEdge = UINT32_MAX;

  // One intern-table slot: `label` is live iff `stamp` equals the table's.
  struct LabelSlot {
    uint32_t stamp = 0;
    LabelId label = 0;
  };

  // Sizes every array for an NFA of at most these counts (labels <= edges).
  void Reserve(size_t states, size_t edges, size_t items);
  LabelId InternLabel(const ItemId* items, size_t size);
  // Rebuilds the intern table at `capacity` (a power of two) slots.
  void GrowLabelTable(size_t capacity);
  StateId NewState(bool final);
  void AppendEdge(StateId from, LabelId label, StateId to);
  // The trie step: the target of `q`'s edge labeled `label`, created if
  // missing.
  StateId Child(StateId q, LabelId label);
  // Minimize (merge = true) or Canonicalize (merge = false).
  void Renumber(bool merge);

  // Labels: one item pool, offsets, content hashes, intern table.
  std::vector<ItemId> items_;
  std::vector<uint32_t> label_begin_;
  std::vector<uint64_t> label_hash_;
  std::vector<LabelSlot> label_slots_;  // power-of-two size, or empty
  uint32_t label_stamp_ = 0;

  // States and edges.
  std::vector<uint8_t> final_;
  std::vector<uint32_t> first_;  // per state: first out-edge or kNoEdge
  std::vector<uint32_t> last_;   // per state: last out-edge or kNoEdge
  std::vector<Edge> edges_;
  std::vector<uint32_t> next_;   // per edge: next out-edge of its source
};

}  // namespace dseq

#endif  // DSEQ_NFA_OUTPUT_NFA_H_
