#include "src/nfa/output_nfa.h"

#include <algorithm>
#include <functional>
#include <utility>

namespace dseq {
namespace {

constexpr uint64_t kHashMul = 0x9e3779b97f4a7c15ULL;

uint64_t Mix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

uint64_t HashItems(const ItemId* items, size_t size) {
  uint64_t h = size;
  for (size_t i = 0; i < size; ++i) h = (h ^ items[i]) * kHashMul;
  return Mix(h);
}

// A canonical out-edge during Renumber: (label rank, canonical target).
using SigEdge = std::pair<uint32_t, StateId>;

// Renumber's temporaries. One per thread, reused across calls: clearing
// keeps the capacity.
struct RenumberScratch {
  std::vector<uint32_t> label_rank;    // label id -> rank by content
  std::vector<uint32_t> label_order;   // rank -> label id
  std::vector<uint8_t> visited;
  std::vector<std::pair<StateId, uint32_t>> stack;
  std::vector<StateId> order;          // post-order, then DFS preorder
  std::vector<StateId> canon;          // state -> its class representative
  std::vector<uint32_t> sig_begin;     // state -> signature range
  std::vector<uint32_t> sig_end;
  std::vector<SigEdge> sig;            // every state's signature edges
  std::vector<uint64_t> sig_hash;
  std::vector<std::pair<uint32_t, StateId>> table;  // (stamp, state)
  uint32_t table_stamp = 0;
  std::vector<StateId> remap;          // old id -> preorder id
  std::vector<uint8_t> final;          // preorder id -> finality
};

RenumberScratch& ThreadRenumberScratch() {
  thread_local RenumberScratch scratch;
  return scratch;
}

}  // namespace

void OutputNfa::Clear() {
  items_.clear();
  label_begin_.assign(1, 0);
  label_hash_.clear();
  if (++label_stamp_ == 0) {  // wrapped: no slot may look live
    std::fill(label_slots_.begin(), label_slots_.end(), LabelSlot{});
    label_stamp_ = 1;
  }
  final_.assign(1, 0);
  first_.assign(1, kNoEdge);
  last_.assign(1, kNoEdge);
  edges_.clear();
  next_.clear();
}

void OutputNfa::Reserve(size_t states, size_t edges, size_t items) {
  items_.reserve(items);
  label_begin_.reserve(edges + 1);
  label_hash_.reserve(edges);
  size_t capacity = 16;
  while (capacity < 2 * (edges + 1)) capacity *= 2;
  if (label_slots_.size() < capacity) GrowLabelTable(capacity);
  final_.reserve(states);
  first_.reserve(states);
  last_.reserve(states);
  edges_.reserve(edges);
  next_.reserve(edges);
}

void OutputNfa::GrowLabelTable(size_t capacity) {
  label_slots_.assign(capacity, LabelSlot{});
  label_stamp_ = 1;
  const size_t mask = capacity - 1;
  for (LabelId l = 0; l < label_hash_.size(); ++l) {
    size_t i = label_hash_[l] & mask;
    while (label_slots_[i].stamp == label_stamp_) i = (i + 1) & mask;
    label_slots_[i] = LabelSlot{label_stamp_, l};
  }
}

OutputNfa::LabelId OutputNfa::InternLabel(const ItemId* items, size_t size) {
  // Load factor at most 1/2.
  if ((label_hash_.size() + 1) * 2 > label_slots_.size()) {
    GrowLabelTable(std::max<size_t>(16, label_slots_.size() * 2));
  }
  const uint64_t h = HashItems(items, size);
  const size_t mask = label_slots_.size() - 1;
  size_t i = h & mask;
  while (label_slots_[i].stamp == label_stamp_) {
    LabelId l = label_slots_[i].label;
    if (label_hash_[l] == h &&
        label_begin_[l + 1] - label_begin_[l] == size &&
        std::equal(items, items + size, items_.data() + label_begin_[l])) {
      return l;
    }
    i = (i + 1) & mask;
  }
  LabelId id = static_cast<LabelId>(label_hash_.size());
  items_.insert(items_.end(), items, items + size);
  label_begin_.push_back(static_cast<uint32_t>(items_.size()));
  label_hash_.push_back(h);
  label_slots_[i] = LabelSlot{label_stamp_, id};
  return id;
}

StateId OutputNfa::NewState(bool final) {
  StateId q = static_cast<StateId>(final_.size());
  final_.push_back(final ? 1 : 0);
  first_.push_back(kNoEdge);
  last_.push_back(kNoEdge);
  return q;
}

void OutputNfa::AppendEdge(StateId from, LabelId label, StateId to) {
  uint32_t e = static_cast<uint32_t>(edges_.size());
  edges_.push_back(Edge{label, to});
  next_.push_back(kNoEdge);
  if (last_[from] == kNoEdge) {
    first_[from] = e;
  } else {
    next_[last_[from]] = e;
  }
  last_[from] = e;
}

StateId OutputNfa::Child(StateId q, LabelId label) {
  for (uint32_t e = first_[q]; e != kNoEdge; e = next_[e]) {
    if (edges_[e].label == label) return edges_[e].target;
  }
  StateId next = NewState(false);
  AppendEdge(q, label, next);
  return next;
}

void OutputNfa::AddRun(const std::vector<const StateGrid::Edge*>& run,
                       ItemId pivot) {
  // Output sets are sorted, so trimming to items <= pivot keeps a prefix,
  // and a set trims to empty iff its first item exceeds the pivot.
  bool any_label = false;
  for (const StateGrid::Edge* e : run) {
    if (e->out.empty()) continue;  // ε output
    if (e->out[0] > pivot) return;  // defensive: no pivot-k candidate
    any_label = true;
  }
  if (!any_label) return;
  StateId cur = 0;
  for (const StateGrid::Edge* e : run) {
    if (e->out.empty()) continue;
    size_t size = std::upper_bound(e->out.begin(), e->out.end(), pivot) -
                  e->out.begin();
    cur = Child(cur, InternLabel(e->out.data(), size));
  }
  final_[cur] = 1;
}

void OutputNfa::AddLabelString(const std::vector<Sequence>& label_string) {
  if (label_string.empty()) return;
  StateId cur = 0;
  for (const Sequence& label : label_string) {
    cur = Child(cur, InternLabel(label.data(), label.size()));
  }
  final_[cur] = 1;
}

StateId OutputNfa::AddEdge(StateId from, const Sequence& label,
                           StateId to_or_new, bool create_new,
                           bool mark_final) {
  LabelId lid = InternLabel(label.data(), label.size());
  StateId to = create_new ? NewState(false) : to_or_new;
  AppendEdge(from, lid, to);
  if (mark_final) final_[to] = 1;
  return to;
}

void OutputNfa::Minimize() { Renumber(/*merge=*/true); }

void OutputNfa::Canonicalize() { Renumber(/*merge=*/false); }

void OutputNfa::Renumber(bool merge) {
  const size_t n = num_states();
  const size_t num_labels = label_hash_.size();
  RenumberScratch& s = ThreadRenumberScratch();

  // Rank labels by content, so signatures and edge order do not depend on
  // interning order. Interned labels are distinct, so ranks are too.
  s.label_order.resize(num_labels);
  for (LabelId l = 0; l < num_labels; ++l) s.label_order[l] = l;
  std::sort(s.label_order.begin(), s.label_order.end(),
            [&](LabelId a, LabelId b) {
              ItemSpan la = Label(a);
              ItemSpan lb = Label(b);
              return std::lexicographical_compare(la.begin(), la.end(),
                                                  lb.begin(), lb.end());
            });
  s.label_rank.resize(num_labels);
  for (uint32_t r = 0; r < num_labels; ++r) s.label_rank[s.label_order[r]] = r;

  // Post-order of the states reachable from the root: every state after
  // its successors, so their classes are known first.
  s.visited.assign(n, 0);
  s.order.clear();
  s.stack.clear();
  s.visited[0] = 1;
  s.stack.emplace_back(0, first_[0]);
  while (!s.stack.empty()) {
    auto& [q, e] = s.stack.back();
    if (e == kNoEdge) {
      s.order.push_back(q);
      s.stack.pop_back();
      continue;
    }
    StateId t = edges_[e].target;
    e = next_[e];
    if (!s.visited[t]) {
      s.visited[t] = 1;
      s.stack.emplace_back(t, first_[t]);
    }
  }

  // Each state's signature: its (label rank, canonical target) edges,
  // sorted and duplicate-free. With `merge`, states with equal finality and
  // signature are hash-consed onto the first one seen.
  s.canon.resize(n);
  s.sig_begin.resize(n);
  s.sig_end.resize(n);
  s.sig_hash.resize(n);
  s.sig.clear();
  size_t mask = 0;
  if (merge) {
    size_t capacity = 16;
    while (capacity < 2 * s.order.size()) capacity *= 2;
    if (s.table.size() < capacity) {
      s.table.assign(capacity, {0, 0});
      s.table_stamp = 0;
    }
    mask = s.table.size() - 1;
    if (++s.table_stamp == 0) {
      std::fill(s.table.begin(), s.table.end(), std::make_pair(0u, 0u));
      s.table_stamp = 1;
    }
  }
  for (StateId q : s.order) {
    const uint32_t begin = static_cast<uint32_t>(s.sig.size());
    for (uint32_t e = first_[q]; e != kNoEdge; e = next_[e]) {
      s.sig.emplace_back(s.label_rank[edges_[e].label],
                         s.canon[edges_[e].target]);
    }
    std::sort(s.sig.begin() + begin, s.sig.end());
    s.sig.erase(std::unique(s.sig.begin() + begin, s.sig.end()),
                s.sig.end());
    const uint32_t end = static_cast<uint32_t>(s.sig.size());
    s.sig_begin[q] = begin;
    s.sig_end[q] = end;
    s.canon[q] = q;
    if (!merge) continue;
    uint64_t h = final_[q] ? kHashMul : 0x517cc1b727220a95ULL;
    for (uint32_t i = begin; i < end; ++i) {
      h = (h ^ (uint64_t{s.sig[i].first} << 32 | s.sig[i].second)) *
          kHashMul;
    }
    h = Mix(h);
    s.sig_hash[q] = h;
    size_t slot = h & mask;
    for (; s.table[slot].first == s.table_stamp; slot = (slot + 1) & mask) {
      StateId r = s.table[slot].second;
      if (s.sig_hash[r] == h && final_[r] == final_[q] &&
          s.sig_end[r] - s.sig_begin[r] == end - begin &&
          std::equal(s.sig.begin() + begin, s.sig.begin() + end,
                     s.sig.begin() + s.sig_begin[r])) {
        s.canon[q] = r;
        break;
      }
    }
    if (s.canon[q] == q) s.table[slot] = {s.table_stamp, q};
  }

  // Renumber in DFS preorder along the signatures (edges sorted by label
  // content, then target), so equal automata serialize identically.
  s.remap.assign(n, UINT32_MAX);
  s.order.clear();
  s.stack.clear();
  s.remap[0] = 0;
  s.order.push_back(0);
  s.stack.emplace_back(0, s.sig_begin[0]);
  while (!s.stack.empty()) {
    auto& [q, i] = s.stack.back();
    if (i == s.sig_end[q]) {
      s.stack.pop_back();
      continue;
    }
    StateId t = s.sig[i++].second;
    if (s.remap[t] == UINT32_MAX) {
      s.remap[t] = static_cast<StateId>(s.order.size());
      s.order.push_back(t);
      s.stack.emplace_back(t, s.sig_begin[t]);
    }
  }

  // Lay the new states' edges out contiguously, in signature order.
  const size_t m = s.order.size();
  s.final.resize(m);
  for (size_t i = 0; i < m; ++i) s.final[i] = final_[s.order[i]];
  final_.assign(s.final.begin(), s.final.end());
  first_.assign(m, kNoEdge);
  last_.assign(m, kNoEdge);
  edges_.clear();
  next_.clear();
  for (size_t i = 0; i < m; ++i) {
    StateId q = s.order[i];
    for (uint32_t j = s.sig_begin[q]; j < s.sig_end[q]; ++j) {
      AppendEdge(static_cast<StateId>(i), s.label_order[s.sig[j].first],
                 s.remap[s.sig[j].second]);
    }
  }
}

bool OutputNfa::Language(size_t budget, std::vector<Sequence>* out) const {
  out->clear();
  Sequence prefix;
  bool ok = true;
  // Recursive lambda DFS expanding output sets.
  std::function<void(StateId)> dfs = [&](StateId q) {
    if (!ok) return;
    if (IsFinal(q) && !prefix.empty()) {
      if (out->size() >= budget) {
        ok = false;
        return;
      }
      out->push_back(prefix);
    }
    for (const Edge& e : EdgesOf(q)) {
      for (ItemId w : Label(e.label)) {
        prefix.push_back(w);
        dfs(e.target);
        prefix.pop_back();
        if (!ok) return;
      }
    }
  };
  dfs(0);
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  return ok;
}

}  // namespace dseq
