#include "src/nfa/serializer.h"

#include <limits>
#include <vector>

#include "src/util/varint.h"

namespace dseq {
namespace {

constexpr uint8_t kHasSource = 1;
constexpr uint8_t kHasTarget = 2;
constexpr uint8_t kFinalMarker = 4;

void PutLabel(std::string* out, ItemSpan label) {
  PutVarint(out, label.size());
  ItemId prev = 0;
  for (ItemId w : label) {
    // Labels are sorted ascending, so plain deltas suffice.
    PutVarint(out, w - prev);
    prev = w;
  }
}

// Appends a non-empty label's items to `*items`.
bool GetLabel(std::string_view data, size_t* pos,
              std::vector<ItemId>* items) {
  uint64_t n = 0;
  if (!GetVarint(data, pos, &n) || n == 0) return false;
  // Each encoded item is at least one byte; reject adversarial length
  // prefixes before they can drive a huge allocation.
  if (n > data.size() - *pos) return false;
  constexpr uint64_t kMaxItem = std::numeric_limits<ItemId>::max();
  uint64_t prev = 0;
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t delta = 0;
    if (!GetVarint(data, pos, &delta)) return false;
    // Labels are strictly ascending item sets starting at an item >= 1, so
    // every delta is positive; the bound is checked before the addition so
    // an adversarial near-2^64 delta cannot wrap back into range.
    if (delta == 0 || delta > kMaxItem - prev) return false;
    prev += delta;
    items->push_back(static_cast<ItemId>(prev));
  }
  return true;
}

constexpr StateId kUnvisited = UINT32_MAX;

// SerializeNfaTo's DFS temporaries, one per thread.
struct SerializeScratch {
  std::vector<StateId> dfs_id;  // state -> visit number, or kUnvisited
  std::vector<std::pair<StateId, OutputNfa::EdgeRange::iterator>> stack;
};

SerializeScratch& ThreadSerializeScratch() {
  thread_local SerializeScratch scratch;
  return scratch;
}

}  // namespace

void SerializeNfaTo(const OutputNfa& nfa, std::string* out) {
  PutVarint(out, nfa.num_edges());
  if (nfa.num_edges() == 0) return;

  // DFS along each state's edge order, numbering states by first visit and
  // writing those numbers, which the parser assigns back in the same order.
  // After Canonicalize or Minimize they equal the state ids. Track the
  // previous record's target to apply the paper's implicit source/target
  // compression.
  SerializeScratch& s = ThreadSerializeScratch();
  s.dfs_id.assign(nfa.num_states(), kUnvisited);
  s.dfs_id[0] = 0;
  StateId next_id = 1;
  s.stack.clear();
  StateId prev_target = 0;
  const OutputNfa::EdgeRange::iterator end = nfa.EdgesOf(0).end();
  s.stack.emplace_back(0, nfa.EdgesOf(0).begin());
  while (!s.stack.empty()) {
    auto& [q, it] = s.stack.back();
    if (it == end) {
      s.stack.pop_back();
      continue;
    }
    const OutputNfa::Edge& e = *it;
    ++it;

    uint8_t header = 0;
    bool target_new = s.dfs_id[e.target] == kUnvisited;
    if (q != prev_target) header |= kHasSource;
    if (!target_new) header |= kHasTarget;
    if (target_new && nfa.IsFinal(e.target)) header |= kFinalMarker;
    out->push_back(static_cast<char>(header));
    if (header & kHasSource) PutVarint(out, s.dfs_id[q]);
    PutLabel(out, nfa.Label(e.label));
    if (header & kHasTarget) PutVarint(out, s.dfs_id[e.target]);

    prev_target = e.target;
    if (target_new) {
      s.dfs_id[e.target] = next_id++;
      s.stack.emplace_back(e.target, nfa.EdgesOf(e.target).begin());
    }
  }
}

std::string SerializeNfa(const OutputNfa& nfa) {
  std::string out;
  SerializeNfaTo(nfa, &out);
  return out;
}

OutputNfa DeserializeNfa(std::string_view bytes, size_t* pos) {
  thread_local NfaPartition arena;
  arena.Clear();
  arena.Append(bytes, pos, 1);
  return arena.Extract(0);
}

OutputNfa DeserializeNfa(std::string_view bytes) {
  size_t pos = 0;
  OutputNfa nfa = DeserializeNfa(bytes, &pos);
  if (pos != bytes.size()) throw NfaParseError("trailing bytes after NFA");
  return nfa;
}

void NfaPartition::Clear() {
  weights_.clear();
  roots_.clear();
  final_.clear();
  state_begin_.assign(1, 0);
  edges_.clear();
  items_.clear();
}

void NfaPartition::AppendRecord(std::string_view value) {
  size_t pos = 0;
  uint64_t weight = 0;
  if (!GetVarint(value, &pos, &weight) || weight == 0) {
    throw NfaParseError("malformed weighted NFA record");
  }
  Decode(value, &pos, weight, /*whole=*/true);
}

void NfaPartition::Append(std::string_view bytes, size_t* pos,
                          uint64_t weight) {
  Decode(bytes, pos, weight, /*whole=*/false);
}

void NfaPartition::Truncate(StateId base, size_t edges, size_t items) {
  final_.resize(base);
  state_begin_.resize(base + 1);
  edges_.resize(edges);
  items_.resize(items);
}

void NfaPartition::Decode(std::string_view bytes, size_t* pos,
                          uint64_t weight, bool whole) {
  const StateId base = static_cast<StateId>(final_.size());
  const size_t edges_mark = edges_.size();
  const size_t items_mark = items_.size();
  try {
    uint64_t num_edges = 0;
    if (!GetVarint(bytes, pos, &num_edges)) {
      throw NfaParseError("truncated NFA header");
    }
    // Every serialized edge occupies at least two bytes (header + label),
    // so an adversarial edge count is rejected up front.
    if (num_edges > (bytes.size() - *pos) / 2) {
      throw NfaParseError("NFA edge count exceeds input size");
    }
    pending_.clear();
    final_.push_back(0);  // the root
    StateId num_states = 1;
    StateId prev_target = 0;
    bool revisits = false;
    for (uint64_t i = 0; i < num_edges; ++i) {
      if (*pos >= bytes.size()) throw NfaParseError("truncated NFA record");
      uint8_t header = static_cast<uint8_t>(bytes[*pos]);
      ++*pos;
      uint64_t src = prev_target;
      if ((header & kHasSource) && !GetVarint(bytes, pos, &src)) {
        throw NfaParseError("bad source state");
      }
      if (src >= num_states) throw NfaParseError("source out of range");
      Edge edge{static_cast<uint32_t>(items_.size()), 0, 0};
      if (!GetLabel(bytes, pos, &items_)) throw NfaParseError("bad label");
      edge.items_size = static_cast<uint32_t>(items_.size() - edge.items_begin);
      if (header & kHasTarget) {
        uint64_t v = 0;
        if (!GetVarint(bytes, pos, &v)) {
          throw NfaParseError("bad target state");
        }
        if (v >= num_states) throw NfaParseError("target out of range");
        edge.target = static_cast<StateId>(v);
        revisits = true;
      } else {
        edge.target = num_states++;
        final_.push_back((header & kFinalMarker) != 0 ? 1 : 0);
      }
      pending_.emplace_back(static_cast<StateId>(src), edge);
      prev_target = edge.target;
    }
    if (whole && *pos != bytes.size()) {
      throw NfaParseError("trailing bytes after NFA record");
    }
    // Offsets and global ids are 32-bit.
    constexpr size_t kMax = std::numeric_limits<uint32_t>::max();
    if (final_.size() >= kMax || items_.size() >= kMax ||
        edges_mark + pending_.size() >= kMax) {
      throw NfaParseError("NFA partition exceeds 2^32 states or items");
    }

    // Scatter the edges into the CSR, keeping each state's edges in
    // serialization order.
    counts_.assign(num_states + 1, 0);
    for (const auto& [src, edge] : pending_) ++counts_[src + 1];
    for (StateId q = 0; q < num_states; ++q) counts_[q + 1] += counts_[q];
    for (StateId q = 1; q <= num_states; ++q) {
      state_begin_.push_back(static_cast<uint32_t>(edges_mark + counts_[q]));
    }
    edges_.resize(edges_mark + pending_.size());
    for (const auto& [src, edge] : pending_) {
      Edge& slot = edges_[edges_mark + counts_[src]++];
      slot = edge;
      slot.target += base;
    }
    // A re-visited target can close a cycle, on which mining would never
    // end; NFAs without one are trees.
    if (revisits && !Acyclic(base)) throw NfaParseError("cyclic NFA");
  } catch (...) {
    Truncate(base, edges_mark, items_mark);
    throw;
  }
  weights_.push_back(weight);
  roots_.push_back(base);
}

bool NfaPartition::Acyclic(StateId base) {
  // Kahn's algorithm over the NFA's states [base, final_.size()).
  const size_t n = final_.size() - base;
  counts_.assign(n, 0);
  for (size_t e = state_begin_[base]; e < edges_.size(); ++e) {
    ++counts_[edges_[e].target - base];
  }
  ready_.clear();
  for (StateId q = 0; q < n; ++q) {
    if (counts_[q] == 0) ready_.push_back(q);
  }
  size_t sorted = 0;
  while (!ready_.empty()) {
    StateId q = ready_.back();
    ready_.pop_back();
    ++sorted;
    for (const Edge& e : EdgesOf(base + q)) {
      if (--counts_[e.target - base] == 0) ready_.push_back(e.target - base);
    }
  }
  return sorted == n;
}

void NfaPartition::Append(const OutputNfa& nfa, uint64_t weight) {
  // The NFA's item pool is copied whole, so its edges' labels keep their
  // offsets into it.
  const StateId base = static_cast<StateId>(final_.size());
  const uint32_t pool = static_cast<uint32_t>(items_.size());
  items_.insert(items_.end(), nfa.items_.begin(), nfa.items_.end());
  final_.insert(final_.end(), nfa.final_.begin(), nfa.final_.end());
  edges_.reserve(edges_.size() + nfa.num_edges());
  for (StateId q = 0; q < nfa.num_states(); ++q) {
    for (const OutputNfa::Edge& e : nfa.EdgesOf(q)) {
      const uint32_t begin = nfa.label_begin_[e.label];
      edges_.push_back(Edge{pool + begin,
                            nfa.label_begin_[e.label + 1] - begin,
                            base + e.target});
    }
    state_begin_.push_back(static_cast<uint32_t>(edges_.size()));
  }
  weights_.push_back(weight);
  roots_.push_back(base);
}

OutputNfa NfaPartition::Extract(size_t i) const {
  const StateId base = roots_[i];
  const StateId end = i + 1 < roots_.size()
                          ? roots_[i + 1]
                          : static_cast<StateId>(final_.size());
  const uint32_t num_edges = state_begin_[end] - state_begin_[base];
  uint32_t num_items = 0;
  for (uint32_t e = state_begin_[base]; e < state_begin_[end]; ++e) {
    num_items += edges_[e].items_size;
  }
  OutputNfa nfa;
  nfa.Reserve(end - base, num_edges, num_items);
  nfa.final_[0] = final_[base];
  for (StateId q = base + 1; q < end; ++q) nfa.NewState(final_[q] != 0);
  for (StateId q = base; q < end; ++q) {
    for (const Edge& e : EdgesOf(q)) {
      nfa.AppendEdge(q - base,
                     nfa.InternLabel(items_.data() + e.items_begin,
                                     e.items_size),
                     e.target - base);
    }
  }
  return nfa;
}

}  // namespace dseq
