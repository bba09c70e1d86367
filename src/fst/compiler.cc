#include "src/fst/compiler.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include "src/patex/parser.h"

namespace dseq {
namespace {

// Maximum number of atom copies a bounded repetition may expand to.
constexpr int kMaxRepeatExpansion = 1000;

// Bounds on the ε-NFA that the Thompson construction builds: its states,
// and the total size of the ε-closures the elimination pass materializes
// (quadratic in the states for nested optional repetitions). Past either
// bound a pattern such as [.{0,999}]{0,999} ends in FstCompileError instead
// of an unbounded compile; within both, compiling takes well under a second.
// The largest pattern the benches use, T3(·,8,5), needs 92 states and 251
// closure entries.
constexpr size_t kMaxThompsonStates = 2048;
constexpr size_t kMaxClosureEntries = 16384;

std::tuple<StateId, InputKind, ItemId, OutputKind, ItemId, StateId> Key(
    const Transition& t) {
  return {t.from, t.in_kind, t.in_item, t.out_kind, t.out_item, t.to};
}

// A state's signature entry: (transition label id << 32) | target class.
using SigEntry = uint64_t;

// The coarsest partition of `fst`'s states that separates final from
// non-final states and is stable: states of one class have, per transition
// label, transitions into the same classes. Returns each state's class, ids
// dense in [0, *num_classes).
//
// Refinement splits a class by its members' signatures (their sorted
// (label, target class) sets). Only *dirty* states — those with a successor
// that changed class in the last round, and every state in the first — can
// change signature, so a round recomputes only theirs. A class's non-dirty
// members all still carry its recorded signature; a dirty member that
// differs from it moves to the class of its (old class, signature), created
// on first use. A round that moves nothing leaves the partition stable.
// Every split separates states that no stable refinement of {final,
// non-final} can merge, so the result is the coarsest one, as a full
// Moore-style pass per round computes, for work proportional to the dirty
// states' transitions instead of all states' per round.
std::vector<uint32_t> CoarsestStablePartition(const Fst& fst,
                                              uint32_t* num_classes) {
  const size_t n = fst.num_states();
  // Dense label ids for the (input, output) part of each transition.
  using Label = std::tuple<InputKind, ItemId, OutputKind, ItemId>;
  std::vector<Label> labels;
  for (StateId q = 0; q < n; ++q) {
    for (const Transition& t : fst.From(q)) {
      labels.emplace_back(t.in_kind, t.in_item, t.out_kind, t.out_item);
    }
  }
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  // Transitions as CSR (label id, target) and predecessors as CSR.
  std::vector<uint32_t> trans_begin(n + 1, 0);
  std::vector<uint32_t> trans_label;
  std::vector<StateId> trans_to;
  std::vector<uint32_t> pred_begin(n + 1, 0);
  for (StateId q = 0; q < n; ++q) {
    for (const Transition& t : fst.From(q)) {
      Label l(t.in_kind, t.in_item, t.out_kind, t.out_item);
      trans_label.push_back(static_cast<uint32_t>(
          std::lower_bound(labels.begin(), labels.end(), l) - labels.begin()));
      trans_to.push_back(t.to);
      ++pred_begin[t.to + 1];
    }
    trans_begin[q + 1] = static_cast<uint32_t>(trans_to.size());
  }
  for (size_t q = 0; q < n; ++q) pred_begin[q + 1] += pred_begin[q];
  std::vector<StateId> preds(trans_to.size());
  {
    std::vector<uint32_t> fill(pred_begin.begin(), pred_begin.end() - 1);
    for (StateId q = 0; q < n; ++q) {
      for (uint32_t i = trans_begin[q]; i < trans_begin[q + 1]; ++i) {
        preds[fill[trans_to[i]]++] = q;
      }
    }
  }

  // A class: its member count, its recorded signature (a range of
  // `class_pool`, the signature its non-dirty members carry), and per-round
  // bookkeeping.
  struct Class {
    uint32_t size = 0;
    uint32_t dirty = 0;        // dirty members this round
    uint32_t reset_round = 0;  // round its signature was last re-recorded
    uint32_t sig_begin = 0;
    uint32_t sig_end = 0;
    uint64_t sig_hash = 0;
  };
  std::vector<Class> classes;
  std::vector<SigEntry> class_pool;

  // Initial classes: non-final and final, numbered by first occurrence.
  std::vector<uint32_t> cls(n);
  {
    uint32_t id_of[2] = {UINT32_MAX, UINT32_MAX};
    for (StateId q = 0; q < n; ++q) {
      uint32_t& id = id_of[fst.IsFinal(q) ? 1 : 0];
      if (id == UINT32_MAX) {
        id = static_cast<uint32_t>(classes.size());
        classes.emplace_back();
      }
      cls[q] = id;
      ++classes[id].size;
    }
  }

  // Per-round state.
  std::vector<StateId> dirty(n);
  for (StateId q = 0; q < n; ++q) dirty[q] = q;
  std::vector<uint8_t> is_dirty(n, 1);
  std::vector<SigEntry> pool;           // this round's signatures
  std::vector<uint32_t> sig_begin(n), sig_end(n);
  std::vector<uint64_t> sig_hash(n);
  std::vector<std::pair<StateId, uint32_t>> moves;  // (state, new class)
  // Splits of this round: (old class, signature) -> new class. A slot is
  // live in the round it was written; `state` opened the new class.
  struct Split {
    uint32_t round = 0;
    StateId state = 0;
    uint32_t target = 0;
  };
  std::vector<Split> table;
  std::vector<StateId> next_dirty;

  auto record = [&](uint32_t c, StateId q) {
    Class& k = classes[c];
    k.sig_begin = static_cast<uint32_t>(class_pool.size());
    class_pool.insert(class_pool.end(), pool.begin() + sig_begin[q],
                      pool.begin() + sig_end[q]);
    k.sig_end = static_cast<uint32_t>(class_pool.size());
    k.sig_hash = sig_hash[q];
  };
  auto same = [](const SigEntry* a, const SigEntry* a_end, const SigEntry* b,
                 const SigEntry* b_end) {
    return a_end - a == b_end - b && std::equal(a, a_end, b);
  };

  for (uint32_t round = 1; !dirty.empty(); ++round) {
    std::sort(dirty.begin(), dirty.end());
    pool.clear();
    for (StateId q : dirty) {
      sig_begin[q] = static_cast<uint32_t>(pool.size());
      for (uint32_t i = trans_begin[q]; i < trans_begin[q + 1]; ++i) {
        pool.push_back(SigEntry{trans_label[i]} << 32 | cls[trans_to[i]]);
      }
      std::sort(pool.begin() + sig_begin[q], pool.end());
      pool.erase(std::unique(pool.begin() + sig_begin[q], pool.end()),
                 pool.end());
      sig_end[q] = static_cast<uint32_t>(pool.size());
      uint64_t h = 0x9e3779b97f4a7c15ULL;
      for (uint32_t i = sig_begin[q]; i < sig_end[q]; ++i) {
        h = (h ^ pool[i]) * 0xff51afd7ed558ccdULL;
        h ^= h >> 29;
      }
      sig_hash[q] = h;
      ++classes[cls[q]].dirty;
    }

    size_t capacity = 16;
    while (capacity < 2 * dirty.size()) capacity *= 2;
    if (table.size() < capacity) table.assign(capacity, Split{});
    const size_t mask = table.size() - 1;
    moves.clear();
    for (StateId q : dirty) {
      const uint32_t c = cls[q];
      const SigEntry* sig = pool.data() + sig_begin[q];
      const SigEntry* sig_last = pool.data() + sig_end[q];
      // A class whose members are all dirty takes the signature of its
      // first one.
      if (classes[c].dirty == classes[c].size &&
          classes[c].reset_round != round) {
        classes[c].reset_round = round;
        record(c, q);
      }
      if (sig_hash[q] == classes[c].sig_hash &&
          same(sig, sig_last, class_pool.data() + classes[c].sig_begin,
               class_pool.data() + classes[c].sig_end)) {
        continue;
      }
      const uint64_t h = sig_hash[q] ^ (uint64_t{c} * 0x9e3779b97f4a7c15ULL);
      size_t slot = h & mask;
      uint32_t target = UINT32_MAX;
      for (; table[slot].round == round; slot = (slot + 1) & mask) {
        StateId r = table[slot].state;
        if (cls[r] == c && sig_hash[r] == sig_hash[q] &&
            same(sig, sig_last, pool.data() + sig_begin[r],
                 pool.data() + sig_end[r])) {
          target = table[slot].target;
          break;
        }
      }
      if (target == UINT32_MAX) {
        target = static_cast<uint32_t>(classes.size());
        classes.emplace_back();
        record(target, q);
        table[slot] = Split{round, q, target};
      }
      moves.emplace_back(q, target);
    }

    for (StateId q : dirty) {
      classes[cls[q]].dirty = 0;
      is_dirty[q] = 0;
    }
    next_dirty.clear();
    for (const auto& [q, target] : moves) {
      --classes[cls[q]].size;
      cls[q] = target;
      ++classes[target].size;
      for (uint32_t i = pred_begin[q]; i < pred_begin[q + 1]; ++i) {
        if (!is_dirty[preds[i]]) {
          is_dirty[preds[i]] = 1;
          next_dirty.push_back(preds[i]);
        }
      }
    }
    dirty.swap(next_dirty);
  }
  *num_classes = static_cast<uint32_t>(classes.size());
  return cls;
}

class Builder {
 public:
  explicit Builder(const Dictionary& dict) : dict_(dict) {}

  Fst Compile(const PatEx& pattern) {
    Fragment frag = CompileNode(pattern, /*captured=*/false);
    return MergeBisimilarStates(EliminateEpsilon(frag.start, frag.end));
  }

  // Collapses states with identical behaviour (same finality and the same
  // labeled transitions into the same state classes) via partition
  // refinement. This yields the paper's compact FSTs — e.g. the three-state
  // FST of Fig. 4 — and, importantly, turns loop constructs like '.*' into
  // true self-loops, which the D-SEQ rewriter's "state change" relevance
  // test relies on.
  static Fst MergeBisimilarStates(const Fst& fst) {
    size_t n = fst.num_states();
    if (n == 0) return fst;
    uint32_t num_classes = 0;
    std::vector<uint32_t> cls = CoarsestStablePartition(fst, &num_classes);

    // Rebuild with one state per class, renumbered from the initial class.
    std::vector<StateId> remap(num_classes, UINT32_MAX);
    std::vector<StateId> order;
    remap[cls[fst.initial()]] = 0;
    order.push_back(fst.initial());
    // BFS over classes for a deterministic numbering.
    for (size_t oi = 0; oi < order.size(); ++oi) {
      StateId rep = order[oi];
      for (const Transition& t : fst.From(rep)) {
        if (remap[cls[t.to]] == UINT32_MAX) {
          remap[cls[t.to]] = static_cast<StateId>(order.size());
          order.push_back(t.to);
        }
      }
    }

    std::vector<bool> finals(order.size(), false);
    std::vector<std::vector<Transition>> trans(order.size());
    for (size_t oi = 0; oi < order.size(); ++oi) {
      StateId rep = order[oi];
      finals[oi] = fst.IsFinal(rep);
      for (Transition t : fst.From(rep)) {
        t.from = static_cast<StateId>(oi);
        t.to = remap[cls[t.to]];
        trans[oi].push_back(t);
      }
      auto& ts = trans[oi];
      std::sort(ts.begin(), ts.end(),
                [](const Transition& a, const Transition& b) {
                  return Key(a) < Key(b);
                });
      ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
    }
    return Fst(0, std::move(finals), std::move(trans));
  }

 private:
  struct Fragment {
    StateId start;
    StateId end;
  };

  StateId NewState() {
    if (consuming_.size() >= kMaxThompsonStates) {
      throw FstCompileError("pattern expands to too many FST states");
    }
    consuming_.emplace_back();
    eps_.emplace_back();
    return static_cast<StateId>(consuming_.size() - 1);
  }

  void AddEps(StateId from, StateId to) { eps_[from].push_back(to); }

  void AddConsuming(StateId from, StateId to, InputKind in_kind,
                    ItemId in_item, OutputKind out_kind, ItemId out_item) {
    Transition t;
    t.from = from;
    t.to = to;
    t.in_kind = in_kind;
    t.in_item = in_item;
    t.out_kind = out_kind;
    t.out_item = out_item;
    consuming_[from].push_back(t);
  }

  ItemId Resolve(const std::string& name) {
    ItemId w = dict_.ItemByName(name);
    if (w == kNoItem) {
      throw FstCompileError("pattern references unknown item: " + name);
    }
    return w;
  }

  Fragment CompileNode(const PatEx& node, bool captured) {
    switch (node.kind) {
      case PatEx::Kind::kItem: {
        ItemId w = Resolve(node.item);
        StateId s = NewState();
        StateId e = NewState();
        InputKind in_kind =
            node.exact && !node.generalize ? InputKind::kExact
                                           : InputKind::kDescendants;
        OutputKind out_kind = OutputKind::kEpsilon;
        ItemId out_item = kNoItem;
        if (captured) {
          if (!node.generalize && !node.exact) {
            out_kind = OutputKind::kSelf;  // (w): output matched item
          } else if (!node.generalize && node.exact) {
            out_kind = OutputKind::kConstant;  // (w=): output w
            out_item = w;
          } else if (node.generalize && !node.exact) {
            out_kind = OutputKind::kAncestorsUpTo;  // (w^): generalize up to w
            out_item = w;
          } else {
            out_kind = OutputKind::kConstant;  // (w^=): always generalize to w
            out_item = w;
          }
        }
        AddConsuming(s, e, in_kind, w, out_kind, out_item);
        return {s, e};
      }
      case PatEx::Kind::kDot: {
        StateId s = NewState();
        StateId e = NewState();
        OutputKind out_kind = OutputKind::kEpsilon;
        if (captured) {
          out_kind = node.generalize ? OutputKind::kAncestors
                                     : OutputKind::kSelf;
        }
        AddConsuming(s, e, InputKind::kAny, kNoItem, out_kind, kNoItem);
        return {s, e};
      }
      case PatEx::Kind::kConcat: {
        Fragment result = CompileNode(*node.children[0], captured);
        for (size_t i = 1; i < node.children.size(); ++i) {
          Fragment next = CompileNode(*node.children[i], captured);
          AddEps(result.end, next.start);
          result.end = next.end;
        }
        return result;
      }
      case PatEx::Kind::kAlt: {
        StateId s = NewState();
        StateId e = NewState();
        for (const auto& child : node.children) {
          Fragment f = CompileNode(*child, captured);
          AddEps(s, f.start);
          AddEps(f.end, e);
        }
        return {s, e};
      }
      case PatEx::Kind::kRepeat:
        return CompileRepeat(node, captured);
      case PatEx::Kind::kCapture:
        return CompileNode(*node.children[0], /*captured=*/true);
    }
    throw FstCompileError("invalid pattern node");
  }

  // True for an uncaptured-or-captured '.*' / '.^*' node.
  static bool IsDotStar(const PatEx& node) {
    return node.kind == PatEx::Kind::kRepeat && node.min_rep == 0 &&
           node.max_rep == -1 && node.children[0]->kind == PatEx::Kind::kDot;
  }

  // DESQ's compressed-FST semantics (paper Fig. 4): inside an *unbounded*
  // repetition, a leading or trailing '.*' of the body collapses with the
  // loop, i.e. [E .*]* and [.* E]* compile to [E | .]*. This is visible in
  // the paper's running example: the FST for .*(A)[(.^).*]*(b).* has a plain
  // '.' self-loop at q1, so e.g. a1db and a1b are candidates of T1 = a1cdcb.
  // We reproduce it by rewriting the repetition body.
  std::unique_ptr<PatEx> RewriteUnboundedBody(const PatEx& child) {
    if (child.kind != PatEx::Kind::kConcat) return nullptr;
    size_t begin = 0;
    size_t end = child.children.size();
    bool stripped_plain = false;
    bool stripped_gen = false;
    auto note = [&](const PatEx& dotstar) {
      (dotstar.children[0]->generalize ? stripped_gen : stripped_plain) = true;
    };
    while (begin < end && IsDotStar(*child.children[begin])) {
      note(*child.children[begin]);
      ++begin;
    }
    while (end > begin && IsDotStar(*child.children[end - 1])) {
      note(*child.children[end - 1]);
      --end;
    }
    if (!stripped_plain && !stripped_gen) return nullptr;
    std::vector<std::unique_ptr<PatEx>> rest;
    for (size_t i = begin; i < end; ++i) {
      rest.push_back(child.children[i]->Clone());
    }
    std::vector<std::unique_ptr<PatEx>> alts;
    if (!rest.empty()) alts.push_back(PatEx::Concat(std::move(rest)));
    if (stripped_plain) alts.push_back(PatEx::Dot(false));
    if (stripped_gen) alts.push_back(PatEx::Dot(true));
    return PatEx::Alt(std::move(alts));
  }

  Fragment CompileRepeat(const PatEx& node, bool captured) {
    if (node.max_rep == -1) {
      std::unique_ptr<PatEx> rewritten = RewriteUnboundedBody(*node.children[0]);
      if (rewritten != nullptr) {
        PatEx loop;
        loop.kind = PatEx::Kind::kRepeat;
        loop.min_rep = node.min_rep;
        loop.max_rep = -1;
        loop.children.push_back(std::move(rewritten));
        return CompileRepeat(loop, captured);
      }
    }
    const PatEx& child = *node.children[0];
    int min_rep = node.min_rep;
    int max_rep = node.max_rep;
    int copies = max_rep == -1 ? min_rep + 1 : max_rep;
    if (copies > kMaxRepeatExpansion) {
      throw FstCompileError("repetition bound too large to expand");
    }

    StateId s = NewState();
    StateId cur = s;
    // Mandatory part: min_rep copies in a chain.
    for (int i = 0; i < min_rep; ++i) {
      Fragment f = CompileNode(child, captured);
      AddEps(cur, f.start);
      cur = f.end;
    }
    if (max_rep == -1) {
      // Unbounded tail: Thompson star.
      Fragment f = CompileNode(child, captured);
      StateId e = NewState();
      AddEps(cur, f.start);
      AddEps(cur, e);
      AddEps(f.end, f.start);
      AddEps(f.end, e);
      return {s, e};
    }
    // Bounded tail: (max_rep - min_rep) optional copies; every copy boundary
    // can short-circuit to the end.
    StateId e = NewState();
    AddEps(cur, e);
    for (int i = min_rep; i < max_rep; ++i) {
      Fragment f = CompileNode(child, captured);
      AddEps(cur, f.start);
      AddEps(f.end, e);
      cur = f.end;
    }
    return {s, e};
  }

  // Standard ε-elimination: each state inherits the consuming transitions of
  // its ε-closure and is final if its closure contains the final state.
  // Afterwards, prunes states unreachable from the start or unable to reach
  // a final state.
  Fst EliminateEpsilon(StateId start, StateId final_state) {
    size_t n = consuming_.size();

    // ε-closures via iterative DFS.
    std::vector<std::vector<StateId>> closure(n);
    {
      size_t entries = 0;
      std::vector<uint8_t> seen(n, 0);
      std::vector<StateId> stack;
      for (StateId q = 0; q < n; ++q) {
        std::fill(seen.begin(), seen.end(), 0);
        stack.clear();
        stack.push_back(q);
        seen[q] = 1;
        while (!stack.empty()) {
          StateId u = stack.back();
          stack.pop_back();
          if (++entries > kMaxClosureEntries) {
            throw FstCompileError("pattern expands to too large ε-closures");
          }
          closure[q].push_back(u);
          for (StateId v : eps_[u]) {
            if (!seen[v]) {
              seen[v] = 1;
              stack.push_back(v);
            }
          }
        }
      }
    }

    std::vector<bool> is_final(n, false);
    std::vector<std::vector<Transition>> trans(n);
    for (StateId q = 0; q < n; ++q) {
      for (StateId c : closure[q]) {
        if (c == final_state) is_final[q] = true;
        for (Transition t : consuming_[c]) {
          t.from = q;
          trans[q].push_back(t);
        }
      }
      auto& ts = trans[q];
      std::sort(ts.begin(), ts.end(),
                [](const Transition& a, const Transition& b) {
                  return Key(a) < Key(b);
                });
      ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
    }

    // Forward reachability from start.
    std::vector<bool> fwd(n, false);
    {
      std::vector<StateId> stack = {start};
      fwd[start] = true;
      while (!stack.empty()) {
        StateId u = stack.back();
        stack.pop_back();
        for (const Transition& t : trans[u]) {
          if (!fwd[t.to]) {
            fwd[t.to] = true;
            stack.push_back(t.to);
          }
        }
      }
    }

    // Backward reachability to any final state.
    std::vector<bool> bwd(n, false);
    {
      std::vector<std::vector<StateId>> rev(n);
      for (StateId q = 0; q < n; ++q) {
        for (const Transition& t : trans[q]) rev[t.to].push_back(q);
      }
      std::vector<StateId> stack;
      for (StateId q = 0; q < n; ++q) {
        if (is_final[q]) {
          bwd[q] = true;
          stack.push_back(q);
        }
      }
      while (!stack.empty()) {
        StateId u = stack.back();
        stack.pop_back();
        for (StateId v : rev[u]) {
          if (!bwd[v]) {
            bwd[v] = true;
            stack.push_back(v);
          }
        }
      }
    }

    // Keep the start state always (an FST accepting nothing must still have
    // an initial state); keep other states only if on some accepting path.
    std::vector<StateId> remap(n, UINT32_MAX);
    StateId next_id = 0;
    for (StateId q = 0; q < n; ++q) {
      if (q == start || (fwd[q] && bwd[q])) remap[q] = next_id++;
    }

    std::vector<bool> new_final(next_id, false);
    std::vector<std::vector<Transition>> new_trans(next_id);
    for (StateId q = 0; q < n; ++q) {
      if (remap[q] == UINT32_MAX) continue;
      new_final[remap[q]] = is_final[q];
      for (Transition t : trans[q]) {
        if (remap[t.to] == UINT32_MAX || !bwd[t.to] || !fwd[q]) continue;
        t.from = remap[q];
        t.to = remap[t.to];
        new_trans[t.from].push_back(t);
      }
    }
    return Fst(remap[start], std::move(new_final), std::move(new_trans));
  }

  const Dictionary& dict_;
  std::vector<std::vector<Transition>> consuming_;
  std::vector<std::vector<StateId>> eps_;
};

}  // namespace

Fst CompileFst(const PatEx& pattern, const Dictionary& dict) {
  return Builder(dict).Compile(pattern);
}

Fst CompileFst(const std::string& pattern, const Dictionary& dict) {
  auto ast = ParsePatEx(pattern);
  return CompileFst(*ast, dict);
}

}  // namespace dseq
