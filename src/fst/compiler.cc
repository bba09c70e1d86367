#include "src/fst/compiler.h"

#include <algorithm>
#include <map>
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
    std::vector<uint32_t> cls(n);
    for (StateId q = 0; q < n; ++q) cls[q] = fst.IsFinal(q) ? 1 : 0;

    using Signature =
        std::vector<std::tuple<InputKind, ItemId, OutputKind, ItemId,
                               uint32_t>>;
    size_t num_classes = 0;  // refinement only splits; equal count = stable
    while (true) {
      std::map<std::pair<uint32_t, Signature>, uint32_t> next_ids;
      std::vector<uint32_t> next(n);
      for (StateId q = 0; q < n; ++q) {
        Signature sig;
        for (const Transition& t : fst.From(q)) {
          sig.emplace_back(t.in_kind, t.in_item, t.out_kind, t.out_item,
                           cls[t.to]);
        }
        std::sort(sig.begin(), sig.end());
        sig.erase(std::unique(sig.begin(), sig.end()), sig.end());
        auto key = std::make_pair(cls[q], std::move(sig));
        auto [it, inserted] =
            next_ids.emplace(std::move(key),
                             static_cast<uint32_t>(next_ids.size()));
        next[q] = it->second;
      }
      size_t count = next_ids.size();
      cls = std::move(next);
      if (count == num_classes) break;
      num_classes = count;
    }

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
