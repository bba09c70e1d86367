#include "src/fst/dot_export.h"

namespace dseq {
namespace {

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string InputLabel(const Transition& tr, const Dictionary& dict) {
  switch (tr.in_kind) {
    case InputKind::kAny:
      return ".";
    case InputKind::kDescendants:
      return dict.Name(tr.in_item);
    case InputKind::kExact:
      return dict.Name(tr.in_item) + "=";
  }
  return "?";
}

std::string OutputLabel(const Transition& tr, const Dictionary& dict) {
  switch (tr.out_kind) {
    case OutputKind::kEpsilon:
      return "eps";
    case OutputKind::kSelf:
      return "self";
    case OutputKind::kAncestors:
      return "anc";
    case OutputKind::kAncestorsUpTo:
      return "anc<=" + dict.Name(tr.out_item);
    case OutputKind::kConstant:
      return dict.Name(tr.out_item);
  }
  return "?";
}

}  // namespace

std::string FstToDot(const Fst& fst, const Dictionary& dict) {
  std::string out = "digraph fst {\n  rankdir=LR;\n  node [shape=circle];\n";
  for (StateId q = 0; q < fst.num_states(); ++q) {
    out += "  q" + std::to_string(q);
    if (fst.IsFinal(q)) out += " [shape=doublecircle]";
    out += ";\n";
  }
  out += "  start [shape=none, label=\"\"];\n  start -> q" +
         std::to_string(fst.initial()) + ";\n";
  for (StateId q = 0; q < fst.num_states(); ++q) {
    for (const Transition& tr : fst.From(q)) {
      out += "  q" + std::to_string(tr.from) + " -> q" +
             std::to_string(tr.to) + " [label=\"" +
             Escape(InputLabel(tr, dict) + " / " + OutputLabel(tr, dict)) +
             "\"];\n";
    }
  }
  out += "}\n";
  return out;
}

std::string NfaToDot(const OutputNfa& nfa, const Dictionary& dict) {
  std::string out = "digraph nfa {\n  rankdir=LR;\n  node [shape=circle];\n";
  for (StateId q = 0; q < nfa.num_states(); ++q) {
    out += "  s" + std::to_string(q);
    if (nfa.IsFinal(q)) out += " [shape=doublecircle]";
    out += ";\n";
  }
  for (StateId q = 0; q < nfa.num_states(); ++q) {
    for (const OutputNfa::Edge& e : nfa.EdgesOf(q)) {
      std::string label = "{";
      ItemSpan items = nfa.Label(e.label);
      for (size_t i = 0; i < items.size(); ++i) {
        if (i > 0) label += ",";
        label += dict.Name(items[i]);
      }
      label += "}";
      out += "  s" + std::to_string(q) + " -> s" + std::to_string(e.target) +
             " [label=\"" + Escape(label) + "\"];\n";
    }
  }
  out += "}\n";
  return out;
}

}  // namespace dseq
