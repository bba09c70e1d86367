// Fuzzes the pattern-expression front end: ParsePatEx → CompileFst against
// a small fixed dictionary → StateGrid::Build over one fixed sequence.
// Properties: a pattern ends in a grid or in one of the two typed errors,
// PatexParseError (malformed text, nesting past kMaxPatexNesting) and
// FstCompileError (unknown items, repetitions past the expansion bounds); any
// other exception escapes and is a finding. Every grid that accepts holds
// its pivots K(T), and capping the grid at any of them keeps it accepting
// (a pivot-k run produces only items <= k).
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "src/core/grid.h"
#include "src/core/pivot.h"
#include "src/dict/dictionary.h"
#include "src/fst/compiler.h"
#include "src/patex/parser.h"

namespace {

struct Fixture {
  dseq::Dictionary dict;
  dseq::Sequence sequence;
};

// Items for the paper's Tab. III constraints (text: ENTITY, VERB, ...;
// baskets: Electr, Book, ...) under a small hierarchy, and one sequence on
// which every Tab. III pattern has an accepting run.
const Fixture& GetFixture() {
  static const Fixture* fixture = [] {
    const std::pair<const char*, const char*> edges[] = {
        {"Obama", "ENTITY"},  {"Merkel", "ENTITY"}, {"Germany", "ENTITY"},
        {"is", "be"},         {"be", "VERB"},       {"met", "meet"},
        {"meet", "VERB"},     {"in", "PREP"},       {"a", "DET"},
        {"very", "ADV"},      {"big", "ADJ"},       {"city", "NOUN"},
        {"camera", "DigitalCamera"},                {"DigitalCamera", "Electr"},
        {"tv", "Electr"},     {"novel", "Book"},    {"guitar", "MusicInstr"},
    };
    dseq::DictionaryBuilder builder;
    for (const auto& [child, parent] : edges) {
      dseq::ItemId c = builder.GetOrAddItem(child);
      builder.AddParent(c, builder.GetOrAddItem(parent));
    }
    auto* f = new Fixture{builder.Build(), {}};
    for (const char* word :
         {"Obama", "is", "a", "very", "big", "city", "Merkel", "met", "Obama",
          "in", "Germany", "camera", "tv", "novel", "guitar", "novel",
          "camera", "guitar"}) {
      f->sequence.push_back(f->dict.ItemByName(word));
    }
    return f;
  }();
  return *fixture;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  const Fixture& f = GetFixture();
  std::string text(reinterpret_cast<const char*>(data), size);
  dseq::Fst fst;
  try {
    std::unique_ptr<dseq::PatEx> pattern = dseq::ParsePatEx(text);
    fst = dseq::CompileFst(*pattern, f.dict);
  } catch (const dseq::PatexParseError&) {
    return 0;
  } catch (const dseq::FstCompileError&) {
    return 0;
  }

  dseq::StateGrid grid = dseq::StateGrid::Build(f.sequence, fst, f.dict);
  if (grid.length() != f.sequence.size()) __builtin_trap();
  if (!grid.HasAcceptingRun()) {
    if (grid.num_edges() != 0) __builtin_trap();
    return 0;
  }
  for (dseq::ItemId k : dseq::FindPivotItems(grid)) {
    dseq::GridOptions capped;
    capped.max_output_item = k;
    dseq::StateGrid capped_grid =
        dseq::StateGrid::Build(f.sequence, fst, f.dict, capped);
    if (!capped_grid.HasAcceptingRun() ||
        capped_grid.num_edges() > grid.num_edges()) {
      __builtin_trap();
    }
  }
  return 0;
}
