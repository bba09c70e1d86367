#include "src/core/grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>

#include "src/core/candidates.h"
#include "src/core/pivot.h"
#include "src/datagen/market_baskets.h"
#include "src/datagen/text_corpus.h"
#include "src/dict/sequence.h"
#include "src/fst/compiler.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

constexpr char kPatternEx[] = ".*(A)[(.^).*]*(b).*";

// Number of accepting runs (capped at `max_runs`).
uint64_t CountAcceptingRuns(const StateGrid& grid, uint64_t max_runs) {
  uint64_t count = 0;
  ForEachAcceptingRun(grid, max_runs,
                      [&](const std::vector<const StateGrid::Edge*>&) {
                        ++count;
                      });
  return count;
}

// A grid edge as plain values, so grids compare edge by edge.
struct PlainEdge {
  StateId from;
  StateId to;
  Sequence out;

  bool operator==(const PlainEdge& o) const {
    return from == o.from && to == o.to && out == o.out;
  }
  bool operator<(const PlainEdge& o) const {
    return std::tie(from, to, out) < std::tie(o.from, o.to, o.out);
  }
};

std::ostream& operator<<(std::ostream& os, const PlainEdge& e) {
  os << e.from << "->" << e.to << " [";
  for (ItemId w : e.out) os << ' ' << w;
  return os << " ]";
}

using PlainLayers = std::vector<std::vector<PlainEdge>>;

PlainLayers LayersOf(const StateGrid& grid) {
  PlainLayers layers(grid.length());
  for (size_t i = 0; i < grid.length(); ++i) {
    for (const StateGrid::Edge& e : grid.EdgesAt(i)) {
      layers[i].push_back(PlainEdge{e.from, e.to, e.out});
    }
  }
  return layers;
}

// The grid's edges as a per-layer construction computes them, with one
// vector per layer and per output set: forward simulation, per-layer sort
// and dedupe by (from, to, out), backward prune to coordinates on an
// accepting run. An oracle for StateGrid::Build's flat layout.
PlainLayers ReferenceLayers(const Sequence& T, const Fst& fst,
                            const Dictionary& dict, uint64_t prune_sigma) {
  size_t n = T.size();
  size_t ns = fst.num_states();
  PlainLayers layers(n);
  if (ns == 0) return layers;
  std::vector<bool> active((n + 1) * ns, false);
  active[fst.initial()] = true;
  for (size_t i = 0; i < n; ++i) {
    for (StateId q = 0; q < ns; ++q) {
      if (!active[i * ns + q]) continue;
      for (const Transition& tr : fst.From(q)) {
        if (!fst.Matches(tr, T[i], dict)) continue;
        Sequence out;
        fst.ComputeOutput(tr, T[i], dict, &out);
        if (prune_sigma > 0 && !out.empty()) {
          Sequence kept;
          for (ItemId w : out) {
            if (dict.DocFrequency(w) >= prune_sigma) kept.push_back(w);
          }
          if (kept.empty() && tr.out_kind != OutputKind::kEpsilon) continue;
          out = kept;
        }
        active[(i + 1) * ns + tr.to] = true;
        layers[i].push_back(PlainEdge{q, tr.to, out});
      }
    }
    std::sort(layers[i].begin(), layers[i].end());
    layers[i].erase(std::unique(layers[i].begin(), layers[i].end()),
                    layers[i].end());
  }
  std::vector<bool> alive((n + 1) * ns, false);
  for (StateId q = 0; q < ns; ++q) {
    alive[n * ns + q] = active[n * ns + q] && fst.IsFinal(q);
  }
  for (size_t i = n; i-- > 0;) {
    std::vector<PlainEdge> kept;
    for (const PlainEdge& e : layers[i]) {
      if (!alive[(i + 1) * ns + e.to]) continue;
      kept.push_back(e);
      alive[i * ns + e.from] = true;
    }
    layers[i] = std::move(kept);
  }
  if (!alive[fst.initial()]) layers.assign(n, {});
  return layers;
}

// Asserts that `actual` holds exactly the coordinates and edges of
// `expected`, and that its output sets live in its own item pool.
void ExpectSameGrid(const StateGrid& actual, const StateGrid& expected) {
  ASSERT_EQ(actual.length(), expected.length());
  ASSERT_EQ(actual.num_states(), expected.num_states());
  EXPECT_EQ(actual.HasAcceptingRun(), expected.HasAcceptingRun());
  EXPECT_EQ(actual.initial_state(), expected.initial_state());
  EXPECT_EQ(actual.num_edges(), expected.num_edges());
  EXPECT_EQ(LayersOf(actual), LayersOf(expected));
  for (size_t i = 0; i <= actual.length(); ++i) {
    for (StateId q = 0; q < actual.num_states(); ++q) {
      EXPECT_EQ(actual.Alive(i, q), expected.Alive(i, q));
      EXPECT_EQ(actual.ForwardActive(i, q), expected.ForwardActive(i, q));
    }
  }
  for (size_t i = 0; i < actual.length(); ++i) {
    for (size_t k = 0; k < actual.EdgesAt(i).size(); ++k) {
      const ItemSpan& a = actual.EdgesAt(i)[k].out;
      if (!a.empty()) {
        EXPECT_NE(a.data(), expected.EdgesAt(i)[k].out.data());
      }
    }
  }
}

// Checks the flat layout: every layer strictly sorted by (from, to, out),
// so duplicate-free; EdgesFrom(pos, q) is exactly the slice of EdgesAt(pos)
// with from == q; num_edges() is the sum of the layer sizes; and the
// layers equal the per-layer reference construction. Returns the number of
// edges checked.
size_t ExpectFlatLayout(const Sequence& T, const Fst& fst,
                      const Dictionary& dict, uint64_t prune_sigma,
                      const std::string& context) {
  GridOptions options;
  options.prune_sigma = prune_sigma;
  StateGrid grid = StateGrid::Build(T, fst, dict, options);
  size_t total = 0;
  for (size_t pos = 0; pos < grid.length(); ++pos) {
    StateGrid::EdgeSpan layer = grid.EdgesAt(pos);
    total += layer.size();
    for (size_t k = 1; k < layer.size(); ++k) {
      PlainEdge prev{layer[k - 1].from, layer[k - 1].to, layer[k - 1].out};
      PlainEdge cur{layer[k].from, layer[k].to, layer[k].out};
      EXPECT_TRUE(prev < cur) << context << " layer " << pos << ": " << prev
                              << " before " << cur;
    }
    for (StateId q = 0; q < grid.num_states(); ++q) {
      std::vector<const StateGrid::Edge*> expected;
      for (const StateGrid::Edge& e : layer) {
        if (e.from == q) expected.push_back(&e);
      }
      StateGrid::EdgeSpan from = grid.EdgesFrom(pos, q);
      EXPECT_EQ(from.size(), expected.size())
          << context << " layer " << pos << " state " << q;
      if (from.size() != expected.size()) continue;
      for (size_t k = 0; k < from.size(); ++k) {
        EXPECT_EQ(&from[k], expected[k]) << context;
      }
    }
  }
  EXPECT_EQ(grid.num_edges(), total) << context;
  if (!grid.HasAcceptingRun()) {
    EXPECT_EQ(grid.num_edges(), 0u) << context;
  }
  EXPECT_EQ(LayersOf(grid), ReferenceLayers(T, fst, dict, prune_sigma))
      << context;
  return grid.num_edges();
}

// What capping `uncapped` at `cap` must leave, computed from the uncapped
// grid's layers: output items above the cap removed, a non-ε edge left
// empty dropped, each layer re-sorted and deduplicated (filtering can merge
// edges), then pruned to the edges of complete runs. Both directions
// matter: a dropped edge can strand coordinates it alone reached, as well
// as coordinates it alone connected to an accepting one.
struct CappedReference {
  PlainLayers layers;
  bool accepting = false;
  std::vector<uint8_t> alive;  // (length + 1) x num_states
};

CappedReference CapReference(const StateGrid& uncapped, ItemId cap) {
  size_t n = uncapped.length();
  size_t ns = uncapped.num_states();
  CappedReference ref;
  ref.layers = LayersOf(uncapped);
  for (std::vector<PlainEdge>& layer : ref.layers) {
    std::vector<PlainEdge> kept;
    for (PlainEdge e : layer) {
      bool was_epsilon = e.out.empty();
      e.out.erase(std::upper_bound(e.out.begin(), e.out.end(), cap),
                  e.out.end());
      if (!was_epsilon && e.out.empty()) continue;
      kept.push_back(std::move(e));
    }
    std::sort(kept.begin(), kept.end());
    kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
    layer = std::move(kept);
  }
  ref.alive.assign((n + 1) * ns, 0);
  if (!uncapped.HasAcceptingRun()) return ref;
  std::vector<uint8_t> reached((n + 1) * ns, 0);
  reached[uncapped.initial_state()] = 1;
  for (size_t i = 0; i < n; ++i) {
    std::vector<PlainEdge> kept;
    for (const PlainEdge& e : ref.layers[i]) {
      if (!reached[i * ns + e.from]) continue;
      reached[(i + 1) * ns + e.to] = 1;
      kept.push_back(e);
    }
    ref.layers[i] = std::move(kept);
  }
  for (StateId q = 0; q < ns; ++q) {
    ref.alive[n * ns + q] = reached[n * ns + q] && uncapped.IsFinalState(q);
  }
  for (size_t i = n; i-- > 0;) {
    std::vector<PlainEdge> kept;
    for (const PlainEdge& e : ref.layers[i]) {
      if (!ref.alive[(i + 1) * ns + e.to]) continue;
      ref.alive[i * ns + e.from] = 1;
      kept.push_back(e);
    }
    ref.layers[i] = std::move(kept);
  }
  ref.accepting = ref.alive[uncapped.initial_state()] != 0;
  if (!ref.accepting) {
    ref.layers.assign(n, {});
    std::fill(ref.alive.begin(), ref.alive.end(), 0);
  }
  return ref;
}

// Builds `T` with `options` capped at every pivot k ∈ K(T) and checks each
// capped grid against CapReference. Returns the number of caps checked.
size_t ExpectCapsMatchReference(const Sequence& T, const Fst& fst,
                                const Dictionary& dict,
                                const GridOptions& options,
                                const std::string& context) {
  StateGrid uncapped = StateGrid::Build(T, fst, dict, options);
  size_t checked = 0;
  for (ItemId k : FindPivotItems(uncapped)) {
    GridOptions capped_options = options;
    capped_options.max_output_item = k;
    StateGrid capped = StateGrid::Build(T, fst, dict, capped_options);
    CappedReference ref = CapReference(uncapped, k);
    std::string where = context + " cap " + std::to_string(k);
    // A pivot-k run produces only items <= k, so it survives the cap.
    EXPECT_TRUE(capped.HasAcceptingRun()) << where;
    EXPECT_EQ(capped.HasAcceptingRun(), ref.accepting) << where;
    EXPECT_EQ(LayersOf(capped), ref.layers) << where;
    EXPECT_LE(capped.num_edges(), uncapped.num_edges()) << where;
    for (size_t i = 0; i <= capped.length(); ++i) {
      for (StateId q = 0; q < capped.num_states(); ++q) {
        EXPECT_EQ(capped.Alive(i, q),
                  ref.alive[i * capped.num_states() + q] != 0)
            << where << " coordinate (" << i << ", " << q << ")";
      }
    }
    ++checked;
  }
  return checked;
}

TEST(GridTest, EmptyForNonMatchingSequence) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[2], fst, db.dict, {});
  EXPECT_FALSE(grid.HasAcceptingRun());
  EXPECT_EQ(grid.num_edges(), 0u);
}

TEST(GridTest, LayersMatchSequenceLength) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[1], fst, db.dict, {});
  EXPECT_TRUE(grid.HasAcceptingRun());
  EXPECT_EQ(grid.length(), 7u);
}

TEST(GridTest, InitialStateAliveWhenAccepting) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[0], fst, db.dict, {});
  EXPECT_TRUE(grid.Alive(0, grid.initial_state()));
}

TEST(GridTest, DeadEndsPruned) {
  SequenceDatabase db = MakeRunningExample();
  // Anchored pattern: on T1 = a1cdcb, taking (a1) at position 1 and then
  // failing later must not leave dead edges.
  Fst fst = CompileFst("(a1)(c)(d)(c)(b)", db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[0], fst, db.dict, {});
  ASSERT_TRUE(grid.HasAcceptingRun());
  // Exactly one run: every layer has exactly one edge.
  for (size_t i = 0; i < grid.length(); ++i) {
    EXPECT_EQ(grid.EdgesAt(i).size(), 1u) << "layer " << i;
  }
}

TEST(GridTest, SigmaPruningDropsInfrequentOutputs) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  // At sigma=2, items e and a2 are infrequent. T4 = a2 d b only generates
  // candidates containing a2, so the pruned grid must reject.
  GridOptions options;
  options.prune_sigma = 2;
  StateGrid grid = StateGrid::Build(db.sequences[3], fst, db.dict, options);
  EXPECT_FALSE(grid.HasAcceptingRun());
}

TEST(GridTest, SigmaPruningKeepsEpsilonEdges) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  GridOptions options;
  options.prune_sigma = 2;
  // T2 contains infrequent e's, but they are consumed by ε-output dots.
  StateGrid grid = StateGrid::Build(db.sequences[1], fst, db.dict, options);
  EXPECT_TRUE(grid.HasAcceptingRun());
  std::vector<Sequence> candidates;
  EXPECT_TRUE(EnumerateCandidates(grid, 1000, &candidates));
  EXPECT_EQ(candidates.size(), 3u);  // a1a1b, a1Ab, a1b
}

TEST(GridTest, ForwardActiveSupersetOfAlive) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[0], fst, db.dict, {});
  for (size_t i = 0; i <= grid.length(); ++i) {
    for (StateId q = 0; q < grid.num_states(); ++q) {
      if (grid.Alive(i, q)) EXPECT_TRUE(grid.ForwardActive(i, q));
    }
  }
}

TEST(GridTest, EpsAcceptTable) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[0], fst, db.dict, {});
  std::vector<uint8_t> eps = grid.ComputeEpsAcceptTable();
  size_t ns = grid.num_states();
  // Final coordinates are ε-accepting by definition.
  for (StateId q = 0; q < ns; ++q) {
    if (grid.Alive(grid.length(), q) && grid.IsFinalState(q)) {
      EXPECT_TRUE(eps[grid.length() * ns + q]);
    }
  }
  // The initial coordinate is not ε-accepting: producing a1...b requires
  // output.
  EXPECT_FALSE(eps[0 * ns + grid.initial_state()]);
}

TEST(GridTest, EmptySequence) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(".*", db.dict);
  StateGrid grid = StateGrid::Build({}, fst, db.dict, {});
  EXPECT_TRUE(grid.HasAcceptingRun());
  EXPECT_EQ(grid.length(), 0u);
}

TEST(GridTest, EdgesSortedByFromState) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[1], fst, db.dict, {});
  for (size_t i = 0; i < grid.length(); ++i) {
    const auto& edges = grid.EdgesAt(i);
    for (size_t e = 1; e < edges.size(); ++e) {
      EXPECT_LE(edges[e - 1].from, edges[e].from);
    }
  }
}

TEST(GridTest, OutputSetsSortedAscending) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[1], fst, db.dict, {});
  for (size_t i = 0; i < grid.length(); ++i) {
    for (const auto& edge : grid.EdgesAt(i)) {
      EXPECT_TRUE(std::is_sorted(edge.out.begin(), edge.out.end()));
    }
  }
}

TEST(CandidatesTest, BudgetRespected) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[1], fst, db.dict, {});
  std::vector<Sequence> candidates;
  EXPECT_FALSE(EnumerateCandidates(grid, 3, &candidates));
}

TEST(CandidatesTest, RunCounting) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  // T5 = a1 a1 b has exactly 3 accepting runs (paper Sec. IV).
  StateGrid grid = StateGrid::Build(db.sequences[4], fst, db.dict, {});
  EXPECT_EQ(CountAcceptingRuns(grid, 1000), 3u);
}

TEST(CandidatesTest, RunEnumerationYieldsFullRuns) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[4], fst, db.dict, {});
  ForEachAcceptingRun(grid, 1000,
                      [&](const std::vector<const StateGrid::Edge*>& run) {
                        EXPECT_EQ(run.size(), grid.length());
                      });
}

TEST(CandidatesTest, RunBudgetStopsEnumeration) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  StateGrid grid = StateGrid::Build(db.sequences[4], fst, db.dict, {});
  uint64_t seen = 0;
  bool complete = ForEachAcceptingRun(
      grid, 2, [&](const std::vector<const StateGrid::Edge*>&) { ++seen; });
  EXPECT_FALSE(complete);
  EXPECT_EQ(seen, 2u);
}

TEST(GridTest, CopiesAndMovesOutliveTheirSource) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  const Sequence& T = db.sequences[1];
  StateGrid fresh = StateGrid::Build(T, fst, db.dict, {});
  ASSERT_GT(fresh.num_edges(), 0u);
  auto build = [&] {
    return std::make_unique<StateGrid>(StateGrid::Build(T, fst, db.dict, {}));
  };

  auto source = build();
  StateGrid copied(*source);
  source.reset();
  ExpectSameGrid(copied, fresh);

  // Copy-assign over a grid that already holds another sequence's edges.
  source = build();
  StateGrid assigned = StateGrid::Build(db.sequences[0], fst, db.dict, {});
  assigned = *source;
  source.reset();
  ExpectSameGrid(assigned, fresh);

  StateGrid self = StateGrid::Build(T, fst, db.dict, {});
  const StateGrid& alias = self;
  self = alias;
  ExpectSameGrid(self, fresh);

  source = build();
  StateGrid moved(std::move(*source));
  source.reset();
  ExpectSameGrid(moved, fresh);

  source = build();
  StateGrid move_assigned;
  move_assigned = std::move(*source);
  source.reset();
  ExpectSameGrid(move_assigned, fresh);

  // A copy of a copy, after both ancestors are gone.
  auto middle = std::make_unique<StateGrid>(copied);
  StateGrid second(*middle);
  middle.reset();
  copied = StateGrid();
  ExpectSameGrid(second, fresh);
}

TEST(GridTest, FlatLayoutOnRunningExample) {
  SequenceDatabase db = MakeRunningExample();
  for (const char* pattern : {kPatternEx, "(a1)(c)(d)(c)(b)", ".*"}) {
    Fst fst = CompileFst(pattern, db.dict);
    for (uint64_t sigma : {0, 2}) {
      for (size_t s = 0; s < db.sequences.size(); ++s) {
        ExpectFlatLayout(db.sequences[s], fst, db.dict, sigma,
                         std::string(pattern) + " T" + std::to_string(s));
      }
    }
  }
}

class GridLayoutPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(GridLayoutPropertyTest, EdgesFromSlicesSortedLayers) {
  auto [seed, pattern] = GetParam();
  SequenceDatabase db = testing::RandomDatabase(seed + 300, 8, 30, 8);
  Fst fst = CompileFst(pattern, db.dict);
  size_t edges = 0;
  for (uint64_t sigma : {0, 2}) {
    for (size_t s = 0; s < db.sequences.size(); ++s) {
      edges += ExpectFlatLayout(db.sequences[s], fst, db.dict, sigma,
                                pattern + " sigma " + std::to_string(sigma) +
                                    " T" + std::to_string(s));
    }
  }
  EXPECT_GT(edges, 0u) << pattern;
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedGrids, GridLayoutPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::ValuesIn(testing::PropertyPatterns())));

class GridCapPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(GridCapPropertyTest, CappedGridIsUncappedGridFilteredAndPruned) {
  auto [seed, pattern] = GetParam();
  SequenceDatabase db = testing::RandomDatabase(seed + 300, 8, 30, 8);
  Fst fst = CompileFst(pattern, db.dict);
  size_t checked = 0;
  for (uint64_t sigma : {0, 2}) {
    GridOptions options;
    options.prune_sigma = sigma;
    for (size_t s = 0; s < db.sequences.size(); ++s) {
      checked += ExpectCapsMatchReference(
          db.sequences[s], fst, db.dict, options,
          pattern + " sigma " + std::to_string(sigma) + " T" +
              std::to_string(s));
    }
  }
  EXPECT_GT(checked, 0u) << pattern;
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedGrids, GridCapPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::ValuesIn(testing::PropertyPatterns())));

// A cap below every pivot of T leaves no candidate of T, so it must kill
// every accepting run; a cap at the largest pivot keeps the grid accepting.
TEST(GridTest, CapBelowEveryPivotKillsEveryRun) {
  TextCorpusOptions text;
  text.num_sentences = 150;
  text.lemmas_per_pos = 60;
  text.num_entities = 40;
  SequenceDatabase nyt = GenerateTextCorpus(text);
  Fst fst = CompileFst(".* (ENTITY^ VERB+ NOUN+? PREP? ENTITY^) .*", nyt.dict);
  size_t killed = 0;
  for (const Sequence& T : nyt.sequences) {
    StateGrid uncapped = StateGrid::Build(T, fst, nyt.dict, {});
    Sequence pivots = FindPivotItems(uncapped);
    if (pivots.empty() || pivots.front() < 2) continue;
    GridOptions below;
    below.max_output_item = pivots.front() - 1;
    StateGrid capped = StateGrid::Build(T, fst, nyt.dict, below);
    EXPECT_FALSE(capped.HasAcceptingRun());
    EXPECT_EQ(capped.num_edges(), 0u);
    EXPECT_EQ(LayersOf(capped),
              CapReference(uncapped, pivots.front() - 1).layers);
    GridOptions top;
    top.max_output_item = pivots.back();
    EXPECT_TRUE(StateGrid::Build(T, fst, nyt.dict, top).HasAcceptingRun());
    ++killed;
  }
  EXPECT_GT(killed, 0u);
}

// Build reuses a per-thread scratch. A long build, a short one and the long
// one again on one thread must each equal a build on a fresh thread, whose
// scratch starts empty: nothing a larger build left behind leaks into a
// smaller one.
TEST(GridTest, ScratchReuseMatchesFreshThreadBuilds) {
  SequenceDatabase db = testing::RandomDatabase(17, 8, 40, 8);
  Sequence long_seq;
  for (const Sequence& T : db.sequences) {
    long_seq.insert(long_seq.end(), T.begin(), T.end());
  }
  const Sequence& short_seq = db.sequences[0];
  ASSERT_GT(long_seq.size(), 4 * short_seq.size());
  auto on_fresh_thread = [](const Sequence& T, const Fst& fst,
                            const Dictionary& dict,
                            const GridOptions& options) {
    StateGrid grid;
    std::thread([&] { grid = StateGrid::Build(T, fst, dict, options); })
        .join();
    return grid;
  };
  for (const char* pattern :
       {".*(.^)[.{0,1}(.^)]{1,2}.*", ".*(i0)[(.^).*]*(i1).*", "(.)(.).*"}) {
    SCOPED_TRACE(pattern);
    Fst fst = CompileFst(pattern, db.dict);
    ASSERT_TRUE(StateGrid::Build(long_seq, fst, db.dict).HasAcceptingRun());
    GridOptions capped;
    capped.prune_sigma = 2;
    capped.max_output_item = 4;
    for (const GridOptions& options : {GridOptions{}, capped}) {
      StateGrid long_first = StateGrid::Build(long_seq, fst, db.dict, options);
      StateGrid short_after =
          StateGrid::Build(short_seq, fst, db.dict, options);
      StateGrid long_again = StateGrid::Build(long_seq, fst, db.dict, options);
      StateGrid long_fresh = on_fresh_thread(long_seq, fst, db.dict, options);
      ExpectSameGrid(long_first, long_fresh);
      ExpectSameGrid(short_after,
                     on_fresh_thread(short_seq, fst, db.dict, options));
      ExpectSameGrid(long_again, long_fresh);
    }
  }
}

// The paper's Tab. III constraints on small generated corpora: wide FSTs
// over DAG hierarchies, so output sets hold many items.
TEST(GridTest, FlatLayoutOnTableIIIConstraints) {
  TextCorpusOptions text;
  text.num_sentences = 150;
  text.lemmas_per_pos = 60;
  text.num_entities = 40;
  SequenceDatabase nyt = GenerateTextCorpus(text);
  MarketBasketOptions baskets;
  baskets.num_customers = 150;
  SequenceDatabase amzn = GenerateMarketBaskets(baskets);
  const std::pair<const SequenceDatabase*, const char*> cases[] = {
      {&nyt, ".* ENTITY (VERB+ NOUN+? PREP?) ENTITY .*"},
      {&nyt, ".* (ENTITY^ VERB+ NOUN+? PREP? ENTITY^) .*"},
      {&nyt, ".* (ENTITY^ be^=) DET? (ADV? ADJ? NOUN) .*"},
      {&nyt, ".* (.^){3} NOUN .*"},
      {&nyt, ".* ([.^. .]|[. .^.]|[. . .^]) .*"},
      {&amzn, ".*(Electr^)[.{0,2}(Electr^)]{1,4}.*"},
      {&amzn, ".*(Book)[.{0,2}(Book)]{1,4}.*"},
      {&amzn, ".*DigitalCamera[.{0,3}(.^)]{1,4}.*"},
      {&amzn, ".*(MusicInstr^)[.{0,2}(MusicInstr^)]{1,4}.*"},
  };
  for (const auto& [db, pattern] : cases) {
    Fst fst = CompileFst(pattern, db->dict);
    size_t edges = 0;
    for (uint64_t sigma : {0, 3}) {
      for (size_t s = 0; s < db->sequences.size(); ++s) {
        edges += ExpectFlatLayout(db->sequences[s], fst, db->dict, sigma,
                                  std::string(pattern) + " T" +
                                      std::to_string(s));
      }
    }
    EXPECT_GT(edges, 0u) << pattern;
  }
}

}  // namespace
}  // namespace dseq
