#include "src/nfa/output_nfa.h"

#include <gtest/gtest.h>

#include <random>

#include "src/core/candidates.h"
#include "src/core/mining.h"
#include "src/core/pivot.h"
#include "src/dict/sequence.h"
#include "src/fst/compiler.h"
#include "src/nfa/serializer.h"
#include "src/util/varint.h"
#include "tests/dcand_fixture.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

constexpr char kPatternEx[] = ".*(A)[(.^).*]*(b).*";

// Builds the per-pivot NFA trie for one sequence (the D-CAND map step).
OutputNfa BuildTrie(const SequenceDatabase& db, const Fst& fst,
                    const Sequence& T, ItemId pivot, uint64_t sigma) {
  GridOptions options;
  options.prune_sigma = sigma;
  StateGrid grid = StateGrid::Build(T, fst, db.dict, options);
  OutputNfa trie;
  ForEachAcceptingRun(grid, 1'000'000,
                      [&](const std::vector<const StateGrid::Edge*>& run) {
                        std::vector<Sequence> sets;
                        for (const auto* e : run) sets.push_back(e->out);
                        PivotSet pivots = PivotsOfOutputSets(sets);
                        if (std::binary_search(pivots.items.begin(),
                                               pivots.items.end(), pivot)) {
                          trie.AddRun(run, pivot);
                        }
                      });
  return trie;
}

// ρk(T) via candidate enumeration (oracle).
std::vector<Sequence> PivotCandidates(const SequenceDatabase& db,
                                      const Fst& fst, const Sequence& T,
                                      ItemId pivot, uint64_t sigma) {
  GridOptions options;
  options.prune_sigma = sigma;
  StateGrid grid = StateGrid::Build(T, fst, db.dict, options);
  std::vector<Sequence> all;
  EnumerateCandidates(grid, 1'000'000, &all);
  std::vector<Sequence> result;
  for (const Sequence& s : all) {
    if (PivotItem(s) == pivot) result.push_back(s);
  }
  return result;
}

TEST(OutputNfaTest, EmptyNfa) {
  OutputNfa nfa;
  EXPECT_TRUE(nfa.empty());
  EXPECT_EQ(nfa.num_states(), 1u);
  EXPECT_EQ(nfa.num_edges(), 0u);
}

// Paper Fig. 7: NFAs for ρc(T1). The trie has 13 vertices and 12 edges; the
// minimized NFA has 7 vertices and 10 edges.
TEST(OutputNfaTest, PaperFig7TrieShape) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  ItemId c = db.dict.ItemByName("c");
  OutputNfa trie = BuildTrie(db, fst, db.sequences[0], c, 2);
  EXPECT_EQ(trie.num_states(), 13u);
  EXPECT_EQ(trie.num_edges(), 12u);
}

TEST(OutputNfaTest, PaperFig7MinimizedShape) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  ItemId c = db.dict.ItemByName("c");
  OutputNfa trie = BuildTrie(db, fst, db.sequences[0], c, 2);
  std::vector<Sequence> before;
  ASSERT_TRUE(trie.Language(1000, &before));
  trie.Minimize();
  EXPECT_EQ(trie.num_states(), 7u);
  EXPECT_EQ(trie.num_edges(), 10u);
  std::vector<Sequence> after;
  ASSERT_TRUE(trie.Language(1000, &after));
  EXPECT_EQ(before, after);
}

TEST(OutputNfaTest, LanguageEqualsPivotCandidates) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  for (size_t i = 0; i < db.sequences.size(); ++i) {
    for (ItemId k = 1; k <= db.dict.size(); ++k) {
      OutputNfa trie = BuildTrie(db, fst, db.sequences[i], k, 2);
      std::vector<Sequence> language;
      ASSERT_TRUE(trie.Language(100000, &language));
      EXPECT_EQ(language, PivotCandidates(db, fst, db.sequences[i], k, 2))
          << "T" << (i + 1) << " pivot " << db.dict.Name(k);
    }
  }
}

TEST(OutputNfaTest, MinimizeIsIdempotent) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  ItemId c = db.dict.ItemByName("c");
  OutputNfa trie = BuildTrie(db, fst, db.sequences[0], c, 2);
  trie.Minimize();
  size_t states = trie.num_states();
  size_t edges = trie.num_edges();
  trie.Minimize();
  EXPECT_EQ(trie.num_states(), states);
  EXPECT_EQ(trie.num_edges(), edges);
}

TEST(OutputNfaTest, InsertionOrderInvariance) {
  // Equal run sets inserted in different orders minimize to identical
  // serializations (required for shuffle aggregation).
  std::vector<std::vector<Sequence>> runs = {
      {{1}, {2, 3}, {4}},
      {{1}, {2}, {4}},
      {{1}, {5}},
  };
  OutputNfa forward;
  for (const auto& r : runs) forward.AddLabelString(r);
  OutputNfa backward;
  for (auto it = runs.rbegin(); it != runs.rend(); ++it) {
    backward.AddLabelString(*it);
  }
  forward.Minimize();
  backward.Minimize();
  EXPECT_EQ(SerializeNfa(forward), SerializeNfa(backward));
}

TEST(SerializerTest, PaperFig8Example) {
  // NFA for ρa1(T5): root -{a1}-> s1; s1 -{a1,A}-> s2 -{b}-> s3(final);
  // s1 -{b}-> s3. The paper serializes 4 transitions.
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  ItemId a1 = db.dict.ItemByName("a1");
  OutputNfa trie = BuildTrie(db, fst, db.sequences[4], a1, 2);
  trie.Minimize();
  EXPECT_EQ(trie.num_states(), 4u);
  EXPECT_EQ(trie.num_edges(), 4u);

  std::string bytes = SerializeNfa(trie);
  OutputNfa parsed = DeserializeNfa(bytes);
  std::vector<Sequence> expected_lang;
  ASSERT_TRUE(trie.Language(1000, &expected_lang));
  std::vector<Sequence> parsed_lang;
  ASSERT_TRUE(parsed.Language(1000, &parsed_lang));
  EXPECT_EQ(parsed_lang, expected_lang);
  EXPECT_EQ(expected_lang.size(), 3u);  // a1a1b, a1Ab, a1b
}

TEST(SerializerTest, RoundTripPreservesLanguageAndShape) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  for (size_t i = 0; i < db.sequences.size(); ++i) {
    for (ItemId k = 1; k <= db.dict.size(); ++k) {
      OutputNfa trie = BuildTrie(db, fst, db.sequences[i], k, 2);
      if (trie.empty()) continue;
      trie.Minimize();
      std::string bytes = SerializeNfa(trie);
      OutputNfa parsed = DeserializeNfa(bytes);
      EXPECT_EQ(parsed.num_states(), trie.num_states());
      EXPECT_EQ(parsed.num_edges(), trie.num_edges());
      std::vector<Sequence> a;
      std::vector<Sequence> b;
      ASSERT_TRUE(trie.Language(100000, &a));
      ASSERT_TRUE(parsed.Language(100000, &b));
      EXPECT_EQ(a, b);
      // Canonical re-serialization is stable.
      parsed.Minimize();
      EXPECT_EQ(SerializeNfa(parsed), bytes);
    }
  }
}

TEST(SerializerTest, RandomTriesRoundTrip) {
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    OutputNfa trie;
    size_t num_runs = 1 + rng() % 8;
    for (size_t r = 0; r < num_runs; ++r) {
      std::vector<Sequence> label_string;
      size_t len = 1 + rng() % 5;
      for (size_t i = 0; i < len; ++i) {
        Sequence label;
        size_t ls = 1 + rng() % 3;
        for (size_t j = 0; j < ls; ++j) {
          label.push_back(static_cast<ItemId>(rng() % 20 + 1));
        }
        std::sort(label.begin(), label.end());
        label.erase(std::unique(label.begin(), label.end()), label.end());
        label_string.push_back(std::move(label));
      }
      trie.AddLabelString(label_string);
    }
    std::vector<Sequence> before;
    ASSERT_TRUE(trie.Language(1'000'000, &before));
    if (rng() % 2 == 0) {
      trie.Minimize();
    } else {
      trie.Canonicalize();
    }
    std::string bytes = SerializeNfa(trie);
    OutputNfa parsed = DeserializeNfa(bytes);
    std::vector<Sequence> after;
    ASSERT_TRUE(parsed.Language(1'000'000, &after));
    EXPECT_EQ(before, after) << "trial " << trial;
  }
}

TEST(SerializerTest, MalformedInputThrows) {
  EXPECT_THROW(DeserializeNfa("\xff\xff\xff"), NfaParseError);
  OutputNfa trie;
  trie.AddLabelString({{1}, {2}});
  trie.Canonicalize();
  std::string bytes = SerializeNfa(trie);
  bytes.pop_back();
  EXPECT_THROW(DeserializeNfa(bytes), NfaParseError);
  bytes = SerializeNfa(trie) + "x";
  EXPECT_THROW(DeserializeNfa(bytes), NfaParseError);
}

TEST(SerializerTest, NonPreorderStateIdsSerializeByVisitOrder) {
  // States numbered out of DFS order: state 3 is reached (via state 1)
  // before state 2. The serialization must name states by visit order, so
  // it parses back to the same automaton and re-serializes identically.
  OutputNfa nfa;
  nfa.AddEdge(0, {1}, 0, /*create_new=*/true, /*mark_final=*/false);  // s1
  nfa.AddEdge(0, {2}, 0, /*create_new=*/true, /*mark_final=*/false);  // s2
  nfa.AddEdge(1, {3}, 0, /*create_new=*/true, /*mark_final=*/true);   // s3
  nfa.AddEdge(2, {4}, 3, /*create_new=*/false, /*mark_final=*/false);
  std::string bytes = SerializeNfa(nfa);
  OutputNfa parsed = DeserializeNfa(bytes);
  std::vector<Sequence> want;
  std::vector<Sequence> got;
  ASSERT_TRUE(nfa.Language(100, &want));
  ASSERT_TRUE(parsed.Language(100, &got));
  EXPECT_EQ(got, want);
  EXPECT_EQ(want, (std::vector<Sequence>{{1, 3}, {2, 4}}));
  EXPECT_EQ(SerializeNfa(parsed), bytes);
}

TEST(SerializerTest, MinimizationShrinksSerialization) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  ItemId c = db.dict.ItemByName("c");
  OutputNfa trie = BuildTrie(db, fst, db.sequences[0], c, 2);
  OutputNfa minimized = trie;
  trie.Canonicalize();
  minimized.Minimize();
  EXPECT_LT(SerializeNfa(minimized).size(), SerializeNfa(trie).size());
}


// --- byte identity of the map step's pivot NFAs ------------------------------
//
// Shuffle aggregation and the paper's Fig. 10b byte counts depend on the
// exact serialized form of every pivot NFA, so these hashes are pinned: a
// change to the NFA layout, minimization or serializer must leave them
// unchanged.

struct PinnedHashes {
  uint64_t minimized = 1469598103934665603ULL;
  uint64_t tries = 1469598103934665603ULL;
  size_t nfas = 0;
};

PinnedHashes HashMicroCorpus() {
  SequenceDatabase db = testing::MicroTextCorpus();
  PinnedHashes hashes;
  for (const char* pattern : {testing::kPatternN4, testing::kPatternN5}) {
    Fst fst = CompileFst(pattern, db.dict);
    for (const Sequence& T : db.sequences) {
      std::vector<testing::PivotNfa> minimized =
          testing::ReferencePivotNfas(T, fst, db.dict, 10, true);
      hashes.minimized = testing::HashPivotNfas(minimized, hashes.minimized);
      hashes.tries = testing::HashPivotNfas(
          testing::ReferencePivotNfas(T, fst, db.dict, 10, false),
          hashes.tries);
      hashes.nfas += minimized.size();
    }
  }
  return hashes;
}

PinnedHashes HashPropertyPatterns() {
  PinnedHashes hashes;
  for (int seed : {1, 2, 3}) {
    SequenceDatabase db = testing::RandomDatabase(seed + 900, 8, 40, 8);
    for (const std::string& pattern : testing::PropertyPatterns()) {
      Fst fst = CompileFst(pattern, db.dict);
      for (const Sequence& T : db.sequences) {
        std::vector<testing::PivotNfa> minimized =
            testing::ReferencePivotNfas(T, fst, db.dict, 1, true);
        hashes.minimized =
            testing::HashPivotNfas(minimized, hashes.minimized);
        hashes.tries = testing::HashPivotNfas(
            testing::ReferencePivotNfas(T, fst, db.dict, 1, false),
            hashes.tries);
        hashes.nfas += minimized.size();
      }
    }
  }
  return hashes;
}

TEST(PivotNfaBytesTest, MicroCorpusHashesArePinned) {
  PinnedHashes hashes = HashMicroCorpus();
  EXPECT_EQ(hashes.nfas, 2364u);
  EXPECT_EQ(hashes.minimized, 0xc11ea7a4f3faea73ULL);
  EXPECT_EQ(hashes.tries, 0xae0c24aace046cdfULL);
}

TEST(PivotNfaBytesTest, PropertyPatternHashesArePinned) {
  PinnedHashes hashes = HashPropertyPatterns();
  EXPECT_EQ(hashes.nfas, 4536u);
  EXPECT_EQ(hashes.minimized, 0xe95c57d9e91ed829ULL);
  EXPECT_EQ(hashes.tries, 0x3b31a7505dea0f94ULL);
}

// Inserting a pivot's runs forward, reversed or shuffled yields the same
// bytes, minimized and as canonical tries.
TEST(PivotNfaBytesTest, RunInsertionOrderDoesNotChangeBytes) {
  std::mt19937_64 rng(17);
  size_t checked = 0;
  for (int seed : {1, 2, 3}) {
    SequenceDatabase db = testing::RandomDatabase(seed + 900, 8, 40, 8);
    for (const std::string& pattern : testing::PropertyPatterns()) {
      Fst fst = CompileFst(pattern, db.dict);
      GridOptions options;
      options.prune_sigma = 1;
      for (const Sequence& T : db.sequences) {
        StateGrid grid = StateGrid::Build(T, fst, db.dict, options);
        if (!grid.HasAcceptingRun()) continue;
        std::vector<std::vector<const StateGrid::Edge*>> runs;
        ForEachAcceptingRun(
            grid, 100'000,
            [&](const std::vector<const StateGrid::Edge*>& run) {
              runs.push_back(run);
            });
        for (ItemId k : FindPivotItems(grid)) {
          std::vector<std::vector<const StateGrid::Edge*>> mine;
          for (const auto& run : runs) {
            PivotSet pivots = PivotsOfRun(run);
            if (std::binary_search(pivots.items.begin(), pivots.items.end(),
                                   k)) {
              mine.push_back(run);
            }
          }
          auto bytes = [&](bool minimize) {
            OutputNfa nfa;
            for (const auto& run : mine) nfa.AddRun(run, k);
            if (minimize) {
              nfa.Minimize();
            } else {
              nfa.Canonicalize();
            }
            return SerializeNfa(nfa);
          };
          std::string forward_min = bytes(true);
          std::string forward_trie = bytes(false);
          std::reverse(mine.begin(), mine.end());
          EXPECT_EQ(bytes(true), forward_min);
          EXPECT_EQ(bytes(false), forward_trie);
          std::shuffle(mine.begin(), mine.end(), rng);
          EXPECT_EQ(bytes(true), forward_min);
          EXPECT_EQ(bytes(false), forward_trie);
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 100u);
}


// One builder reused through Clear() across a long, a short and a long NFA
// serializes each exactly as a fresh builder does, minimized and as a trie.
TEST(PivotNfaBytesTest, ReusedBuilderMatchesFreshOne) {
  std::mt19937_64 rng(5);
  auto random_strings = [&](size_t count) {
    std::vector<std::vector<Sequence>> strings;
    for (size_t r = 0; r < count; ++r) {
      std::vector<Sequence> labels(1 + rng() % 6);
      for (Sequence& label : labels) {
        for (size_t j = 0; j < 1 + rng() % 3; ++j) {
          label.push_back(static_cast<ItemId>(1 + rng() % 40));
        }
        std::sort(label.begin(), label.end());
        label.erase(std::unique(label.begin(), label.end()), label.end());
      }
      strings.push_back(std::move(labels));
    }
    return strings;
  };
  const std::vector<std::vector<std::vector<Sequence>>> inputs = {
      random_strings(300), random_strings(2), random_strings(250)};
  for (bool minimize : {true, false}) {
    OutputNfa reused;
    for (const auto& strings : inputs) {
      OutputNfa fresh;
      reused.Clear();
      for (const auto& labels : strings) {
        fresh.AddLabelString(labels);
        reused.AddLabelString(labels);
      }
      EXPECT_EQ(reused.num_states(), fresh.num_states());
      if (minimize) {
        fresh.Minimize();
        reused.Minimize();
      } else {
        fresh.Canonicalize();
        reused.Canonicalize();
      }
      EXPECT_EQ(SerializeNfa(reused), SerializeNfa(fresh))
          << strings.size() << " strings, minimize=" << minimize;
    }
  }
}

// --- the reduce-side arena ---------------------------------------------------

std::string WeightedRecord(uint64_t weight, const std::string& nfa_bytes) {
  std::string record;
  PutVarint(&record, weight);
  return record + nfa_bytes;
}

TEST(NfaPartitionTest, DecodesRecordsIntoOneArena) {
  OutputNfa a;
  a.AddLabelString({{1}, {2, 3}});
  a.AddLabelString({{1}, {4}});
  a.Minimize();
  OutputNfa b;
  b.AddLabelString({{5}});
  b.Minimize();
  NfaPartition partition;
  partition.AppendRecord(WeightedRecord(3, SerializeNfa(a)));
  partition.AppendRecord(WeightedRecord(1, SerializeNfa(b)));
  ASSERT_EQ(partition.size(), 2u);
  EXPECT_EQ(partition.Weight(0), 3u);
  EXPECT_EQ(partition.Weight(1), 1u);
  EXPECT_EQ(partition.Root(0), 0u);
  EXPECT_EQ(partition.Root(1), a.num_states());
  // NFA 1 is one edge {5} from its root to a final state.
  NfaPartition::EdgeSpan edges = partition.EdgesOf(partition.Root(1));
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(Sequence(partition.Label(edges[0])), (Sequence{5}));
  EXPECT_TRUE(partition.IsFinal(edges[0].target));
  // Each NFA copies back out byte-identically.
  EXPECT_EQ(SerializeNfa(partition.Extract(0)), SerializeNfa(a));
  EXPECT_EQ(SerializeNfa(partition.Extract(1)), SerializeNfa(b));
}

TEST(NfaPartitionTest, RejectedRecordLeavesEarlierNfasIntact) {
  OutputNfa a;
  a.AddLabelString({{1}, {2}});
  a.AddLabelString({{1}, {3}, {2}});
  a.Minimize();
  const std::string good = WeightedRecord(2, SerializeNfa(a));
  NfaPartition partition;
  partition.AppendRecord(good);
  const std::string expected = SerializeNfa(partition.Extract(0));
  // Every strict prefix, a zero weight and trailing bytes are rejected, and
  // leave the arena as it was.
  std::vector<std::string> bad = {WeightedRecord(0, SerializeNfa(a)),
                                  good + "x"};
  for (size_t len = 0; len < good.size(); ++len) {
    bad.push_back(good.substr(0, len));
  }
  for (const std::string& record : bad) {
    EXPECT_THROW(partition.AppendRecord(record), NfaParseError);
    ASSERT_EQ(partition.size(), 1u);
    EXPECT_EQ(SerializeNfa(partition.Extract(0)), expected);
  }
  partition.AppendRecord(good);
  ASSERT_EQ(partition.size(), 2u);
  EXPECT_EQ(partition.Root(1), a.num_states());
  EXPECT_EQ(SerializeNfa(partition.Extract(1)), expected);
}

TEST(NfaPartitionTest, CyclicNfaIsRejected) {
  // root -{1}-> s1 -{2}-> back to the root: acyclic NFAs never serialize
  // to this, and mining it would never end.
  std::string bytes;
  PutVarint(&bytes, 2);
  bytes.push_back(0x00);  // implicit source 0, fresh target s1
  PutVarint(&bytes, 1);
  PutVarint(&bytes, 1);
  bytes.push_back(0x02);  // implicit source s1, explicit target
  PutVarint(&bytes, 1);
  PutVarint(&bytes, 2);
  PutVarint(&bytes, 0);   // target: the root
  EXPECT_THROW(DeserializeNfa(bytes), NfaParseError);
  NfaPartition partition;
  EXPECT_THROW(partition.AppendRecord(WeightedRecord(1, bytes)),
               NfaParseError);
  EXPECT_EQ(partition.size(), 0u);
  // The same shape with a forward re-visit (a DAG) is accepted.
  std::string dag;
  PutVarint(&dag, 3);
  dag.push_back(0x04);  // root -{1}-> s1 (final)
  PutVarint(&dag, 1);
  PutVarint(&dag, 1);
  dag.push_back(0x03);  // explicit source root, explicit target s1
  PutVarint(&dag, 0);
  PutVarint(&dag, 1);
  PutVarint(&dag, 2);
  PutVarint(&dag, 1);
  dag.push_back(0x00);  // s1 -{3}-> s2
  PutVarint(&dag, 1);
  PutVarint(&dag, 3);
  OutputNfa parsed = DeserializeNfa(dag);
  EXPECT_EQ(parsed.num_states(), 3u);
  EXPECT_EQ(parsed.num_edges(), 3u);
}

}  // namespace
}  // namespace dseq
