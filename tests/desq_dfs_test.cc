#include "src/core/desq_dfs.h"

#include <gtest/gtest.h>

#include <set>

#include "src/core/pivot.h"
#include "src/dict/sequence.h"
#include "src/fst/compiler.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

constexpr char kPatternEx[] = ".*(A)[(.^).*]*(b).*";

TEST(DesqDfsTest, RunningExampleGolden) {
  // Paper Sec. II: for πex and σ=2, the frequent subsequences are a1a1b and
  // a1Ab with frequency 2 and a1b with frequency 3.
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  DesqDfsOptions options;
  options.sigma = 2;
  MiningResult result = MineDesqDfs(db.sequences, fst, db.dict, options);

  ASSERT_EQ(result.size(), 3u) << testing::Format(result, db.dict);
  MiningResult expected = {
      {db.ParseSequence("a1 b"), 3},
      {db.ParseSequence("a1 a1 b"), 2},
      {db.ParseSequence("a1 A b"), 2},
  };
  Canonicalize(&expected);
  EXPECT_EQ(result, expected) << testing::Format(result, db.dict);
}

TEST(DesqDfsTest, SigmaOneFindsAllCandidates) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  DesqDfsOptions options;
  options.sigma = 1;
  MiningResult result = MineDesqDfs(db.sequences, fst, db.dict, options);
  MiningResult expected =
      testing::BruteForceMine(db.sequences, fst, db.dict, 1);
  EXPECT_EQ(result, expected);
}

TEST(DesqDfsTest, HighSigmaYieldsNothing) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  DesqDfsOptions options;
  options.sigma = 10;
  EXPECT_TRUE(MineDesqDfs(db.sequences, fst, db.dict, options).empty());
}

TEST(DesqDfsTest, PivotRestrictedMiningOnlyYieldsPivotSequences) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  ItemId a1 = db.dict.ItemByName("a1");

  DesqDfsOptions options;
  options.sigma = 2;
  options.pivot = a1;
  MiningResult result = MineDesqDfs(db.sequences, fst, db.dict, options);
  for (const PatternCount& pc : result) {
    EXPECT_EQ(PivotItem(pc.pattern), a1)
        << testing::Format({pc}, db.dict);
  }
  // All three frequent sequences have pivot a1.
  EXPECT_EQ(result.size(), 3u);
}

TEST(DesqDfsTest, PivotPartitionsUnionToFullResult) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  DesqDfsOptions full_options;
  full_options.sigma = 2;
  MiningResult full = MineDesqDfs(db.sequences, fst, db.dict, full_options);

  MiningResult stitched;
  for (ItemId k = 1; k <= db.dict.size(); ++k) {
    DesqDfsOptions options;
    options.sigma = 2;
    options.pivot = k;
    MiningResult part = MineDesqDfs(db.sequences, fst, db.dict, options);
    stitched.insert(stitched.end(), part.begin(), part.end());
  }
  Canonicalize(&stitched);
  EXPECT_EQ(stitched, full);
}

TEST(DesqDfsTest, EarlyStoppingDoesNotChangeResults) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  for (ItemId k = 1; k <= db.dict.size(); ++k) {
    DesqDfsOptions with;
    with.sigma = 2;
    with.pivot = k;
    with.early_stop = true;
    DesqDfsOptions without = with;
    without.early_stop = false;
    EXPECT_EQ(MineDesqDfs(db.sequences, fst, db.dict, with),
              MineDesqDfs(db.sequences, fst, db.dict, without))
        << "pivot " << k;
  }
}

TEST(DesqDfsTest, MemoryBudgetThrows) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  DesqDfsOptions options;
  options.sigma = 2;
  options.max_total_grid_edges = 1;
  EXPECT_THROW(MineDesqDfs(db.sequences, fst, db.dict, options),
               MiningBudgetError);
}

TEST(DesqDfsTest, MemoryBudgetBoundIsTotalGridEdges) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  GridOptions grid_options;
  grid_options.prune_sigma = 2;
  uint64_t total_edges = 0;
  for (const Sequence& T : db.sequences) {
    total_edges +=
        StateGrid::Build(T, fst, db.dict, grid_options).num_edges();
  }
  ASSERT_GT(total_edges, 1u);
  DesqDfsOptions options;
  options.sigma = 2;
  options.max_total_grid_edges = total_edges;
  EXPECT_NO_THROW(MineDesqDfs(db.sequences, fst, db.dict, options));
  options.max_total_grid_edges = total_edges - 1;
  EXPECT_THROW(MineDesqDfs(db.sequences, fst, db.dict, options),
               MiningBudgetError);
}

TEST(DesqDfsTest, EmptyDatabase) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  DesqDfsOptions options;
  options.sigma = 1;
  EXPECT_TRUE(MineDesqDfs({}, fst, db.dict, options).empty());
}

// Property: DESQ-DFS == brute force across random databases, patterns, and
// thresholds.
class DesqDfsPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(DesqDfsPropertyTest, MatchesBruteForce) {
  auto [seed, pattern] = GetParam();
  SequenceDatabase db = testing::RandomDatabase(seed + 100, 8, 40, 8);
  Fst fst = CompileFst(pattern, db.dict);
  for (uint64_t sigma : {1, 2, 3, 5}) {
    DesqDfsOptions options;
    options.sigma = sigma;
    MiningResult actual = MineDesqDfs(db.sequences, fst, db.dict, options);
    MiningResult expected =
        testing::BruteForceMine(db.sequences, fst, db.dict, sigma);
    EXPECT_EQ(actual, expected)
        << "pattern=" << pattern << " sigma=" << sigma << "\nactual:\n"
        << testing::Format(actual, db.dict) << "expected:\n"
        << testing::Format(expected, db.dict);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedDesqDfs, DesqDfsPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::ValuesIn(testing::PropertyPatterns())));

// Property: capping the grids at the pivot (what D-SEQ's reduce does)
// never changes what pivot-restricted DESQ-DFS mines, for every pivot k of
// every sequence, with and without early stopping.
class DesqDfsCapPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(DesqDfsCapPropertyTest, CappedGridsMineLikeUncapped) {
  auto [seed, pattern] = GetParam();
  SequenceDatabase db = testing::RandomDatabase(seed + 100, 8, 40, 8);
  Fst fst = CompileFst(pattern, db.dict);
  size_t patterns = 0;
  for (uint64_t sigma : {1, 2, 3}) {
    GridOptions options;
    options.prune_sigma = sigma;
    std::vector<StateGrid> uncapped;
    std::set<ItemId> pivots;
    for (const Sequence& T : db.sequences) {
      uncapped.push_back(StateGrid::Build(T, fst, db.dict, options));
      for (ItemId k : FindPivotItems(uncapped.back())) pivots.insert(k);
    }
    for (ItemId k : pivots) {
      GridOptions capped_options = options;
      capped_options.max_output_item = k;
      std::vector<StateGrid> capped;
      for (const Sequence& T : db.sequences) {
        capped.push_back(StateGrid::Build(T, fst, db.dict, capped_options));
      }
      for (bool early_stop : {true, false}) {
        DesqDfsOptions local;
        local.sigma = sigma;
        local.pivot = k;
        local.early_stop = early_stop;
        MiningResult expected = MineDesqDfsGrids(uncapped, local);
        MiningResult actual = MineDesqDfsGrids(capped, local);
        EXPECT_EQ(actual, expected)
            << "pattern=" << pattern << " sigma=" << sigma << " pivot=" << k
            << " early_stop=" << early_stop << "\nactual:\n"
            << testing::Format(actual, db.dict) << "expected:\n"
            << testing::Format(expected, db.dict);
        patterns += expected.size();
      }
    }
  }
  EXPECT_GT(patterns, 0u) << pattern;
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedDesqDfs, DesqDfsCapPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::ValuesIn(testing::PropertyPatterns())));

}  // namespace
}  // namespace dseq
