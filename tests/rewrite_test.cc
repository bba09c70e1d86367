#include "src/dist/dseq_miner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/desq_dfs.h"
#include "src/core/pivot.h"
#include "src/dict/sequence.h"
#include "src/fst/compiler.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

constexpr char kPatternEx[] = ".*(A)[(.^).*]*(b).*";

// Reference rewriter: the trims of paper Sec. V-B computed one pivot at a
// time, walking the layers from both ends and testing every edge against
// the pivot DPs. RewriteDifferentialTest holds PivotRewriter to it.
class ReferenceRewriter {
 public:
  ReferenceRewriter(const Sequence& T, const StateGrid& grid)
      : T_(T), grid_(grid) {
    if (!grid.HasAcceptingRun()) return;
    fwd_ = ComputeForwardPivots(grid);
    bwd_ = ComputeBackwardPivots(grid);
    eps_accept_ = grid.ComputeEpsAcceptTable();
  }

  bool EdgeProducesPivot(size_t layer, const StateGrid::Edge& edge,
                         ItemId pivot) const {
    size_t ns = grid_.num_states();
    PivotSet through = fwd_[layer * ns + edge.from];
    if (through.IsEmpty()) return false;
    if (!edge.out.empty()) {
      through = PivotMerge(through, PivotSet::Items(edge.out));
    }
    through = PivotMerge(through, bwd_[(layer + 1) * ns + edge.to]);
    return std::binary_search(through.items.begin(), through.items.end(),
                              pivot);
  }

  Sequence Rewrite(ItemId pivot) const {
    size_t n = grid_.length();
    if (!grid_.HasAcceptingRun() || n == 0) return T_;
    size_t ns = grid_.num_states();
    StateId initial = grid_.initial_state();

    // Leading trim.
    size_t lead = 0;
    while (lead < n) {
      bool has_initial_self_loop = false;
      bool safe = true;
      for (const StateGrid::Edge& e : grid_.EdgesAt(lead)) {
        if (e.from == initial && e.to == initial && e.out.empty()) {
          has_initial_self_loop = true;
          continue;
        }
        if (EdgeProducesPivot(lead, e, pivot)) {
          safe = false;
          break;
        }
      }
      if (!safe || !has_initial_self_loop) break;
      ++lead;
    }

    // Trailing trim: keep T[lead..cut).
    size_t cut = n;
    while (cut > lead + 1) {
      size_t layer = cut - 1;
      bool safe = true;
      for (const StateGrid::Edge& e : grid_.EdgesAt(layer)) {
        bool final_self_loop =
            e.from == e.to && e.out.empty() && grid_.IsFinalState(e.from);
        if (!final_self_loop && EdgeProducesPivot(layer, e, pivot)) {
          safe = false;
          break;
        }
      }
      if (!safe) break;
      // Cut-layer acceptance check: a run of the trimmed sequence ends in any
      // forward-reachable final state at `layer`; its candidate is one of T's
      // only if T can finish from there without further output.
      for (StateId q = 0; q < ns && safe; ++q) {
        if (!grid_.IsFinalState(q) || !grid_.ForwardActive(layer, q)) continue;
        if (!grid_.Alive(layer, q) || !eps_accept_[layer * ns + q]) safe = false;
      }
      if (!safe) break;
      --cut;
    }

    if (lead == 0 && cut == n) return T_;
    return Sequence(T_.begin() + lead, T_.begin() + cut);
  }

 private:
  const Sequence& T_;
  const StateGrid& grid_;
  std::vector<PivotSet> fwd_;
  std::vector<PivotSet> bwd_;
  std::vector<uint8_t> eps_accept_;
};

TEST(RewriteTest, PaperExampleT2ForPivotA1) {
  // Paper Sec. V-B: for pivot a1, the two leading e's of T2 are irrelevant,
  // so ρa1(T2) = a1ea1eb.
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  GridOptions options;
  options.prune_sigma = 2;
  const Sequence& T2 = db.sequences[1];
  StateGrid grid = StateGrid::Build(T2, fst, db.dict, options);
  ASSERT_TRUE(grid.HasAcceptingRun());
  Sequence rewritten = PivotRewriter(T2, grid).Rewrite(db.dict.ItemByName("a1"));
  EXPECT_EQ(db.FormatSequence(rewritten), "a1 e a1 e b");
}

TEST(RewriteTest, NoTrimWhenEverythingRelevant) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  GridOptions options;
  options.prune_sigma = 2;
  const Sequence& T5 = db.sequences[4];  // a1 a1 b
  StateGrid grid = StateGrid::Build(T5, fst, db.dict, options);
  Sequence rewritten = PivotRewriter(T5, grid).Rewrite(db.dict.ItemByName("a1"));
  EXPECT_EQ(rewritten, T5);
}

TEST(RewriteTest, RewrittenNeverLongerThanInput) {
  SequenceDatabase db = testing::RandomDatabase(77, 8, 50, 10);
  Fst fst = CompileFst(".*(i0)[(.^).*]*(i1).*", db.dict);
  GridOptions options;
  options.prune_sigma = 2;
  for (const Sequence& T : db.sequences) {
    StateGrid grid = StateGrid::Build(T, fst, db.dict, options);
    if (!grid.HasAcceptingRun()) continue;
    PivotRewriter rewriter(T, grid);
    for (ItemId k : rewriter.pivots()) {
      Sequence rewritten = rewriter.Rewrite(k);
      EXPECT_LE(rewritten.size(), T.size());
      EXPECT_FALSE(rewritten.empty());
    }
  }
}

// Core soundness property (paper Sec. V-B): for every pivot k of T, mining
// ρk(T) restricted to pivot k produces exactly the pivot-k candidates of T.
class RewritePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(RewritePropertyTest, RewritePreservesPivotCandidates) {
  auto [seed, pattern] = GetParam();
  SequenceDatabase db = testing::RandomDatabase(seed + 500, 8, 40, 9);
  Fst fst = CompileFst(pattern, db.dict);
  for (uint64_t sigma : {1, 2}) {
    GridOptions options;
    options.prune_sigma = sigma;
    for (const Sequence& T : db.sequences) {
      StateGrid grid = StateGrid::Build(T, fst, db.dict, options);
      if (!grid.HasAcceptingRun()) continue;

      std::vector<Sequence> candidates;
      ASSERT_TRUE(EnumerateCandidates(grid, 1'000'000, &candidates));

      PivotRewriter rewriter(T, grid);
      for (ItemId k : rewriter.pivots()) {
        // Expected: pivot-k candidates of the original sequence.
        std::vector<Sequence> expected;
        for (const Sequence& s : candidates) {
          if (PivotItem(s) == k) expected.push_back(s);
        }
        std::sort(expected.begin(), expected.end());

        // Actual: pivot-k candidates of the rewritten sequence.
        Sequence rewritten = rewriter.Rewrite(k);
        StateGrid regrid = StateGrid::Build(rewritten, fst, db.dict, options);
        std::vector<Sequence> recand;
        ASSERT_TRUE(EnumerateCandidates(regrid, 1'000'000, &recand));
        std::vector<Sequence> actual;
        for (const Sequence& s : recand) {
          if (PivotItem(s) == k) actual.push_back(s);
        }
        std::sort(actual.begin(), actual.end());

        EXPECT_EQ(actual, expected)
            << "pattern=" << pattern << " sigma=" << sigma << " pivot=" << k
            << " T=" << db.FormatSequence(T)
            << " rewritten=" << db.FormatSequence(rewritten);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedRewrites, RewritePropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::ValuesIn(testing::PropertyPatterns())));

// Differential test: the per-grid trims equal the per-pivot layer scan for
// every pivot, for items that are not pivots (the default trim), and K(T)
// equals FindPivotItems. The extra patterns make the initial state final
// with an ε self-loop, so a non-pivot's lead runs off the end (lead == n).
class RewriteDifferentialTest
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(RewriteDifferentialTest, MatchesPerPivotScan) {
  auto [seed, pattern] = GetParam();
  SequenceDatabase db = testing::RandomDatabase(seed + 900, 8, 40, 9);
  Fst fst = CompileFst(pattern, db.dict);
  for (uint64_t sigma : {1, 2}) {
    GridOptions options;
    options.prune_sigma = sigma;
    for (const Sequence& T : db.sequences) {
      StateGrid grid = StateGrid::Build(T, fst, db.dict, options);
      PivotRewriter rewriter(T, grid);
      ReferenceRewriter reference(T, grid);
      ASSERT_EQ(rewriter.pivots(), FindPivotItems(grid));
      // Every item id plus one past the dictionary: pivots take their own
      // trim, everything else the default one.
      for (ItemId k = 1; k <= db.dict.size() + 1; ++k) {
        ASSERT_EQ(rewriter.Rewrite(k), reference.Rewrite(k))
            << "pattern=" << pattern << " sigma=" << sigma << " item=" << k
            << " T=" << db.FormatSequence(T);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedRewrites, RewriteDifferentialTest,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 4),
        ::testing::ValuesIn([] {
          std::vector<std::string> patterns = testing::PropertyPatterns();
          patterns.push_back(".*(i0)?.*");
          patterns.push_back(".*[(i1^)(.)]?.*");
          return patterns;
        }())));

// The lead == n path: with an initial state that is final and idles on every
// item, an item no run produces trims the whole sequence away, exactly as
// the per-pivot scan does.
TEST(RewriteTest, NonPivotLeadRunsOffTheEnd) {
  SequenceDatabase db = testing::RandomDatabase(901, 8, 40, 9);
  Fst fst = CompileFst(".*(i0)?.*", db.dict);
  GridOptions options;
  options.prune_sigma = 1;
  size_t emptied = 0;
  for (const Sequence& T : db.sequences) {
    StateGrid grid = StateGrid::Build(T, fst, db.dict, options);
    ASSERT_TRUE(grid.HasAcceptingRun());
    PivotRewriter rewriter(T, grid);
    ReferenceRewriter reference(T, grid);
    for (ItemId k = 1; k <= db.dict.size(); ++k) {
      if (std::binary_search(rewriter.pivots().begin(),
                             rewriter.pivots().end(), k)) {
        continue;
      }
      Sequence rewritten = rewriter.Rewrite(k);
      EXPECT_EQ(rewritten, reference.Rewrite(k));
      if (rewritten.empty()) ++emptied;
    }
  }
  EXPECT_GT(emptied, 0u);
}

}  // namespace
}  // namespace dseq
