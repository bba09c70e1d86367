#include "src/dist/dcand_miner.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/desq_dfs.h"
#include "src/dict/sequence.h"
#include "src/fst/compiler.h"
#include "src/nfa/serializer.h"
#include "src/util/varint.h"
#include "tests/dcand_fixture.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

constexpr char kPatternEx[] = ".*(A)[(.^).*]*(b).*";

TEST(DCandTest, RunningExampleGolden) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  DCandOptions options;
  options.sigma = 2;
  DistributedResult result = MineDCand(db.sequences, fst, db.dict, options);
  MiningResult expected = {
      {db.ParseSequence("a1 b"), 3},
      {db.ParseSequence("a1 a1 b"), 2},
      {db.ParseSequence("a1 A b"), 2},
  };
  Canonicalize(&expected);
  EXPECT_EQ(result.patterns, expected)
      << testing::Format(result.patterns, db.dict);
}

TEST(DCandTest, AggregationReducesShuffleRecords) {
  // Many identical sequences produce identical NFAs that the combiner must
  // aggregate into weighted NFAs.
  SequenceDatabase db = MakeRunningExample();
  std::vector<Sequence> repeated;
  for (int i = 0; i < 50; ++i) repeated.push_back(db.sequences[4]);
  Fst fst = CompileFst(kPatternEx, db.dict);

  DCandOptions with;
  with.sigma = 2;
  DCandOptions without = with;
  without.aggregate_nfas = false;
  DistributedResult r1 = MineDCand(repeated, fst, db.dict, with);
  DistributedResult r2 = MineDCand(repeated, fst, db.dict, without);
  EXPECT_EQ(r1.patterns, r2.patterns);
  EXPECT_LT(r1.metrics.shuffle_records, r2.metrics.shuffle_records);
  EXPECT_LT(r1.metrics.shuffle_bytes, r2.metrics.shuffle_bytes);
  EXPECT_EQ(r1.metrics.shuffle_records, 1u);  // one weighted NFA for P_a1
}

TEST(DCandTest, MinimizationReducesShuffleBytes) {
  SequenceDatabase db = MakeRunningExample();
  std::vector<Sequence> repeated;
  for (int i = 0; i < 10; ++i) repeated.push_back(db.sequences[0]);
  Fst fst = CompileFst(kPatternEx, db.dict);

  DCandOptions with;
  with.sigma = 2;
  with.aggregate_nfas = false;
  DCandOptions without = with;
  without.minimize_nfas = false;
  DistributedResult r1 = MineDCand(repeated, fst, db.dict, with);
  DistributedResult r2 = MineDCand(repeated, fst, db.dict, without);
  EXPECT_EQ(r1.patterns, r2.patterns);
  EXPECT_LT(r1.metrics.shuffle_bytes, r2.metrics.shuffle_bytes);
}

TEST(DCandTest, RunBudgetProducesOom) {
  SequenceDatabase db = MakeRunningExample();
  Fst fst = CompileFst(kPatternEx, db.dict);
  DCandOptions options;
  options.sigma = 2;
  options.max_runs_per_sequence = 1;
  EXPECT_THROW(MineDCand(db.sequences, fst, db.dict, options),
               MiningBudgetError);
}

TEST(MineNfasTest, WeightsSumAcrossNfas) {
  // Two weighted NFAs accepting {x}: support = sum of weights.
  OutputNfa a;
  a.AddLabelString({{5}});
  a.Canonicalize();
  OutputNfa b;
  b.AddLabelString({{5}, {3}});
  b.AddLabelString({{5}});
  b.Canonicalize();
  MiningResult result = MineNfas({a, b}, {3, 4}, /*sigma=*/5, /*pivot=*/5);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].pattern, (Sequence{5}));
  EXPECT_EQ(result[0].frequency, 7u);
}

TEST(MineNfasTest, NonPivotSequencesNotOutput) {
  OutputNfa a;
  a.AddLabelString({{2}, {5}});
  a.AddLabelString({{2}});
  a.Canonicalize();
  // Sequence {2} has pivot 2, not 5; must not be reported by partition 5.
  MiningResult result = MineNfas({a, a}, {1, 1}, 2, 5);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].pattern, (Sequence{2, 5}));
}

TEST(MineNfasTest, CandidateCountedOncePerNfa) {
  // An NFA accepting {x} along two paths still contributes its weight once.
  OutputNfa a;
  a.AddLabelString({{4, 5}});  // label set {4,5}: accepts "4" and "5"
  a.AddLabelString({{5}});
  a.Canonicalize();
  MiningResult result = MineNfas({a}, {2}, 1, 5);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].pattern, (Sequence{5}));
  EXPECT_EQ(result[0].frequency, 2u);
}

// --- the map and reduce bodies -----------------------------------------------

struct FixtureJob {
  const SequenceDatabase* db;
  std::string pattern;
  uint64_t sigma;
};

// The micro text corpus under N4 and N5 at σ = 10, and PropertyPatterns
// over three random databases at σ = 1: the corpora the pivot NFA bytes
// are pinned over in nfa_test.
template <typename Fn>
void ForEachFixtureJob(const Fn& fn) {
  SequenceDatabase text = testing::MicroTextCorpus();
  for (const char* pattern : {testing::kPatternN4, testing::kPatternN5}) {
    fn(FixtureJob{&text, pattern, 10});
  }
  for (int seed : {1, 2, 3}) {
    SequenceDatabase db = testing::RandomDatabase(seed + 900, 8, 40, 8);
    for (const std::string& pattern : testing::PropertyPatterns()) {
      fn(FixtureJob{&db, pattern, 1});
    }
  }
}

// Runs the map body over every sequence on this thread, so its per-pivot
// NFAs are reused across sequences of every size.
std::vector<std::pair<std::string, std::string>> MapAll(
    const FixtureJob& job, const Fst& fst, const DCandOptions& options) {
  std::vector<std::pair<std::string, std::string>> emitted;
  for (const Sequence& T : job.db->sequences) {
    MapDCandSequence(T, fst, job.db->dict, options,
                     [&](std::string_view key, std::string_view value) {
                       emitted.emplace_back(std::string(key),
                                            std::string(value));
                     });
  }
  return emitted;
}

TEST(DCandMapTest, EmitsTheReferencePivotNfas) {
  size_t checked = 0;
  ForEachFixtureJob([&](const FixtureJob& job) {
    Fst fst = CompileFst(job.pattern, job.db->dict);
    for (bool minimize : {true, false}) {
      DCandOptions options;
      options.sigma = job.sigma;
      options.minimize_nfas = minimize;
      std::vector<std::pair<std::string, std::string>> want;
      for (const Sequence& T : job.db->sequences) {
        for (const testing::PivotNfa& nfa : testing::ReferencePivotNfas(
                 T, fst, job.db->dict, job.sigma, minimize)) {
          std::string value;
          PutVarint(&value, 1);
          want.emplace_back(EncodePivotKey(nfa.pivot), value + nfa.bytes);
        }
      }
      EXPECT_EQ(MapAll(job, fst, options), want)
          << job.pattern << " minimize=" << minimize;
      checked += want.size();
    }
  });
  EXPECT_GT(checked, 10'000u);
}

TEST(DCandReduceTest, PartitionMiningEqualsMineNfasOverDeserializedNfas) {
  size_t partitions = 0;
  ForEachFixtureJob([&](const FixtureJob& job) {
    Fst fst = CompileFst(job.pattern, job.db->dict);
    DCandOptions options;
    options.sigma = job.sigma;
    // Group the map output by pivot, re-weighting records 1, 2, 3, ... so
    // weights above 1 reach the reduce as after shuffle aggregation.
    std::map<ItemId, std::vector<std::string>> groups;
    uint64_t weight = 0;
    for (const auto& [key, value] : MapAll(job, fst, options)) {
      std::string record;
      PutVarint(&record, 1 + weight++ % 3);
      record.append(value, 1, std::string::npos);  // past weight 1
      groups[DecodePivotKey(key)].push_back(std::move(record));
    }
    for (uint64_t sigma : {uint64_t{1}, uint64_t{2}, job.sigma}) {
      for (const auto& [pivot, records] : groups) {
        std::vector<std::string_view> values(records.begin(), records.end());
        std::vector<OutputNfa> nfas;
        std::vector<uint64_t> weights;
        for (std::string_view v : values) {
          size_t pos = 0;
          uint64_t w = 0;
          ASSERT_TRUE(GetVarint(v, &pos, &w));
          weights.push_back(w);
          nfas.push_back(DeserializeNfa(v.substr(pos)));
        }
        EXPECT_EQ(MineDCandPartition(values, pivot, sigma),
                  MineNfas(nfas, weights, sigma, pivot))
            << job.pattern << " pivot " << pivot << " sigma " << sigma;
        ++partitions;
      }
    }
  });
  EXPECT_GT(partitions, 1'000u);
}

TEST(DCandReduceTest, MalformedRecordThrowsAndArenaStaysUsable) {
  OutputNfa nfa;
  nfa.AddLabelString({{2}, {5}});
  nfa.Minimize();
  std::string good;
  PutVarint(&good, 2);
  good += SerializeNfa(nfa);
  std::string truncated = good.substr(0, good.size() - 1);
  std::vector<std::string_view> bad = {good, truncated};
  EXPECT_THROW(MineDCandPartition(bad, 5, 1), NfaParseError);
  std::vector<std::string_view> values = {good, good};
  MiningResult result = MineDCandPartition(values, 5, 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].pattern, (Sequence{2, 5}));
  EXPECT_EQ(result[0].frequency, 4u);
}

class DCandPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(DCandPropertyTest, MatchesDesqDfs) {
  auto [seed, pattern] = GetParam();
  SequenceDatabase db = testing::RandomDatabase(seed + 900, 8, 40, 8);
  Fst fst = CompileFst(pattern, db.dict);
  for (uint64_t sigma : {1, 2, 4}) {
    DesqDfsOptions seq_options;
    seq_options.sigma = sigma;
    MiningResult expected =
        MineDesqDfs(db.sequences, fst, db.dict, seq_options);

    for (bool minimize : {false, true}) {
      for (bool aggregate : {false, true}) {
        DCandOptions options;
        options.sigma = sigma;
        options.minimize_nfas = minimize;
        options.aggregate_nfas = aggregate;
        options.num_map_workers = 2;
        options.num_reduce_workers = 2;
        DistributedResult actual =
            MineDCand(db.sequences, fst, db.dict, options);
        EXPECT_EQ(actual.patterns, expected)
            << "pattern=" << pattern << " sigma=" << sigma
            << " minimize=" << minimize << " aggregate=" << aggregate;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedDCand, DCandPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::ValuesIn(testing::PropertyPatterns())));

}  // namespace
}  // namespace dseq
