// Micro-benchmarks for the core components: grid construction, pivot
// search, the forward/backward pivot DPs, rewriting, NFA
// minimization/serialization, varint coding, D-SEQ's local mining and its
// whole partition reduce, D-CAND's map body, local mining and whole
// partition reduce, the map-side combiners (the zero-copy shuffle hot
// path), the shuffle block codec, and the external spill-run merger (the
// out-of-core reduce path).
//
// Self-contained harness — no google-benchmark dependency — so the binary
// always builds and CI can track regressions. Each benchmark runs batches
// until a minimum wall time and reports the median batch's ns/op (plus
// items/s where an op processes a batch), so one descheduled batch on a
// shared machine does not move the row.
//
// Usage: bench_micro_components [--json] [--tiny] [--min-time-ms N]
//   --json         machine-readable output (CI archives it as
//                  BENCH_micro.json, the perf trajectory of the repo)
//   --tiny         CI-sized corpus and batches (fast smoke run)
//   --min-time-ms  per-benchmark measuring time (default 200)
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/core/candidates.h"
#include "src/core/desq_dfs.h"
#include "src/core/grid.h"
#include "src/core/pivot.h"
#include "src/dataflow/engine.h"
#include "src/dataflow/shuffle_buffer.h"
#include "src/datagen/text_corpus.h"
#include "src/dist/dcand_miner.h"
#include "src/dist/dseq_miner.h"
#include "src/fst/compiler.h"
#include "src/nfa/output_nfa.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/nfa/serializer.h"
#include "src/spill/external_merger.h"
#include "src/spill/spill_file.h"
#include "src/util/block_codec.h"
#include "src/util/varint.h"

namespace dseq {
namespace {

struct Config {
  bool json = false;
  bool tiny = false;
  double min_time_s = 0.2;
};
Config g_config;

struct BenchRow {
  std::string name;
  uint64_t iterations = 0;
  double ns_per_op = 0.0;
  double items_per_sec = 0.0;  // 0 when an op has no natural item count
};

std::vector<BenchRow> g_rows;

double Now() {
  return std::chrono::duration<double>(obs::Now().time_since_epoch()).count();
}

// `items_per_op` > 0 reports throughput (an op processes that many items).
template <typename Fn>
void RunBench(const std::string& name, uint64_t items_per_op, const Fn& fn) {
  fn();  // warm-up (and first-call lazy initialization)
  uint64_t iterations = 0;
  double elapsed = 0.0;
  uint64_t batch = 1;
  std::vector<double> batch_ns_per_op;
  // At least one measured batch even with --min-time-ms 0, so ns_per_op is
  // never 0/0 and the JSON stays valid.
  do {
    double start = Now();
    for (uint64_t i = 0; i < batch; ++i) fn();
    double d = Now() - start;
    elapsed += d;
    iterations += batch;
    batch_ns_per_op.push_back(d / batch * 1e9);
    // Grow batches until one batch is ~1/10 of the budget, so timer
    // overhead stays negligible without overshooting the budget.
    if (d < g_config.min_time_s / 10) batch *= 2;
  } while (elapsed < g_config.min_time_s);
  auto median = batch_ns_per_op.begin() + batch_ns_per_op.size() / 2;
  std::nth_element(batch_ns_per_op.begin(), median, batch_ns_per_op.end());
  BenchRow row;
  row.name = name;
  row.iterations = iterations;
  row.ns_per_op = *median;
  if (items_per_op > 0) row.items_per_sec = items_per_op / (*median * 1e-9);
  g_rows.push_back(row);
  if (!g_config.json) {
    std::printf("%-28s %12.0f ns/op %10llu iters", row.name.c_str(),
                row.ns_per_op, (unsigned long long)row.iterations);
    if (row.items_per_sec > 0) {
      std::printf("  %12.0f items/s", row.items_per_sec);
    }
    std::printf("\n");
  }
}

// --- shared fixtures --------------------------------------------------------

const SequenceDatabase& Corpus() {
  static SequenceDatabase db = [] {
    TextCorpusOptions options;
    options.num_sentences = g_config.tiny ? 300 : 2'000;
    options.lemmas_per_pos = g_config.tiny ? 80 : 300;
    options.num_entities = g_config.tiny ? 40 : 200;
    return GenerateTextCorpus(options);
  }();
  return db;
}

const Fst& N4Fst() {
  static Fst fst = CompileFst(".* (.^){3} NOUN .*", Corpus().dict);
  return fst;
}

// Tab. III N5: three alternative generalized positions, so output sets are
// wide and a pivot cap drops many of their items.
const Fst& N5Fst() {
  static Fst fst =
      CompileFst(".* ([.^. .]|[. .^.]|[. . .^]) .*", Corpus().dict);
  return fst;
}

// Deterministic weighted-value records for the map+combine microbench: 64
// distinct pivot keys, payloads from a pool of 512 short serialized
// sequences, varint weight prefix. The workload of the D-SEQ aggregation
// extension and D-CAND's NFA merging.
std::vector<std::pair<std::string, std::string>> MakeWeightedRecords(
    size_t count) {
  std::mt19937_64 rng(42);
  std::vector<std::string> payloads;
  for (int p = 0; p < 512; ++p) {
    Sequence seq;
    size_t len = 4 + rng() % 12;
    for (size_t j = 0; j < len; ++j) {
      seq.push_back(static_cast<ItemId>(1 + rng() % 50'000));
    }
    std::string s;
    PutSequence(&s, seq);
    payloads.push_back(std::move(s));
  }
  std::vector<std::pair<std::string, std::string>> records;
  records.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string key;
    PutVarint(&key, 1 + rng() % 64);
    std::string value;
    PutVarint(&value, 1 + rng() % 4);
    value += payloads[rng() % payloads.size()];
    records.emplace_back(std::move(key), std::move(value));
  }
  return records;
}

// One map+combine round over `records` through the real engine (sink
// reduce), with `per_input` records per map call.
void RunCombineRound(
    const std::vector<std::pair<std::string, std::string>>& records,
    const CombinerFactory& factory, size_t per_input) {
  size_t num_inputs = records.size() / per_input;
  MapFn map_fn = [&](size_t i, const EmitFn& emit) {
    size_t begin = i * per_input;
    for (size_t r = begin; r < begin + per_input; ++r) {
      emit(records[r].first, records[r].second);
    }
  };
  ReduceFn sink = [](int, std::string_view, std::vector<std::string_view>&) {};
  DataflowOptions options;
  RunMapReduce(num_inputs, map_fn, factory, sink, options);
}

// --- benchmarks -------------------------------------------------------------

void BenchGridBuild() {
  const SequenceDatabase& db = Corpus();
  GridOptions options;
  options.prune_sigma = 10;
  size_t i = 0;
  RunBench("grid_build", 0, [&] {
    StateGrid grid = StateGrid::Build(db.sequences[i % db.size()], N4Fst(),
                                      db.dict, options);
    volatile size_t sink = grid.num_edges();
    (void)sink;
    ++i;
  });
}

std::vector<StateGrid> BuildGrids(size_t count, const Fst& fst = N4Fst()) {
  const SequenceDatabase& db = Corpus();
  GridOptions options;
  options.prune_sigma = 10;
  std::vector<StateGrid> grids;
  for (size_t i = 0; i < count && i < db.size(); ++i) {
    grids.push_back(
        StateGrid::Build(db.sequences[i], fst, db.dict, options));
  }
  return grids;
}

void BenchPivotSearch() {
  std::vector<StateGrid> grids = BuildGrids(64);
  size_t i = 0;
  RunBench("pivot_search", 0, [&] {
    Sequence pivots = FindPivotItems(grids[i % grids.size()]);
    volatile size_t sink = pivots.size();
    (void)sink;
    ++i;
  });
}

void BenchPivotDp() {
  // The forward+backward DP tables PivotRewriter precomputes — the
  // PivotSet-merge hot path of the D-SEQ map phase.
  std::vector<StateGrid> grids = BuildGrids(64);
  size_t i = 0;
  RunBench("pivot_dp_fwd_bwd", 0, [&] {
    const StateGrid& grid = grids[i % grids.size()];
    std::vector<PivotSet> fwd = ComputeForwardPivots(grid);
    std::vector<PivotSet> bwd = ComputeBackwardPivots(grid);
    volatile size_t sink = fwd.size() + bwd.size();
    (void)sink;
    ++i;
  });
}

void BenchRewrite() {
  const SequenceDatabase& db = Corpus();
  GridOptions options;
  options.prune_sigma = 10;
  size_t idx = 0;
  StateGrid grid;
  for (size_t i = 0; i < db.size(); ++i) {
    grid = StateGrid::Build(db.sequences[i], N4Fst(), db.dict, options);
    if (grid.HasAcceptingRun()) {
      idx = i;
      break;
    }
  }
  Sequence pivots = FindPivotItems(grid);
  if (pivots.empty()) return;
  RunBench("rewrite", 0, [&] {
    Sequence rewritten =
        PivotRewriter(db.sequences[idx], grid).Rewrite(pivots.front());
    volatile size_t sink = rewritten.size();
    (void)sink;
  });
}

void BenchRewriteAllPivots() {
  // The map step's per-sequence rewrite: one PivotRewriter and ρk(T) for
  // every pivot k of the sequence.
  const SequenceDatabase& db = Corpus();
  std::vector<StateGrid> grids = BuildGrids(64);
  size_t i = 0;
  RunBench("rewrite_all_pivots", 0, [&] {
    size_t g = i % grids.size();
    PivotRewriter rewriter(db.sequences[g], grids[g]);
    size_t kept = 0;
    for (ItemId k : rewriter.pivots()) kept += rewriter.Rewrite(k).size();
    volatile size_t sink = kept;
    (void)sink;
    ++i;
  });
}

void BenchNfaMinimizeAndSerialize() {
  const SequenceDatabase& db = Corpus();
  GridOptions options;
  options.prune_sigma = 10;
  OutputNfa prototype;
  for (const Sequence& T : db.sequences) {
    StateGrid grid = StateGrid::Build(T, N4Fst(), db.dict, options);
    if (!grid.HasAcceptingRun()) continue;
    Sequence pivots = FindPivotItems(grid);
    if (pivots.empty()) continue;
    ItemId pivot = pivots.back();
    ForEachAcceptingRun(grid, 10'000,
                        [&](const std::vector<const StateGrid::Edge*>& run) {
                          prototype.AddRun(run, pivot);
                        });
    if (prototype.num_states() > 16) break;
  }
  RunBench("nfa_minimize_serialize", 0, [&] {
    OutputNfa nfa = prototype;
    nfa.Minimize();
    std::string bytes = SerializeNfa(nfa);
    volatile size_t sink = bytes.size();
    (void)sink;
  });
}

void BenchNfaDeserialize() {
  OutputNfa trie;
  std::mt19937_64 rng(3);
  for (int r = 0; r < 30; ++r) {
    std::vector<Sequence> labels;
    for (int i = 0; i < 4; ++i) {
      labels.push_back({static_cast<ItemId>(rng() % 50 + 1)});
    }
    trie.AddLabelString(labels);
  }
  trie.Minimize();
  std::string bytes = SerializeNfa(trie);
  RunBench("nfa_deserialize", 0, [&] {
    OutputNfa nfa = DeserializeNfa(bytes);
    volatile size_t sink = nfa.num_states();
    (void)sink;
  });
}

void BenchVarintSequenceRoundTrip() {
  Sequence seq;
  std::mt19937_64 rng(5);
  for (int i = 0; i < 64; ++i) {
    seq.push_back(static_cast<ItemId>(rng() % 100'000 + 1));
  }
  RunBench("varint_sequence_roundtrip", 0, [&] {
    std::string buf;
    PutSequence(&buf, seq);
    Sequence decoded;
    size_t pos = 0;
    GetSequence(buf, &pos, &decoded);
    volatile size_t sink = decoded.size();
    (void)sink;
  });
}

void BenchCombiners() {
  // The acceptance microbench of the zero-copy shuffle path: 100k
  // weighted-value records through map + combine (arena-backed
  // open-addressing tables), reported as records/s.
  const size_t count = g_config.tiny ? 20'000 : 100'000;
  auto weighted = MakeWeightedRecords(count);
  RunBench("map_combine_weighted_" + std::to_string(count / 1000) + "k", count,
           [&] { RunCombineRound(weighted, MakeWeightedValueCombiner, 100); });

  // Word-count-style records for the sum combiner.
  std::mt19937_64 rng(7);
  std::vector<std::pair<std::string, std::string>> counts;
  counts.reserve(count);
  std::string one;
  PutVarint(&one, 1);
  for (size_t i = 0; i < count; ++i) {
    counts.emplace_back("w" + std::to_string(rng() % 2'000), one);
  }
  RunBench("map_combine_sum_" + std::to_string(count / 1000) + "k", count,
           [&] { RunCombineRound(counts, MakeSumCombiner, 100); });
}

void BenchBlockCodec() {
  // The exact byte layout the engine compresses: records framed through
  // ShuffleBuffer itself, so the measured bytes track the real shuffle
  // format if it ever changes.
  auto records = MakeWeightedRecords(g_config.tiny ? 2'000 : 10'000);
  ShuffleBuffer buffer;
  for (const auto& [key, value] : records) buffer.Append(key, value);
  std::string raw = buffer.ReleaseRaw();
  std::string block = CompressBlock(raw);
  RunBench("codec_compress", raw.size(), [&] {
    std::string compressed = CompressBlock(raw);
    volatile size_t sink = compressed.size();
    (void)sink;
  });
  RunBench("codec_decompress", raw.size(), [&] {
    std::string out;
    DecompressBlock(block, &out);
    volatile size_t sink = out.size();
    (void)sink;
  });
  if (!g_config.json) {
    std::printf("codec ratio on shuffle records: %zu -> %zu bytes (%.1f%%)\n",
                raw.size(), block.size(), 100.0 * block.size() / raw.size());
  }
}

void BenchExternalMerge() {
  // The out-of-core reduce path: k-way merge of 8 sorted spill runs back
  // into key groups (src/spill/external_merger.h), reported as records/s.
  // Runs are written once (the merge, not the spill, is the hot loop);
  // sources are recreated per op, so each op pays the real open/read cost.
  char templ[] = "/tmp/dseq_micro_spill_XXXXXX";
  char* dir = mkdtemp(templ);
  if (dir == nullptr) return;
  const size_t count = g_config.tiny ? 8'000 : 40'000;
  auto records = MakeWeightedRecords(count);
  std::sort(records.begin(), records.end());
  constexpr size_t kRuns = 8;
  std::vector<SpillFile> runs;
  for (size_t r = 0; r < kRuns; ++r) {
    SpillFile file = SpillFile::Create(dir);
    SpillWriter writer(&file, /*compress=*/false, nullptr);
    // Every 8th record into each run: all runs stay sorted and overlap.
    for (size_t i = r; i < records.size(); i += kRuns) {
      writer.Append(records[i].first, records[i].second);
    }
    writer.Finish();
    runs.push_back(std::move(file));
  }
  RunBench("external_merge_8runs", count, [&] {
    ExternalMergePlan plan("", /*compress=*/false, /*max_fan_in=*/16, nullptr);
    for (const SpillFile& run : runs) {
      plan.AddSource(
          std::make_unique<SpillRunSource>(run, /*compressed=*/false));
    }
    uint64_t groups = 0;
    plan.MergeGroups(
        [&](std::string_view, std::vector<std::string_view>&) { ++groups; });
    volatile uint64_t sink = groups;
    (void)sink;
  });
  runs.clear();  // unlink before removing the directory
  rmdir(dir);
}

void BenchDesqDfsSmall() {
  const SequenceDatabase& db = Corpus();
  RunBench("desq_dfs_small", 0, [&] {
    DesqDfsOptions options;
    options.sigma = 50;
    MiningResult result = MineDesqDfs(db.sequences, N4Fst(), db.dict, options);
    volatile size_t sink = result.size();
    (void)sink;
  });
}

// The pivot that most of `grids` can produce (kNoItem if none can).
ItemId MostCommonPivot(const std::vector<StateGrid>& grids) {
  std::map<ItemId, size_t> pivot_counts;
  for (const StateGrid& grid : grids) {
    for (ItemId k : FindPivotItems(grid)) ++pivot_counts[k];
  }
  if (pivot_counts.empty()) return kNoItem;
  return std::max_element(pivot_counts.begin(), pivot_counts.end(),
                          [](const auto& a, const auto& b) {
                            return a.second < b.second;
                          })
      ->first;
}

void BenchDfsMinePartition() {
  // D-SEQ's reduce-side local mining: pivot-restricted DESQ-DFS over the
  // 64 BuildGrids grids, with the pivot that most of them can produce.
  std::vector<StateGrid> grids = BuildGrids(64);
  DesqDfsOptions options;
  options.sigma = 2;
  options.pivot = MostCommonPivot(grids);
  if (options.pivot == kNoItem) return;
  RunBench("dfs_mine_partition", 0, [&] {
    MiningResult result = MineDesqDfsGrids(grids, options);
    volatile size_t sink = result.size();
    (void)sink;
  });
}

void BenchNfaMinePartition() {
  // D-CAND's reduce-side local mining: MineNfas over one partition's
  // minimized NFAs, one per BuildGrids sequence that can produce the pivot
  // chosen as for dfs_mine_partition, each holding the sequence's runs that
  // produce it (as D-CAND's map side builds them), in the NfaPartition
  // arena the reduce decodes them into.
  std::vector<StateGrid> grids = BuildGrids(64);
  ItemId pivot = MostCommonPivot(grids);
  if (pivot == kNoItem) return;
  NfaPartition partition;
  for (const StateGrid& grid : grids) {
    if (!grid.HasAcceptingRun()) continue;
    OutputNfa nfa;
    ForEachAcceptingRun(grid, 100'000,
                        [&](const std::vector<const StateGrid::Edge*>& run) {
                          PivotSet k = PivotsOfRun(run);
                          if (std::binary_search(k.items.begin(),
                                                 k.items.end(), pivot)) {
                            nfa.AddRun(run, pivot);
                          }
                        });
    if (nfa.empty()) continue;
    nfa.Minimize();
    partition.Append(nfa, 1);
  }
  RunBench("nfa_mine_partition", 0, [&] {
    MiningResult result = MineNfas(partition, 2, pivot);
    volatile size_t sink = result.size();
    (void)sink;
  });
}

void BenchDSeqReducePartition() {
  // One D-SEQ partition's whole reduce body (MineDSeqPartition): decode the
  // shuffled values, build their grids capped at the pivot, and mine them.
  // Under N5, whose wide output sets the cap trims, the partition holds
  // ρk(T) of each of the 64 BuildGrids sequences whose K(T) contains the
  // pivot most of them can produce, as the map side ships it. Grids are
  // σ-pruned at 10 as in BuildGrids and mined at σ = 2 as in
  // dfs_mine_partition.
  const SequenceDatabase& db = Corpus();
  std::vector<StateGrid> grids = BuildGrids(64, N5Fst());
  ItemId pivot = MostCommonPivot(grids);
  if (pivot == kNoItem) return;
  std::vector<std::string> shuffled;
  for (size_t i = 0; i < grids.size(); ++i) {
    if (!grids[i].HasAcceptingRun()) continue;
    PivotRewriter rewriter(db.sequences[i], grids[i]);
    const Sequence& pivots = rewriter.pivots();
    if (!std::binary_search(pivots.begin(), pivots.end(), pivot)) continue;
    std::string value;
    PutSequence(&value, rewriter.Rewrite(pivot));
    shuffled.push_back(std::move(value));
  }
  std::vector<std::string_view> values(shuffled.begin(), shuffled.end());
  DSeqOptions options;
  options.sigma = 10;
  RunBench("dseq_reduce_partition", values.size(), [&] {
    MiningResult result =
        MineDSeqPartition(values, pivot, 2, N5Fst(), db.dict, options);
    volatile size_t sink = result.size();
    (void)sink;
  });
}

// The N5 fixture's D-CAND map output: every (pivot key, weighted NFA)
// record MapDCandSequence emits for the 64 BuildGrids sequences, with the
// grids σ-pruned at 10 as in BuildGrids.
std::vector<std::pair<std::string, std::string>> DCandMapOutput(
    const DCandOptions& options) {
  const SequenceDatabase& db = Corpus();
  std::vector<std::pair<std::string, std::string>> records;
  for (size_t i = 0; i < 64 && i < db.size(); ++i) {
    MapDCandSequence(db.sequences[i], N5Fst(), db.dict, options,
                     [&](std::string_view key, std::string_view value) {
                       records.emplace_back(key, value);
                     });
  }
  return records;
}

void BenchDCandMapSequence() {
  // D-CAND's whole map body (MapDCandSequence) over the 64 BuildGrids
  // sequences under N5: grid, pivot search, run enumeration into one NFA
  // per pivot, minimization and serialization, reported as sequences/s.
  const SequenceDatabase& db = Corpus();
  const size_t count = std::min<size_t>(64, db.size());
  DCandOptions options;
  options.sigma = 10;
  RunBench("dcand_map_sequence", count, [&] {
    size_t bytes = 0;
    for (size_t i = 0; i < count; ++i) {
      MapDCandSequence(db.sequences[i], N5Fst(), db.dict, options,
                       [&](std::string_view, std::string_view value) {
                         bytes += value.size();
                       });
    }
    volatile size_t sink = bytes;
    (void)sink;
  });
}

void BenchDCandReducePartition() {
  // One D-CAND partition's whole reduce body (MineDCandPartition): decode
  // the shuffled weighted NFAs into the reducer's arena and mine them at
  // σ = 2. The partition holds the N5 fixture's NFAs for the pivot most of
  // its grids can produce, as the map side ships them.
  std::vector<StateGrid> grids = BuildGrids(64, N5Fst());
  ItemId pivot = MostCommonPivot(grids);
  if (pivot == kNoItem) return;
  DCandOptions options;
  options.sigma = 10;
  const std::string key = EncodePivotKey(pivot);
  std::vector<std::string> shuffled;
  for (auto& [k, value] : DCandMapOutput(options)) {
    if (k == key) shuffled.push_back(std::move(value));
  }
  std::vector<std::string_view> values(shuffled.begin(), shuffled.end());
  RunBench("dcand_reduce_partition", values.size(), [&] {
    MiningResult result = MineDCandPartition(values, pivot, 2);
    volatile size_t sink = result.size();
    (void)sink;
  });
}

void BenchTraceOverhead() {
  // The disabled-run cost of the instrumentation pattern (trace.h's
  // overhead doctrine): the same ~1µs workload measured bare and wrapped
  // in a DSEQ_TRACE_SPAN plus an Enabled()-gated histogram observation,
  // with tracing *off*. The CI trace job asserts the instrumented row
  // stays within 2% of the baseline.
  obs::SetEnabled(false);
  Sequence seq;
  std::mt19937_64 rng(11);
  for (int i = 0; i < 96; ++i) {
    seq.push_back(static_cast<ItemId>(rng() % 100'000 + 1));
  }
  auto workload = [&] {
    std::string buf;
    PutSequence(&buf, seq);
    Sequence decoded;
    size_t pos = 0;
    GetSequence(buf, &pos, &decoded);
    volatile size_t sink = decoded.size();
    (void)sink;
    return buf.size();
  };
  RunBench("trace_overhead_baseline", 0, [&] { workload(); });
  RunBench("trace_overhead_traced_off", 0, [&] {
    DSEQ_TRACE_SPAN("bench", "overhead_probe");
    size_t bytes = workload();
    static obs::Histogram& h = obs::GetHistogram("bench.overhead_bytes");
    if (obs::Enabled()) h.Observe(bytes);
  });
}

void PrintJson() {
  std::printf("{\n  \"benchmarks\": [\n");
  for (size_t i = 0; i < g_rows.size(); ++i) {
    const BenchRow& r = g_rows[i];
    std::printf("    {\"name\": \"%s\", \"iterations\": %llu, "
                "\"ns_per_op\": %.1f, \"items_per_sec\": %.1f}%s\n",
                r.name.c_str(), (unsigned long long)r.iterations, r.ns_per_op,
                r.items_per_sec, i + 1 < g_rows.size() ? "," : "");
  }
  std::printf("  ]\n}\n");
}

}  // namespace
}  // namespace dseq

int main(int argc, char** argv) {
  using namespace dseq;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      g_config.json = true;
    } else if (std::strcmp(argv[i], "--tiny") == 0) {
      g_config.tiny = true;
    } else if (std::strcmp(argv[i], "--min-time-ms") == 0 && i + 1 < argc) {
      g_config.min_time_s = std::atof(argv[++i]) / 1000.0;
    } else {
      std::fprintf(stderr,
                   "usage: bench_micro_components [--json] [--tiny] "
                   "[--min-time-ms N]\n");
      return 2;
    }
  }
  BenchGridBuild();
  BenchPivotSearch();
  BenchPivotDp();
  BenchRewrite();
  BenchRewriteAllPivots();
  BenchNfaMinimizeAndSerialize();
  BenchNfaDeserialize();
  BenchVarintSequenceRoundTrip();
  BenchCombiners();
  BenchBlockCodec();
  BenchExternalMerge();
  BenchDesqDfsSmall();
  BenchDfsMinePartition();
  BenchNfaMinePartition();
  BenchDSeqReducePartition();
  BenchDCandMapSequence();
  BenchDCandReducePartition();
  BenchTraceOverhead();
  if (g_config.json) PrintJson();
  return 0;
}
