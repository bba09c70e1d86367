#include "perfbench/layer_pass.h"

#include <algorithm>
#include <limits>
#include <map>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "src/core/candidates.h"
#include "src/core/desq_dfs.h"
#include "src/core/grid.h"
#include "src/core/pivot.h"
#include "src/dataflow/chained.h"
#include "src/dist/dcand_miner.h"
#include "src/dist/dseq_miner.h"
#include "src/fst/compiler.h"
#include "src/nfa/output_nfa.h"
#include "src/nfa/serializer.h"
#include "src/obs/trace.h"
#include "src/util/varint.h"

namespace perfbench {
namespace {

using dseq::ItemId;
using dseq::MiningResult;
using dseq::Sequence;
using dseq::StateGrid;

void AppendRecord(MapOutput* out, std::string_view key,
                  std::string_view value) {
  dseq::PutVarint(&out->bytes, key.size());
  out->bytes.append(key);
  dseq::PutVarint(&out->bytes, value.size());
  out->bytes.append(value);
}

void Append(MiningResult* out, MiningResult&& part) {
  out->insert(out->end(), std::make_move_iterator(part.begin()),
              std::make_move_iterator(part.end()));
}

// Map side shared by D-SEQ and D-CAND: the σ-pruned grid and K(T).
// Returns false when the sequence ships nothing.
bool GridAndPivots(const Sequence& T, const dseq::Fst& fst,
                   const dseq::Dictionary& dict,
                   const dseq::GridOptions& grid_options, StateGrid* grid,
                   Sequence* pivots, LayerCounts* counts) {
  {
    DSEQ_TRACE_SPAN("layer", "grid.build");
    *grid = StateGrid::Build(T, fst, dict, grid_options);
  }
  ++counts->sequences;
  if (!grid->HasAcceptingRun()) return false;
  ++counts->accepting;
  counts->grid_edges += grid->num_edges();
  {
    DSEQ_TRACE_SPAN("layer", "pivot.search");
    *pivots = dseq::FindPivotItems(*grid);
  }
  counts->pivots += pivots->size();
  return !pivots->empty();
}

MiningResult DSeqPass(const Job& job, const dseq::Fst& fst,
                      const dseq::SequenceDatabase& db,
                      const dseq::GridOptions& grid_options,
                      LayerCounts* counts, MapOutput* map_output) {
  std::map<ItemId, std::vector<Sequence>> partitions;
  StateGrid grid;
  Sequence pivots;
  std::vector<Sequence> rewritten;
  std::string value;
  for (const Sequence& T : db.sequences) {
    if (GridAndPivots(T, fst, db.dict, grid_options, &grid, &pivots,
                      counts)) {
      rewritten.clear();
      {
        DSEQ_TRACE_SPAN("layer", "rewrite");
        dseq::PivotRewriter rewriter(T, grid);
        for (ItemId k : pivots) rewritten.push_back(rewriter.Rewrite(k));
      }
      for (size_t i = 0; i < pivots.size(); ++i) {
        counts->rewrite_items_in += T.size();
        counts->rewrite_items_kept += rewritten[i].size();
        value.clear();
        dseq::PutSequence(&value, rewritten[i]);
        AppendRecord(map_output, dseq::EncodePivotKey(pivots[i]), value);
        partitions[pivots[i]].push_back(std::move(rewritten[i]));
      }
    }
    map_output->sequence_end.push_back(map_output->bytes.size());
  }

  MiningResult result;
  for (const auto& [pivot, sequences] : partitions) {
    DSEQ_TRACE_SPAN("layer", "dfs.partition");
    ++counts->partitions;
    std::vector<StateGrid> grids;
    {
      DSEQ_TRACE_SPAN("layer", "dfs.grid_rebuild");
      grids.reserve(sequences.size());
      for (const Sequence& s : sequences) {
        grids.push_back(StateGrid::Build(s, fst, db.dict, grid_options));
      }
    }
    dseq::DesqDfsOptions local;
    local.sigma = job.sigma;
    local.pivot = pivot;
    DSEQ_TRACE_SPAN("layer", "dfs.mine");
    Append(&result, dseq::MineDesqDfsGrids(grids, local));
  }
  return result;
}

MiningResult DCandPass(const Job& job, const dseq::Fst& fst,
                       const dseq::SequenceDatabase& db,
                       const dseq::GridOptions& grid_options,
                       LayerCounts* counts, MapOutput* map_output) {
  // Serialized NFAs per pivot partition, each prefixed with weight 1 as
  // the miner ships them.
  std::map<ItemId, std::vector<std::string>> partitions;
  StateGrid grid;
  Sequence pivots;
  std::vector<Sequence> output_sets;
  for (const Sequence& T : db.sequences) {
    if (GridAndPivots(T, fst, db.dict, grid_options, &grid, &pivots,
                      counts)) {
      // MineDCand's map side: every accepting run goes into the trie of
      // each pivot it can produce, then each trie is minimized.
      std::vector<dseq::OutputNfa> nfas(pivots.size());
      {
        DSEQ_TRACE_SPAN("layer", "nfa.build");
        dseq::ForEachAcceptingRun(
            grid, std::numeric_limits<uint64_t>::max(),
            [&](const std::vector<const StateGrid::Edge*>& run) {
              output_sets.clear();
              for (const StateGrid::Edge* e : run) {
                output_sets.push_back(e->out);
              }
              for (ItemId k : dseq::PivotsOfOutputSets(output_sets).items) {
                auto it = std::lower_bound(pivots.begin(), pivots.end(), k);
                nfas[it - pivots.begin()].AddRun(run, k);
              }
            });
        for (dseq::OutputNfa& nfa : nfas) {
          if (!nfa.empty()) nfa.Minimize();
        }
      }
      for (size_t i = 0; i < pivots.size(); ++i) {
        if (nfas[i].empty()) continue;
        counts->nfa_states += nfas[i].num_states();
        std::string value;
        dseq::PutVarint(&value, 1);
        {
          DSEQ_TRACE_SPAN("layer", "nfa.serialize");
          dseq::SerializeNfaTo(nfas[i], &value);
        }
        counts->nfa_bytes += value.size() - 1;
        AppendRecord(map_output, dseq::EncodePivotKey(pivots[i]), value);
        partitions[pivots[i]].push_back(std::move(value));
      }
    }
    map_output->sequence_end.push_back(map_output->bytes.size());
  }

  MiningResult result;
  for (const auto& [pivot, values] : partitions) {
    std::vector<dseq::OutputNfa> nfas;
    {
      DSEQ_TRACE_SPAN("layer", "nfa.deserialize");
      nfas.reserve(values.size());
      for (const std::string& v : values) {
        size_t pos = 1;  // past the varint weight 1
        nfas.push_back(dseq::DeserializeNfa(v, &pos));
      }
    }
    std::vector<uint64_t> weights(nfas.size(), 1);
    DSEQ_TRACE_SPAN("layer", "nfa.mine");
    Append(&result, dseq::MineNfas(nfas, weights, job.sigma, pivot));
  }
  return result;
}

MiningResult SemiNaivePass(const Job& job, const dseq::Fst& fst,
                           const dseq::SequenceDatabase& db,
                           const dseq::GridOptions& grid_options,
                           LayerCounts* counts, MapOutput* map_output) {
  std::unordered_map<std::string, uint64_t> support;
  StateGrid grid;
  std::vector<Sequence> candidates;
  std::string one;
  dseq::PutVarint(&one, 1);
  std::string key;
  for (const Sequence& T : db.sequences) {
    {
      DSEQ_TRACE_SPAN("layer", "grid.build");
      grid = StateGrid::Build(T, fst, db.dict, grid_options);
    }
    ++counts->sequences;
    if (grid.HasAcceptingRun()) {
      ++counts->accepting;
      counts->grid_edges += grid.num_edges();
      candidates.clear();
      {
        DSEQ_TRACE_SPAN("layer", "candidates.enum");
        dseq::EnumerateCandidates(grid, std::numeric_limits<size_t>::max(),
                                  &candidates);
      }
      counts->candidates += candidates.size();
      for (const Sequence& c : candidates) {
        key.clear();
        dseq::PutSequence(&key, c);
        AppendRecord(map_output, key, one);
        ++support[key];
      }
    }
    map_output->sequence_end.push_back(map_output->bytes.size());
  }

  MiningResult result;
  for (const auto& [k, count] : support) {
    if (count < job.sigma) continue;
    dseq::PatternCount pc;
    size_t pos = 0;
    dseq::GetSequence(k, &pos, &pc.pattern);
    pc.frequency = count;
    result.push_back(std::move(pc));
  }
  return result;
}

}  // namespace

PassOutcome RunLayerPass(Miner miner, const Job& job,
                         const dseq::SequenceDatabase& db,
                         LayerCounts* counts) {
  PassOutcome outcome;
  dseq::Fst fst;
  {
    DSEQ_TRACE_SPAN("layer", "fst.compile");
    fst = dseq::CompileFst(job.pattern, db.dict);
  }
  dseq::GridOptions grid_options;
  grid_options.prune_sigma = job.sigma;
  outcome.map_output.sequence_end.reserve(db.size());
  MiningResult result;
  switch (miner) {
    case Miner::kDSeq:
      result = DSeqPass(job, fst, db, grid_options, counts,
                        &outcome.map_output);
      break;
    case Miner::kDCand:
      result = DCandPass(job, fst, db, grid_options, counts,
                         &outcome.map_output);
      break;
    case Miner::kSemiNaive:
      result = SemiNaivePass(job, fst, db, grid_options, counts,
                             &outcome.map_output);
      break;
  }
  dseq::Canonicalize(&result);
  outcome.patterns = result.size();
  outcome.checksum = ResultChecksum(result);
  return outcome;
}

dseq::DataflowMetrics ReplayMapOutput(
    Miner miner, const MapOutput& output,
    const dseq::DistributedRunOptions& options) {
  dseq::MapFn replay = [&output](size_t index, const dseq::EmitFn& emit) {
    std::string_view bytes = output.bytes;
    size_t pos = index == 0 ? 0 : output.sequence_end[index - 1];
    const size_t end = output.sequence_end[index];
    while (pos < end) {
      uint64_t size = 0;
      dseq::GetVarint(bytes, &pos, &size);
      std::string_view key = bytes.substr(pos, size);
      pos += size;
      dseq::GetVarint(bytes, &pos, &size);
      emit(key, bytes.substr(pos, size));
      pos += size;
    }
  };
  dseq::CombinerFactory combiner;
  if (miner == Miner::kDCand) combiner = dseq::MakeWeightedValueCombiner;
  if (miner == Miner::kSemiNaive) combiner = dseq::MakeSumCombiner;
  dseq::ChainReduceFn consume = [](int, std::string_view,
                                   std::vector<std::string_view>&,
                                   const dseq::EmitFn&) {};
  dseq::DataflowJob job(dseq::MakeChainedOptions(options));
  return job.RunRound(output.sequence_end.size(), replay, combiner, consume);
}

}  // namespace perfbench
