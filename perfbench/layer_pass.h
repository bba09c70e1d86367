// Single-threaded layer pass: one mining job re-run through the layers'
// public functions (grid, pivot search, rewriting, DESQ-DFS, candidate
// enumeration, output NFAs), each call wrapped in a benchmark-side
// `layer` span, so per-layer time is measured from outside the library.
#ifndef PERFBENCH_LAYER_PASS_H_
#define PERFBENCH_LAYER_PASS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/dataflow/engine.h"
#include "src/dict/sequence.h"
#include "src/dist/distributed.h"

namespace perfbench {

/// Work counts of the pass, summed over the jobs of a batch.
struct LayerCounts {
  uint64_t sequences = 0;   // grids built on the map side
  uint64_t accepting = 0;   // of which had an accepting run
  uint64_t grid_edges = 0;  // live edges of those grids
  uint64_t pivots = 0;
  uint64_t rewrite_items_in = 0;
  uint64_t rewrite_items_kept = 0;
  uint64_t partitions = 0;  // pivot partitions mined locally
  uint64_t candidates = 0;
  uint64_t nfa_states = 0;
  uint64_t nfa_bytes = 0;
};

/// The records the miner's map phase emits for each input sequence, in
/// emission order, framed as varint(key size) key varint(value size) value.
struct MapOutput {
  std::string bytes;
  std::vector<size_t> sequence_end;  // end offset of sequence i's records
};

struct PassOutcome {
  size_t patterns = 0;
  uint64_t checksum = 0;
  MapOutput map_output;
};

/// Runs `job` single-threaded through the layers `miner` uses. The spans
/// land in the obs trace sink when tracing is enabled.
PassOutcome RunLayerPass(Miner miner, const Job& job,
                         const dseq::SequenceDatabase& db,
                         LayerCounts* counts);

/// Replays recorded map output through one engine round with the miner's
/// combiner and a reduce that only consumes its key groups: the engine's
/// cost without the miners. Returns the round's metrics.
dseq::DataflowMetrics ReplayMapOutput(
    Miner miner, const MapOutput& output,
    const dseq::DistributedRunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_PASS_H_
