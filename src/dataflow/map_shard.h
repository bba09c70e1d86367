// The per-worker bodies of the dataflow engine, extracted so the local
// (in-process) backend and the proc backend's worker processes run the
// *same* code on both sides of the shuffle, which is what makes the proc
// backend's results and raw shuffle metrics byte-identical to the local
// engine's:
//
//   - RunMapShard is one map worker's shard: sharding, partitioner
//     resolution, shuffle-byte accounting, budget charging, and bucket
//     spilling. RunMapReduce points its context at the shared per-round
//     arrays and atomics (one budget and one set of counters across all map
//     workers); a proc worker points it at the per-task state of its own
//     process (its own budget and counters, reported back afterwards).
//   - RunReduceColumn is one reduce worker's column: it groups the column's
//     sources — per map task, the spilled runs and then the resident tail —
//     into key groups, with a stable external merge when any run exists and
//     a stable sort-and-sweep otherwise. The local engine hands it drained
//     buckets; a proc worker hands it decoded segments, replayed by the
//     coordinator in the same map-task order.
#ifndef DSEQ_DATAFLOW_MAP_SHARD_H_
#define DSEQ_DATAFLOW_MAP_SHARD_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/dataflow/engine.h"
#include "src/dataflow/shuffle_buffer.h"
#include "src/spill/external_merger.h"
#include "src/spill/memory_budget.h"
#include "src/spill/spill_context.h"
#include "src/spill/spill_file.h"

namespace dseq {

/// Everything one map worker's shard touches. All pointers are caller-owned
/// and must outlive the RunMapShard call; the per-reducer arrays (`buckets`,
/// `spill_runs`, `bucket_charged`, `reducer_bytes`) have one slot per reduce
/// worker. `spill_runs` and `bucket_charged` may be null when the budget is
/// disabled; `combiner_ctx` is null exactly when the budget is disabled.
struct MapShardContext {
  const DataflowOptions* options = nullptr;
  int map_worker = 0;  // worker index locally, task index in the proc backend
  int reduce_workers = 1;
  size_t begin = 0;  // input shard [begin, end)
  size_t end = 0;
  const MapFn* map_fn = nullptr;
  const CombinerFactory* combiner_factory = nullptr;

  ShuffleBuffer* buckets = nullptr;
  std::vector<SpillFile>* spill_runs = nullptr;
  uint64_t* bucket_charged = nullptr;
  uint64_t* reducer_bytes = nullptr;
  MemoryBudget* budget = nullptr;
  SpillStats* spill_stats = nullptr;
  CombinerSpillContext* combiner_ctx = nullptr;

  // Round counters: shared atomics across all map workers in the local
  // backend (the shuffle budget is enforced on their global sum), the
  // task's own counters in a proc worker.
  std::atomic<uint64_t>* shuffle_bytes = nullptr;
  std::atomic<uint64_t>* shuffle_records = nullptr;
  std::atomic<uint64_t>* map_output_records = nullptr;
  std::atomic<uint64_t>* shuffle_compressed_bytes = nullptr;

  /// Optional liveness counter, ticked once per processed input. The proc
  /// backend's worker heartbeat thread samples it to decide whether the
  /// task is advancing (beat) or hung (silence); local rounds leave it null.
  std::atomic<uint64_t>* progress = nullptr;
};

/// Runs one map shard: maps each input of [begin, end), combines, and
/// leaves the shard's post-combine records in `buckets` (compressed or
/// sealed per the options) and any spilled sorted runs in `spill_runs`.
/// Throws ShuffleOverflowError when a budget is exceeded.
void RunMapShard(const MapShardContext& ctx);

/// Copies the spill counters into metrics->spill_*. Relaxed loads: callers
/// read them after the writing workers have joined, or on their own thread.
void ReadSpillStats(const SpillStats& stats, DataflowMetrics* metrics);

/// What one map task contributes to one reduce column, in the order the
/// stable merge drains it: the task's spilled sorted runs (chronological),
/// then its resident tail as raw frames (ShuffleBuffer::ReleaseRaw form;
/// empty when nothing stayed resident). A source may also hold only runs or
/// only a tail — what matters is that the sources are in map-task order.
struct ReduceColumnSource {
  std::vector<SpillFile> runs;
  std::string tail;
  uint64_t tail_records = 0;  // sizes the in-memory sweep up front
};

/// Groups one reduce column and calls `group_fn` once per distinct key:
/// keys ascending, values in (source, emit) order. The path follows the
/// input, not an option: a column with any spilled run streams through a
/// stable ExternalMergePlan charged to `budget` and counted in
/// `spill_stats` (trace span engine/external_merge); otherwise the tails
/// are stable-sorted and swept in memory (span engine/group_sweep). Both
/// paths yield the same groups in the same order, which is why spilling is
/// correctness-neutral. Consumes `sources`; the views handed to `group_fn`
/// are valid only during the call.
void RunReduceColumn(const DataflowOptions& options, MemoryBudget* budget,
                     SpillStats* spill_stats,
                     std::vector<ReduceColumnSource> sources,
                     const MergeGroupFn& group_fn);

}  // namespace dseq

#endif  // DSEQ_DATAFLOW_MAP_SHARD_H_
