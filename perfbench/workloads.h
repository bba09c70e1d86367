// The benchmark's workloads: seeded corpora, the batch of mining jobs each
// workload runs, and one outside-in call into the library's public miners.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/mining.h"
#include "src/dataflow/engine.h"
#include "src/dict/sequence.h"
#include "src/dist/distributed.h"

namespace perfbench {

enum class Miner { kDSeq, kDCand, kSemiNaive };

const char* MinerName(Miner miner);

/// One mining job of a batch: a paper Tab. III constraint with its σ.
struct Job {
  std::string name;  // e.g. "N5(17)"
  std::string pattern;
  uint64_t sigma = 1;
};

struct Workload {
  std::string name;
  bool text_corpus = true;  // NYT'-style text (tree) vs AMZN'-style (DAG)
  Miner miner = Miner::kDSeq;
  /// A different algorithm mined on the same input, outside the timed
  /// region, whose (pattern count, checksum) every job must reproduce.
  Miner reference = Miner::kDCand;
  dseq::DataflowBackend backend = dseq::DataflowBackend::kLocal;
  /// Run with a memory budget well below the resident shuffle and a spill
  /// directory, so every map worker spills.
  bool spill = false;
  std::vector<Job> jobs;
  /// Independently seeded corpora a run cycles through: batch b mines
  /// corpus b mod corpora, generated just before it. Where one sequence's
  /// work is heavy-tailed, one corpus's cost swings with the seed; a median
  /// over many does not.
  int corpora = 1;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

/// Generates (and recodes) corpus `index` of the workload's `corpora` from
/// `seed`, with generator seed seed * corpora + index.
dseq::SequenceDatabase GenerateCorpus(const Workload& workload, uint64_t seed,
                                      int index);

/// Dataflow settings shared by every miner call of a run: real threads
/// (never the kSimulated estimate), `workers` map and reduce workers.
dseq::DistributedRunOptions RunOptions(const Workload& workload, int workers,
                                       const std::string& spill_dir);

/// Order-independent (pattern, frequency) hash; the same FNV-1a fold the
/// figure benches print, so numbers compare across tools.
uint64_t ResultChecksum(const dseq::MiningResult& result);

struct JobOutcome {
  bool failed = false;  // typed error: budget, shuffle overflow, proc backend
  std::string error;
  double seconds = 0.0;  // pattern string + database -> canonical result
  size_t patterns = 0;
  uint64_t checksum = 0;
  dseq::DataflowMetrics metrics;
};

/// Compiles the job's FST and mines it with `miner` through the public
/// call, timed with obs::Now() around both.
JobOutcome RunJob(Miner miner, const Job& job,
                  const dseq::SequenceDatabase& db,
                  const dseq::DistributedRunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
