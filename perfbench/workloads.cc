#include "perfbench/workloads.h"

#include <utility>

#include "src/core/desq_dfs.h"
#include "src/datagen/market_baskets.h"
#include "src/datagen/text_corpus.h"
#include "src/dist/dcand_miner.h"
#include "src/dist/dseq_miner.h"
#include "src/dist/naive.h"
#include "src/fst/compiler.h"
#include "src/obs/trace.h"
#include "src/rpc/proc_backend.h"

namespace perfbench {
namespace {

// Corpus sizes and σ scale the figure benches' NYT'/AMZN' settings (30k
// sequences, σ as in paper Tab. III): text by 1/5, baskets by 1/15 per
// corpus, so a run holds ten or more batches. The basket workload cycles 32
// corpora: one AMZN' corpus's candidate count is heavy-tailed (a fifth of
// it comes from 1% of the baskets) and swings by 15-20% with the seed, the
// median over 32 corpora by a few percent.
constexpr size_t kTextSentences = 6'000;
constexpr size_t kBasketCustomers = 2'000;

// About half a basket corpus's raw SEMI-NAIVE shuffle (~9 MB), so every map
// worker spills a few sorted runs. Much smaller budgets fall off a cliff:
// thousands of tiny spill files and several times slower batches.
constexpr uint64_t kSpillBudgetBytes = uint64_t{4} << 20;

std::vector<Job> TextJobs() {
  return {{"N4(100)", ".* (.^){3} NOUN .*", 100},
          {"N5(10)", ".* ([.^. .]|[. .^.]|[. . .^]) .*", 10}};
}

}  // namespace

const char* MinerName(Miner miner) {
  switch (miner) {
    case Miner::kDSeq:
      return "D-SEQ";
    case Miner::kDCand:
      return "D-CAND";
    case Miner::kSemiNaive:
      return "SEMI-NAIVE";
  }
  return "?";
}

// Why each workload exists is recorded in BENCHMARK.json and README.md.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = [] {
    std::vector<Workload> w(3);
    w[0].name = "nyt-dseq";
    w[0].miner = Miner::kDSeq;
    w[0].reference = Miner::kDCand;
    w[0].jobs = TextJobs();

    w[1].name = "nyt-dcand";
    w[1].miner = Miner::kDCand;
    w[1].reference = Miner::kDSeq;
    w[1].jobs = TextJobs();

    w[2].name = "amzn-seminaive-proc";
    w[2].text_corpus = false;
    w[2].miner = Miner::kSemiNaive;
    w[2].reference = Miner::kDSeq;
    w[2].backend = dseq::DataflowBackend::kProc;
    w[2].spill = true;
    w[2].jobs = {{"A3(7)", ".*DigitalCamera[.{0,3}(.^)]{1,4}.*", 7}};
    w[2].corpora = 32;
    return w;
  }();
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

dseq::SequenceDatabase GenerateCorpus(const Workload& workload, uint64_t seed,
                                      int index) {
  const uint64_t corpus_seed = seed * workload.corpora + index;
  if (workload.text_corpus) {
    // The figure benches' NYT' vocabulary.
    dseq::TextCorpusOptions options;
    options.num_sentences = kTextSentences;
    options.seed = corpus_seed;
    options.lemmas_per_pos = 1'000;
    options.num_entities = 2'000;
    return dseq::GenerateTextCorpus(options);
  }
  dseq::MarketBasketOptions options;
  options.num_customers = kBasketCustomers;
  options.seed = corpus_seed;
  return dseq::GenerateMarketBaskets(options);
}

dseq::DistributedRunOptions RunOptions(const Workload& workload, int workers,
                                       const std::string& spill_dir) {
  dseq::DistributedRunOptions options;
  options.num_map_workers = workers;
  options.num_reduce_workers = workers;
  options.execution = dseq::Execution::kThreads;
  options.backend = workload.backend;
  if (workload.spill) {
    options.memory_budget_bytes = kSpillBudgetBytes;
    options.spill_dir = spill_dir;
  }
  return options;
}

uint64_t ResultChecksum(const dseq::MiningResult& result) {
  uint64_t checksum = 0;
  for (const dseq::PatternCount& pc : result) {
    uint64_t h = 1469598103934665603ULL;
    for (dseq::ItemId w : pc.pattern) h = (h ^ w) * 1099511628211ULL;
    h = (h ^ pc.frequency) * 1099511628211ULL;
    checksum += h;
  }
  return checksum;
}

JobOutcome RunJob(Miner miner, const Job& job,
                  const dseq::SequenceDatabase& db,
                  const dseq::DistributedRunOptions& options) {
  JobOutcome outcome;
  const auto start = dseq::obs::Now();
  try {
    dseq::Fst fst = dseq::CompileFst(job.pattern, db.dict);
    dseq::DistributedResult result;
    switch (miner) {
      case Miner::kDSeq: {
        dseq::DSeqOptions o;
        static_cast<dseq::DistributedRunOptions&>(o) = options;
        o.sigma = job.sigma;
        result = dseq::MineDSeq(db.sequences, fst, db.dict, o);
        break;
      }
      case Miner::kDCand: {
        dseq::DCandOptions o;
        static_cast<dseq::DistributedRunOptions&>(o) = options;
        o.sigma = job.sigma;
        result = dseq::MineDCand(db.sequences, fst, db.dict, o);
        break;
      }
      case Miner::kSemiNaive: {
        dseq::NaiveOptions o;
        static_cast<dseq::DistributedRunOptions&>(o) = options;
        o.sigma = job.sigma;
        o.semi_naive = true;
        result = dseq::MineNaive(db.sequences, fst, db.dict, o);
        break;
      }
    }
    outcome.seconds = dseq::obs::SecondsSince(start);
    outcome.patterns = result.patterns.size();
    outcome.checksum = ResultChecksum(result.patterns);
    outcome.metrics = std::move(result.metrics);
  } catch (const dseq::ShuffleOverflowError& e) {
    outcome.failed = true;
    outcome.error = e.what();
  } catch (const dseq::MiningBudgetError& e) {
    outcome.failed = true;
    outcome.error = e.what();
  } catch (const dseq::ProcBackendError& e) {
    outcome.failed = true;
    outcome.error = e.what();
  }
  if (outcome.failed) outcome.seconds = dseq::obs::SecondsSince(start);
  return outcome;
}

}  // namespace perfbench
