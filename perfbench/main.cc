// perfbench: the repository benchmark (see README.md next to this file).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
//
// --trace 0 times the workload's batch of mining jobs end to end, with
// tracing off, for S seconds and prints the end-to-end metrics. --trace 1
// is the separate traced run: it prints the per-layer metrics from a
// single-threaded layer pass and a traced repeat of the real batch, and
// writes that repeat's timeline to DIR/trace.json. Either way every job's
// output is checked against a reference mined by a different algorithm,
// and the last stdout line is one JSON object; the exit code is 1 on any
// wrong output, 2 on a usage error.
#include <errno.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/layer_pass.h"
#include "perfbench/spans.h"
#include "perfbench/workloads.h"
#include "src/fst/compiler.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace obs = dseq::obs;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
  std::string out_dir;
};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --out-dir DIR\nworkloads:",
               problem.c_str());
  for (const Workload& w : Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  bool seen[5] = {};
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(flag + " needs a value");
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      seen[0] = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      seen[1] = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      seen[2] = *end == '\0' && args.seconds > 0;
    } else if (flag == "--trace") {
      seen[3] = value == "0" || value == "1";
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.out_dir = value;
      seen[4] = !value.empty();
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (!(seen[0] && seen[1] && seen[2] && seen[3] && seen[4])) {
    Usage("missing or malformed flag");
  }
  return args;
}

// Workers per phase: the machine's usable cores, at most four.
int Workers() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set)
                                                          : 1;
  return std::clamp(cpus, 1, 4);
}

// User + system CPU seconds of this process and its reaped children (the
// proc backend's workers are reaped at the end of every round).
double CpuSeconds() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  auto sec = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  return sec(self.ru_utime) + sec(self.ru_stime) + sec(children.ru_utime) +
         sec(children.ru_stime);
}

// Resident high-water mark, max of this process and its largest child.
double PeakRssMb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return std::max(self.ru_maxrss, children.ru_maxrss) * 1024.0 / 1e6;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Set-up: generating corpus 0 (which recodes it) and the batch's FST
// compiles.
dseq::SequenceDatabase SetUp(const Workload& w, uint64_t seed) {
  dseq::SequenceDatabase db = GenerateCorpus(w, seed, 0);
  for (const Job& job : w.jobs) dseq::CompileFst(job.pattern, db.dict);
  return db;
}

struct Batch {
  double wall_s = 0.0;  // summed per-job wall time
  double cpu_s = 0.0;
  uint64_t shuffle_bytes = 0;
  std::vector<JobOutcome> jobs;
  std::vector<std::pair<int64_t, int64_t>> windows;  // per job, obs ns
};

Batch RunBatch(const Workload& w, const dseq::SequenceDatabase& db,
               const dseq::DistributedRunOptions& options) {
  Batch batch;
  const double cpu_start = CpuSeconds();
  for (const Job& job : w.jobs) {
    const int64_t start = obs::NowNs();
    batch.jobs.push_back(RunJob(w.miner, job, db, options));
    if (batch.jobs.back().failed) {
      std::fprintf(stderr, "perfbench: %s failed: %s\n", job.name.c_str(),
                   batch.jobs.back().error.c_str());
    }
    batch.windows.emplace_back(start, obs::NowNs());
    batch.wall_s += batch.jobs.back().seconds;
    batch.shuffle_bytes += batch.jobs.back().metrics.shuffle_bytes;
  }
  batch.cpu_s = CpuSeconds() - cpu_start;
  return batch;
}

template <typename T>
void Put(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename T>
T Get(const std::string& in, size_t* pos) {
  T value;
  std::memcpy(&value, in.data() + *pos, sizeof(value));
  *pos += sizeof(value);
  return value;
}

// Runs one batch of the timed pass in a forked child, so the batch's CPU
// time and resident high-water mark, its proc workers included, are its
// own (wait4 reports both for the child and its reaped descendants). The
// child generates its corpus unless it is corpus 0, which it inherits, and
// reports wall times and outputs back over a pipe.
Batch RunBatchInChild(const Workload& w, const dseq::SequenceDatabase& db0,
                      uint64_t seed, int corpus,
                      const dseq::DistributedRunOptions& options,
                      double* peak_rss_mb) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("perfbench: pipe");
    std::exit(1);
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench: fork");
    std::exit(1);
  }
  if (pid == 0) {
    close(fds[0]);
    dseq::SequenceDatabase other;
    if (corpus != 0) other = GenerateCorpus(w, seed, corpus);
    const Batch batch = RunBatch(w, corpus == 0 ? db0 : other, options);
    std::string out;
    Put(&out, batch.wall_s);
    Put(&out, batch.shuffle_bytes);
    for (const JobOutcome& job : batch.jobs) {
      Put(&out, static_cast<uint8_t>(job.failed));
      Put(&out, job.seconds);
      Put(&out, static_cast<uint64_t>(job.patterns));
      Put(&out, job.checksum);
    }
    for (size_t done = 0; done < out.size();) {
      const ssize_t n = write(fds[1], out.data() + done, out.size() - done);
      if (n <= 0) _exit(1);
      done += n;
    }
    _exit(0);
  }
  close(fds[1]);
  std::string in;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    in.append(buf, n);
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  const size_t expected_bytes =
      sizeof(double) + sizeof(uint64_t) +
      w.jobs.size() * (1 + sizeof(double) + 2 * sizeof(uint64_t));
  if (wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || in.size() != expected_bytes) {
    std::fprintf(stderr, "perfbench: batch process on corpus %d died\n",
                 corpus);
    std::exit(1);
  }
  Batch batch;
  size_t pos = 0;
  batch.wall_s = Get<double>(in, &pos);
  batch.shuffle_bytes = Get<uint64_t>(in, &pos);
  for (size_t j = 0; j < w.jobs.size(); ++j) {
    JobOutcome job;
    job.failed = Get<uint8_t>(in, &pos) != 0;
    job.seconds = Get<double>(in, &pos);
    job.patterns = Get<uint64_t>(in, &pos);
    job.checksum = Get<uint64_t>(in, &pos);
    batch.jobs.push_back(job);
  }
  auto sec = [](const timeval& t) { return t.tv_sec + t.tv_usec * 1e-6; };
  batch.cpu_s = sec(usage.ru_utime) + sec(usage.ru_stime);
  *peak_rss_mb = usage.ru_maxrss * 1024.0 / 1e6;
  return batch;
}

// One batch of the timed pass. A workload with several corpora runs each
// batch in its own process: in one process the resident high-water mark
// would be the heaviest corpus's rather than a batch's. A single-corpus
// workload mines the same corpus every batch, so it stays in process with
// warm allocator caches and reads the run's high-water mark at the end.
Batch RunTimedBatch(const Workload& w, const dseq::SequenceDatabase& db0,
                    uint64_t seed, int corpus,
                    const dseq::DistributedRunOptions& options,
                    double* peak_rss_mb) {
  if (w.corpora > 1) {
    return RunBatchInChild(w, db0, seed, corpus, options, peak_rss_mb);
  }
  Batch batch = RunBatch(w, db0, options);
  *peak_rss_mb = PeakRssMb();
  return batch;
}

// Failure accounting and the output gate: every successful run of a job on
// a corpus must reproduce the first one's (pattern count, checksum).
struct Gate {
  explicit Gate(const Workload& w)
      : workload(w), expected(w.corpora * w.jobs.size()) {}

  std::string JobName(size_t corpus, size_t j) const {
    return workload.jobs[j].name + " on corpus " + std::to_string(corpus);
  }

  void Add(const Batch& batch, size_t corpus) {
    for (size_t j = 0; j < batch.jobs.size(); ++j) {
      const JobOutcome& o = batch.jobs[j];
      ++attempted;
      if (o.failed) {
        ++failed;
        continue;
      }
      Check(corpus, j, o.patterns, o.checksum, "repeat");
    }
  }

  void Check(size_t corpus, size_t j, size_t patterns, uint64_t checksum,
             const std::string& what) {
    auto& want = expected[corpus * workload.jobs.size() + j];
    if (!want) {
      want = std::make_pair(patterns, checksum);
    } else if (*want != std::make_pair(patterns, checksum)) {
      Fail(JobName(corpus, j) + ": " + what + " gives " +
           std::to_string(patterns) + " patterns / checksum " +
           std::to_string(checksum) + ", expected " +
           std::to_string(want->first) + " / " +
           std::to_string(want->second));
    }
  }

  void Fail(const std::string& problem) {
    correct = false;
    std::fprintf(stderr, "perfbench: MISMATCH %s\n", problem.c_str());
  }

  const Workload& workload;
  std::vector<std::optional<std::pair<size_t, uint64_t>>> expected;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintTiming(const char* name, const std::vector<double>& samples,
                 const char* unit) {
  std::printf("%-12s median %.6f %s  (n=%zu, min %.6f, max %.6f)\n", name,
              Median(samples), unit, samples.size(),
              *std::min_element(samples.begin(), samples.end()),
              *std::max_element(samples.begin(), samples.end()));
}

// The end-to-end pass: batches back to back with tracing off for
// `seconds` and over every corpus at least once, then the per-batch
// medians. `db0` is corpus 0. One more set-up is timed before every batch,
// so set-up is sampled across the run like the batches, not in one burst.
std::vector<Metric> TimedRun(const Workload& w,
                             const dseq::SequenceDatabase& db0, uint64_t seed,
                             const dseq::DistributedRunOptions& options,
                             double seconds, std::vector<double> setup_s,
                             Gate* gate) {
  std::vector<double> wall, cpu, shuffle_mb, rss;
  std::vector<std::vector<double>> job_wall(w.jobs.size());
  const size_t min_batches = std::max(3, w.corpora);
  const auto start = obs::Now();
  while (wall.size() < min_batches || obs::SecondsSince(start) < seconds) {
    const int corpus = static_cast<int>(wall.size() % w.corpora);
    const auto setup_start = obs::Now();
    SetUp(w, seed);
    setup_s.push_back(obs::SecondsSince(setup_start));
    rss.emplace_back();
    Batch batch = RunTimedBatch(w, db0, seed, corpus, options, &rss.back());
    gate->Add(batch, corpus);
    for (size_t j = 0; j < w.jobs.size(); ++j) {
      job_wall[j].push_back(batch.jobs[j].seconds);
    }
    wall.push_back(batch.wall_s);
    cpu.push_back(batch.cpu_s);
    shuffle_mb.push_back(batch.shuffle_bytes / 1e6);
  }
  for (size_t j = 0; j < w.jobs.size(); ++j) {
    PrintTiming(w.jobs[j].name.c_str(), job_wall[j], "s");
  }
  PrintTiming("batch_s", wall, "s");
  PrintTiming("cpu_s", cpu, "s");
  PrintTiming("shuffle_mb", shuffle_mb, "MB");
  PrintTiming("peak_rss_mb", rss, "MB");
  PrintTiming("setup_s", setup_s, "s");
  return {{"batch_s", Median(wall), "s"},
          {"cpu_s", Median(cpu), "s"},
          {"shuffle_mb", Median(shuffle_mb), "MB"},
          {"peak_rss_mb", Median(rss), "MB"},
          {"setup_s", Median(setup_s), "s"}};
}

std::vector<dseq::obs::TraceEvent> EventsIn(
    const std::vector<dseq::obs::TraceEvent>& events,
    std::pair<int64_t, int64_t> window) {
  std::vector<dseq::obs::TraceEvent> out;
  for (const dseq::obs::TraceEvent& e : events) {
    if (e.start_ns >= window.first && e.start_ns <= window.second) {
      out.push_back(e);
    }
  }
  return out;
}

bool WriteFile(const fs::path& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  return static_cast<bool>(out);
}

// The traced run: untraced and traced batches alternate for `seconds`
// (their medians give the tracing overhead); the last traced batch's
// timeline is exported; then each job goes once through the
// single-threaded layer pass, whose output must match the real job's, and
// its recorded map output is replayed through the engine.
std::vector<Metric> TracedRun(const Workload& w,
                              const dseq::SequenceDatabase& db,
                              const dseq::DistributedRunOptions& options,
                              double seconds, const fs::path& out_dir,
                              int workers, Gate* gate) {
  std::vector<double> untraced, traced, untraced_cpu;
  Batch last;
  const auto start = obs::Now();
  while (traced.size() < 2 || obs::SecondsSince(start) < seconds) {
    Batch plain = RunBatch(w, db, options);
    gate->Add(plain, 0);
    untraced.push_back(plain.wall_s);
    untraced_cpu.push_back(plain.cpu_s);
    obs::TakeTrace();  // keep only the last traced batch
    obs::SetEnabled(true);
    last = RunBatch(w, db, options);
    obs::SetEnabled(false);
    gate->Add(last, 0);
    traced.push_back(last.wall_s);
  }
  PrintTiming("untraced", untraced, "s");
  PrintTiming("traced", traced, "s");
  const fs::path trace_path = out_dir / "trace.json";
  if (!WriteFile(trace_path, obs::ChromeTraceJson()) ||
      !WriteFile(out_dir / "metrics.json", obs::RegistryJson())) {
    gate->Fail("cannot write the trace export under " + out_dir.string());
  }
  // Proc runs must show spans from at least this many worker processes.
  const int trace_workers =
      w.backend == dseq::DataflowBackend::kProc ? std::min(2, workers) : 0;
  std::printf("trace: %s require-workers %d\n", trace_path.c_str(),
              trace_workers);
  const std::vector<dseq::obs::TraceEvent> real = obs::TakeTrace();

  SpanTotals program;  // the program's own spans in the traced batch
  PhaseWait map_wait, reduce_wait;
  dseq::DataflowMetrics sum;
  double reducer_skew = 0.0;
  for (size_t j = 0; j < last.jobs.size(); ++j) {
    const std::vector<dseq::obs::TraceEvent> job_events =
        EventsIn(real, last.windows[j]);
    AddSpans(job_events, &program);
    AddPhaseWait(job_events, {"engine/map_shard", "worker/map_task"},
                 &map_wait);
    AddPhaseWait(job_events, {"engine/reduce_shard", "worker/reduce_task"},
                 &reduce_wait);
    const dseq::DataflowMetrics& m = last.jobs[j].metrics;
    sum.map_seconds += m.map_seconds;
    sum.reduce_seconds += m.reduce_seconds;
    sum.shuffle_records += m.shuffle_records;
    sum.map_output_records += m.map_output_records;
    sum.spill_files += m.spill_files;
    sum.spill_bytes_written += m.spill_bytes_written;
    sum.spill_merge_passes += m.spill_merge_passes;
    sum.proc_task_attempts += m.proc_task_attempts;
    sum.proc_task_retries += m.proc_task_retries;
    uint64_t max_bytes = 0, total_bytes = 0;
    for (uint64_t b : m.reducer_bytes) {
      max_bytes = std::max(max_bytes, b);
      total_bytes += b;
    }
    if (total_bytes > 0) {
      reducer_skew =
          std::max(reducer_skew, static_cast<double>(max_bytes) *
                                     m.reducer_bytes.size() / total_bytes);
    }
  }

  // Layer pass, with the benchmark's own `layer` spans.
  LayerCounts counts;
  double replay_s = 0.0;
  obs::SetEnabled(true);
  {
    dseq::SequenceDatabase copy = db;
    DSEQ_TRACE_SPAN("layer", "dict.recode");
    copy.Recode(workers);
  }
  for (size_t j = 0; j < w.jobs.size(); ++j) {
    obs::SetEnabled(true);
    PassOutcome pass = RunLayerPass(w.miner, w.jobs[j], db, &counts);
    obs::SetEnabled(false);
    gate->Check(0, j, pass.patterns, pass.checksum, "layer pass");
    const auto replay_start = obs::Now();
    dseq::DataflowMetrics replay =
        ReplayMapOutput(w.miner, pass.map_output, options);
    replay_s += obs::SecondsSince(replay_start);
    const dseq::DataflowMetrics& m = last.jobs[j].metrics;
    if (replay.shuffle_bytes != m.shuffle_bytes ||
        replay.shuffle_records != m.shuffle_records ||
        replay.map_output_records != m.map_output_records) {
      gate->Fail(w.jobs[j].name + ": layer-pass map output replays to " +
                 std::to_string(replay.shuffle_bytes) +
                 " shuffle bytes, the job shuffled " +
                 std::to_string(m.shuffle_bytes));
    }
  }
  SpanTotals layers;
  AddSpans(obs::TakeTrace(), &layers);

  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double layer_total =
      layers.CategorySelf("layer") - layers.Self("layer/dict.recode");
  const bool dcand = w.miner == Miner::kDCand;
  return {
      {"fst.compile_s", layers.Self("layer/fst.compile"), "s"},
      {"dict.recode_s", layers.Self("layer/dict.recode"), "s"},
      {"grid.build_s", layers.Self("layer/grid.build"), "s"},
      {"grid.edges", static_cast<double>(counts.grid_edges), "count"},
      {"grid.accept_ratio", ratio(counts.accepting, counts.sequences),
       "ratio"},
      {"pivot.search_s", layers.Self("layer/pivot.search"), "s"},
      {"pivot.per_seq", ratio(counts.pivots, counts.accepting),
       "ratio"},
      {"rewrite.time_s", layers.Self("layer/rewrite"), "s"},
      {"rewrite.kept_ratio",
       ratio(counts.rewrite_items_kept, counts.rewrite_items_in), "ratio"},
      {"dfs.grid_rebuild_s", layers.Self("layer/dfs.grid_rebuild"), "s"},
      {"dfs.mine_s", layers.Self("layer/dfs.mine"), "s"},
      {"dfs.partitions", static_cast<double>(counts.partitions), "count"},
      {"dfs.slowest_partition_s", layers.Max("layer/dfs.partition"), "s"},
      {"candidates.enum_s", layers.Self("layer/candidates.enum"), "s"},
      {"candidates.count", static_cast<double>(counts.candidates), "count"},
      {"nfa.build_s", layers.Self("layer/nfa.build"), "s"},
      {"nfa.states", static_cast<double>(counts.nfa_states), "count"},
      {"nfa.serialize_s", layers.Self("layer/nfa.serialize"), "s"},
      {"nfa.bytes", static_cast<double>(counts.nfa_bytes), "bytes"},
      {"nfa.deserialize_s", layers.Self("layer/nfa.deserialize"), "s"},
      {"nfa.mine_s", layers.Self("layer/nfa.mine"), "s"},
      {"nfa.aggregation_ratio",
       dcand ? ratio(sum.shuffle_records, sum.map_output_records) : 0.0,
       "ratio"},
      {"dataflow.map_s", sum.map_seconds, "s"},
      {"dataflow.reduce_s", sum.reduce_seconds, "s"},
      {"dataflow.shuffle_records", static_cast<double>(sum.shuffle_records),
       "count"},
      {"dataflow.combine_ratio",
       ratio(sum.shuffle_records, sum.map_output_records), "ratio"},
      {"dataflow.reducer_skew", reducer_skew, "ratio"},
      {"dataflow.replay_s", replay_s, "s"},
      {"engine.map_wait_frac", map_wait.Fraction(), "ratio"},
      {"engine.reduce_wait_frac", reduce_wait.Fraction(), "ratio"},
      {"engine.group_sweep_s", program.Self("engine/group_sweep"), "s"},
      {"engine.combine_flush_s", program.Self("engine/combine_flush"), "s"},
      {"spill.files", static_cast<double>(sum.spill_files), "count"},
      {"spill.mb_written", sum.spill_bytes_written / 1e6, "MB"},
      {"spill.merge_passes", static_cast<double>(sum.spill_merge_passes),
       "count"},
      {"engine.spill_run_write_s", program.Self("engine/spill_run_write"),
       "s"},
      {"engine.external_merge_s", program.Self("engine/external_merge"), "s"},
      {"rpc.fork_s", program.Self("proc/fork_workers"), "s"},
      {"rpc.segment_receive_s", program.Self("proc/segment_receive"), "s"},
      {"rpc.segment_commit_s", program.Self("proc/segment_commit"), "s"},
      {"rpc.segment_replay_s", program.Self("proc/segment_replay"), "s"},
      {"rpc.task_attempts", static_cast<double>(sum.proc_task_attempts),
       "count"},
      {"rpc.task_retries", static_cast<double>(sum.proc_task_retries),
       "count"},
      {"obs.overhead_frac", Median(traced) / Median(untraced) - 1.0, "ratio"},
      {"layers.cpu_share", ratio(layer_total, Median(untraced_cpu)), "ratio"},
  };
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) Usage("unknown workload " + args.workload);
  const Workload& w = *workload;
  const int workers = Workers();
  const fs::path out_dir = args.out_dir;
  const fs::path spill_dir = out_dir / "spill";
  fs::remove_all(spill_dir);
  fs::create_directories(spill_dir);
  const dseq::DistributedRunOptions options =
      RunOptions(w, workers, spill_dir.string());

  // Three set-ups before the warm-up; TimedRun times one more per batch.
  std::vector<double> setup_s;
  dseq::SequenceDatabase db;
  for (int i = 0; i < 3; ++i) {
    const auto start = obs::Now();
    db = SetUp(w, args.seed);
    setup_s.push_back(obs::SecondsSince(start));
  }

  std::printf("workload %s seed %llu: %s on %s backend, %d workers%s\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              MinerName(w.miner),
              w.backend == dseq::DataflowBackend::kProc ? "proc" : "local",
              workers, w.spill ? ", spilling" : "");
  std::printf("corpus 0 of %d: %s, %zu sequences, %zu items, %zu distinct "
              "items, %s hierarchy\n",
              w.corpora,
              w.text_corpus ? "NYT'-style text" : "AMZN'-style baskets",
              db.size(), db.TotalItems(), db.dict.size(),
              db.dict.IsForest() ? "tree" : "DAG");
  std::printf("batch:");
  for (const Job& job : w.jobs) std::printf(" %s", job.name.c_str());
  std::printf(" (reference %s)\n", MinerName(w.reference));

  Gate gate(w);
  double warm_rss = 0.0;  // warm-up
  gate.Add(args.trace
               ? RunBatch(w, db, options)
               : RunTimedBatch(w, db, args.seed, 0, options, &warm_rss),
           0);
  std::vector<Metric> metrics =
      args.trace ? TracedRun(w, db, options, args.seconds, out_dir, workers,
                             &gate)
                 : TimedRun(w, db, args.seed, options, args.seconds, setup_s,
                            &gate);

  // Output gate: a different algorithm on the same input, local threads,
  // no budget, outside the timed region. The traced run mines corpus 0 only.
  dseq::DistributedRunOptions reference_options = options;
  reference_options.backend = dseq::DataflowBackend::kLocal;
  reference_options.memory_budget_bytes = 0;
  reference_options.spill_dir.clear();
  for (int c = 0; c < (args.trace ? 1 : w.corpora); ++c) {
    if (c != 0) db = GenerateCorpus(w, args.seed, c);
    for (size_t j = 0; j < w.jobs.size(); ++j) {
      JobOutcome ref = RunJob(w.reference, w.jobs[j], db, reference_options);
      if (ref.failed) {
        gate.Fail(gate.JobName(c, j) + ": reference failed: " + ref.error);
        continue;
      }
      std::printf("%s: %zu patterns, checksum %016llx\n",
                  gate.JobName(c, j).c_str(), ref.patterns,
                  static_cast<unsigned long long>(ref.checksum));
      gate.Check(c, j, ref.patterns, ref.checksum,
                 std::string("reference ") + MinerName(w.reference));
    }
  }

  // Nothing may outlive the workload: no spill droppings, no child.
  if (!fs::is_empty(spill_dir)) gate.Fail("spill directory is not empty");
  if (!(waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD)) {
    gate.Fail("a worker process outlived the workload");
  }

  if (!args.trace) {
    std::printf("%-12s %.6f (%llu of %llu jobs)\n", "failed_frac",
                static_cast<double>(gate.failed) / gate.attempted,
                static_cast<unsigned long long>(gate.failed),
                static_cast<unsigned long long>(gate.attempted));
  } else {
    for (const Metric& m : metrics) {
      std::printf("%-26s %.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += gate.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(gate.attempted);
  json += ", \"failed\": " + std::to_string(gate.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return gate.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
