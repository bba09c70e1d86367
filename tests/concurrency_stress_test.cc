// Concurrency stress tests, written for TSan (the CI `thread` sanitizer job
// runs the engine/property/spill groups; this suite is its dedicated
// hammer). Each test drives a shared-state hot spot from many threads at
// once: the ParallelWorkers/ParallelShards thread pool, concurrent
// ShuffleBuffer arena writes against the process-wide live-bytes gauge,
// MemoryBudget charge/release contention, budget-contended spill where
// many map workers fight over one tiny budget and spill concurrently,
// StateGrid::Build's per-thread scratch under concurrent builds, and D-CAND's
// per-thread pivot NFAs under concurrent map bodies.
//
// The assertions are deliberately coarse (counters add up, gauge returns to
// baseline, spilled results byte-identical) — the real assertions are the
// ones TSan plants under every load and store.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/core/grid.h"
#include "src/dataflow/engine.h"
#include "src/dataflow/shuffle_buffer.h"
#include "src/dist/dcand_miner.h"
#include "src/spill/memory_budget.h"
#include "src/util/sync.h"
#include "src/util/thread_pool.h"
#include "src/fst/compiler.h"
#include "src/util/varint.h"
#include "tests/dcand_fixture.h"
#include "tests/test_util.h"

namespace dseq {
namespace {

using GroupMap = std::map<std::string, std::vector<std::string>>;

// Iteration scale: kept small for PR runs, raised in dedicated stress runs
// via the same env knob the property tests use.
int StressIterations(int fallback) {
  return testing::PropertyIterations(fallback);
}

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPoolStressTest, RepeatedParallelWorkersRoundsCountExactly) {
  const int rounds = StressIterations(50);
  for (int round = 0; round < rounds; ++round) {
    std::atomic<int> calls{0};
    std::atomic<uint64_t> id_bits{0};
    ParallelWorkers(8, [&](int w) {
      calls.fetch_add(1, std::memory_order_relaxed);
      id_bits.fetch_or(uint64_t{1} << w, std::memory_order_relaxed);
    });
    ASSERT_EQ(calls.load(), 8);
    ASSERT_EQ(id_bits.load(), 0xffu);  // every worker id ran exactly once
  }
}

TEST(ThreadPoolStressTest, ParallelShardsCoversEveryItemOnce) {
  const int rounds = StressIterations(20);
  const size_t num_items = 1000;
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::atomic<int>> hits(num_items);
    ParallelShards(num_items, 8, [&](int /*worker*/, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (size_t i = 0; i < num_items; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "item " << i;
    }
  }
}

TEST(ThreadPoolStressTest, ConcurrentThrowersDoNotRaceTheErrorSlot) {
  // Several workers throw at once: exactly one exception must surface and
  // the rest be swallowed without touching freed state (the error slot is
  // mutex-guarded — TSan checks that claim).
  const int rounds = StressIterations(50);
  for (int round = 0; round < rounds; ++round) {
    std::atomic<int> ran{0};
    try {
      ParallelWorkers(8, [&](int w) {
        ran.fetch_add(1, std::memory_order_relaxed);
        if (w % 2 == 0) {
          throw std::runtime_error("worker " + std::to_string(w));
        }
      });
      FAIL() << "expected ParallelWorkers to rethrow";
    } catch (const std::runtime_error&) {
    }
    // Every worker still ran: a throwing shard must not cancel the others.
    ASSERT_EQ(ran.load(), 8);
  }
}

TEST(ThreadPoolStressTest, RethrownErrorIsIntactUnderContention) {
  // Regression test for the thread-safety-annotation finding: the pool used
  // to read its first-error slot without the mutex when rethrowing, relying
  // on the joins alone for ordering. The slot is now an annotated
  // mutex-guarded type whose read path locks too. Here every worker throws
  // nearly simultaneously (rendezvous barrier) so captures contend as hard
  // as possible, and the surfaced exception must be one of the thrown ones,
  // with its message untorn — under TSan this also proves the locked read.
  const int rounds = StressIterations(50);
  const int workers = 8;
  for (int round = 0; round < rounds; ++round) {
    std::atomic<int> arrivals{0};
    std::string surfaced;
    try {
      ParallelWorkers(workers, [&](int w) {
        arrivals.fetch_add(1, std::memory_order_relaxed);
        while (arrivals.load(std::memory_order_relaxed) < workers) {
        }
        throw std::runtime_error("thrower-" + std::to_string(w) + "-round-" +
                                 std::to_string(round));
      });
      FAIL() << "expected ParallelWorkers to rethrow";
    } catch (const std::runtime_error& e) {
      surfaced = e.what();
    }
    // Exactly one of this round's exceptions, byte-for-byte.
    bool matches_a_thrower = false;
    for (int w = 0; w < workers; ++w) {
      if (surfaced == "thrower-" + std::to_string(w) + "-round-" +
                          std::to_string(round)) {
        matches_a_thrower = true;
      }
    }
    ASSERT_TRUE(matches_a_thrower) << "got: " << surfaced;
  }
}

// --- ShuffleBuffer arenas ---------------------------------------------------

TEST(ShuffleBufferStressTest, ConcurrentArenaWritesKeepTheGaugeBalanced) {
  // Buffers are single-writer by design — one per (map worker, reducer) —
  // but the live-bytes gauge they update is process-global. Hammer it from
  // 8 writers appending, sealing, compressing, and draining concurrently.
  const uint64_t baseline = ShuffleBufferLiveBytes();
  const int rounds = StressIterations(10);
  for (int round = 0; round < rounds; ++round) {
    std::atomic<uint64_t> total_records{0};
    ParallelWorkers(8, [&](int w) {
      std::mt19937_64 rng(round * 8 + w);
      std::vector<ShuffleBuffer> buffers(4);
      std::string value;
      for (int i = 0; i < 500; ++i) {
        ShuffleBuffer& buf = buffers[rng() % buffers.size()];
        value.assign(rng() % 64, static_cast<char>('a' + w));
        buf.Append("k" + std::to_string(rng() % 16), value);
        total_records.fetch_add(1, std::memory_order_relaxed);
      }
      uint64_t drained = 0;
      for (size_t b = 0; b < buffers.size(); ++b) {
        if (w % 2 == 0 && b % 2 == 0) {
          buffers[b].Compress();  // gauge-syncing path
        } else {
          buffers[b].Seal();
        }
        std::string raw = buffers[b].ReleaseRaw();
        ShuffleBuffer::ForEachRecord(
            raw, [&](std::string_view, std::string_view) { ++drained; });
      }
      EXPECT_EQ(drained, 500u);
    });
    ASSERT_EQ(total_records.load(), 8u * 500u);
    // Every buffer was drained, so the global gauge is back to baseline.
    ASSERT_EQ(ShuffleBufferLiveBytes(), baseline);
  }
}

// --- MemoryBudget -----------------------------------------------------------

TEST(MemoryBudgetStressTest, ContendedChargeReleaseStaysSymmetric) {
  MemoryBudget budget(1 << 20);
  const int rounds = StressIterations(10);
  for (int round = 0; round < rounds; ++round) {
    ParallelWorkers(8, [&](int w) {
      std::mt19937_64 rng(round * 8 + w);
      uint64_t held = 0;
      for (int i = 0; i < 2000; ++i) {
        uint64_t bytes = 1 + rng() % 512;
        if (budget.TryCharge(bytes)) {
          held += bytes;
        } else if (held > 0) {
          budget.Release(held);  // spill analogue: free everything we own
          held = 0;
        } else {
          budget.ForceCharge(bytes);  // bounded overshoot path
          held += bytes;
        }
      }
      budget.Release(held);
    });
    // Charges and releases mirrored exactly across all workers.
    ASSERT_EQ(budget.used_bytes(), 0u);
  }
}

// --- Budget-contended spill -------------------------------------------------

// Runs one word-count-shaped round and returns its groups.
GroupMap RunCountingRound(int workers, const DataflowOptions& options) {
  const size_t num_inputs = 256;
  GroupMap groups;
  dseq::Mutex mu;
  RunMapReduce(
      num_inputs,
      [](size_t i, const EmitFn& emit) {
        std::string value;
        for (int k = 0; k < 8; ++k) {
          value.clear();
          PutVarint(&value, 1);
          emit("key" + std::to_string((i * 7 + static_cast<size_t>(k)) % 31),
               value);
        }
      },
      MakeSumCombiner,
      [&](int /*worker*/, std::string_view key,
          std::vector<std::string_view>& values) {
        dseq::MutexLock lock(mu);
        auto& column = groups[std::string(key)];
        for (std::string_view v : values) column.emplace_back(v);
      },
      options);
  (void)workers;
  return groups;
}

TEST(SpillContentionStressTest, ManyWorkersSpillingUnderOneTinyBudget) {
  testing::ScopedTempDir spill_dir;
  DataflowOptions in_memory;
  in_memory.num_map_workers = 8;
  in_memory.num_reduce_workers = 8;
  GroupMap want = RunCountingRound(8, in_memory);

  const int rounds = StressIterations(5);
  for (int round = 0; round < rounds; ++round) {
    DataflowOptions budgeted = in_memory;
    // A budget far below the round's shuffle volume: every map worker is
    // forced through TryCharge failure, worth-spilling accounting,
    // concurrent SpillFile creation, and ForceCharge overdraft at once.
    budgeted.memory_budget_bytes = testing::SpillTestBudget(256);
    budgeted.spill_dir = spill_dir.path();
    budgeted.spill_merge_fan_in = 2;  // extra merge passes, more file churn
    GroupMap got = RunCountingRound(8, budgeted);
    ASSERT_EQ(got, want);
  }
  // ScopedTempDir asserts RAII hygiene (no leftover spill files) on exit.
}

// --- Grid-build scratch -----------------------------------------------------

// A grid's edges as plain values (from, to, output items), layer by layer.
std::vector<std::vector<ItemId>> GridEdges(const StateGrid& grid) {
  std::vector<std::vector<ItemId>> edges;
  for (size_t i = 0; i < grid.length(); ++i) {
    for (const StateGrid::Edge& e : grid.EdgesAt(i)) {
      std::vector<ItemId> edge = {static_cast<ItemId>(i), e.from, e.to};
      edge.insert(edge.end(), e.out.begin(), e.out.end());
      edges.push_back(std::move(edge));
    }
  }
  return edges;
}

TEST(GridScratchStressTest, ConcurrentBuildsMatchSequentialBuilds) {
  // Four threads build grids of very different sizes at once, each through
  // its own per-thread scratch; every result must equal the sequential one.
  SequenceDatabase db = testing::RandomDatabase(23, 8, 40, 8);
  std::vector<Sequence> inputs = db.sequences;
  Sequence long_seq;
  for (const Sequence& T : db.sequences) {
    long_seq.insert(long_seq.end(), T.begin(), T.end());
  }
  inputs.push_back(long_seq);
  Fst fst = CompileFst(".*(.^)[.{0,1}(.^)]{1,2}.*", db.dict);
  GridOptions options;
  options.prune_sigma = 2;
  std::vector<std::vector<std::vector<ItemId>>> want;
  for (const Sequence& T : inputs) {
    want.push_back(GridEdges(StateGrid::Build(T, fst, db.dict, options)));
  }
  const int rounds = StressIterations(20);
  std::atomic<int> mismatches{0};
  ParallelWorkers(4, [&](int w) {
    for (int round = 0; round < rounds; ++round) {
      for (size_t j = 0; j < inputs.size(); ++j) {
        // Each worker walks the inputs from a different offset, so long and
        // short builds interleave across threads.
        size_t s = (j + static_cast<size_t>(w) * 11) % inputs.size();
        if (GridEdges(StateGrid::Build(inputs[s], fst, db.dict, options)) !=
            want[s]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}


TEST(DCandMapStressTest, ConcurrentMapBodiesMatchSequentialOnes) {
  // Four threads run D-CAND's map body over the N5 micro corpus at once,
  // each through its own per-thread pivot NFAs and Renumber/serialize
  // scratch; every sequence's emitted records must equal the sequential
  // ones, minimized and as tries.
  SequenceDatabase db = testing::MicroTextCorpus();
  Fst fst = CompileFst(testing::kPatternN5, db.dict);
  for (bool minimize : {true, false}) {
    DCandOptions options;
    options.sigma = 10;
    options.minimize_nfas = minimize;
    auto map_one = [&](const Sequence& T) {
      std::vector<std::string> records;
      MapDCandSequence(T, fst, db.dict, options,
                       [&](std::string_view key, std::string_view value) {
                         records.push_back(std::string(key) + "|" +
                                           std::string(value));
                       });
      return records;
    };
    std::vector<std::vector<std::string>> want;
    for (const Sequence& T : db.sequences) want.push_back(map_one(T));
    const int rounds = StressIterations(5);
    std::atomic<int> mismatches{0};
    ParallelWorkers(4, [&](int w) {
      for (int round = 0; round < rounds; ++round) {
        for (size_t j = 0; j < db.sequences.size(); ++j) {
          size_t s = (j + static_cast<size_t>(w) * 17) % db.sequences.size();
          if (map_one(db.sequences[s]) != want[s]) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
    EXPECT_EQ(mismatches.load(), 0) << "minimize=" << minimize;
  }
}

}  // namespace
}  // namespace dseq
