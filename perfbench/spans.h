// Aggregates collected obs spans into per-layer numbers: self time by span
// name, the longest single span, and how long workers of a phase waited
// for the phase's slowest worker.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace perfbench {

struct SpanTotals {
  /// "category/name" -> summed self time (duration minus the part of it
  /// covered by child spans on the same thread), seconds.
  std::map<std::string, double> self_s;
  /// "category/name" -> longest single span, seconds.
  std::map<std::string, double> max_s;

  double Self(const std::string& key) const;
  double Max(const std::string& key) const;
  /// Self time summed over every span of `category`.
  double CategorySelf(const std::string& category) const;
};

void AddSpans(const std::vector<dseq::obs::TraceEvent>& events,
              SpanTotals* totals);

/// Straggler wait of one phase kind, accumulated over rounds: per round,
/// each worker's busy time is the summed duration of its `keys` spans; the
/// phase lasts max(busy) and its workers wait max - busy on average.
struct PhaseWait {
  double wait_s = 0.0;  // sum over rounds of max - mean
  double max_s = 0.0;   // sum over rounds of max
  double Fraction() const { return max_s > 0 ? wait_s / max_s : 0.0; }
};

/// Adds the rounds found in `events` (all from one job) to `wait`.
void AddPhaseWait(const std::vector<dseq::obs::TraceEvent>& events,
                  const std::vector<std::string>& keys, PhaseWait* wait);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
