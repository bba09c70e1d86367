#include "perfbench/spans.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace perfbench {
namespace {

std::string Key(const dseq::obs::TraceEvent& e) {
  return e.category + "/" + e.name;
}

}  // namespace

double SpanTotals::Self(const std::string& key) const {
  auto it = self_s.find(key);
  return it == self_s.end() ? 0.0 : it->second;
}

double SpanTotals::Max(const std::string& key) const {
  auto it = max_s.find(key);
  return it == max_s.end() ? 0.0 : it->second;
}

double SpanTotals::CategorySelf(const std::string& category) const {
  double total = 0.0;
  const std::string prefix = category + "/";
  for (const auto& [key, seconds] : self_s) {
    if (key.compare(0, prefix.size(), prefix) == 0) total += seconds;
  }
  return total;
}

void AddSpans(const std::vector<dseq::obs::TraceEvent>& events,
              SpanTotals* totals) {
  // Spans nest only within one thread of one process.
  std::map<std::pair<int, int>, std::vector<const dseq::obs::TraceEvent*>>
      threads;
  for (const dseq::obs::TraceEvent& e : events) {
    threads[{e.process_ordinal, e.thread_ordinal}].push_back(&e);
  }
  for (auto& [thread, spans] : threads) {
    // Parents sort before the children they contain.
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return std::make_tuple(a->start_ns, -a->dur_ns) <
             std::make_tuple(b->start_ns, -b->dur_ns);
    });
    std::vector<int64_t> covered(spans.size(), 0);
    std::vector<size_t> open;  // indices of enclosing spans
    for (size_t i = 0; i < spans.size(); ++i) {
      const int64_t start = spans[i]->start_ns;
      while (!open.empty() &&
             spans[open.back()]->start_ns + spans[open.back()]->dur_ns <=
                 start) {
        open.pop_back();
      }
      if (!open.empty()) {
        const dseq::obs::TraceEvent* parent = spans[open.back()];
        covered[open.back()] +=
            std::min(start + spans[i]->dur_ns,
                     parent->start_ns + parent->dur_ns) -
            start;
      }
      open.push_back(i);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const std::string key = Key(*spans[i]);
      totals->self_s[key] += (spans[i]->dur_ns - covered[i]) * 1e-9;
      double& longest = totals->max_s[key];
      longest = std::max(longest, spans[i]->dur_ns * 1e-9);
    }
  }
}

void AddPhaseWait(const std::vector<dseq::obs::TraceEvent>& events,
                  const std::vector<std::string>& keys, PhaseWait* wait) {
  // round -> (process, thread) -> busy seconds
  std::map<int, std::map<std::pair<int, int>, double>> busy;
  for (const dseq::obs::TraceEvent& e : events) {
    if (std::find(keys.begin(), keys.end(), Key(e)) == keys.end()) continue;
    busy[e.round][{e.process_ordinal, e.thread_ordinal}] += e.dur_ns * 1e-9;
  }
  for (const auto& [round, workers] : busy) {
    double sum = 0.0;
    double max = 0.0;
    for (const auto& [worker, seconds] : workers) {
      sum += seconds;
      max = std::max(max, seconds);
    }
    wait->wait_s += max - sum / workers.size();
    wait->max_s += max;
  }
}

}  // namespace perfbench
