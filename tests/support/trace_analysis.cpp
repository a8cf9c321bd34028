#include "support/trace_analysis.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

namespace rt::sim {

std::vector<TaskResponseStats> response_stats_from_trace(const Trace& trace,
                                                         std::size_t num_tasks) {
  std::vector<TaskResponseStats> out(num_tasks);
  struct Open {
    std::size_t task;
    TimePoint release;
  };
  std::unordered_map<std::uint64_t, Open> open_jobs;

  for (const TraceEvent& ev : trace.events()) {
    if (ev.task >= num_tasks) {
      throw std::out_of_range("response_stats_from_trace: task index out of range");
    }
    switch (ev.kind) {
      case TraceKind::kRelease:
        open_jobs.emplace(ev.job, Open{ev.task, ev.time});
        break;
      case TraceKind::kJobComplete: {
        const auto it = open_jobs.find(ev.job);
        if (it != open_jobs.end()) {
          out[ev.task].response_ms.add((ev.time - it->second.release).ms());
          open_jobs.erase(it);
        }
        break;
      }
      case TraceKind::kPreempt:
        ++out[ev.task].preemptions;
        break;
      default:
        break;
    }
  }
  for (const auto& [job, info] : open_jobs) {
    (void)job;
    ++out[info.task].incomplete;
  }
  return out;
}

Duration max_observed_response(const Trace& trace, std::size_t num_tasks) {
  const auto stats = response_stats_from_trace(trace, num_tasks);
  double worst_ms = 0.0;
  for (const auto& s : stats) {
    if (!s.response_ms.empty()) worst_ms = std::max(worst_ms, s.response_ms.max());
  }
  return Duration::from_ms(worst_ms);
}

}  // namespace rt::sim
