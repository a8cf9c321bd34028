#include "sim/metrics.hpp"

#include <sstream>

#include "obs/sink.hpp"

namespace rt::sim {

namespace {
template <typename F>
std::uint64_t sum_over(const std::vector<TaskMetrics>& per_task, F field) {
  std::uint64_t total = 0;
  for (const auto& m : per_task) total += field(m);
  return total;
}
}  // namespace

void add_run_counters(obs::Sink* sink, const std::string& prefix,
                      const SimMetrics& metrics) {
  if (sink == nullptr) return;
  auto& reg = sink->registry();
  reg.counter(prefix + ".jobs_released").inc(metrics.total_released());
  for (std::size_t i = 0; i < metrics.per_task.size(); ++i) {
    const TaskMetrics& tm = metrics.per_task[i];
    const std::string task_prefix = prefix + ".task." + std::to_string(i);
    reg.counter(task_prefix + ".timely").inc(tm.timely_results);
    reg.counter(task_prefix + ".compensations").inc(tm.compensations);
    reg.counter(task_prefix + ".misses").inc(tm.deadline_misses);
  }
}

void add_sim_counters(obs::Sink* sink, const SimMetrics& metrics, bool controller) {
  if (sink == nullptr) return;
  add_run_counters(sink, "sim", metrics);
  auto& reg = sink->registry();
  reg.counter("sim.events").inc(metrics.total_events());
  if (controller) {
    reg.counter("sim.mode_changes").inc(metrics.mode_changes);
    reg.counter("sim.time_in_degraded_ns")
        .inc(static_cast<std::uint64_t>(metrics.time_in_degraded_ns));
  }
}

std::uint64_t SimMetrics::total_released() const {
  return sum_over(per_task, [](const TaskMetrics& m) { return m.released; });
}
std::uint64_t SimMetrics::total_completed() const {
  return sum_over(per_task, [](const TaskMetrics& m) { return m.completed; });
}
std::uint64_t SimMetrics::total_deadline_misses() const {
  return sum_over(per_task, [](const TaskMetrics& m) { return m.deadline_misses; });
}
std::uint64_t SimMetrics::total_compensations() const {
  return sum_over(per_task, [](const TaskMetrics& m) { return m.compensations; });
}
std::uint64_t SimMetrics::total_timely_results() const {
  return sum_over(per_task, [](const TaskMetrics& m) { return m.timely_results; });
}

std::uint64_t SimMetrics::total_events() const {
  return sum_over(per_task, [](const TaskMetrics& m) {
    return m.released + m.offload_attempts + m.completed + m.timely_results +
           m.compensations;
  });
}

double SimMetrics::total_benefit() const {
  double total = 0.0;
  for (const auto& m : per_task) total += m.accrued_benefit;
  return total;
}

double SimMetrics::cpu_utilization() const {
  if (end_time.ns() <= 0) return 0.0;
  return static_cast<double>(cpu_busy_ns) / static_cast<double>(end_time.ns());
}

std::string SimMetrics::summary() const {
  std::ostringstream oss;
  oss << "released=" << total_released() << " completed=" << total_completed()
      << " misses=" << total_deadline_misses()
      << " timely=" << total_timely_results()
      << " compensations=" << total_compensations()
      << " benefit=" << total_benefit()
      << " cpu=" << cpu_utilization();
  if (mode_changes > 0) {
    oss << " mode_changes=" << mode_changes
        << " degraded_ms=" << static_cast<double>(time_in_degraded_ns) / 1e6;
  }
  if (trace_truncated) oss << " trace=truncated";
  return oss.str();
}

}  // namespace rt::sim
