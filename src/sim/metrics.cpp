#include "sim/metrics.hpp"

#include <sstream>
#include <utility>

#include "obs/sink.hpp"
#include "sim/batch_engine.hpp"

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

void add_batch_counters(obs::Sink* sink, const BatchEngineStats& stats) {
  if (sink == nullptr) return;
  auto& reg = sink->registry();
  reg.counter("batch.fast_replications").inc(stats.fast_replications);
  reg.counter("batch.fallback_replications").inc(stats.fallback_replications);
  reg.counter("sim.batch.resync_windows").inc(stats.resync_windows);
  reg.counter("sim.batch.resync_events").inc(stats.resync_events);
  const std::pair<const char*, std::size_t> causes[] = {
      {"scheduler", stats.ineligible_scheduler},
      {"exec_policy", stats.ineligible_exec_policy},
      {"release_policy", stats.ineligible_release_policy},
      {"context_switch", stats.ineligible_context_switch},
      {"controller", stats.ineligible_controller},
      {"sink", stats.ineligible_sink},
      {"trace", stats.ineligible_trace},
      {"post_wcet", stats.ineligible_post_wcet},
      {"wide_window", stats.ineligible_wide_window},
      {"ties", stats.ineligible_ties},
  };
  for (const auto& [cause, count] : causes) {
    reg.counter(std::string("sim.batch.ineligible.") + cause).inc(count);
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
