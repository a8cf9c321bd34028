#include "sim/report.hpp"

#include <stdexcept>

namespace rt::sim {

Table per_task_report(const core::TaskSet& tasks, const SimMetrics& metrics,
                      const core::DecisionVector& decisions) {
  if (metrics.per_task.size() != tasks.size()) {
    throw std::invalid_argument("per_task_report: metrics arity mismatch");
  }
  const bool with_decisions = !decisions.empty();
  if (with_decisions && decisions.size() != tasks.size()) {
    throw std::invalid_argument("per_task_report: decisions arity mismatch");
  }

  std::vector<std::string> headers{"task"};
  if (with_decisions) headers.push_back("decision");
  for (const char* h : {"jobs", "timely", "comp", "misses", "resp mean/max (ms)",
                        "benefit"}) {
    headers.emplace_back(h);
  }
  Table table(std::move(headers));

  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto& m = metrics.per_task[i];
    std::vector<std::string> row{tasks[i].name};
    if (with_decisions) {
      row.push_back(decisions[i].offloaded()
                        ? "offload@" + std::to_string(decisions[i].level) + " R=" +
                              decisions[i].response_time.to_string()
                        : "local");
    }
    row.push_back(std::to_string(m.released));
    row.push_back(std::to_string(m.timely_results));
    row.push_back(std::to_string(m.compensations));
    row.push_back(std::to_string(m.deadline_misses));
    row.push_back(m.observed_response_ms.empty()
                      ? "-"
                      : Table::fmt(m.observed_response_ms.mean(), 1) + "/" +
                            Table::fmt(m.observed_response_ms.max(), 1));
    row.push_back(Table::fmt(m.accrued_benefit, 1));
    table.add_row(std::move(row));
  }
  return table;
}

}  // namespace rt::sim
