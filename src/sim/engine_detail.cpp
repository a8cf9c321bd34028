#include "sim/engine_detail.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/deadline.hpp"

namespace rt::sim::detail {

void validate_decisions(const core::TaskSet& tasks,
                        const core::DecisionVector& decisions, const char* who) {
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto& d = decisions[i];
    if (d.offloaded()) {
      if ((!tasks[i].setup_wcet_per_level.empty() &&
           d.level >= tasks[i].setup_wcet_per_level.size()) ||
          (!tasks[i].compensation_wcet_per_level.empty() &&
           d.level >= tasks[i].compensation_wcet_per_level.size())) {
        throw std::invalid_argument(std::string(who) +
                                    ": decision level out of range");
      }
      if (d.response_time >= tasks[i].deadline) {
        throw std::invalid_argument(
            std::string(who) + ": R >= D leaves no room for compensation");
      }
    }
  }
}

void fill_task_cache(std::vector<TaskCache>& cache, const core::TaskSet& tasks,
                     const core::DecisionVector& decisions,
                     const SimConfig& config, const RequestProfile& profile) {
  cache.assign(tasks.size(), TaskCache{});
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto& task = tasks[i];
    const auto& decision = decisions[i];
    TaskCache& tc = cache[i];
    tc.period = task.period;
    tc.deadline = task.deadline;
    tc.offloaded = decision.offloaded();
    tc.local_benefit = task.weight * task.benefit.local_value();
    if (!tc.offloaded) {
      tc.exec_wcet = task.local_wcet;
      continue;
    }
    tc.exec_wcet = task.setup_for_level(decision.level);
    tc.post_wcet = task.post_wcet;
    tc.comp_wcet = task.compensation_for_level(decision.level);
    tc.response_time = decision.response_time;
    tc.level = decision.level;
    const core::SplitDeadlines split =
        config.deadline_policy == DeadlinePolicy::kSplit
            ? core::split_deadlines(task, decision.response_time, decision.level)
            : core::naive_deadlines(task, decision.response_time);
    tc.d1 = split.d1;
    tc.timely_benefit =
        config.benefit_semantics == BenefitSemantics::kQualityValue
            ? task.weight *
                  task.benefit
                      .point(std::min(decision.level, task.benefit.size() - 1))
                      .value
            : task.weight;
    if (i < profile.size() && decision.level < profile[i].size()) {
      tc.req = profile[i][decision.level];
    }
    tc.req.stream_id = i;
  }
}

}  // namespace rt::sim::detail
