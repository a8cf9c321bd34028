#include "core/odm.hpp"

#include <stdexcept>

#include "obs/sink.hpp"
#include "obs/timer.hpp"

namespace rt::core {

OdmInstance build_odm_instance(const TaskSet& tasks, const OdmConfig& config) {
  validate_task_set(tasks);
  if (config.estimation_error <= -1.0) {
    throw std::invalid_argument("OdmConfig: estimation_error must be > -1");
  }

  OdmInstance out;
  out.instance.capacity = UtilFp::one().raw();
  out.instance.classes.reserve(tasks.size());
  out.level_of.reserve(tasks.size());
  out.response_of.reserve(tasks.size());
  out.estimated_benefit.reserve(tasks.size());

  for (const auto& task : tasks) {
    const BenefitFunction estimated =
        config.estimation_error == 0.0
            ? task.benefit
            : task.benefit.with_scaled_response_times(1.0 + config.estimation_error);
    const double w = config.apply_task_weights ? task.weight : 1.0;

    std::vector<mckp::Item> cls;
    std::vector<std::size_t> levels;
    std::vector<Duration> responses;

    // Level 0: local execution; weight C_i/T_i, profit w*G_i(0).
    mckp::Item local_item;
    local_item.weight = local_density(task).raw();
    local_item.profit = w * estimated.local_value();
    cls.push_back(local_item);
    levels.push_back(0);
    responses.push_back(Duration::zero());

    auto try_add = [&](std::size_t level, Duration r) {
      const UtilFp density = offload_density(task, r, level);
      // Choices that can never satisfy Theorem 3 (R >= D, or a single term
      // already above the capacity) are pruned here.
      if (density.is_saturated() || density > UtilFp::one()) return;
      mckp::Item item;
      item.weight = density.raw();
      item.profit = w * estimated.point(level).value;
      cls.push_back(item);
      levels.push_back(level);
      responses.push_back(r);
    };

    // Levels j >= 1: offloading with R_i = (estimated) r_{i,j}; with a
    // trusted response bound B > r_{i,j}, also offer R_i = B, which widens
    // the timer but reserves only the post-processing budget.
    for (std::size_t j = 1; j < estimated.size(); ++j) {
      const Duration r = estimated.point(j).response_time;
      try_add(j, r);
      if (task.response_upper_bound.has_value() &&
          *task.response_upper_bound > r) {
        try_add(j, *task.response_upper_bound);
      }
    }

    out.instance.classes.push_back(std::move(cls));
    out.level_of.push_back(std::move(levels));
    out.response_of.push_back(std::move(responses));
    out.estimated_benefit.push_back(estimated);
  }
  return out;
}

OdmResult decide_offloading(const TaskSet& tasks, const OdmConfig& config) {
  OdmResult res;
  if (tasks.empty()) {
    res.feasible = true;
    return res;
  }
  obs::ScopedTimer decide_timer(
      config.sink != nullptr
          ? &config.sink->registry().histogram("odm.decide_ns")
          : nullptr);
  OdmInstance odm = build_odm_instance(tasks, config);

  res.raw_selection =
      mckp::solve(odm.instance, config.solver, config.profit_scale, nullptr,
                  config.sink, &res.lp_bound);

  res.decisions.reserve(tasks.size());
  if (res.raw_selection.feasible) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const auto item = static_cast<std::size_t>(res.raw_selection.pick[i]);
      const std::size_t level = odm.level_of[i][item];
      const double claimed = odm.instance.classes[i][item].profit;
      if (level == 0) {
        res.decisions.push_back(Decision::local(claimed));
      } else {
        res.decisions.push_back(
            Decision::offload(level, odm.response_of[i][item], claimed));
      }
      res.claimed_objective += claimed;
    }
    // Defense in depth: the solver is trusted for optimality, never for
    // timing safety. Re-verify with Theorem 3; degrade to all-local on any
    // discrepancy. A pass is the verdict on the returned decisions.
    res.feasible = theorem3_feasible(tasks, res.decisions);
    if (!res.feasible) {
      res.decisions.clear();
      res.claimed_objective = 0.0;
    }
  }
  if (res.decisions.empty()) {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const double w = config.apply_task_weights ? tasks[i].weight : 1.0;
      const double claimed = w * odm.estimated_benefit[i].local_value();
      res.decisions.push_back(Decision::local(claimed));
      res.claimed_objective += claimed;
    }
    res.feasible = theorem3_feasible(tasks, res.decisions);
  }

  res.density = total_density(tasks, res.decisions).to_double();
  if (config.sink != nullptr) {
    auto& reg = config.sink->registry();
    reg.counter("odm.decisions").inc();
    std::uint64_t offloaded = 0;
    for (const auto& d : res.decisions) offloaded += d.offloaded() ? 1 : 0;
    reg.counter("odm.tasks_offloaded").inc(offloaded);
    reg.counter("odm.tasks_local").inc(res.decisions.size() - offloaded);
    if (!res.feasible) reg.counter("odm.infeasible").inc();
  }
  return res;
}

DecisionVector greedy_local_choice(const TaskSet& tasks, double estimation_error) {
  validate_task_set(tasks);
  if (estimation_error <= -1.0) {
    throw std::invalid_argument("greedy_local_choice: estimation_error must be > -1");
  }
  DecisionVector out;
  out.reserve(tasks.size());
  for (const auto& task : tasks) {
    const BenefitFunction estimated =
        estimation_error == 0.0
            ? task.benefit
            : task.benefit.with_scaled_response_times(1.0 + estimation_error);
    Decision best = Decision::local(task.weight * estimated.local_value());
    // Highest level that leaves room for setup + compensation before D.
    for (std::size_t j = estimated.size(); j-- > 1;) {
      const Duration r = estimated.point(j).response_time;
      if (r >= task.deadline) continue;
      const Duration need =
          task.setup_for_level(j) + task.compensation_for_level(j);
      if (need > task.deadline - r) continue;
      best = Decision::offload(j, r, task.weight * estimated.point(j).value);
      break;
    }
    out.push_back(best);
  }
  return out;
}

}  // namespace rt::core
