#include "core/schedulability.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/deadline.hpp"

namespace rt::core {

namespace {

constexpr std::int64_t kInfDemand = INT64_MAX / 4;

/// Number of deadlines at offset + k*T (k >= 0) inside an interval of
/// length t: floor((t - offset)/T) + 1 when t >= offset, else 0.
std::int64_t step_count(std::int64_t t, std::int64_t offset, std::int64_t period) {
  if (t < offset) return 0;
  return (t - offset) / period + 1;
}

std::int64_t saturating_add(std::int64_t a, std::int64_t b) {
  if (a >= kInfDemand || b >= kInfDemand || a > kInfDemand - b) return kInfDemand;
  return a + b;
}

std::int64_t saturating_mul(std::int64_t a, std::int64_t b) {
  const __int128 p = static_cast<__int128>(a) * b;
  if (p >= static_cast<__int128>(kInfDemand)) return kInfDemand;
  return static_cast<std::int64_t>(p);
}

}  // namespace

UtilFp local_density(const Task& t) {
  return UtilFp::ratio_ceil(t.local_wcet.ns(), t.period.ns());
}

UtilFp offload_density(const Task& t, Duration response_time, std::size_t level) {
  if (response_time.is_negative()) {
    throw std::invalid_argument("offload_density: negative response time");
  }
  if (response_time >= t.deadline) return UtilFp::saturated();
  const std::int64_t c12 = t.setup_for_level(level).ns() +
                           t.second_phase_budget(level, response_time).ns();
  return UtilFp::ratio_ceil(c12, (t.deadline - response_time).ns());
}

UtilFp decision_density(const Task& t, const Decision& d) {
  if (!d.offloaded()) return local_density(t);
  return offload_density(t, d.response_time, d.level);
}

UtilFp total_density(const TaskSet& tasks, const DecisionVector& decisions) {
  if (tasks.size() != decisions.size()) {
    throw std::invalid_argument("total_density: decisions arity mismatch");
  }
  UtilFp sum = UtilFp::zero();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    sum = sum.add_sat(decision_density(tasks[i], decisions[i]));
  }
  return sum;
}

bool theorem3_feasible(const TaskSet& tasks, const DecisionVector& decisions) {
  return total_density(tasks, decisions) <= UtilFp::one();
}

std::int64_t dbf_exact(const Task& task, const Decision& d, Duration interval) {
  const std::int64_t t = interval.ns();
  if (t < 0) throw std::invalid_argument("dbf_exact: negative interval");
  const std::int64_t period = task.period.ns();
  if (!d.offloaded()) {
    return saturating_mul(step_count(t, task.deadline.ns(), period),
                          task.local_wcet.ns());
  }
  const SplitDeadlines split = split_deadlines(task, d.response_time, d.level);
  const std::int64_t c1 = task.setup_for_level(d.level).ns();
  const std::int64_t c2 = task.second_phase_budget(d.level, d.response_time).ns();
  const std::int64_t d1 = split.d1.ns();
  const std::int64_t d2 = split.d2.ns();
  const std::int64_t r = d.response_time.ns();
  const std::int64_t dd = task.deadline.ns();

  // Alignment A: the window opens at the latest release of a second sub-job.
  const std::int64_t a =
      saturating_add(saturating_mul(step_count(t, d2, period), c2),
                     saturating_mul(step_count(t, period - r, period), c1));
  // Alignment B: the window opens at a job release.
  const std::int64_t b =
      saturating_add(saturating_mul(step_count(t, d1, period), c1),
                     saturating_mul(step_count(t, dd, period), c2));
  return std::max(a, b);
}

std::int64_t dbf_linear_bound(const Task& task, const Decision& d,
                              Duration interval) {
  const std::int64_t t = interval.ns();
  if (t < 0) throw std::invalid_argument("dbf_linear_bound: negative interval");
  const UtilFp density = decision_density(task, d);
  if (density.is_saturated()) return kInfDemand;
  const __int128 prod = static_cast<__int128>(density.raw()) * t;
  const __int128 q = (prod + UtilFp::kOneRaw - 1) / UtilFp::kOneRaw;  // round up
  if (q >= static_cast<__int128>(kInfDemand)) return kInfDemand;
  return static_cast<std::int64_t>(q);
}

namespace {

/// Busy-period bound of the composite dbf: demand(t) <= u_asym*t + const,
/// so violations live below const/(1 - u_asym). unbounded == true when the
/// asymptotic utilization reaches 1 (or an R >= D slipped through).
struct BusyBound {
  bool unbounded = false;
  std::int64_t horizon_ns = 0;
  bool under_cap = false;
};

BusyBound busy_bound(const TaskSet& tasks, const DecisionVector& decisions,
                     Duration horizon_cap) {
  BusyBound out;
  UtilFp u_asym = UtilFp::zero();
  std::int64_t const_sum = 0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto& task = tasks[i];
    const auto& d = decisions[i];
    if (d.offloaded()) {
      if (d.response_time >= task.deadline) {
        out.unbounded = true;
        return out;
      }
      const std::int64_t c12 =
          task.setup_for_level(d.level).ns() +
          task.second_phase_budget(d.level, d.response_time).ns();
      u_asym = u_asym.add_sat(UtilFp::ratio_ceil(c12, task.period.ns()));
      const_sum = saturating_add(const_sum, c12);
    } else {
      u_asym = u_asym.add_sat(local_density(task));
      const_sum = saturating_add(const_sum, task.local_wcet.ns());
    }
  }
  if (u_asym >= UtilFp::one()) {
    out.unbounded = true;
    return out;
  }
  const double slack = 1.0 - u_asym.to_double();
  const double bound_ns = static_cast<double>(const_sum) / slack;
  out.under_cap = bound_ns <= static_cast<double>(horizon_cap.ns());
  out.horizon_ns = out.under_cap ? static_cast<std::int64_t>(std::ceil(bound_ns))
                                 : horizon_cap.ns();
  return out;
}

/// The dbf step offsets (o, o+T, o+2T, ...) contributed by one task under
/// its decision; a superset of the true change points is fine.
void collect_offsets(const Task& task, const Decision& d,
                     std::vector<std::pair<std::int64_t, std::int64_t>>* out) {
  const std::int64_t period = task.period.ns();
  if (!d.offloaded()) {
    out->emplace_back(task.deadline.ns(), period);
    return;
  }
  const SplitDeadlines split = split_deadlines(task, d.response_time, d.level);
  out->emplace_back(split.d1.ns(), period);
  out->emplace_back(split.d2.ns(), period);
  out->emplace_back(task.deadline.ns(), period);
  out->emplace_back(period - d.response_time.ns(), period);
}

}  // namespace

PdaResult pda_feasible(const TaskSet& tasks, const DecisionVector& decisions,
                       Duration horizon_cap) {
  if (tasks.size() != decisions.size()) {
    throw std::invalid_argument("pda_feasible: decisions arity mismatch");
  }
  PdaResult res;

  const BusyBound bound = busy_bound(tasks, decisions, horizon_cap);
  if (bound.unbounded) {
    res.feasible = false;
    res.unbounded_utilization = true;
    return res;
  }
  const bool bounded_under_cap = bound.under_cap;
  const std::int64_t horizon = bound.horizon_ns;
  res.horizon = Duration::nanoseconds(horizon);

  // Candidate points: every dbf step <= horizon.
  std::vector<std::pair<std::int64_t, std::int64_t>> streams;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    collect_offsets(tasks[i], decisions[i], &streams);
  }
  std::vector<std::int64_t> points;
  for (const auto& [offset, period] : streams) {
    for (std::int64_t p = offset; p <= horizon; p += period) {
      points.push_back(p);
      if (points.size() > 8'000'000) {
        throw std::runtime_error("pda_feasible: too many test points; tighten cap");
      }
    }
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());

  for (const std::int64_t t : points) {
    if (t <= 0) continue;
    std::int64_t demand = 0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      demand = saturating_add(demand,
                              dbf_exact(tasks[i], decisions[i], Duration(t)));
      if (demand > t) break;
    }
    if (demand > t) {
      res.feasible = false;
      res.violation_at = Duration::nanoseconds(t);
      return res;
    }
  }

  if (!bounded_under_cap) {
    // Could not cover the whole busy period: fall back to the (sound)
    // Theorem 3 verdict rather than overclaim exactness.
    res.feasible = theorem3_feasible(tasks, decisions);
    return res;
  }
  res.feasible = true;
  return res;
}

}  // namespace rt::core
