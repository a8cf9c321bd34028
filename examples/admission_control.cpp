// Admission control example: the ODM as an online gatekeeper.
//
// Tasks arrive one by one (a mode change, a plugged-in sensor, a new app).
// For each arrival the system re-runs the Offloading Decision Manager over
// the accepted set plus the candidate:
//   - if the result is feasible, the candidate is admitted and everyone's
//     offloading levels are re-balanced (earlier tasks may be demoted to
//     cheaper levels or to local execution to make room);
//   - if even the best selection violates Theorem 3, the candidate is
//     rejected and the previous configuration stays untouched.
// After the arrival sequence, the final configuration is simulated to show
// the guarantee end to end.
//
// Build & run:  ./build/examples/admission_control

#include <cmath>
#include <iostream>

#include "core/odm.hpp"
#include "server/response_model.hpp"
#include "sim/report.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"

namespace {

rt::core::Task candidate(const std::string& name, int period_ms, int local_ms,
                         int setup_ms, int r_ms, double benefit) {
  using namespace rt;
  using namespace rt::literals;
  core::Task t = core::make_simple_task(
      name, Duration::milliseconds(period_ms), Duration::milliseconds(local_ms),
      Duration::milliseconds(setup_ms), Duration::milliseconds(local_ms));
  t.benefit = core::BenefitFunction(
      {{0_ms, benefit * 0.2}, {Duration::milliseconds(r_ms), benefit}});
  return t;
}

}  // namespace

int main() {
  using namespace rt;
  using namespace rt::literals;

  std::cout << "=== Online admission control with the ODM ===\n\n";

  const std::vector<core::Task> arrivals{
      candidate("camera", 100, 30, 4, 30, 8.0),
      candidate("lidar", 200, 50, 8, 60, 10.0),
      candidate("audio", 50, 8, 2, 20, 3.0),
      candidate("mapper", 400, 120, 20, 120, 14.0),   // too big: rejected
      candidate("greedy-hog", 60, 45, 6, 25, 20.0),   // 0.75 local: rejected
      candidate("telemetry", 500, 40, 4, 100, 2.0),   // small: fits late
  };

  core::TaskSet accepted;
  Table log({"arrival", "verdict", "density after", "objective after",
             "offloaded tasks"});
  for (const auto& task : arrivals) {
    core::TaskSet trial = accepted;
    trial.push_back(task);
    const core::OdmResult res = core::decide_offloading(trial);
    if (res.feasible) {
      accepted = std::move(trial);
      std::size_t offloaded = 0;
      for (const auto& d : res.decisions) offloaded += d.offloaded() ? 1 : 0;
      log.add_row({task.name, "ADMITTED", Table::fmt(res.density, 3),
                   Table::fmt(res.claimed_objective, 1),
                   std::to_string(offloaded) + "/" +
                       std::to_string(accepted.size())});
    } else {
      log.add_row({task.name, "rejected", "-", "-", "-"});
    }
  }
  log.print(std::cout);

  const core::OdmResult final_decisions = core::decide_offloading(accepted);
  std::cout << "\nFinal configuration (" << accepted.size()
            << " tasks admitted), simulated 30 s against a flaky server:\n";
  server::ShiftedLognormalResponse srv(5_ms, std::log(25.0), 0.8, 0.1);
  sim::SimConfig cfg;
  cfg.horizon = 30_s;
  const sim::SimResult res =
      sim::simulate(accepted, final_decisions.decisions, srv, cfg);
  sim::per_task_report(accepted, res.metrics, final_decisions.decisions)
      .print(std::cout);
  std::cout << "\n" << res.metrics.summary() << "\n";

  const bool ok = res.metrics.total_deadline_misses() == 0;
  std::cout << (ok ? "Every admitted task met every deadline."
                   : "UNEXPECTED: deadline misses!")
            << "\n";
  return ok ? 0 : 1;
}
