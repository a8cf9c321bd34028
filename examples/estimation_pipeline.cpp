// Estimation pipeline example: the paper's full software architecture
// (Section 3.1) end to end on a component nobody gave us a model for.
//
//   1. Benefit & Response Time Estimator: probe the (black box) server,
//      collect response samples, fit an empirical success-probability
//      curve at chosen percentiles.
//   2. Turn the measured curve into a valid benefit function
//      (make_monotone_benefit cleans plateaus/inversions).
//   3. Offloading Decision Manager: MCKP + Theorem 3 over the measured
//      curves.
//   4. Runtime: split-deadline EDF with compensations against the *same*
//      black box, verifying that the measured success rates materialize.
//
// Build & run:  ./build/examples/estimation_pipeline

#include <cmath>
#include <iostream>

#include "core/odm.hpp"
#include "server/bursty.hpp"
#include "server/gpu_server.hpp"
#include "server/estimator.hpp"
#include "sim/report.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"

int main() {
  using namespace rt;
  using namespace rt::literals;

  std::cout << "=== From measurements to guarantees: the estimation "
               "pipeline ===\n\n";

  // The black box: a bursty shared component we know nothing about.
  auto black_box = server::make_default_bursty(2024);

  // --- 1. Probe it -----------------------------------------------------
  Rng probe_rng(1);
  server::Request probe;
  probe.payload_bytes = 64 * 1024;
  const std::vector<Duration> samples = server::collect_response_samples(
      *black_box, probe, /*inter_send=*/120_ms, /*n=*/600, probe_rng);
  black_box->reset();  // profiling done; the runtime starts fresh

  const auto curve =
      server::build_success_curve(samples, {50, 70, 80, 90, 95, 99});
  std::cout << "Measured success curve (600 probes):\n";
  Table curve_table({"percentile-derived r", "P[response <= r]"});
  for (const auto& pt : curve) {
    curve_table.add_row({pt.response_time.to_string(),
                         Table::fmt(pt.success_probability, 3)});
  }
  curve_table.print(std::cout);

  // --- 2. Benefit functions from the measurements -----------------------
  // Three sensor tasks share the component; their benefit is quality scaled
  // by the success probability of getting the rich result in time.
  struct Spec {
    const char* name;
    Duration period;
    Duration local;
    Duration setup;
    double quality;  // value of a timely high-fidelity result
  };
  const Spec specs[] = {
      {"fusion", 400_ms, 90_ms, 9_ms, 10.0},
      {"tracker", 250_ms, 60_ms, 6_ms, 6.0},
      {"logger", 1000_ms, 120_ms, 12_ms, 3.0},
  };
  core::TaskSet tasks;
  for (const auto& s : specs) {
    core::Task t = core::make_simple_task(s.name, s.period, s.local, s.setup,
                                          s.local);
    std::vector<core::BenefitPoint> points;
    for (const auto& pt : curve) {
      if (pt.response_time >= t.deadline) continue;
      points.push_back({pt.response_time, s.quality * pt.success_probability});
    }
    t.benefit = core::make_monotone_benefit(/*local_value=*/s.quality * 0.2,
                                            std::move(points));
    tasks.push_back(std::move(t));
  }

  // --- 3. Decide ---------------------------------------------------------
  const core::OdmResult odm = core::decide_offloading(tasks);
  std::cout << "\nODM decisions (Theorem 3 density "
            << Table::fmt(odm.density, 3) << "):\n";
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    std::cout << "  " << tasks[i].name << ": " << odm.decisions[i].to_string()
              << "\n";
  }

  // --- 4. Run against the same black box ---------------------------------
  sim::SimConfig cfg;
  cfg.horizon = 120_s;
  const sim::SimResult res = sim::simulate(tasks, odm.decisions, *black_box, cfg);
  std::cout << "\n120 s against the live component:\n";
  sim::per_task_report(tasks, res.metrics, odm.decisions).print(std::cout);

  std::cout << "\nMeasured-vs-achieved timeliness per offloaded task:\n";
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto& m = res.metrics.per_task[i];
    if (!odm.decisions[i].offloaded() || m.offload_attempts == 0) continue;
    const double achieved = static_cast<double>(m.timely_results) /
                            static_cast<double>(m.offload_attempts);
    const double predicted = server::success_probability(
        samples, odm.decisions[i].response_time);
    std::cout << "  " << tasks[i].name << ": predicted "
              << Table::fmt(predicted, 3) << ", achieved "
              << Table::fmt(achieved, 3) << "\n";
  }
  std::cout << "\n" << res.metrics.summary() << "\n"
            << (res.metrics.total_deadline_misses() == 0
                    ? "Zero deadline misses: the guarantee never depended on "
                      "the estimates being right."
                    : "UNEXPECTED: misses!")
            << "\n";
  return res.metrics.total_deadline_misses() == 0 ? 0 : 1;
}
