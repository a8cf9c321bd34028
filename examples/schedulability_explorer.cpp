// Schedulability explorer: how the estimated worst-case response time R
// trades benefit against schedulability.
//
// For a single offloaded task inside a loaded system, the explorer sweeps R
// and prints the Theorem 3 density, the split deadlines D1/D2, and the
// verdicts of both the linear-bound test and the exact processor-demand
// analysis. It makes tangible why the ODM cannot just grant everyone the
// largest R: the density term (C1 + C2)/(D - R) blows up as R approaches D.
//
// Build & run:  ./build/examples/schedulability_explorer

#include <iostream>
#include <vector>

#include "core/deadline.hpp"
#include "core/schedulability.hpp"
#include "exp/batch.hpp"
#include "util/table.hpp"

namespace {

// One printed line of the sweep, computed independently per R.
struct SweepRow {
  rt::Duration r;
  std::vector<std::string> cells;
  bool thm3_feasible = false;
};

}  // namespace

int main() {
  using namespace rt;
  using namespace rt::literals;

  // The system: three local tasks at 0.55 background utilization plus one
  // offloadable vision task.
  core::TaskSet tasks;
  tasks.push_back(core::make_simple_task("ctl-a", 40_ms, 8_ms, 1_ms, 8_ms));
  tasks.push_back(core::make_simple_task("ctl-b", 100_ms, 15_ms, 1_ms, 15_ms));
  tasks.push_back(core::make_simple_task("logger", 500_ms, 100_ms, 1_ms, 100_ms));

  core::Task vision = core::make_simple_task("vision", 200_ms, 60_ms, 8_ms, 60_ms);
  // A dense benefit ladder so every R in the sweep is a real choice.
  {
    std::vector<core::BenefitPoint> pts{{0_ms, 1.0}};
    for (int r = 10; r <= 190; r += 10) {
      pts.push_back({Duration::milliseconds(r),
                     1.0 + 9.0 * static_cast<double>(r) / 190.0});
    }
    vision.benefit = core::BenefitFunction(std::move(pts));
  }
  tasks.push_back(vision);

  std::cout << "=== R sweep for task 'vision' (C=60ms, C1=8ms, C2=60ms, "
               "D=T=200ms) amid 0.55 background utilization ===\n\n";

  Table table({"R", "benefit G(R)", "D1", "D2", "Thm3 density", "Thm3",
               "exact PDA"});

  // Each R is an independent feasibility question; fan the rows across the
  // BatchRunner workers (the exact PDA is the costly part) and print them
  // in order afterwards.
  std::vector<SweepRow> rows(20);
  exp::BatchConfig batch;
  batch.jobs = 0;  // one worker per hardware thread
  exp::BatchRunner runner(batch);
  runner.for_each(rows.size(), [&](std::size_t i, Rng&) {
    const int r_ms = static_cast<int>(i) * 10;
    const Duration r = Duration::milliseconds(r_ms);
    core::DecisionVector ds = core::all_local(tasks.size());
    std::size_t level = 0;
    if (r_ms > 0) {
      // Find the benefit level at this R.
      for (std::size_t j = 1; j < vision.benefit.size(); ++j) {
        if (vision.benefit.point(j).response_time == r) level = j;
      }
      ds[3] = core::Decision::offload(level, r);
    }
    const UtilFp density = core::total_density(tasks, ds);
    const bool t3 = core::theorem3_feasible(tasks, ds);
    const bool pda = core::pda_feasible(tasks, ds).feasible;

    std::string d1 = "-", d2 = "-";
    if (r_ms > 0) {
      const core::SplitDeadlines split = core::split_deadlines(tasks[3], r, level);
      d1 = split.d1.to_string();
      d2 = split.d2.to_string();
    }
    rows[i] = SweepRow{
        r,
        {r.to_string(), Table::fmt(tasks[3].benefit.value_at(r), 2), d1, d2,
         density.is_saturated() ? "inf" : Table::fmt(density.to_double(), 3),
         t3 ? "feasible" : "-", pda ? "feasible" : "-"},
        t3};
  });

  Duration last_feasible = Duration::zero();
  for (SweepRow& row : rows) {
    if (row.thm3_feasible) last_feasible = row.r;
    table.add_row(std::move(row.cells));
  }
  table.print(std::cout);

  std::cout << "\nLargest Theorem 3-feasible R: " << last_feasible.to_string()
            << " -- the best benefit the ODM could grant this task given the "
               "background load.\nNote where the exact PDA keeps accepting "
               "after the linear bound gives up: that is the price of an "
               "O(n) closed-form test.\n";
  return 0;
}
