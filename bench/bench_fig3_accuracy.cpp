// Figure 3 (paper Section 6.2): effect of estimation accuracy on the total
// benefit, dynamic programming vs the HEU-OE heuristic.
//
// 30 random tasks per the paper's generator; the benefit is the probability
// of receiving the higher-performance result within r. With estimation
// accuracy ratio x, the Benefit & Response Time Estimator believes every
// breakpoint sits at (1+x)*r: x < 0 under-estimates response times (the
// success probability within a window is over-estimated, compensation fires
// more often than expected), x > 0 over-estimates them (offloading choices
// look too expensive and are not taken).
//
// Reported per x in {-40%, ..., +40%}: the analytic expected number of
// timely higher-performance results sum_i G_i(R_i), and a 200 s
// discrete-event simulation where the server's response distribution is the
// true G_i. Everything is normalized to the perfect-estimation DP value.
//
// The whole grid is declared in examples/specs/fig3.json (schema v1,
// docs/SCENARIOS.md) and run through spec::plan_batch and exp::BatchRunner
// -- the parallel runner with deterministic per-scenario seeding, the same
// path as `rtoffload_cli --spec examples/specs/fig3.json` -- so the table is
// bit-identical for every worker count.
//
// Expected shape: maximum at x = 0, monotone-ish decay to both sides,
// DP >= HEU-OE, zero deadline misses for every x (the guarantee).

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "exp/batch.hpp"
#include "spec/grid.hpp"
#include "util/table.hpp"

namespace {

std::string slurp(const char* path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error(std::string("cannot open ") + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// One (error, solver) grid point.
struct Cell {
  /// Analytic expected timely higher-performance results per job wave:
  /// sum_i G_i(R_i) over the offloaded decisions.
  double analytic = 0.0;
  /// Simulated timely-result benefit per job wave.
  double simulated = 0.0;
};

Cell fig3_cell(const rt::core::TaskSet& tasks,
               const rt::exp::ScenarioOutcome& outcome) {
  Cell cell;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (outcome.decisions[i].offloaded()) {
      cell.analytic +=
          tasks[i].benefit.value_at(outcome.decisions[i].response_time);
    }
    const auto& m = outcome.metrics.per_task[i];
    if (m.released > 0) {
      cell.simulated += m.accrued_benefit / static_cast<double>(m.released);
    }
  }
  return cell;
}

}  // namespace

int main() {
  using namespace rt;
  std::cout << "=== Figure 3: normalized total benefit vs estimation "
               "accuracy ratio ===\n\n";

  constexpr const char* kSpecFile = RTOFFLOAD_SPECS_DIR "/fig3.json";
  const spec::ScenarioDoc doc = spec::ScenarioDoc::parse_text(slurp(kSpecFile));
  spec::BatchPlan plan = spec::plan_batch(doc);
  plan.batch.jobs = 0;  // one worker per hardware thread
  const std::vector<exp::ScenarioOutcome> outcomes =
      exp::BatchRunner(plan.batch).run(plan.specs);

  std::uint64_t total_misses = 0;
  for (const exp::ScenarioOutcome& o : outcomes) {
    total_misses += o.metrics.total_deadline_misses();
  }
  const auto cell = [&](double x, mckp::SolverKind solver) {
    for (const exp::ScenarioOutcome& o : outcomes) {
      const exp::ScenarioSpec& spec = plan.specs[o.index];
      if (spec.odm.estimation_error == x && spec.odm.solver == solver) {
        return fig3_cell(spec.tasks, o);
      }
    }
    throw std::out_of_range("fig3.json has no such grid point");
  };

  const Cell base = cell(0.0, mckp::SolverKind::kDpProfits);
  if (base.analytic <= 0.0) {
    std::cerr << "baseline benefit is zero -- workload misconfigured\n";
    return 1;
  }

  Table table({"accuracy ratio x", "DP (analytic)", "HEU-OE (analytic)",
               "DP (simulated)", "HEU-OE (simulated)"});
  double dp_at_zero = 0.0, dp_at_edge = 1e9;
  for (const exp::ScenarioSpec& spec : plan.specs) {
    if (spec.odm.solver != mckp::SolverKind::kDpProfits) continue;
    const double x = spec.odm.estimation_error;
    const Cell dp = cell(x, mckp::SolverKind::kDpProfits);
    const Cell heu = cell(x, mckp::SolverKind::kHeuOe);
    const int pct = static_cast<int>(x * 100.0 + (x < 0 ? -0.5 : 0.5));
    if (pct == 0) dp_at_zero = dp.analytic / base.analytic;
    if (pct == -40 || pct == 40) {
      dp_at_edge = std::min(dp_at_edge, dp.analytic / base.analytic);
    }
    table.add_row({std::to_string(pct) + "%",
                   Table::fmt(dp.analytic / base.analytic),
                   Table::fmt(heu.analytic / base.analytic),
                   Table::fmt(dp.simulated / base.simulated),
                   Table::fmt(heu.simulated / base.simulated)});
  }
  table.print(std::cout);

  std::cout << "\nDeadline misses across all runs (must be 0): "
            << total_misses << "\n"
            << "Shape: peak at x = 0 (" << Table::fmt(dp_at_zero)
            << "), degraded at the +/-40% edges (min " << Table::fmt(dp_at_edge)
            << ").\nAt x = 0 the DP is provably at least the heuristic; under "
               "estimation error both optimize a *wrong* objective, so either "
               "can come out ahead on true benefit -- exactly the paper's "
               "point that the estimate quality, not the solver, dominates.\n";
  return total_misses == 0 ? 0 : 1;
}
