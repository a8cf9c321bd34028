// Figure 2 (paper Section 6.1.3): the case study.
//
// For each of the 24 permutations of the importance weights {1,2,3,4} over
// the four vision tasks ("work sets"), the Offloading Decision Manager
// (dynamic programming solver) picks per-task offloading levels; a 10 s
// discrete-event simulation then measures the total weighted image quality
// under the three GPU-server scenarios. Every series is normalized, per
// work set, to the worst case in which no offloaded task ever receives a
// result (all compensations; simulated with a dead server).
//
// Expected shape: scenario 3 (idle) >= scenario 2 (not busy) >= scenario 1
// (busy) >= 1.0 for every work set; zero deadline misses everywhere.

#include <iostream>

#include "casestudy/case_study.hpp"
#include "core/odm.hpp"
#include "util/table.hpp"

namespace {

double run_scenario(const rt::core::TaskSet& tasks,
                    const rt::core::DecisionVector& decisions,
                    const rt::sim::RequestProfile& profile,
                    rt::server::ResponseModel& srv, std::uint64_t sim_seed,
                    std::uint64_t* misses) {
  rt::sim::SimConfig cfg;
  cfg.horizon = rt::Duration::seconds(10);
  cfg.benefit_semantics = rt::sim::BenefitSemantics::kQualityValue;
  cfg.seed = sim_seed;
  const rt::sim::SimResult res =
      rt::sim::simulate(tasks, decisions, srv, cfg, profile);
  if (misses != nullptr) *misses += res.metrics.total_deadline_misses();
  return res.metrics.total_benefit();
}

}  // namespace

int main() {
  using namespace rt;
  std::cout << "=== Figure 2: case study, normalized total weighted image "
               "quality over 24 work sets ===\n\n";

  const casestudy::CaseStudy study = casestudy::build_case_study();
  const sim::RequestProfile profile = study.request_profile();
  const auto permutations = casestudy::weight_permutations();

  Table table({"work set", "weights (t1,t2,t3,t4)", "offloaded levels",
               "scenario1 (busy)", "scenario2 (not busy)", "scenario3 (idle)"});
  std::uint64_t total_misses = 0;
  double sums[3] = {0.0, 0.0, 0.0};

  for (std::size_t ws = 0; ws < permutations.size(); ++ws) {
    core::TaskSet tasks = study.task_set();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      tasks[i].weight = permutations[ws][i];
    }

    core::OdmConfig odm_cfg;
    odm_cfg.solver = mckp::SolverKind::kDpProfits;
    odm_cfg.profit_scale = 100.0;  // PSNR resolution: 0.01 dB
    const core::OdmResult odm = core::decide_offloading(tasks, odm_cfg);
    if (!odm.feasible) {
      std::cerr << "work set " << ws << ": ODM infeasible (unexpected)\n";
      return 1;
    }

    // Worst case: the server never answers; every offloaded job falls back
    // to its compensation and earns only G(0).
    server::NeverResponds dead;
    const double worst = run_scenario(tasks, odm.decisions, profile, dead,
                                      900 + ws, &total_misses);

    const server::Scenario scenarios[3] = {server::Scenario::kBusy,
                                           server::Scenario::kNotBusy,
                                           server::Scenario::kIdle};
    double normalized[3];
    for (int s = 0; s < 3; ++s) {
      auto srv = server::make_scenario_server(scenarios[s], 7'000 + ws);
      const double benefit = run_scenario(tasks, odm.decisions, profile, *srv,
                                          100 + ws, &total_misses);
      normalized[s] = benefit / worst;
      sums[s] += normalized[s];
    }

    std::string weights, levels;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (i > 0) {
        weights += ',';
        levels += ',';
      }
      weights += Table::fmt(permutations[ws][i], 0);
      levels += odm.decisions[i].offloaded() ? std::to_string(odm.decisions[i].level)
                                             : std::string("L");
    }
    table.add_row({std::to_string(ws + 1), weights, levels,
                   Table::fmt(normalized[0]), Table::fmt(normalized[1]),
                   Table::fmt(normalized[2])});
  }
  table.print(std::cout);

  const double n = static_cast<double>(permutations.size());
  std::cout << "\nMeans over work sets: busy " << Table::fmt(sums[0] / n)
            << ", not-busy " << Table::fmt(sums[1] / n) << ", idle "
            << Table::fmt(sums[2] / n) << "\n"
            << "Deadline misses across all runs (must be 0): " << total_misses
            << "\n"
            << "Shape: idle >= not-busy >= busy >= 1.0 per work set "
               "(compensation guarantees the 1.0 floor).\n";
  return total_misses == 0 ? 0 : 1;
}
