// Decision-policy comparison: who wins, and at what safety cost?
//
//   all-local        never offloads (the floor)
//   greedy [8]-style each task independently takes its best fitting level,
//                    ignoring the shared CPU (Nimmagadda et al.)
//   ODM heu-oe       MCKP heuristic under the Theorem 3 capacity
//   ODM dp           MCKP dynamic programming under the capacity (the paper)
//
// All four run through the same simulator against the three server
// scenarios. The punchline the paper builds on: the greedy baseline wins
// benefit on paper but misses deadlines; the ODM rows are the only ones
// that maximize benefit AND stay at zero misses.
//
// The 20 sets x 4 policies x 3 scenarios = 240 simulations fan out across
// exp::BatchRunner workers; each scenario clones its server prototype and
// draws a seed derived from its index, so the totals are identical for any
// --jobs-style worker count.

#include <iostream>

#include "core/odm.hpp"
#include "core/schedulability.hpp"
#include "core/workload.hpp"
#include "exp/batch.hpp"
#include "server/gpu_server.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"

int main() {
  using namespace rt;
  std::cout << "=== Baseline comparison: benefit vs timing safety ===\n"
            << "(20 random 12-task sets, 20 s horizon per scenario; benefit = "
               "probability-weighted timely results; totals over all sets)\n\n";

  Table table({"policy", "scenario", "total benefit", "deadline misses",
               "compensations"});

  const server::Scenario scenarios[] = {server::Scenario::kBusy,
                                        server::Scenario::kNotBusy,
                                        server::Scenario::kIdle};

  constexpr int kPolicies = 4;
  constexpr int kScenarios = 3;
  const char* names[kPolicies] = {"all-local", "greedy [8]-style",
                                  "ODM heu-oe", "ODM dp (paper)"};

  // One spec per (task set, policy, server scenario); tag = p*kScenarios+s
  // keys the accumulator row so outcomes can arrive in any order.
  std::vector<exp::ScenarioSpec> specs;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    core::PaperSimConfig wl;
    wl.num_tasks = 12;
    wl.wcet_max = Duration::milliseconds(40);
    wl.period_min = Duration::milliseconds(250);
    wl.period_max = Duration::milliseconds(400);
    const core::TaskSet tasks = core::make_paper_simulation_taskset(rng, wl);
    // The paper's setup guarantees local feasibility; skip the rare draws
    // where even all-local overloads the CPU (nothing can be compared).
    if (!core::theorem3_feasible(tasks, core::all_local(tasks.size()))) continue;

    core::OdmConfig heu_cfg;
    heu_cfg.solver = mckp::SolverKind::kHeuOe;
    heu_cfg.apply_task_weights = false;
    core::OdmConfig dp_cfg;
    dp_cfg.apply_task_weights = false;

    const core::DecisionVector fixed[2] = {core::all_local(tasks.size()),
                                           core::greedy_local_choice(tasks)};

    for (int s = 0; s < kScenarios; ++s) {
      const std::shared_ptr<const server::ResponseModel> server =
          server::make_scenario_server(scenarios[s], seed * 10 +
                                                     static_cast<std::uint64_t>(s));
      for (int p = 0; p < kPolicies; ++p) {
        exp::ScenarioSpec spec;
        spec.tasks = tasks;
        if (p < 2) {
          spec.decisions = fixed[p];
        } else {
          spec.odm = p == 2 ? heu_cfg : dp_cfg;
        }
        spec.server = server;
        spec.sim.horizon = Duration::seconds(20);
        spec.sim.benefit_semantics = sim::BenefitSemantics::kTimelyCount;
        spec.tag = static_cast<std::uint64_t>(p * kScenarios + s);
        specs.push_back(std::move(spec));
      }
    }
  }

  exp::BatchConfig batch;
  batch.jobs = 0;  // one worker per hardware thread
  exp::BatchRunner runner(batch);
  const std::vector<exp::ScenarioOutcome> outcomes = runner.run(specs);

  double benefit[kPolicies][kScenarios] = {};
  std::uint64_t misses[kPolicies][kScenarios] = {};
  std::uint64_t comps[kPolicies][kScenarios] = {};
  for (const exp::ScenarioOutcome& oc : outcomes) {
    const int p = static_cast<int>(oc.tag) / kScenarios;
    const int s = static_cast<int>(oc.tag) % kScenarios;
    benefit[p][s] += oc.metrics.total_benefit();
    misses[p][s] += oc.metrics.total_deadline_misses();
    comps[p][s] += oc.metrics.total_compensations();
  }

  for (int p = 0; p < kPolicies; ++p) {
    for (int s = 0; s < kScenarios; ++s) {
      table.add_row({names[p], server::to_string(scenarios[s]),
                     Table::fmt(benefit[p][s], 1), std::to_string(misses[p][s]),
                     std::to_string(comps[p][s])});
    }
  }
  table.print(std::cout);

  bool odm_safe = true;
  for (int p = 2; p < kPolicies; ++p) {
    for (int s = 0; s < kScenarios; ++s) odm_safe &= misses[p][s] == 0;
  }
  std::cout << "\nShape: the ODM rows must show ZERO misses ("
            << (odm_safe ? "yes" : "VIOLATED")
            << "); the greedy baseline buys its extra claimed benefit with "
               "real deadline misses; all-local is safe but earns nothing.\n";
  return odm_safe ? 0 : 1;
}
