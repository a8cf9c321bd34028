#include "sim/report.hpp"

#include <gtest/gtest.h>

#include "core/decision.hpp"
#include "server/response_model.hpp"
#include "sim/simulator.hpp"

namespace rt::sim {
namespace {

using namespace rt::literals;
using core::make_simple_task;

SimResult run_simple() {
  core::TaskSet tasks{make_simple_task("alpha", 100_ms, 30_ms, 1_ms, 30_ms)};
  tasks[0].benefit =
      core::BenefitFunction({{0_ms, 1.0}, {40_ms, 5.0}});
  const core::DecisionVector ds{core::Decision::offload(1, 40_ms)};
  server::FixedResponse srv(20_ms);
  SimConfig cfg;
  cfg.horizon = 1_s;
  return simulate(tasks, ds, srv, cfg);
}

TEST(Report, PerTaskTableContainsCoreColumns) {
  core::TaskSet tasks{make_simple_task("alpha", 100_ms, 30_ms, 1_ms, 30_ms)};
  tasks[0].benefit = core::BenefitFunction({{0_ms, 1.0}, {40_ms, 5.0}});
  const core::DecisionVector ds{core::Decision::offload(1, 40_ms)};
  const SimResult res = run_simple();
  const Table table = per_task_report(tasks, res.metrics, ds);
  const std::string s = table.to_string();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("offload@1"), std::string::npos);
  EXPECT_NE(s.find("timely"), std::string::npos);
  EXPECT_NE(s.find("20.0/20.0"), std::string::npos);  // response mean/max
}

TEST(Report, DecisionColumnOptional) {
  core::TaskSet tasks{make_simple_task("alpha", 100_ms, 30_ms, 1_ms, 30_ms)};
  tasks[0].benefit = core::BenefitFunction({{0_ms, 1.0}, {40_ms, 5.0}});
  const SimResult res = run_simple();
  const Table table = per_task_report(tasks, res.metrics);
  EXPECT_EQ(table.to_string().find("decision"), std::string::npos);
}

TEST(Report, ArityMismatchThrows) {
  core::TaskSet tasks{make_simple_task("alpha", 100_ms, 30_ms, 1_ms, 30_ms)};
  SimMetrics empty;
  EXPECT_THROW(per_task_report(tasks, empty), std::invalid_argument);
  const SimResult res = run_simple();
  tasks[0].benefit = core::BenefitFunction({{0_ms, 1.0}, {40_ms, 5.0}});
  EXPECT_THROW(per_task_report(tasks, res.metrics, core::all_local(3)),
               std::invalid_argument);
}

}  // namespace
}  // namespace rt::sim
