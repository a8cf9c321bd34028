// Every checked-in examples/specs/*.json document must parse, be a
// normalization fixed point, expand its sweep, and build runtime objects
// for every grid point. Labeled quick so `ctest -L quick` keeps the
// shipped specs honest.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "spec/grid.hpp"
#include "spec/scenario_doc.hpp"

using namespace rt;

namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(SpecExamples, AllShippedSpecsParseExpandAndBuild) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(RTOFFLOAD_SPECS_DIR)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  EXPECT_GE(files.size(), 5u) << "examples/specs/ lost documents";

  for (const fs::path& file : files) {
    SCOPED_TRACE(file.string());
    const spec::ScenarioDoc doc = spec::ScenarioDoc::parse_text(slurp(file));
    // Checked-in documents are valid; normalization is a fixed point.
    EXPECT_EQ(doc.to_json(), spec::ScenarioDoc::parse(doc.to_json()).to_json());

    const std::vector<spec::ScenarioDoc> grid = spec::expand_grid(doc);
    ASSERT_FALSE(grid.empty());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      SCOPED_TRACE(i);
      const spec::BuiltScenario built = spec::build_scenario(grid[i]);
      EXPECT_FALSE(built.tasks.empty());
      if (!grid[i].server.is_null()) {
        EXPECT_NE(built.server, nullptr);
      }
      if (!grid[i].controller.is_null()) {
        EXPECT_NE(built.controller, nullptr);
      }
    }
  }
}

TEST(SpecExamples, Fig3DocMapsOntoTheSweepEngine) {
  const spec::ScenarioDoc doc = spec::ScenarioDoc::parse_text(
      slurp(std::filesystem::path(RTOFFLOAD_SPECS_DIR) / "fig3.json"));
  const spec::BatchPlan plan = spec::plan_batch(doc);
  // 9 estimation errors x 2 solvers, row-major: errors outer, solvers inner.
  ASSERT_EQ(plan.specs.size(), 18u);
  const double errors[] = {-0.4, -0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4};
  const mckp::SolverKind solvers[] = {mckp::SolverKind::kDpProfits,
                                      mckp::SolverKind::kHeuOe};
  for (std::size_t i = 0; i < plan.specs.size(); ++i) {
    SCOPED_TRACE(i);
    const exp::ScenarioSpec& s = plan.specs[i];
    EXPECT_EQ(s.odm.estimation_error, errors[i / 2]);
    EXPECT_EQ(s.odm.solver, solvers[i % 2]);
    EXPECT_FALSE(s.odm.apply_task_weights);
    EXPECT_EQ(s.sim.horizon, Duration::seconds(200));
    EXPECT_EQ(s.sim.benefit_semantics, sim::BenefitSemantics::kTimelyCount);
    EXPECT_EQ(s.tasks.size(), 30u);
  }
  EXPECT_EQ(plan.docs.front().workload.at("seed").as_number(), 20140601.0);
}

}  // namespace
