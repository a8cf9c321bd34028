// Golden pins for the paper's Figure 3 simulation. The other simulator
// suites compare engines that share one response model, so a change to a
// model's draws passes them; these pins hold the draws themselves. Every
// value below was recorded before the benefit-driven sampler moved from a
// floating-point count to integer thresholds with a guide table, and the
// new sampler reproduces each one exactly.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/odm.hpp"
#include "exp/batch.hpp"
#include "sim/batch_engine.hpp"
#include "spec/grid.hpp"
#include "spec/scenario_doc.hpp"

namespace rt {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// `rtoffload_cli --spec examples/specs/fig3.json`'s table rows, formatted
/// as the CLI prints them (index, feasible, claimed, benefit, timely,
/// misses).
TEST(Golden, Fig3SpecTable) {
  const spec::ScenarioDoc doc = spec::ScenarioDoc::parse_text(
      slurp(std::string(RTOFFLOAD_SPECS_DIR) + "/fig3.json"));
  const spec::BatchPlan plan = spec::plan_batch(doc);
  exp::BatchRunner runner(plan.batch);
  const std::vector<exp::ScenarioOutcome> outcomes = runner.run(plan.specs);

  const std::vector<std::string> expected = {
      "    0       yes      28.000    1246.000      1247        0",
      "    1       yes      28.000    1209.000      1209        0",
      "    2       yes      27.000    2691.000      2692        0",
      "    3       yes      27.000    2695.000      2695        0",
      "    4       yes      26.400    3782.000      3782        0",
      "    5       yes      26.000    3978.000      3978        0",
      "    6       yes      25.700    5371.000      5372        0",
      "    7       yes      25.000    5324.000      5325        0",
      "    8       yes      24.800    7706.000      7707        0",
      "    9       yes      24.800    7684.000      7685        0",
      "   10       yes      24.000    7465.000      7468        0",
      "   11       yes      24.000    7467.000      7467        0",
      "   12       yes      23.000    7174.000      7176        0",
      "   13       yes      23.000    7172.000      7175        0",
      "   14       yes      22.000    6853.000      6853        0",
      "   15       yes      22.000    6855.000      6855        0",
      "   16       yes      21.000    6529.000      6529        0",
      "   17       yes      21.000    6529.000      6529        0",
  };
  ASSERT_EQ(outcomes.size(), expected.size());
  for (const exp::ScenarioOutcome& o : outcomes) {
    const bool feasible =
        plan.specs[o.index].decisions.has_value() || o.odm.feasible;
    char row[128];
    std::snprintf(
        row, sizeof row, "%5zu  %8s  %10.3f  %10.3f  %8llu  %7llu", o.index,
        feasible ? "yes" : "no", o.odm.claimed_objective,
        o.metrics.total_benefit(),
        static_cast<unsigned long long>(o.metrics.total_timely_results()),
        static_cast<unsigned long long>(o.metrics.total_deadline_misses()));
    EXPECT_EQ(std::string(row), expected[o.index]);
  }
}

/// FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
};

/// Every counter and statistic of one replication, doubles bit for bit:
/// the observed response times carry each finite draw.
std::uint64_t fingerprint(const sim::SimMetrics& m) {
  Fnv f;
  for (const sim::TaskMetrics& t : m.per_task) {
    f.add(t.released);
    f.add(t.completed);
    f.add(t.deadline_misses);
    f.add(t.local_runs);
    f.add(t.offload_attempts);
    f.add(t.timely_results);
    f.add(t.compensations);
    f.add(t.late_results);
    f.add(t.accrued_benefit);
    f.add(static_cast<std::uint64_t>(t.observed_response_ms.count()));
    f.add(t.observed_response_ms.sum());
    f.add(t.observed_response_ms.mean());
    f.add(t.observed_response_ms.variance());
    f.add(t.observed_response_ms.min());
    f.add(t.observed_response_ms.max());
  }
  f.add(m.cpu_busy_ns);
  f.add(m.context_switches);
  f.add(m.mode_changes);
  f.add(m.time_in_degraded_ns);
  f.add(m.end_time.ns());
  return f.h;
}

std::string paper_doc(int num_tasks, double x) {
  char doc[512];
  std::snprintf(doc, sizeof doc, R"({
    "version": 1,
    "workload": {"type": "paper", "seed": 20140601, "num_tasks": %d},
    "odm": {"apply_task_weights": false, "estimation_error": %.1f},
    "server": {"type": "benefit-driven"},
    "sim": {"benefit_semantics": "timely-count", "horizon_ms": 20000,
            "replications": 64, "seed": 7}})",
                num_tasks, x);
  return doc;
}

/// BatchSimEngine over paper documents: the per-replication fingerprints
/// folded into one value per document, beside the timely total.
TEST(Golden, BatchPaperDocumentFingerprints) {
  struct Pin {
    int num_tasks;
    double x;
    std::uint64_t timely;
    std::uint64_t fingerprint;
  };
  const std::vector<Pin> pins = {
      {12, -0.2, 11794, 0x882a1141d2e77745ull},
      {12, 0.0, 24532, 0x481a1df1674482e3ull},
      {12, 0.2, 24532, 0xb706f2ecaf9b807full},
      {30, -0.2, 24554, 0x4222c3fe8fa3285dull},
      {30, 0.0, 49629, 0xb65a36f82bc83019ull},
      {30, 0.2, 46221, 0xc451f7b9ab948be9ull},
  };
  sim::BatchSimEngine engine;
  for (const Pin& pin : pins) {
    SCOPED_TRACE("n=" + std::to_string(pin.num_tasks) +
                 " x=" + std::to_string(pin.x));
    const spec::BuiltScenario built = spec::build_scenario(
        spec::ScenarioDoc::parse_text(paper_doc(pin.num_tasks, pin.x)));
    const core::OdmResult odm = core::decide_offloading(built.tasks, built.odm);
    const sim::BatchResult res =
        engine.run(built.tasks, odm.decisions, *built.server, built.sim,
                   built.replications, built.profile);
    ASSERT_EQ(res.per_replication.size(), 64u);
    Fnv folded;
    std::uint64_t timely = 0;
    for (const sim::SimMetrics& m : res.per_replication) {
      folded.add(fingerprint(m));
      timely += m.total_timely_results();
    }
    EXPECT_EQ(timely, pin.timely);
    EXPECT_EQ(folded.h, pin.fingerprint);
  }
}

}  // namespace
}  // namespace rt
