// Golden pins for the paper's Figure 3 simulation. The other simulator
// suites compare engines that share one response model, so a change to a
// model's draws passes them; these pins hold the draws themselves. Every
// value below was recorded before the benefit-driven sampler moved from a
// floating-point count to integer thresholds with a guide table, and the
// new sampler reproduces each one exactly. The printed Fig. 3 table is
// pinned by the golden-file ctest of `rtoffload_cli --spec fig3.json`
// (tests/golden/).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/odm.hpp"
#include "sim/batch_engine.hpp"
#include "spec/scenario_doc.hpp"
// Its layout guards fail this file's build too when a metrics field is
// added, until fingerprint() below covers it.
#include "support/compare.hpp"

namespace rt {
namespace {

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
