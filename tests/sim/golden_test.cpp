// Golden pins for the paper's Figure 3 simulation. The other simulator
// suites compare engines that share one response model, so a change to a
// model's draws passes them; these pins hold the draws themselves. The
// timely totals were recorded before the benefit-driven sampler moved from
// a floating-point count to integer thresholds with a guide table, and the
// new sampler reproduces each one exactly. The fingerprints were recorded
// when the response statistics became exact integer moments: every
// counter, benefit, count, min and max equalled the Welford-era run's,
// whose mean, variance and sum were up to 4, 14 and 5 ulps off the exact
// values; the new ones are at most 1 ulp off. The printed Fig. 3 table is
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
/// the observed response times' stored integers carry each finite draw.
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
    const DurationStats& r = t.observed_response_ms;
    f.add(static_cast<std::uint64_t>(r.count()));
    f.add(r.sum_ns());
    f.add(static_cast<std::uint64_t>(r.sum_sq_ns2()));
    f.add(static_cast<std::uint64_t>(r.sum_sq_ns2() >> 64));
    f.add(r.min_ns());
    f.add(r.max_ns());
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
      {12, -0.2, 11794, 0x34999126be41280full},
      {12, 0.0, 24532, 0x852fd85fc464f58full},
      {12, 0.2, 24532, 0xff53f511b9eb1854ull},
      {30, -0.2, 24554, 0x93c4b38876d9809bull},
      {30, 0.0, 49629, 0xfb8746575cf6be7eull},
      {30, 0.2, 46221, 0x9b161ea9e76ae167ull},
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
