// Degraded-mode benefit retention under scripted server faults
// (docs/ANALYSIS.md §10, BENCH_adaptive.json).
//
// The scenario is the checked-in examples/specs/adaptive_outage.json
// document (schema v1, docs/SCENARIOS.md): one paper-generator task set
// whose server's true response distribution is the benefit function itself
// (the Figure 3 setting, where the benefit IS the probability of a timely
// higher-performance result). Mid-run, a fault window [15 s, 45 s)
// inflates every response by a severity factor f and drops a quarter of
// the requests. Three policies per severity, all derived from the one
// document via spec overrides:
//
//   * baseline -- the document with faults + controller stripped (the
//                 ceiling);
//   * static   -- the controller stripped, the slowdown factor overridden
//                 to f: every offload burns its setup budget, the
//                 compensation timer fires, benefit G(0) = 0 accrues;
//   * adaptive -- the document's pessimistic-odm controller with
//                 estimation_error overridden to f - 1 (its windows
//                 (1 + x) r = f r admit the inflated responses), switching
//                 at job release boundaries and recovering after the
//                 window passes.
//
// Severities stay modest (f <= 3): beyond that the pessimistic ODM cannot
// fit any window under the deadlines and degrades to all-local, where
// static and adaptive tie by construction (compensation and local both earn
// G(0)).
//
// Static and adaptive runs share per-index scenario seeds (two BatchRunner
// runs over index-aligned spec vectors), so each severity is a paired
// comparison. Reported per f: accrued benefit, retention vs baseline, mode
// switches, time in degraded mode, deadline misses (must be 0 -- the
// guarantee holds in both modes). Exit 0 iff adaptive strictly beats static
// at every severity with zero misses anywhere.

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <vector>

#include "core/odm.hpp"
#include "exp/batch.hpp"
#include "json_summary.hpp"
#include "rt/health.hpp"
#include "spec/grid.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

using namespace rt;

namespace {

constexpr double kSeverities[] = {1.5, 2.0, 3.0};

std::string slurp(const char* path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error(std::string("cannot open ") + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The document with the given top-level sections removed, re-validated.
spec::ScenarioDoc without(const spec::ScenarioDoc& doc,
                          std::initializer_list<const char*> sections) {
  Json j = doc.to_json();
  for (const char* s : sections) j.as_object().erase(s);
  return spec::ScenarioDoc::parse(j);
}

}  // namespace

int main() {
  std::cout << "=== Adaptive degraded-mode benefit retention under "
               "scripted faults ===\n\n";

  const spec::ScenarioDoc doc = spec::ScenarioDoc::parse_text(
      slurp(RTOFFLOAD_SPECS_DIR "/adaptive_outage.json"));
  const spec::ScenarioDoc baseline_doc = without(doc, {"faults", "controller"});
  const spec::ScenarioDoc static_base = without(doc, {"controller"});

  const double horizon_ms = doc.sim.at("horizon_ms").as_number();
  const Json& clause0 = doc.faults.at("clauses").as_array()[0];
  const double fault_start_ms = clause0.at("start_ms").as_number();
  const double fault_end_ms = clause0.at("end_ms").as_number();

  // Index-aligned spec vectors: [0] = fault-free baseline, [1 + k] =
  // severity k. Two runs over the same BatchRunner pair the seeds.
  const exp::ScenarioSpec base_spec = spec::to_scenario_spec(baseline_doc);
  const core::TaskSet& tasks = base_spec.tasks;
  const core::DecisionVector static_decisions =
      core::decide_offloading(tasks, base_spec.odm).decisions;

  std::vector<exp::ScenarioSpec> static_specs, adaptive_specs;
  static_specs.push_back(base_spec);
  adaptive_specs.push_back(base_spec);  // index filler: same baseline
  std::vector<double> envelopes;
  for (const double f : kSeverities) {
    static_specs.push_back(spec::to_scenario_spec(
        spec::with_override(static_base, "faults.clauses[0].factor", Json(f))));

    spec::ScenarioDoc adoc =
        spec::with_override(doc, "faults.clauses[0].factor", Json(f));
    adoc = spec::with_override(adoc, "controller.estimation_error",
                               Json(f - 1.0));
    exp::ScenarioSpec aspec = spec::to_scenario_spec(adoc);
    envelopes.push_back(health::switch_envelope_density(
        tasks, static_decisions, aspec.adaptive->degraded));
    adaptive_specs.push_back(std::move(aspec));
  }

  exp::BatchConfig batch;
  batch.jobs = 0;  // one worker per hardware thread
  exp::BatchRunner runner(batch);
  const std::vector<exp::ScenarioOutcome> static_out = runner.run(static_specs);
  const std::vector<exp::ScenarioOutcome> adaptive_out =
      runner.run(adaptive_specs);

  const double baseline = static_out[0].metrics.total_benefit();
  if (baseline <= 0.0) {
    std::cerr << "baseline benefit is zero -- workload misconfigured\n";
    return 1;
  }

  Table table({"severity f", "static benefit", "adaptive benefit",
               "static retention", "adaptive retention", "switches",
               "degraded ms", "misses"});
  Json::Array rows;
  std::uint64_t total_misses = 0;
  bool adaptive_wins = true;
  for (std::size_t k = 0; k < std::size(kSeverities); ++k) {
    const sim::SimMetrics& st = static_out[1 + k].metrics;
    const sim::SimMetrics& ad = adaptive_out[1 + k].metrics;
    const double st_benefit = st.total_benefit();
    const double ad_benefit = ad.total_benefit();
    const std::uint64_t misses =
        st.total_deadline_misses() + ad.total_deadline_misses();
    total_misses += misses;
    if (!(ad_benefit > st_benefit)) adaptive_wins = false;
    const double degraded_ms =
        static_cast<double>(ad.time_in_degraded_ns) / 1e6;
    table.add_row({Table::fmt(kSeverities[k]), Table::fmt(st_benefit),
                   Table::fmt(ad_benefit), Table::fmt(st_benefit / baseline),
                   Table::fmt(ad_benefit / baseline),
                   std::to_string(ad.mode_changes), Table::fmt(degraded_ms),
                   std::to_string(misses)});
    rows.push_back(Json(Json::Object{
        {"severity", Json(kSeverities[k])},
        {"static_benefit", Json(st_benefit)},
        {"adaptive_benefit", Json(ad_benefit)},
        {"static_retention", Json(st_benefit / baseline)},
        {"adaptive_retention", Json(ad_benefit / baseline)},
        {"mode_changes", Json(static_cast<std::int64_t>(ad.mode_changes))},
        {"time_in_degraded_ms", Json(degraded_ms)},
        {"static_misses",
         Json(static_cast<std::int64_t>(st.total_deadline_misses()))},
        {"adaptive_misses",
         Json(static_cast<std::int64_t>(ad.total_deadline_misses()))},
        {"switch_envelope_density", Json(envelopes[k])},
    }));
  }
  table.print(std::cout);

  rtbench::write_json_summary(
      "BENCH_adaptive.json", "adaptive",
      Json(Json::Object{
          {"spec",
           Json(std::string(RTOFFLOAD_SPECS_DIR "/adaptive_outage.json"))},
          {"horizon_ms", Json(horizon_ms)},
          {"fault_window_ms",
           Json(Json::Array{Json(fault_start_ms), Json(fault_end_ms)})},
      }),
      Json(Json::Object{
          {"baseline_benefit", Json(baseline)},
          {"severities", Json(rows)},
      }));
  std::cout << "\nWrote BENCH_adaptive.json\n"
            << "Deadline misses across all runs (must be 0): " << total_misses
            << "\nAdaptive strictly beats static at every severity: "
            << (adaptive_wins ? "yes" : "NO") << "\n";
  return (total_misses == 0 && adaptive_wins) ? 0 : 1;
}
