#include "doc_workloads.hpp"

#include <iterator>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "core/odm.hpp"
#include "exp/batch.hpp"
#include "rt/health.hpp"
#include "sim/batch_engine.hpp"
#include "spec/grid.hpp"
#include "spec/scenario_doc.hpp"
#include "util/rng.hpp"

namespace rtbench {

namespace {

using rt::Json;

// Seed streams: each input property draws from its own derived stream.
constexpr std::uint64_t kStreamWorkload = 1;
constexpr std::uint64_t kStreamSim = 2;
constexpr std::uint64_t kStreamFaults = 3;
constexpr std::uint64_t kStreamBatch = 4;

void set(Json& doc, std::string_view path, Json value) {
  rt::spec::set_at_path(doc, path, value, rt::spec::SpecPath{});
}

Json num(double v) { return Json(v); }
Json num(std::uint64_t v) { return Json(static_cast<double>(v)); }

std::string specs_file(const char* name) {
  return std::string(RTOFFLOAD_SPECS_DIR) + "/" + name;
}

// ---- sweep_fig3 ------------------------------------------------------------

/// The paper's experiment: per generated 30-task set, the 18-point grid of
/// examples/specs/fig3.json (9 estimation errors x 2 solvers), K = 1,
/// through exp::BatchRunner. One worker: on a shared 4-vCPU host two
/// workers measured 1.6-1.9x faster but with +-16% run-to-run spread at a
/// fixed seed, against +-5% for one (README.md).
class SweepFig3 final : public DocWorkload {
 public:
  static constexpr unsigned kJobs = 1;
  /// 1 in kRerunEvery scenarios is re-simulated serially and compared.
  static constexpr std::uint64_t kRerunEvery = 16;

  explicit SweepFig3(Env& env)
      : env_(env),
        base_(read_json_file(specs_file("fig3.json"))),
        base_seed_(env.doc_seed(0, kStreamBatch)),
        runner_(rt::exp::BatchConfig{kJobs, base_seed_}) {}

  std::string make_doc(std::uint64_t index) override {
    Json doc = base_;
    set(doc, "name", Json("fig3-bench-" + std::to_string(index)));
    set(doc, "workload.seed", num(env_.doc_seed(index, kStreamWorkload)));
    set(doc, "sweep.jobs", num(static_cast<double>(kJobs)));
    set(doc, "sweep.base_seed", num(base_seed_));
    if (env_.opt.smoke) set(doc, "sim.horizon_ms", num(20000.0));
    return doc.dump();
  }

  [[nodiscard]] bool uses_runner() const override { return true; }

  DocResult run_doc(const std::string& text, std::uint64_t index,
                    bool serial) override {
    Tracer& tr = env_.tracer;
    DocResult r;
    Scope doc_span(tr, "bench.doc", std::to_string(index));
    rt::spec::BatchPlan plan;
    std::vector<rt::exp::ScenarioOutcome> out;
    {
      const Meter meter;
      rt::spec::ScenarioDoc doc;
      {
        Scope s(tr, "spec.parse");
        doc = rt::spec::ScenarioDoc::parse_text(text);
      }
      {
        Scope s(tr, "spec.build");
        plan = rt::spec::plan_batch(doc);
      }
      if (plan.batch.jobs != runner_.jobs() ||
          plan.batch.base_seed != runner_.config().base_seed) {
        throw std::logic_error("sweep document does not match the runner");
      }
      if (serial) {
        out.resize(plan.specs.size());
        for (std::size_t i = 0; i < plan.specs.size(); ++i) {
          const rt::exp::ScenarioSpec& spec = plan.specs[i];
          {
            Scope s(tr, "odm.decide");
            out[i].odm = rt::core::decide_offloading(spec.tasks, spec.odm);
          }
          out[i].decisions = out[i].odm.decisions;
          out[i].metrics = simulate_serial(env_, spec.tasks, out[i].decisions,
                                           *spec.server, scenario_config(plan, i),
                                           spec.profile);
        }
      } else {
        Scope s(tr, "exp.run");
        const std::int64_t t0 = wall_ns();
        out = runner_.run(plan.specs);
        runner_ns += wall_ns() - t0;
      }
      meter.stop(r);
    }

    Scope check(tr, "bench.check");
    Fingerprint fp;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const rt::exp::ScenarioSpec& spec = plan.specs[i];
      const rt::exp::ScenarioOutcome& o = out[i];
      bool ok = check_decision(env_, spec.tasks, spec.odm, o.odm);
      // Theorem 3: a feasible decision never misses, whatever the server.
      ok = ok && !(o.odm.feasible && o.metrics.total_deadline_misses() > 0);
      if (!serial && (index * out.size() + i) % kRerunEvery == 0) {
        const rt::sim::SimMetrics again =
            simulate_serial(env_, spec.tasks, o.decisions, *spec.server,
                            scenario_config(plan, i), spec.profile);
        ok = ok && fingerprint_of(again) == fingerprint_of(o.metrics);
      }
      ++r.ops;
      r.failed += ok ? 0 : 1;
      fp.add(o.odm);
      fp.add(o.metrics);
    }
    if (env_.probes && !plan.specs.empty()) {
      probe_server(env_, *plan.specs[0].server, out[0].decisions,
                   plan.specs[0].profile);
    }
    r.fingerprint = fp.value();
    return r;
  }

 private:
  /// What BatchRunner simulates scenario i with.
  static rt::sim::SimConfig scenario_config(const rt::spec::BatchPlan& plan,
                                            std::size_t i) {
    rt::sim::SimConfig cfg = plan.specs[i].sim;
    cfg.seed = rt::exp::scenario_seed(plan.batch.base_seed, i);
    cfg.sink = nullptr;
    cfg.controller = nullptr;
    return cfg;
  }

  Env& env_;
  Json base_;
  std::uint64_t base_seed_;
  rt::exp::BatchRunner runner_;
};

// ---- odm_admission ---------------------------------------------------------

/// Decide-only documents (no server): random task sets cycling through
/// five (n, benefit points) kinds. With equal counts the median request
/// is the middle kind, (30, 10); with all six combinations it fell in the
/// gap between the (30, 5) and (30, 10) costs and moved by 20% between
/// runs. (10, 5), the kind left out, took 0.3% of the time. Local
/// utilization stays at the generator's 0.5: drawing it made the largest
/// DP table, and with it peak RSS, vary by 50% between seeds.
class OdmAdmission final : public DocWorkload {
 public:
  explicit OdmAdmission(Env& env) : env_(env) {}

  std::string make_doc(std::uint64_t index) override {
    static constexpr double kKinds[][2] = {
        {10, 10}, {30, 5}, {30, 10}, {60, 5}, {60, 10}};
    const double* kind = kKinds[index % std::size(kKinds)];
    Json::Object workload{
        {"type", Json("random")},
        {"seed", num(env_.doc_seed(index, kStreamWorkload))},
        {"num_tasks", num(kind[0])},
        {"benefit_points", num(kind[1])}};
    Json::Object doc{{"version", num(1.0)},
                     {"name", Json("odm-bench-" + std::to_string(index))},
                     {"workload", Json(std::move(workload))},
                     {"odm", Json(Json::Object{{"solver", Json("dp-profits")}})}};
    return Json(std::move(doc)).dump();
  }

  DocResult run_doc(const std::string& text, std::uint64_t index,
                    bool) override {
    Tracer& tr = env_.tracer;
    DocResult r;
    Scope doc_span(tr, "bench.doc", std::to_string(index));
    rt::spec::BuiltScenario built;
    rt::core::OdmResult odm;
    {
      const Meter meter;
      rt::spec::ScenarioDoc doc;
      {
        Scope s(tr, "spec.parse");
        doc = rt::spec::ScenarioDoc::parse_text(text);
      }
      {
        Scope s(tr, "spec.build");
        built = rt::spec::build_scenario(doc);
      }
      {
        Scope s(tr, "odm.decide");
        odm = rt::core::decide_offloading(built.tasks, built.odm);
      }
      meter.stop(r);
    }
    Scope check(tr, "bench.check");
    r.ops = 1;
    r.failed = check_decision(env_, built.tasks, built.odm, odm) ? 0 : 1;
    Fingerprint fp;
    fp.add(odm);
    r.fingerprint = fp.value();
    return r;
  }

 private:
  Env& env_;
};

// ---- mc_fast / mc_fallback -------------------------------------------------

/// K Monte-Carlo replications per document through
/// sim::BatchSimEngine::run. mc_fast: 12-task paper sets, x in {0, +0.2},
/// K = 256, 200 s -- the shared-skeleton fast path (K = 256 rather than
/// 1024 gives four times the documents per run, which halves the spread
/// that task-set-to-task-set cost differences add). mc_fallback: two
/// 30-task paper sets at x in {-0.2, 0} (K = 64, 20 s; nearly every
/// replication bails) per variant of examples/specs/composed_stack.json
/// (K = 64; the controller makes every replication ineligible). K = 64
/// because a 30-task set at x = 0 costs anywhere from 0.3x to 4x the
/// median, and only many documents per run average that out.
class MonteCarlo final : public DocWorkload {
 public:
  MonteCarlo(Env& env, bool fallback)
      : env_(env),
        fallback_(fallback),
        composed_(fallback ? read_json_file(specs_file("composed_stack.json"))
                           : Json()) {}

  std::string make_doc(std::uint64_t index) override {
    const std::uint64_t shrink = env_.opt.smoke ? 16 : 1;
    if (!fallback_) {
      return paper_doc(index, 12, index % 2 == 0 ? 0.0 : 0.2, 256 / shrink,
                       200000.0 / static_cast<double>(shrink));
    }
    if (index % 3 != 2) {
      return paper_doc(index, 30, index % 3 == 0 ? -0.2 : 0.0, 64 / shrink,
                       20000.0 / static_cast<double>(shrink));
    }
    Json doc = composed_;
    set(doc, "name", Json("composed-bench-" + std::to_string(index)));
    set(doc, "workload.seed", num(env_.doc_seed(index, kStreamWorkload)));
    set(doc, "server.script.seed", num(env_.doc_seed(index, kStreamFaults)));
    set(doc, "sim.seed", num(env_.doc_seed(index, kStreamSim)));
    set(doc, "sim.replications", num(static_cast<double>(64 / shrink)));
    return doc.dump();
  }

  DocResult run_doc(const std::string& text, std::uint64_t index,
                    bool) override {
    Tracer& tr = env_.tracer;
    LayerStats& st = env_.stats;
    DocResult r;
    Scope doc_span(tr, "bench.doc", std::to_string(index));
    rt::spec::BuiltScenario built;
    rt::core::OdmResult odm;
    rt::sim::BatchResult batch;
    std::int64_t batch_ns = 0;
    {
      const Meter meter;
      rt::spec::ScenarioDoc doc;
      {
        Scope s(tr, "spec.parse");
        doc = rt::spec::ScenarioDoc::parse_text(text);
      }
      {
        Scope s(tr, "spec.build");
        built = rt::spec::build_scenario(doc);
      }
      {
        Scope s(tr, "odm.decide");
        odm = rt::core::decide_offloading(built.tasks, built.odm);
      }
      std::optional<rt::health::ModeController> controller;
      rt::sim::SimConfig cfg = built.sim;
      if (built.controller != nullptr) {
        controller.emplace(*built.controller);
        cfg.controller = &*controller;
      }
      Scope s(tr, "batch.run");
      const std::int64_t t0 = wall_ns();
      batch = engine_.run(built.tasks, odm.decisions, *built.server, cfg,
                          built.replications, built.profile);
      batch_ns = wall_ns() - t0;
      meter.stop(r);
    }
    const rt::sim::BatchEngineStats& bs = engine_.stats();
    const std::size_t k = batch.per_replication.size();
    st.reps += k;
    st.fast += bs.fast_replications;
    st.bailed += bs.bailed_replications;
    st.fallback += bs.fallback_replications;

    Scope check(tr, "bench.check");
    const bool decision_ok =
        check_decision(env_, built.tasks, built.odm, odm);
    std::vector<bool> bad(k, !decision_ok);
    Fingerprint fp;
    fp.add(odm);
    for (std::size_t rep = 0; rep < k; ++rep) {
      const rt::sim::SimMetrics& m = batch.per_replication[rep];
      st.mode_changes += m.mode_changes;
      if (odm.feasible && m.total_deadline_misses() > 0) bad[rep] = true;
      if (env_.probes) fp.add(m);
    }
    // The first and last replication must equal a serial run under the
    // same derived seed.
    double rerun_events = 0.0;
    std::vector<std::size_t> reruns{0};
    if (k > 1) reruns.push_back(k - 1);
    for (const std::size_t rep : reruns) {
      rt::sim::SimConfig cfg = built.sim;
      cfg.seed = rt::derive_seed(built.sim.seed, rep);
      std::optional<rt::health::ModeController> controller;
      if (built.controller != nullptr) {
        controller.emplace(*built.controller);
        cfg.controller = &*controller;
      }
      const rt::sim::SimMetrics again = simulate_serial(
          env_, built.tasks, odm.decisions, *built.server, cfg, built.profile);
      rerun_events += static_cast<double>(env_.engine.stats().events_processed);
      if (fingerprint_of(again) != fingerprint_of(batch.per_replication[rep])) {
        bad[rep] = true;
      }
    }
    if (env_.probes) {
      st.agg_events += rerun_events / static_cast<double>(reruns.size()) *
                       static_cast<double>(k);
      st.agg_batch_ns += batch_ns;
      probe_server(env_, *built.server, odm.decisions, built.profile);
    }
    r.ops = k;
    for (const bool b : bad) r.failed += b ? 1 : 0;
    r.fingerprint = fp.value();
    return r;
  }

 private:
  std::string paper_doc(std::uint64_t index, int tasks, double error,
                        std::uint64_t replications, double horizon_ms) const {
    Json::Object doc{
        {"version", num(1.0)},
        {"name", Json("paper-bench-" + std::to_string(index))},
        {"workload",
         Json(Json::Object{{"type", Json("paper")},
                           {"seed", num(env_.doc_seed(index, kStreamWorkload))},
                           {"num_tasks", num(static_cast<double>(tasks))}})},
        {"odm", Json(Json::Object{{"apply_task_weights", Json(false)},
                                  {"estimation_error", num(error)}})},
        {"server", Json(Json::Object{{"type", Json("benefit-driven")}})},
        {"sim", Json(Json::Object{
                    {"benefit_semantics", Json("timely-count")},
                    {"horizon_ms", num(horizon_ms)},
                    {"replications", num(static_cast<double>(replications))},
                    {"seed", num(env_.doc_seed(index, kStreamSim))}})}};
    return Json(std::move(doc)).dump();
  }

  Env& env_;
  bool fallback_;
  Json composed_;
  rt::sim::BatchSimEngine engine_;
};

}  // namespace

std::unique_ptr<DocWorkload> make_doc_workload(Env& env) {
  const std::string& w = env.opt.workload;
  if (w == "sweep_fig3") return std::make_unique<SweepFig3>(env);
  if (w == "odm_admission") return std::make_unique<OdmAdmission>(env);
  if (w == "mc_fast") return std::make_unique<MonteCarlo>(env, false);
  if (w == "mc_fallback") return std::make_unique<MonteCarlo>(env, true);
  throw std::invalid_argument("unknown workload '" + w + "'");
}

}  // namespace rtbench
