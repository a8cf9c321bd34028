// Built-in component builders for the scenario-spec registries: every
// response-model, workload, and controller type expressible in a
// ScenarioDoc lives here as a (normalize, build) pair. docs/SCENARIOS.md is
// the schema reference; keep the two in sync when adding a type.

#include <cmath>
#include <memory>
#include <utility>

#include "casestudy/case_study.hpp"
#include "core/odm.hpp"
#include "core/serialization.hpp"
#include "core/workload.hpp"
#include "server/bursty.hpp"
#include "server/faults.hpp"
#include "server/gpu_server.hpp"
#include "server/response_model.hpp"
#include "server/routing.hpp"
#include "sim/benefit_response.hpp"
#include "spec/builders_internal.hpp"
#include "spec/scenario_doc.hpp"
#include "util/rng.hpp"

namespace rt::spec::detail {

namespace {

Duration ms_field(const Json& j, const SpecPath& p, const std::string& key,
                  double fallback_ms, double min_ms) {
  return Duration::from_ms(number_at_least(j, p, key, fallback_ms, min_ms));
}

// -- response models --------------------------------------------------------

Json norm_fixed(const Json& j, const SpecPath& p) {
  check_keys(j, p, {"type", "response_ms"});
  require(j, p, "response_ms");
  Json::Object o;
  o["type"] = "fixed";
  o["response_ms"] = number_at_least(j, p, "response_ms", 0.0, 0.0);
  return Json(std::move(o));
}

std::unique_ptr<server::ResponseModel> build_fixed(const Json& j,
                                                   const BuildContext&) {
  return std::make_unique<server::FixedResponse>(
      Duration::from_ms(j.at("response_ms").as_number()));
}

Json norm_never(const Json& j, const SpecPath& p) {
  check_keys(j, p, {"type"});
  return Json(Json::Object{{"type", Json("never")}});
}

std::unique_ptr<server::ResponseModel> build_never(const Json&,
                                                   const BuildContext&) {
  return std::make_unique<server::NeverResponds>();
}

Json norm_lognormal(const Json& j, const SpecPath& p) {
  check_keys(j, p,
             {"type", "shift_ms", "mu_log_ms", "sigma_log", "drop_probability"});
  require(j, p, "mu_log_ms");
  require(j, p, "sigma_log");
  Json::Object o;
  o["type"] = "shifted-lognormal";
  o["shift_ms"] = number_at_least(j, p, "shift_ms", 0.0, 0.0);
  o["mu_log_ms"] = number_or(j, p, "mu_log_ms", 0.0);
  o["sigma_log"] = number_at_least(j, p, "sigma_log", 0.0, 0.0);
  o["drop_probability"] = number_in(j, p, "drop_probability", 0.0, 0.0, 1.0);
  return Json(std::move(o));
}

std::unique_ptr<server::ResponseModel> build_lognormal(const Json& j,
                                                       const BuildContext&) {
  return std::make_unique<server::ShiftedLognormalResponse>(
      Duration::from_ms(j.at("shift_ms").as_number()),
      j.at("mu_log_ms").as_number(), j.at("sigma_log").as_number(),
      j.at("drop_probability").as_number());
}

Json norm_empirical(const Json& j, const SpecPath& p) {
  check_keys(j, p, {"type", "samples_ms", "drop_probability"});
  const Json::Array& samples =
      as_array(require(j, p, "samples_ms"), p / "samples_ms");
  if (samples.empty()) {
    throw SpecError(p / "samples_ms", "must be a non-empty array");
  }
  Json::Array out_samples;
  out_samples.reserve(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const SpecPath sp = p / "samples_ms" / i;
    if (!samples[i].is_number()) throw SpecError(sp, "must be a number");
    const double v = samples[i].as_number();
    if (!(std::isfinite(v) && v >= 0.0)) {
      throw SpecError(sp, "must be finite and >= 0");
    }
    out_samples.emplace_back(v);
  }
  Json::Object o;
  o["type"] = "empirical";
  o["samples_ms"] = Json(std::move(out_samples));
  o["drop_probability"] = number_in(j, p, "drop_probability", 0.0, 0.0, 1.0);
  return Json(std::move(o));
}

std::unique_ptr<server::ResponseModel> build_empirical(const Json& j,
                                                       const BuildContext&) {
  std::vector<Duration> samples;
  for (const Json& s : j.at("samples_ms").as_array()) {
    samples.push_back(Duration::from_ms(s.as_number()));
  }
  return std::make_unique<server::EmpiricalResponse>(
      std::move(samples), j.at("drop_probability").as_number());
}

Json norm_bounded(const Json& j, const SpecPath& p) {
  check_keys(j, p, {"type", "bound_ms", "inner"});
  require(j, p, "bound_ms");
  Json::Object o;
  o["type"] = "bounded";
  o["bound_ms"] = number_above(j, p, "bound_ms", 0.0, 0.0);
  o["inner"] = normalize_model(require(j, p, "inner"), p / "inner");
  return Json(std::move(o));
}

std::unique_ptr<server::ResponseModel> build_bounded(const Json& j,
                                                     const BuildContext& ctx) {
  return std::make_unique<server::BoundedResponse>(
      build_model(j.at("inner"), ctx),
      Duration::from_ms(j.at("bound_ms").as_number()));
}

Json norm_bursty(const Json& j, const SpecPath& p) {
  check_keys(j, p, {"type", "seed", "mean_calm_ms", "mean_burst_ms", "calm",
                    "burst"});
  Json::Object o;
  o["type"] = "bursty";
  o["seed"] = Json(static_cast<double>(integer_or(j, p, "seed", 1)));
  o["mean_calm_ms"] = number_above(j, p, "mean_calm_ms", 5000.0, 0.0);
  o["mean_burst_ms"] = number_above(j, p, "mean_burst_ms", 1000.0, 0.0);
  o["calm"] = normalize_model(require(j, p, "calm"), p / "calm");
  o["burst"] = normalize_model(require(j, p, "burst"), p / "burst");
  return Json(std::move(o));
}

std::unique_ptr<server::ResponseModel> build_bursty(const Json& j,
                                                    const BuildContext& ctx) {
  server::BurstyConfig cfg;
  cfg.mean_calm_duration = Duration::from_ms(j.at("mean_calm_ms").as_number());
  cfg.mean_burst_duration = Duration::from_ms(j.at("mean_burst_ms").as_number());
  cfg.calm = build_model(j.at("calm"), ctx);
  cfg.burst = build_model(j.at("burst"), ctx);
  return std::make_unique<server::BurstyResponse>(
      std::move(cfg), static_cast<std::uint64_t>(j.at("seed").as_number()));
}

Json norm_routing(const Json& j, const SpecPath& p) {
  check_keys(j, p, {"type", "routes", "route_of_stream"});
  const Json::Array& routes = as_array(require(j, p, "routes"), p / "routes");
  if (routes.empty()) throw SpecError(p / "routes", "must be a non-empty array");
  Json::Array out_routes;
  out_routes.reserve(routes.size());
  for (std::size_t i = 0; i < routes.size(); ++i) {
    out_routes.push_back(normalize_model(routes[i], p / "routes" / i));
  }
  const Json::Array& mapping =
      as_array(require(j, p, "route_of_stream"), p / "route_of_stream");
  if (mapping.empty()) {
    throw SpecError(p / "route_of_stream", "must be a non-empty array");
  }
  Json::Array out_mapping;
  out_mapping.reserve(mapping.size());
  for (std::size_t i = 0; i < mapping.size(); ++i) {
    const SpecPath mp = p / "route_of_stream" / i;
    if (!mapping[i].is_number()) throw SpecError(mp, "must be a number");
    const double v = mapping[i].as_number();
    if (!(v >= 0.0) || v != std::floor(v) ||
        v >= static_cast<double>(routes.size())) {
      throw SpecError(mp, "must be an integer route index < " +
                              std::to_string(routes.size()));
    }
    out_mapping.emplace_back(v);
  }
  Json::Object o;
  o["type"] = "routing";
  o["routes"] = Json(std::move(out_routes));
  o["route_of_stream"] = Json(std::move(out_mapping));
  return Json(std::move(o));
}

std::unique_ptr<server::ResponseModel> build_routing(const Json& j,
                                                     const BuildContext& ctx) {
  std::vector<std::unique_ptr<server::ResponseModel>> routes;
  for (const Json& r : j.at("routes").as_array()) {
    routes.push_back(build_model(r, ctx));
  }
  std::vector<std::size_t> mapping;
  for (const Json& m : j.at("route_of_stream").as_array()) {
    mapping.push_back(static_cast<std::size_t>(m.as_number()));
  }
  if (ctx.tasks != nullptr && mapping.size() < ctx.tasks->size()) {
    throw std::invalid_argument(
        "routing: route_of_stream maps " + std::to_string(mapping.size()) +
        " streams but the task set has " + std::to_string(ctx.tasks->size()) +
        " tasks");
  }
  return std::make_unique<server::RoutingResponse>(std::move(routes),
                                                   std::move(mapping));
}

Json norm_fault_injector(const Json& j, const SpecPath& p) {
  check_keys(j, p, {"type", "inner", "script"});
  Json::Object o;
  o["type"] = "fault-injector";
  o["inner"] = normalize_model(require(j, p, "inner"), p / "inner");
  o["script"] = normalize_fault_script(require(j, p, "script"), p / "script");
  return Json(std::move(o));
}

std::unique_ptr<server::ResponseModel> build_fault_injector(
    const Json& j, const BuildContext& ctx) {
  return std::make_unique<server::FaultInjector>(
      build_model(j.at("inner"), ctx),
      server::FaultScript::from_json(j.at("script")));
}

Json norm_gpu_server(const Json& j, const SpecPath& p) {
  check_keys(j, p, {"type", "seed", "num_executors", "dispatch_overhead_us",
                    "network", "background"});
  Json::Object o;
  o["type"] = "gpu-server";
  o["seed"] = Json(static_cast<double>(integer_or(j, p, "seed", 1)));
  const std::uint64_t executors = integer_or(j, p, "num_executors", 2);
  if (executors < 1) throw SpecError(p / "num_executors", "must be >= 1");
  o["num_executors"] = Json(static_cast<double>(executors));
  o["dispatch_overhead_us"] =
      number_at_least(j, p, "dispatch_overhead_us", 400.0, 0.0);

  const Json net = has(j, "network") ? j.at("network") : Json(Json::Object{});
  const SpecPath np = p / "network";
  check_keys(net, np, {"base_latency_ms", "bandwidth_bytes_per_sec", "jitter",
                       "loss_probability"});
  Json::Object n;
  n["base_latency_ms"] = number_at_least(net, np, "base_latency_ms", 2.0, 0.0);
  n["bandwidth_bytes_per_sec"] =
      number_above(net, np, "bandwidth_bytes_per_sec", 3.0e6, 0.0);
  n["jitter"] = number_at_least(net, np, "jitter", 0.5, 0.0);
  n["loss_probability"] = number_in(net, np, "loss_probability", 0.0, 0.0, 1.0);
  o["network"] = Json(std::move(n));

  const Json bg = has(j, "background") ? j.at("background") : Json(Json::Object{});
  const SpecPath bp = p / "background";
  check_keys(bg, bp, {"arrivals_per_sec", "mean_service_ms", "service_sigma_log"});
  Json::Object b;
  b["arrivals_per_sec"] = number_at_least(bg, bp, "arrivals_per_sec", 0.0, 0.0);
  b["mean_service_ms"] = number_above(bg, bp, "mean_service_ms", 8.0, 0.0);
  b["service_sigma_log"] =
      number_at_least(bg, bp, "service_sigma_log", 0.6, 0.0);
  o["background"] = Json(std::move(b));
  return Json(std::move(o));
}

std::unique_ptr<server::ResponseModel> build_gpu_server(const Json& j,
                                                        const BuildContext&) {
  server::GpuServerConfig cfg;
  cfg.num_executors = static_cast<int>(j.at("num_executors").as_number());
  cfg.dispatch_overhead =
      Duration::from_ms(j.at("dispatch_overhead_us").as_number() / 1e3);
  const Json& n = j.at("network");
  cfg.network.base_latency = Duration::from_ms(n.at("base_latency_ms").as_number());
  cfg.network.bandwidth_bytes_per_sec =
      n.at("bandwidth_bytes_per_sec").as_number();
  cfg.network.jitter = n.at("jitter").as_number();
  cfg.network.loss_probability = n.at("loss_probability").as_number();
  const Json& b = j.at("background");
  cfg.background.arrivals_per_sec = b.at("arrivals_per_sec").as_number();
  cfg.background.mean_service = Duration::from_ms(b.at("mean_service_ms").as_number());
  cfg.background.service_sigma_log = b.at("service_sigma_log").as_number();
  return std::make_unique<server::QueueingGpuServer>(
      cfg, static_cast<std::uint64_t>(j.at("seed").as_number()));
}

Json norm_scenario(const Json& j, const SpecPath& p) {
  check_keys(j, p, {"type", "name", "seed"});
  const std::string name = require_string(j, p, "name");
  if (name != "busy" && name != "not-busy" && name != "idle" && name != "dead") {
    throw SpecError(p / "name", "unknown scenario '" + name +
                                    "' (known: busy, dead, idle, not-busy)");
  }
  Json::Object o;
  o["type"] = "scenario";
  o["name"] = name;
  // An omitted seed stays omitted: it defaults to the document's sim seed
  // at build time, which normalization cannot know here.
  if (has(j, "seed")) {
    o["seed"] = Json(static_cast<double>(integer_or(j, p, "seed", 1)));
  }
  return Json(std::move(o));
}

std::unique_ptr<server::ResponseModel> build_scenario_model(
    const Json& j, const BuildContext& ctx) {
  const std::string& name = j.at("name").as_string();
  if (name == "dead") return std::make_unique<server::NeverResponds>();
  const std::uint64_t seed =
      has(j, "seed") ? static_cast<std::uint64_t>(j.at("seed").as_number())
                     : ctx.default_seed;
  if (name == "busy") {
    return server::make_scenario_server(server::Scenario::kBusy, seed);
  }
  if (name == "idle") {
    return server::make_scenario_server(server::Scenario::kIdle, seed);
  }
  return server::make_scenario_server(server::Scenario::kNotBusy, seed);
}

Json norm_benefit_driven(const Json& j, const SpecPath& p) {
  check_keys(j, p, {"type"});
  return Json(Json::Object{{"type", Json("benefit-driven")}});
}

std::unique_ptr<server::ResponseModel> build_benefit_driven(
    const Json&, const BuildContext& ctx) {
  if (ctx.tasks == nullptr) {
    throw std::invalid_argument(
        "benefit-driven model needs the document's task set");
  }
  std::vector<core::BenefitFunction> gs;
  gs.reserve(ctx.tasks->size());
  for (const auto& t : *ctx.tasks) gs.push_back(t.benefit);
  return std::make_unique<sim::BenefitDrivenResponse>(std::move(gs));
}

// -- workloads --------------------------------------------------------------

/// Optional per-task importance weights shared by every workload type;
/// emitted into `out` only when present.
void norm_weights(const Json& j, const SpecPath& p, std::size_t num_tasks,
                  Json::Object& out) {
  if (!has(j, "weights")) return;
  const Json::Array& w = as_array(j.at("weights"), p / "weights");
  if (w.size() != num_tasks) {
    throw SpecError(p / "weights", "must have exactly " +
                                       std::to_string(num_tasks) +
                                       " entries (one per task)");
  }
  Json::Array ws;
  ws.reserve(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    const SpecPath wp = p / "weights" / i;
    if (!w[i].is_number()) throw SpecError(wp, "must be a number");
    const double v = w[i].as_number();
    if (!(std::isfinite(v) && v > 0.0)) throw SpecError(wp, "must be > 0");
    ws.emplace_back(v);
  }
  out["weights"] = Json(std::move(ws));
}

void apply_weights(const Json& j, core::TaskSet& tasks) {
  if (!has(j, "weights")) return;
  const Json::Array& w = j.at("weights").as_array();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i].weight = w[i].as_number();
  }
}

Json norm_inline_workload(const Json& j, const SpecPath& p) {
  check_keys(j, p, {"type", "tasks", "weights"});
  const Json& tasks_json = require(j, p, "tasks");
  core::TaskSet tasks;
  try {
    // Reuse the task-schema checks of core/serialization; the round trip
    // materializes every optional field (deadline, compensation, ...).
    tasks = core::task_set_from_json(
        Json(Json::Object{{"tasks", tasks_json}}));
  } catch (const std::exception& e) {
    throw SpecError(p / "tasks", e.what());
  }
  Json::Object o;
  o["type"] = "inline";
  o["tasks"] = core::task_set_to_json(tasks).at("tasks");
  norm_weights(j, p, tasks.size(), o);
  return Json(std::move(o));
}

BuiltWorkload build_inline_workload(const Json& j, const BuildContext&) {
  BuiltWorkload w;
  w.tasks = core::task_set_from_json(Json(Json::Object{{"tasks", j.at("tasks")}}));
  apply_weights(j, w.tasks);
  return w;
}

Json norm_paper_workload(const Json& j, const SpecPath& p) {
  check_keys(j, p, {"type", "seed", "num_tasks", "wcet_max_ms", "period_min_ms",
                    "period_max_ms", "response_min_ms", "response_max_ms",
                    "probability_steps", "weights"});
  Json::Object o;
  o["type"] = "paper";
  o["seed"] = Json(static_cast<double>(integer_or(j, p, "seed", 20140601)));
  const std::uint64_t n = integer_or(j, p, "num_tasks", 30);
  if (n < 1) throw SpecError(p / "num_tasks", "must be >= 1");
  o["num_tasks"] = Json(static_cast<double>(n));
  o["wcet_max_ms"] = number_above(j, p, "wcet_max_ms", 20.0, 0.0);
  const double period_min = number_above(j, p, "period_min_ms", 600.0, 0.0);
  const double period_max = number_above(j, p, "period_max_ms", 700.0, 0.0);
  if (period_max < period_min) {
    throw SpecError(p / "period_max_ms", "must be >= period_min_ms");
  }
  o["period_min_ms"] = period_min;
  o["period_max_ms"] = period_max;
  const double resp_min = number_above(j, p, "response_min_ms", 100.0, 0.0);
  const double resp_max = number_above(j, p, "response_max_ms", 200.0, 0.0);
  if (resp_max < resp_min) {
    throw SpecError(p / "response_max_ms", "must be >= response_min_ms");
  }
  o["response_min_ms"] = resp_min;
  o["response_max_ms"] = resp_max;
  const std::uint64_t steps = integer_or(j, p, "probability_steps", 10);
  if (steps < 1) throw SpecError(p / "probability_steps", "must be >= 1");
  o["probability_steps"] = Json(static_cast<double>(steps));
  norm_weights(j, p, static_cast<std::size_t>(n), o);
  return Json(std::move(o));
}

BuiltWorkload build_paper_workload(const Json& j, const BuildContext&) {
  core::PaperSimConfig cfg;
  cfg.num_tasks = static_cast<int>(j.at("num_tasks").as_number());
  cfg.wcet_max = Duration::from_ms(j.at("wcet_max_ms").as_number());
  cfg.period_min = Duration::from_ms(j.at("period_min_ms").as_number());
  cfg.period_max = Duration::from_ms(j.at("period_max_ms").as_number());
  cfg.response_min = Duration::from_ms(j.at("response_min_ms").as_number());
  cfg.response_max = Duration::from_ms(j.at("response_max_ms").as_number());
  cfg.probability_steps = static_cast<int>(j.at("probability_steps").as_number());
  Rng rng(static_cast<std::uint64_t>(j.at("seed").as_number()));
  BuiltWorkload w;
  w.tasks = core::make_paper_simulation_taskset(rng, cfg);
  apply_weights(j, w.tasks);
  return w;
}

Json norm_random_workload(const Json& j, const SpecPath& p) {
  check_keys(j, p,
             {"type", "seed", "num_tasks", "total_local_utilization",
              "period_min_ms", "period_max_ms", "setup_fraction_min",
              "setup_fraction_max", "benefit_points",
              "response_deadline_fraction_min",
              "response_deadline_fraction_max", "weights"});
  Json::Object o;
  o["type"] = "random";
  o["seed"] = Json(static_cast<double>(integer_or(j, p, "seed", 1)));
  const std::uint64_t n = integer_or(j, p, "num_tasks", 10);
  if (n < 1) throw SpecError(p / "num_tasks", "must be >= 1");
  o["num_tasks"] = Json(static_cast<double>(n));
  o["total_local_utilization"] =
      number_above(j, p, "total_local_utilization", 0.5, 0.0);
  const double period_min = number_above(j, p, "period_min_ms", 10.0, 0.0);
  const double period_max = number_above(j, p, "period_max_ms", 1000.0, 0.0);
  if (period_max < period_min) {
    throw SpecError(p / "period_max_ms", "must be >= period_min_ms");
  }
  o["period_min_ms"] = period_min;
  o["period_max_ms"] = period_max;
  const double sf_min = number_in(j, p, "setup_fraction_min", 0.05, 0.0, 1.0);
  const double sf_max = number_in(j, p, "setup_fraction_max", 0.3, 0.0, 1.0);
  if (sf_max < sf_min) {
    throw SpecError(p / "setup_fraction_max", "must be >= setup_fraction_min");
  }
  o["setup_fraction_min"] = sf_min;
  o["setup_fraction_max"] = sf_max;
  const std::uint64_t points = integer_or(j, p, "benefit_points", 5);
  if (points < 1) throw SpecError(p / "benefit_points", "must be >= 1");
  o["benefit_points"] = Json(static_cast<double>(points));
  const double rf_min =
      number_in(j, p, "response_deadline_fraction_min", 0.1, 0.0, 1.0);
  const double rf_max =
      number_in(j, p, "response_deadline_fraction_max", 0.6, 0.0, 1.0);
  if (rf_max < rf_min) {
    throw SpecError(p / "response_deadline_fraction_max",
                    "must be >= response_deadline_fraction_min");
  }
  o["response_deadline_fraction_min"] = rf_min;
  o["response_deadline_fraction_max"] = rf_max;
  norm_weights(j, p, static_cast<std::size_t>(n), o);
  return Json(std::move(o));
}

BuiltWorkload build_random_workload(const Json& j, const BuildContext&) {
  core::RandomTasksetConfig cfg;
  cfg.num_tasks = static_cast<int>(j.at("num_tasks").as_number());
  cfg.total_local_utilization = j.at("total_local_utilization").as_number();
  cfg.period_min = Duration::from_ms(j.at("period_min_ms").as_number());
  cfg.period_max = Duration::from_ms(j.at("period_max_ms").as_number());
  cfg.setup_fraction_min = j.at("setup_fraction_min").as_number();
  cfg.setup_fraction_max = j.at("setup_fraction_max").as_number();
  cfg.benefit_points = static_cast<int>(j.at("benefit_points").as_number());
  cfg.response_deadline_fraction_min =
      j.at("response_deadline_fraction_min").as_number();
  cfg.response_deadline_fraction_max =
      j.at("response_deadline_fraction_max").as_number();
  Rng rng(static_cast<std::uint64_t>(j.at("seed").as_number()));
  BuiltWorkload w;
  w.tasks = core::make_random_taskset(rng, cfg);
  apply_weights(j, w.tasks);
  return w;
}

Json norm_casestudy_workload(const Json& j, const SpecPath& p) {
  check_keys(j, p, {"type", "seed", "percentile", "weights"});
  Json::Object o;
  o["type"] = "case-study";
  o["seed"] = Json(static_cast<double>(integer_or(j, p, "seed", 2014)));
  o["percentile"] = number_in(j, p, "percentile", 90.0, 0.0, 100.0);
  norm_weights(j, p, 4, o);
  return Json(std::move(o));
}

BuiltWorkload build_casestudy_workload(const Json& j, const BuildContext&) {
  casestudy::CaseStudyConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(j.at("seed").as_number());
  cfg.percentile = j.at("percentile").as_number();
  const casestudy::CaseStudy study = casestudy::build_case_study(cfg);
  BuiltWorkload w;
  w.tasks = study.task_set();
  w.profile = study.request_profile();
  apply_weights(j, w.tasks);
  return w;
}

// -- controllers ------------------------------------------------------------

Json norm_health(const Json& j, const SpecPath& p) {
  check_keys(j, p, {"window", "min_samples", "degrade_below", "recover_above",
                    "min_normal_dwell_ms", "min_degraded_dwell_ms"});
  health::HealthConfig hc;
  hc.window = static_cast<std::size_t>(integer_or(j, p, "window", 32));
  hc.min_samples = static_cast<std::size_t>(integer_or(j, p, "min_samples", 8));
  hc.degrade_below = number_in(j, p, "degrade_below", 0.5, 0.0, 1.0);
  hc.recover_above = number_in(j, p, "recover_above", 0.8, 0.0, 1.0);
  hc.min_normal_dwell = ms_field(j, p, "min_normal_dwell_ms", 500.0, 0.0);
  hc.min_degraded_dwell = ms_field(j, p, "min_degraded_dwell_ms", 2000.0, 0.0);
  try {
    hc.validate();  // the cross-field checks of rt/health (hysteresis band)
  } catch (const std::exception& e) {
    throw SpecError(p, e.what());
  }
  Json::Object o;
  o["window"] = Json(static_cast<double>(hc.window));
  o["min_samples"] = Json(static_cast<double>(hc.min_samples));
  o["degrade_below"] = hc.degrade_below;
  o["recover_above"] = hc.recover_above;
  o["min_normal_dwell_ms"] = hc.min_normal_dwell.ms();
  o["min_degraded_dwell_ms"] = hc.min_degraded_dwell.ms();
  return Json(std::move(o));
}

health::HealthConfig build_health(const Json& j) {
  health::HealthConfig hc;
  hc.window = static_cast<std::size_t>(j.at("window").as_number());
  hc.min_samples = static_cast<std::size_t>(j.at("min_samples").as_number());
  hc.degrade_below = j.at("degrade_below").as_number();
  hc.recover_above = j.at("recover_above").as_number();
  hc.min_normal_dwell = Duration::from_ms(j.at("min_normal_dwell_ms").as_number());
  hc.min_degraded_dwell =
      Duration::from_ms(j.at("min_degraded_dwell_ms").as_number());
  return hc;
}

Json health_section(const Json& j, const SpecPath& p) {
  const Json hc = has(j, "health") ? j.at("health") : Json(Json::Object{});
  return norm_health(hc, p / "health");
}

Json norm_all_local(const Json& j, const SpecPath& p) {
  check_keys(j, p, {"type", "health"});
  Json::Object o;
  o["type"] = "all-local";
  o["health"] = health_section(j, p);
  return Json(std::move(o));
}

health::ModeControllerConfig build_all_local(const Json& j,
                                             const BuildContext&) {
  health::ModeControllerConfig mc;
  mc.health = build_health(j.at("health"));
  // Empty degraded vector = all-local (materialized by ModeController).
  return mc;
}

Json norm_pessimistic_odm(const Json& j, const SpecPath& p) {
  check_keys(j, p, {"type", "health", "estimation_error"});
  require(j, p, "estimation_error");
  Json::Object o;
  o["type"] = "pessimistic-odm";
  o["estimation_error"] = number_above(j, p, "estimation_error", 0.0, -1.0);
  o["health"] = health_section(j, p);
  return Json(std::move(o));
}

health::ModeControllerConfig build_pessimistic_odm(const Json& j,
                                                   const BuildContext& ctx) {
  if (ctx.tasks == nullptr || ctx.odm == nullptr) {
    throw std::invalid_argument(
        "pessimistic-odm controller needs the document's task set and odm "
        "section");
  }
  core::OdmConfig cfg = build_odm_config(*ctx.odm);
  cfg.estimation_error = j.at("estimation_error").as_number();
  health::ModeControllerConfig mc;
  mc.health = build_health(j.at("health"));
  mc.degraded = core::decide_offloading(*ctx.tasks, cfg).decisions;
  return mc;
}

Json norm_explicit_controller(const Json& j, const SpecPath& p) {
  check_keys(j, p, {"type", "health", "decisions"});
  const Json::Array& decisions =
      as_array(require(j, p, "decisions"), p / "decisions");
  if (decisions.empty()) {
    throw SpecError(p / "decisions", "must be a non-empty array");
  }
  Json::Array out_decisions;
  out_decisions.reserve(decisions.size());
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const SpecPath dp = p / "decisions" / i;
    check_keys(decisions[i], dp, {"level", "response_ms"});
    Json::Object d;
    d["level"] = Json(static_cast<double>(integer_or(decisions[i], dp, "level", 0)));
    d["response_ms"] = number_at_least(decisions[i], dp, "response_ms", 0.0, 0.0);
    out_decisions.emplace_back(std::move(d));
  }
  Json::Object o;
  o["type"] = "explicit";
  o["decisions"] = Json(std::move(out_decisions));
  o["health"] = health_section(j, p);
  return Json(std::move(o));
}

health::ModeControllerConfig build_explicit_controller(const Json& j,
                                                       const BuildContext& ctx) {
  const Json::Array& decisions = j.at("decisions").as_array();
  if (ctx.tasks != nullptr && decisions.size() != ctx.tasks->size()) {
    throw std::invalid_argument(
        "explicit controller: decisions arity (" +
        std::to_string(decisions.size()) + ") does not match the task set (" +
        std::to_string(ctx.tasks->size()) + ")");
  }
  health::ModeControllerConfig mc;
  mc.health = build_health(j.at("health"));
  for (const Json& d : decisions) {
    const auto level = static_cast<std::size_t>(d.at("level").as_number());
    const Duration r = Duration::from_ms(d.at("response_ms").as_number());
    mc.degraded.push_back(level == 0 ? core::Decision::local()
                                     : core::Decision::offload(level, r));
  }
  return mc;
}

}  // namespace

void register_builtin_models(
    Registry<std::unique_ptr<server::ResponseModel>>& r) {
  r.add("fixed", norm_fixed, build_fixed);
  r.add("never", norm_never, build_never);
  r.add("shifted-lognormal", norm_lognormal, build_lognormal);
  r.add("empirical", norm_empirical, build_empirical);
  r.add("bounded", norm_bounded, build_bounded);
  r.add("bursty", norm_bursty, build_bursty);
  r.add("routing", norm_routing, build_routing);
  r.add("fault-injector", norm_fault_injector, build_fault_injector);
  r.add("gpu-server", norm_gpu_server, build_gpu_server);
  r.add("scenario", norm_scenario, build_scenario_model);
  r.add("benefit-driven", norm_benefit_driven, build_benefit_driven);
}

void register_builtin_workloads(Registry<BuiltWorkload>& r) {
  r.add("inline", norm_inline_workload, build_inline_workload);
  r.add("paper", norm_paper_workload, build_paper_workload);
  r.add("random", norm_random_workload, build_random_workload);
  r.add("case-study", norm_casestudy_workload, build_casestudy_workload);
}

void register_builtin_controllers(Registry<health::ModeControllerConfig>& r) {
  r.add("all-local", norm_all_local, build_all_local);
  r.add("pessimistic-odm", norm_pessimistic_odm, build_pessimistic_odm);
  r.add("explicit", norm_explicit_controller, build_explicit_controller);
}

}  // namespace rt::spec::detail
