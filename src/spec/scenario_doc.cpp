#include "spec/scenario_doc.hpp"

#include <stdexcept>
#include <utility>

#include "server/faults.hpp"

namespace rt::spec {

namespace {

/// Small string-enum helper: validates against a fixed table and produces
/// a "known: ..." SpecError like the registries do.
template <typename Enum, std::size_t N>
Enum parse_enum(const std::string& value, const SpecPath& path,
                const std::pair<const char*, Enum> (&table)[N]) {
  for (const auto& [name, kind] : table) {
    if (value == name) return kind;
  }
  std::string known;
  for (const auto& [name, kind] : table) {
    (void)kind;
    if (!known.empty()) known += ", ";
    known += name;
  }
  throw SpecError(path, "unknown value '" + value + "' (known: " + known + ")");
}

constexpr std::pair<const char*, sim::ExecTimePolicy> kExecPolicies[] = {
    {"always-wcet", sim::ExecTimePolicy::kAlwaysWcet},
    {"uniform-fraction", sim::ExecTimePolicy::kUniformFraction},
};
constexpr std::pair<const char*, sim::ReleasePolicy> kReleasePolicies[] = {
    {"periodic", sim::ReleasePolicy::kPeriodic},
    {"sporadic", sim::ReleasePolicy::kSporadic},
};
constexpr std::pair<const char*, sim::BenefitSemantics> kBenefitSemantics[] = {
    {"quality-value", sim::BenefitSemantics::kQualityValue},
    {"timely-count", sim::BenefitSemantics::kTimelyCount},
};
constexpr std::pair<const char*, sim::DeadlinePolicy> kDeadlinePolicies[] = {
    {"split", sim::DeadlinePolicy::kSplit},
    {"naive", sim::DeadlinePolicy::kNaive},
};
constexpr std::pair<const char*, sim::SchedulerPolicy> kSchedulerPolicies[] = {
    {"edf", sim::SchedulerPolicy::kEdf},
    {"fixed-priority-dm", sim::SchedulerPolicy::kFixedPriorityDm},
};

/// Validates an enum-valued string field (present or defaulted) and
/// returns its normalized spelling.
template <typename Enum, std::size_t N>
std::string enum_field(const Json& obj, const SpecPath& path,
                       const std::string& key, const char* fallback,
                       const std::pair<const char*, Enum> (&table)[N]) {
  const std::string v = string_or(obj, path, key, fallback);
  (void)parse_enum(v, path / key, table);
  return v;
}

Json normalize_sweep(const Json& obj, const SpecPath& path) {
  check_keys(obj, path, {"base_seed", "jobs", "axes"});
  Json::Object out;
  out["base_seed"] = Json(static_cast<double>(integer_or(obj, path, "base_seed", 1)));
  out["jobs"] = Json(static_cast<double>(integer_or(obj, path, "jobs", 1)));
  Json::Array axes;
  if (has(obj, "axes")) {
    const Json::Array& in = as_array(obj.at("axes"), path / "axes");
    axes.reserve(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      const SpecPath ap = path / "axes" / i;
      check_keys(in[i], ap, {"path", "values"});
      const std::string axis_path = require_string(in[i], ap, "path");
      if (axis_path.empty()) throw SpecError(ap / "path", "must be non-empty");
      const Json::Array& values =
          as_array(require(in[i], ap, "values"), ap / "values");
      if (values.empty()) {
        throw SpecError(ap / "values", "must be a non-empty array");
      }
      Json::Object axis;
      axis["path"] = axis_path;
      axis["values"] = Json(values);
      axes.push_back(Json(std::move(axis)));
    }
  }
  out["axes"] = Json(std::move(axes));
  return Json(std::move(out));
}

/// Wraps non-SpecError build failures (constructor preconditions of the
/// runtime types) with the owning section's path.
template <typename Fn>
auto in_section(const char* section, Fn&& fn) {
  try {
    return fn();
  } catch (const SpecError&) {
    throw;
  } catch (const std::exception& e) {
    throw SpecError(SpecPath() / section, e.what());
  }
}

}  // namespace

Json normalize_odm(const Json& obj, const SpecPath& path) {
  check_keys(obj, path, {"solver", "estimation_error", "apply_task_weights",
                         "profit_scale", "exact_pda"});
  const std::string solver = string_or(obj, path, "solver", "dp-profits");
  (void)solver_from_string(solver, path / "solver");
  Json::Object out;
  out["solver"] = solver;
  out["estimation_error"] = number_above(obj, path, "estimation_error", 0.0, -1.0);
  out["apply_task_weights"] = bool_or(obj, path, "apply_task_weights", true);
  out["profit_scale"] =
      number_above(obj, path, "profit_scale", mckp::kDefaultProfitScale, 0.0);
  out["exact_pda"] = bool_or(obj, path, "exact_pda", false);
  return Json(std::move(out));
}

core::OdmConfig build_odm_config(const Json& normalized) {
  core::OdmConfig cfg;
  cfg.solver = solver_from_string(normalized.at("solver").as_string(),
                                  SpecPath() / "odm" / "solver");
  cfg.estimation_error = normalized.at("estimation_error").as_number();
  cfg.apply_task_weights = normalized.at("apply_task_weights").as_bool();
  cfg.profit_scale = normalized.at("profit_scale").as_number();
  return cfg;
}

Json normalize_sim(const Json& obj, const SpecPath& path) {
  check_keys(obj, path,
             {"horizon_ms", "seed", "exec_policy", "exec_min_fraction",
              "release_policy", "sporadic_slack", "benefit_semantics",
              "deadline_policy", "scheduler_policy",
              "context_switch_overhead_us", "replications"});
  Json::Object out;
  out["horizon_ms"] = number_above(obj, path, "horizon_ms", 10000.0, 0.0);
  const std::uint64_t replications = integer_or(obj, path, "replications", 1);
  if (replications < 1) {
    throw SpecError(path / "replications", "must be >= 1");
  }
  out["replications"] = Json(static_cast<double>(replications));
  out["seed"] = Json(static_cast<double>(integer_or(obj, path, "seed", 42)));
  out["exec_policy"] =
      enum_field(obj, path, "exec_policy", "always-wcet", kExecPolicies);
  out["exec_min_fraction"] =
      number_in(obj, path, "exec_min_fraction", 0.5, 0.0, 1.0);
  out["release_policy"] =
      enum_field(obj, path, "release_policy", "periodic", kReleasePolicies);
  out["sporadic_slack"] = number_at_least(obj, path, "sporadic_slack", 0.2, 0.0);
  out["benefit_semantics"] = enum_field(obj, path, "benefit_semantics",
                                        "quality-value", kBenefitSemantics);
  out["deadline_policy"] =
      enum_field(obj, path, "deadline_policy", "split", kDeadlinePolicies);
  out["scheduler_policy"] =
      enum_field(obj, path, "scheduler_policy", "edf", kSchedulerPolicies);
  out["context_switch_overhead_us"] =
      number_at_least(obj, path, "context_switch_overhead_us", 0.0, 0.0);
  return Json(std::move(out));
}

sim::SimConfig build_sim_config(const Json& normalized) {
  const SpecPath p = SpecPath() / "sim";
  sim::SimConfig cfg;
  cfg.horizon = Duration::from_ms(normalized.at("horizon_ms").as_number());
  cfg.seed = static_cast<std::uint64_t>(normalized.at("seed").as_number());
  cfg.exec_policy = parse_enum(normalized.at("exec_policy").as_string(),
                               p / "exec_policy", kExecPolicies);
  cfg.exec_min_fraction = normalized.at("exec_min_fraction").as_number();
  cfg.release_policy = parse_enum(normalized.at("release_policy").as_string(),
                                  p / "release_policy", kReleasePolicies);
  cfg.sporadic_slack = normalized.at("sporadic_slack").as_number();
  cfg.benefit_semantics =
      parse_enum(normalized.at("benefit_semantics").as_string(),
                 p / "benefit_semantics", kBenefitSemantics);
  cfg.deadline_policy = parse_enum(normalized.at("deadline_policy").as_string(),
                                   p / "deadline_policy", kDeadlinePolicies);
  cfg.scheduler_policy =
      parse_enum(normalized.at("scheduler_policy").as_string(),
                 p / "scheduler_policy", kSchedulerPolicies);
  cfg.context_switch_overhead = Duration::from_ms(
      normalized.at("context_switch_overhead_us").as_number() / 1e3);
  return cfg;
}

// Schema v1.2: the optional $.runtime section configures the real
// OffloadRuntime / gpu_serverd pair (docs/RUNTIME.md). Normalization
// materializes every default; the address format is checked lightly here
// (host:port shape) and strictly by src/net/'s parser, keeping this layer
// free of a net/ dependency.
Json normalize_runtime(const Json& obj, const SpecPath& path) {
  check_keys(obj, path,
             {"listen", "time_scale", "max_frame_bytes", "connect_timeout_ms"});
  Json::Object out;
  const std::string listen = string_or(obj, path, "listen", "127.0.0.1:0");
  const std::size_t colon = listen.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == listen.size()) {
    throw SpecError(path / "listen",
                    "must be 'host:port' (got '" + listen + "')");
  }
  out["listen"] = listen;
  // Wall seconds per protocol second: < 1 compresses the experiment so
  // e2e suites stay fast, > 1 dilates it when jitter must shrink relative
  // to the protocol's margins.
  out["time_scale"] = number_above(obj, path, "time_scale", 1.0, 0.0);
  const auto max_frame =
      integer_or(obj, path, "max_frame_bytes", std::uint64_t{1} << 20);
  if (max_frame < 4096 || max_frame > (std::uint64_t{64} << 20)) {
    throw SpecError(path / "max_frame_bytes",
                    "must be in [4096, 67108864]");
  }
  out["max_frame_bytes"] = static_cast<double>(max_frame);
  out["connect_timeout_ms"] =
      number_above(obj, path, "connect_timeout_ms", 5000.0, 0.0);
  return Json(std::move(out));
}

ScenarioDoc ScenarioDoc::parse(const Json& doc) {
  const SpecPath root;
  check_keys(doc, root,
             {"version", "name", "workload", "odm", "server", "faults",
              "controller", "sim", "sweep", "runtime"});
  const std::uint64_t version = integer_or(doc, root, "version", 1);
  if (version != 1) {
    throw SpecError(root / "version",
                    "unsupported schema version " + std::to_string(version) +
                        " (this build understands version 1)");
  }
  ScenarioDoc out;
  out.name = string_or(doc, root, "name", "");
  out.workload =
      normalize_workload(require(doc, root, "workload"), root / "workload");
  out.odm = normalize_odm(has(doc, "odm") ? doc.at("odm") : Json(Json::Object{}),
                          root / "odm");
  if (has(doc, "server")) {
    out.server = normalize_model(doc.at("server"), root / "server");
  }
  if (has(doc, "faults")) {
    if (!has(doc, "server")) {
      throw SpecError(root / "faults",
                      "a fault overlay needs a server section to wrap");
    }
    out.faults = normalize_fault_script(doc.at("faults"), root / "faults");
  }
  if (has(doc, "controller")) {
    if (!has(doc, "server")) {
      throw SpecError(root / "controller",
                      "an adaptive controller needs a server section");
    }
    out.controller =
        normalize_controller(doc.at("controller"), root / "controller");
  }
  out.sim = normalize_sim(has(doc, "sim") ? doc.at("sim") : Json(Json::Object{}),
                          root / "sim");
  if (has(doc, "sweep")) {
    out.sweep = normalize_sweep(doc.at("sweep"), root / "sweep");
  }
  if (has(doc, "runtime")) {
    out.runtime = normalize_runtime(doc.at("runtime"), root / "runtime");
  }
  return out;
}

ScenarioDoc ScenarioDoc::parse_text(std::string_view text) {
  try {
    return parse(Json::parse(text));
  } catch (const SpecError&) {
    throw;
  } catch (const std::exception& e) {
    throw SpecError(SpecPath(), e.what());
  }
}

Json ScenarioDoc::to_json() const {
  Json::Object out;
  out["version"] = 1.0;
  if (!name.empty()) out["name"] = name;
  out["workload"] = workload;
  out["odm"] = odm;
  if (!server.is_null()) out["server"] = server;
  if (!faults.is_null()) out["faults"] = faults;
  if (!controller.is_null()) out["controller"] = controller;
  out["sim"] = sim;
  if (!sweep.is_null()) out["sweep"] = sweep;
  if (!runtime.is_null()) out["runtime"] = runtime;
  return Json(std::move(out));
}

BuiltScenario build_scenario(const ScenarioDoc& doc) {
  BuiltScenario out;
  {
    BuiltWorkload w = in_section(
        "workload", [&] { return build_workload(doc.workload, BuildContext{}); });
    out.tasks = std::move(w.tasks);
    out.profile = std::move(w.profile);
  }
  out.odm = build_odm_config(doc.odm);
  out.exact_pda = doc.odm.at("exact_pda").as_bool();
  out.sim = build_sim_config(doc.sim);
  out.replications =
      static_cast<std::size_t>(doc.sim.at("replications").as_number());

  BuildContext ctx;
  ctx.tasks = &out.tasks;
  ctx.odm = &doc.odm;
  ctx.default_seed = out.sim.seed;

  if (!doc.server.is_null()) {
    out.server =
        in_section("server", [&] { return build_model(doc.server, ctx); });
    if (!doc.faults.is_null()) {
      out.server = in_section("faults", [&] {
        return std::make_unique<server::FaultInjector>(
            std::move(out.server), server::FaultScript::from_json(doc.faults));
      });
    }
  }
  if (!doc.controller.is_null()) {
    out.controller =
        std::make_shared<health::ModeControllerConfig>(in_section(
            "controller", [&] { return build_controller(doc.controller, ctx); }));
  }
  out.runtime = doc.runtime;
  return out;
}

exp::ScenarioSpec to_scenario_spec(const ScenarioDoc& doc) {
  BuiltScenario built = build_scenario(doc);
  exp::ScenarioSpec spec;
  spec.tasks = std::move(built.tasks);
  spec.odm = built.odm;
  spec.server = std::shared_ptr<const server::ResponseModel>(std::move(built.server));
  spec.sim = built.sim;
  spec.adaptive = std::move(built.controller);
  spec.profile = std::move(built.profile);
  spec.replications = built.replications;
  return spec;
}

}  // namespace rt::spec
