// Normalization fixed point and the validation-error battery.
//
// parse() materializes every default, so parse -> to_json -> parse is a
// fixed point; and every rejection names the JSON path of the first
// violation, which these tests pin down path-by-path (messages are free to
// change, the paths are the contract).

#include <gtest/gtest.h>

#include <string>

#include "spec/grid.hpp"
#include "spec/scenario_doc.hpp"
#include "util/json.hpp"

using namespace rt;

namespace {

constexpr std::string_view kComposedDoc = R"json({
  "name": "composed",
  "workload": {"type": "random", "seed": 7, "num_tasks": 4},
  "server": {
    "type": "fault-injector",
    "script": {
      "seed": 9001,
      "clauses": [{"kind": "outage", "start_ms": 1500, "end_ms": 3000}]
    },
    "inner": {
      "type": "routing",
      "route_of_stream": [0, 1, 0, 1],
      "routes": [
        {
          "type": "bursty",
          "seed": 3,
          "mean_calm_ms": 4000,
          "mean_burst_ms": 800,
          "calm": {"type": "shifted-lognormal", "mu_log_ms": 2.7,
                   "sigma_log": 0.4},
          "burst": {"type": "shifted-lognormal", "shift_ms": 150,
                    "mu_log_ms": 6.0, "sigma_log": 0.9,
                    "drop_probability": 0.15}
        },
        {
          "type": "bounded",
          "bound_ms": 400,
          "inner": {"type": "shifted-lognormal", "shift_ms": 2,
                    "mu_log_ms": 3.1, "sigma_log": 0.5}
        }
      ]
    }
  },
  "faults": {"clauses": [{"kind": "slowdown", "start_ms": 500,
                          "end_ms": 2500, "factor": 2.5}]},
  "controller": {"type": "pessimistic-odm", "estimation_error": 1.0},
  "sim": {"horizon_ms": 6000, "seed": 9},
  "sweep": {"jobs": 2, "axes": [
    {"path": "odm.estimation_error", "values": [0.0, 0.2]}
  ]}
})json";

/// A minimal valid document the error battery mutates.
Json base_doc() {
  return Json::parse(R"json({
    "workload": {"type": "random", "seed": 1, "num_tasks": 3},
    "server": {"type": "shifted-lognormal", "mu_log_ms": 3.0,
               "sigma_log": 0.5}
  })json");
}

/// Asserts parse(doc) throws a SpecError whose message starts with the
/// JSON path of the violation ("$.server.sigma_log: ...").
void expect_error_at(const Json& doc, const std::string& path) {
  try {
    (void)spec::ScenarioDoc::parse(doc);
    FAIL() << "expected SpecError at " << path;
  } catch (const spec::SpecError& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind(path, 0), 0u)
        << "error \"" << msg << "\" does not start with " << path;
  }
}

TEST(SpecRoundtrip, NormalizationIsAFixedPoint) {
  const spec::ScenarioDoc doc = spec::ScenarioDoc::parse_text(kComposedDoc);
  const Json normalized = doc.to_json();
  EXPECT_EQ(normalized, spec::ScenarioDoc::parse(normalized).to_json());
  // Through text as well: dump -> parse_text -> to_json is the same object.
  EXPECT_EQ(normalized,
            spec::ScenarioDoc::parse_text(normalized.dump(2)).to_json());
}

TEST(SpecRoundtrip, DefaultsAreMaterialized) {
  const spec::ScenarioDoc doc =
      spec::ScenarioDoc::parse_text(R"({"workload": {"type": "random"}})");
  EXPECT_EQ(doc.odm.at("solver").as_string(), "dp-profits");
  EXPECT_EQ(doc.odm.at("estimation_error").as_number(), 0.0);
  EXPECT_TRUE(doc.odm.at("apply_task_weights").as_bool());
  EXPECT_EQ(doc.sim.at("horizon_ms").as_number(), 10000.0);
  EXPECT_EQ(doc.sim.at("seed").as_number(), 42.0);
  EXPECT_EQ(doc.sim.at("exec_policy").as_string(), "always-wcet");
  EXPECT_EQ(doc.sim.at("replications").as_number(), 1.0);
  EXPECT_EQ(doc.workload.at("num_tasks").as_number(), 10.0);
  EXPECT_TRUE(doc.server.is_null());
  EXPECT_TRUE(doc.faults.is_null());
  EXPECT_TRUE(doc.controller.is_null());
  EXPECT_TRUE(doc.sweep.is_null());
}

TEST(SpecRoundtrip, ControllerHealthDefaultsAreMaterialized) {
  Json doc = base_doc();
  doc.as_object()["controller"] =
      Json::parse(R"({"type": "all-local"})");
  const spec::ScenarioDoc parsed = spec::ScenarioDoc::parse(doc);
  const Json& health = parsed.controller.at("health");
  EXPECT_EQ(health.at("window").as_number(), 32.0);
  EXPECT_EQ(health.at("degrade_below").as_number(), 0.5);
  EXPECT_EQ(health.at("recover_above").as_number(), 0.8);
  EXPECT_EQ(health.at("min_degraded_dwell_ms").as_number(), 2000.0);
}

TEST(SpecErrors, MissingWorkload) {
  expect_error_at(Json::parse("{}"), "$.workload");
}

TEST(SpecErrors, UnknownTopLevelKey) {
  Json doc = base_doc();
  doc.as_object()["bogus"] = Json(1.0);
  expect_error_at(doc, "$: unknown key 'bogus'");
}

TEST(SpecErrors, UnsupportedVersion) {
  Json doc = base_doc();
  doc.as_object()["version"] = Json(2.0);
  expect_error_at(doc, "$.version");
}

TEST(SpecErrors, UnknownWorkloadType) {
  Json doc = base_doc();
  doc.as_object()["workload"].as_object()["type"] = Json("warp-core");
  expect_error_at(doc, "$.workload.type");
}

TEST(SpecErrors, WorkloadNumTasksOutOfRange) {
  Json doc = base_doc();
  doc.as_object()["workload"].as_object()["num_tasks"] = Json(0.0);
  expect_error_at(doc, "$.workload.num_tasks");
}

TEST(SpecErrors, UnknownSolver) {
  Json doc = base_doc();
  doc.as_object()["odm"] = Json::parse(R"({"solver": "simplex"})");
  expect_error_at(doc, "$.odm.solver");
}

TEST(SpecErrors, EstimationErrorBelowMinusOne) {
  Json doc = base_doc();
  doc.as_object()["odm"] = Json::parse(R"({"estimation_error": -1})");
  expect_error_at(doc, "$.odm.estimation_error");
}

TEST(SpecErrors, UnknownExecPolicy) {
  Json doc = base_doc();
  doc.as_object()["sim"] = Json::parse(R"({"exec_policy": "bogus"})");
  expect_error_at(doc, "$.sim.exec_policy");
}

TEST(SpecErrors, ReplicationsBelowOne) {
  Json doc = base_doc();
  doc.as_object()["sim"] = Json::parse(R"({"replications": 0})");
  expect_error_at(doc, "$.sim.replications");
}

TEST(SpecErrors, ReplicationsNotAnInteger) {
  Json doc = base_doc();
  doc.as_object()["sim"] = Json::parse(R"({"replications": 2.5})");
  expect_error_at(doc, "$.sim.replications");
}

TEST(SpecRoundtrip, ReplicationsReachTheScenarioSpec) {
  Json doc = base_doc();
  doc.as_object()["sim"] = Json::parse(R"({"replications": 64})");
  const spec::ScenarioDoc parsed = spec::ScenarioDoc::parse(doc);
  EXPECT_EQ(parsed.sim.at("replications").as_number(), 64.0);
  const exp::ScenarioSpec spec = spec::to_scenario_spec(parsed);
  EXPECT_EQ(spec.replications, 64u);
}

TEST(SpecErrors, ModelRangeViolation) {
  Json doc = base_doc();
  doc.as_object()["server"].as_object()["sigma_log"] = Json(-0.5);
  expect_error_at(doc, "$.server.sigma_log");
}

TEST(SpecErrors, NestedModelRangeViolation) {
  Json doc = base_doc();
  doc.as_object()["server"] = Json::parse(R"json({
    "type": "bursty",
    "calm": {"type": "shifted-lognormal", "mu_log_ms": 2.0, "sigma_log": -1},
    "burst": {"type": "shifted-lognormal", "mu_log_ms": 2.0, "sigma_log": 0.5}
  })json");
  expect_error_at(doc, "$.server.calm.sigma_log");
}

TEST(SpecErrors, UnknownKeyInsideModel) {
  Json doc = base_doc();
  doc.as_object()["server"].as_object()["sigma"] = Json(0.5);
  expect_error_at(doc, "$.server: unknown key 'sigma'");
}

TEST(SpecErrors, RoutingStreamIndexOutOfRange) {
  Json doc = base_doc();
  doc.as_object()["server"] = Json::parse(R"json({
    "type": "routing",
    "routes": [{"type": "fixed", "response_ms": 5}],
    "route_of_stream": [0, 3]
  })json");
  expect_error_at(doc, "$.server.route_of_stream[1]");
}

// The mapping is checked against the task set when the document is built:
// a three-task set with two mapped streams names route_of_stream at
// $.server, as the controller-arity build errors name $.controller.
TEST(SpecErrors, RoutingMappingShorterThanTheTaskSet) {
  Json doc = base_doc();
  doc.as_object()["server"] = Json::parse(R"json({
    "type": "routing",
    "routes": [{"type": "fixed", "response_ms": 5}],
    "route_of_stream": [0, 0]
  })json");
  const spec::ScenarioDoc parsed = spec::ScenarioDoc::parse(doc);
  try {
    (void)spec::build_scenario(parsed);
    FAIL() << "expected a SpecError for the short mapping";
  } catch (const spec::SpecError& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind("$.server", 0), 0u) << msg;
    EXPECT_NE(msg.find("route_of_stream"), std::string::npos) << msg;
  }
  doc.as_object()["server"].as_object()["route_of_stream"] =
      Json::parse("[0, 0, 0]");
  EXPECT_NO_THROW((void)spec::build_scenario(spec::ScenarioDoc::parse(doc)));
}

TEST(SpecErrors, FaultsWithoutServer) {
  Json doc = base_doc();
  doc.as_object().erase("server");
  doc.as_object()["faults"] =
      Json::parse(R"({"clauses": [{"kind": "outage", "start_ms": 0}]})");
  expect_error_at(doc, "$.faults");
}

TEST(SpecErrors, BadFaultClause) {
  Json doc = base_doc();
  doc.as_object()["faults"] =
      Json::parse(R"({"clauses": [{"kind": "meteor-strike", "start_ms": 0}]})");
  expect_error_at(doc, "$.faults.clauses[0]");
}

TEST(SpecErrors, ControllerWithoutServer) {
  Json doc = base_doc();
  doc.as_object().erase("server");
  doc.as_object()["controller"] = Json::parse(R"({"type": "all-local"})");
  expect_error_at(doc, "$.controller");
}

TEST(SpecErrors, HealthHysteresisBandInverted) {
  Json doc = base_doc();
  doc.as_object()["controller"] = Json::parse(R"json({
    "type": "all-local",
    "health": {"degrade_below": 0.9, "recover_above": 0.5}
  })json");
  expect_error_at(doc, "$.controller.health");
}

TEST(SpecErrors, HealthFieldOutOfRange) {
  Json doc = base_doc();
  doc.as_object()["controller"] = Json::parse(R"json({
    "type": "all-local",
    "health": {"recover_above": 2.0}
  })json");
  expect_error_at(doc, "$.controller.health.recover_above");
}

TEST(SpecErrors, RemovedOptionsFailWhereTheyAreNamed) {
  // The grid-DP solver, the health monitor's latency EWMA and the runtime's
  // padding switch are gone: a document naming one fails at its location
  // instead of being read as if the option were still there.
  Json solver = base_doc();
  solver.as_object()["odm"] = Json::parse(R"({"solver": "dp-weights"})");
  expect_error_at(solver, "$.odm.solver: unknown solver 'dp-weights'");

  Json ewma = base_doc();
  ewma.as_object()["controller"] = Json::parse(R"json({
    "type": "all-local",
    "health": {"ewma_alpha": 0.2}
  })json");
  expect_error_at(ewma, "$.controller.health: unknown key 'ewma_alpha'");

  Json padding = base_doc();
  padding.as_object()["runtime"] = Json::parse(R"({"payload_padding": true})");
  expect_error_at(padding, "$.runtime: unknown key 'payload_padding'");
}

TEST(SpecErrors, EmptySweepAxisValues) {
  Json doc = base_doc();
  doc.as_object()["sweep"] = Json::parse(
      R"({"axes": [{"path": "odm.estimation_error", "values": []}]})");
  expect_error_at(doc, "$.sweep.axes[0].values");
}

TEST(SpecErrors, SweepAxisPathMissingIntermediate) {
  // The axis path is only resolved at expansion time; a dangling
  // intermediate container is reported at the axis's own location.
  const spec::ScenarioDoc doc = spec::ScenarioDoc::parse_text(R"json({
    "workload": {"type": "random"},
    "sweep": {"axes": [{"path": "nonexistent.key", "values": [1, 2]}]}
  })json");
  try {
    (void)spec::expand_grid(doc);
    FAIL() << "expected SpecError";
  } catch (const spec::SpecError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("$.sweep.axes[0].path", 0), 0u)
        << e.what();
  }
}

TEST(SpecErrors, MalformedJsonTextIsASpecError) {
  EXPECT_THROW((void)spec::ScenarioDoc::parse_text("{not json"),
               spec::SpecError);
}

TEST(SpecGrid, ExpansionIsRowMajor) {
  const spec::ScenarioDoc doc = spec::ScenarioDoc::parse_text(R"json({
    "workload": {"type": "random"},
    "sweep": {"axes": [
      {"path": "odm.estimation_error", "values": [0.0, 0.5]},
      {"path": "sim.horizon_ms", "values": [1000, 2000, 3000]}
    ]}
  })json");
  const std::vector<spec::ScenarioDoc> grid = spec::expand_grid(doc);
  ASSERT_EQ(grid.size(), 6u);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_TRUE(grid[i].sweep.is_null());  // children carry no sweep
    EXPECT_EQ(grid[i].odm.at("estimation_error").as_number(),
              i < 3 ? 0.0 : 0.5);
    EXPECT_EQ(grid[i].sim.at("horizon_ms").as_number(),
              1000.0 * static_cast<double>(1 + i % 3));
  }
}

TEST(SpecGrid, WithOverrideRevalidates) {
  const spec::ScenarioDoc doc =
      spec::ScenarioDoc::parse_text(R"({"workload": {"type": "random"}})");
  const spec::ScenarioDoc bumped =
      spec::with_override(doc, "workload.num_tasks", Json(7.0));
  EXPECT_EQ(bumped.workload.at("num_tasks").as_number(), 7.0);
  EXPECT_THROW(
      (void)spec::with_override(doc, "workload.num_tasks", Json(-3.0)),
      spec::SpecError);
}

}  // namespace
