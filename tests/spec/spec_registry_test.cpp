// The component factory registry: type listings, dispatch errors, solver
// name table, and builder output equivalence for a few primitives.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "server/gpu_server.hpp"
#include "server/response_model.hpp"
#include "spec/registry.hpp"
#include "spec/spec_error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

using namespace rt;

namespace {

server::Request request(double send_ms = 0.0) {
  server::Request req;
  req.send_time = TimePoint::zero() + Duration::from_ms(send_ms);
  req.compute_time = Duration::from_ms(5);
  req.payload_bytes = 1000;
  req.stream_id = 0;
  return req;
}

TEST(SpecRegistry, TypeListingsAreSortedAndComplete) {
  const std::vector<std::string> models = spec::model_registry().types();
  EXPECT_TRUE(std::is_sorted(models.begin(), models.end()));
  for (const char* expected :
       {"benefit-driven", "bounded", "bursty", "empirical", "fault-injector",
        "fixed", "gpu-server", "never", "routing", "scenario",
        "shifted-lognormal"}) {
    EXPECT_TRUE(std::find(models.begin(), models.end(), expected) !=
                models.end())
        << expected;
  }
  const std::vector<std::string> workloads = spec::workload_registry().types();
  for (const char* expected : {"case-study", "inline", "paper", "random"}) {
    EXPECT_TRUE(std::find(workloads.begin(), workloads.end(), expected) !=
                workloads.end())
        << expected;
  }
  const std::vector<std::string> controllers =
      spec::controller_registry().types();
  for (const char* expected : {"all-local", "explicit", "pessimistic-odm"}) {
    EXPECT_TRUE(std::find(controllers.begin(), controllers.end(), expected) !=
                controllers.end())
        << expected;
  }
}

TEST(SpecRegistry, UnknownTypeIsAPathQualifiedError) {
  const Json model = Json::parse(R"({"type": "warp-core"})");
  try {
    (void)spec::normalize_model(model, spec::SpecPath() / "server");
    FAIL() << "expected SpecError";
  } catch (const spec::SpecError& e) {
    const std::string msg = e.what();
    EXPECT_EQ(msg.rfind("$.server.type", 0), 0u) << msg;
    EXPECT_NE(msg.find("warp-core"), std::string::npos) << msg;
  }
}

TEST(SpecRegistry, SolverNamesRoundTrip) {
  const std::vector<std::string> names = spec::solver_names();
  EXPECT_EQ(names, (std::vector<std::string>{"dp-profits", "heu-oe"}));
  for (const std::string& name : names) {
    EXPECT_EQ(mckp::to_string(spec::solver_from_string(name, spec::SpecPath())),
              name);
  }
  EXPECT_THROW((void)spec::solver_from_string("simplex", spec::SpecPath()),
               spec::SpecError);
  try {
    (void)spec::solver_from_string("simplex", spec::SpecPath() / "odm" / "solver");
    FAIL() << "expected SpecError";
  } catch (const spec::SpecError& e) {
    EXPECT_STREQ(e.what(), "$.odm.solver: unknown solver 'simplex' "
                           "(known: dp-profits, heu-oe)");
  }
}

TEST(SpecRegistry, NormalizationIsIdempotent) {
  const Json model = Json::parse(R"json({
    "type": "bursty",
    "calm": {"type": "fixed", "response_ms": 3},
    "burst": {"type": "never"}
  })json");
  const Json once = spec::normalize_model(model, spec::SpecPath() / "server");
  const Json twice = spec::normalize_model(once, spec::SpecPath() / "server");
  EXPECT_EQ(once, twice);
}

TEST(SpecRegistry, FixedModelSamplesItsConstant) {
  const Json model = Json::parse(R"({"type": "fixed", "response_ms": 7.5})");
  const std::unique_ptr<server::ResponseModel> built = spec::build_model(
      spec::normalize_model(model, spec::SpecPath()), spec::BuildContext{});
  Rng rng(1);
  EXPECT_EQ(built->sample(request(), rng), Duration::from_ms(7.5));
}

TEST(SpecRegistry, NeverModelNeverResponds) {
  const std::unique_ptr<server::ResponseModel> built =
      spec::build_model(spec::normalize_model(
                            Json::parse(R"({"type": "never"})"), spec::SpecPath()),
                        spec::BuildContext{});
  Rng rng(1);
  EXPECT_EQ(built->sample(request(), rng), server::kNoResponse);
}

TEST(SpecRegistry, ScenarioSeedDefaultsToContextSeed) {
  spec::BuildContext ctx;
  ctx.default_seed = 77;
  const std::unique_ptr<server::ResponseModel> from_spec = spec::build_model(
      spec::normalize_model(Json::parse(R"({"type": "scenario", "name": "not-busy"})"),
                            spec::SpecPath()),
      ctx);
  const std::unique_ptr<server::ResponseModel> inline_built =
      server::make_scenario_server(server::Scenario::kNotBusy, 77);
  Rng rng_a(5), rng_b(5);
  for (int i = 0; i < 64; ++i) {
    const server::Request req = request(static_cast<double>(i) * 10.0);
    EXPECT_EQ(from_spec->sample(req, rng_a), inline_built->sample(req, rng_b))
        << i;
  }
}

}  // namespace
