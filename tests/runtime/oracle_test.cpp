// Differential-oracle suite: every checked-in runtime spec is executed
// through the simulator (pooled replications) and through the real
// OffloadRuntime/LoopbackGpuServer pair, and the protocol outcome rates
// must agree within the binomial confidence bounds derived in
// docs/RUNTIME.md. This is the acceptance gate for the real tier: a
// protocol bug on either side (wrong compensation anchor, lost replies,
// mis-ordered releases) shows up as a rate divergence here.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "support/runtime_oracle.hpp"
#include "spec/scenario_doc.hpp"
#include "spec/spec_error.hpp"

namespace rt::runtime {
namespace {

spec::ScenarioDoc load_spec(const std::string& name) {
  const std::string path = std::string(RTOFFLOAD_SPECS_DIR) + "/" + name;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return spec::ScenarioDoc::parse_text(buf.str());
}

// TSan's instrumentation multiplies loop dispatch latency by ~10x, which
// blows real-side jitter past the sub-deadlines the binomial band was
// sized for (docs/RUNTIME.md). The races the runtime actually contains
// (loopback daemon thread, cross-thread post) are still exercised under
// TSan by the net and protocol suites, so the rate-agreement tests skip
// there instead of chasing a tolerance that would be meaningless.
#if defined(__SANITIZE_THREAD__)
#define RTOFFLOAD_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RTOFFLOAD_TSAN 1
#endif
#endif

void expect_oracle_passes(const std::string& name) {
#ifdef RTOFFLOAD_TSAN
  GTEST_SKIP() << "rate tolerances are sized for uninstrumented builds";
#endif
  const OracleOutcome outcome = run_differential(load_spec(name));
  EXPECT_TRUE(outcome.passed()) << outcome.summary();
  EXPECT_TRUE(outcome.real.connection_error.empty())
      << outcome.real.connection_error;
  EXPECT_EQ(outcome.real.wire_errors, 0u);
  // The oracle is vacuous if nothing was offloaded; the checked-in specs
  // are built so the ODM offloads and the real tier actually sends RPCs.
  EXPECT_GT(outcome.real.rpc_sent, 0u);
  EXPECT_GT(outcome.sim_attempts, 0u);
  for (const RateCheck& check : outcome.checks) {
    EXPECT_TRUE(check.pass) << check.to_string();
  }
}

TEST(OracleTest, FixedResponseSpecAgrees) {
  expect_oracle_passes("runtime_fixed.json");
}

TEST(OracleTest, LognormalWithDropsSpecAgrees) {
  expect_oracle_passes("runtime_lognormal.json");
}

TEST(OracleTest, FaultScriptOutageSpecAgrees) {
  expect_oracle_passes("runtime_faults.json");
}

TEST(OracleTest, RejectsDocumentWithoutServerSection) {
  // An ODM-only document has no model to serve; the oracle must refuse
  // rather than silently compare nothing.
  const spec::ScenarioDoc doc = spec::ScenarioDoc::parse_text(R"({
    "version": 1,
    "workload": {
      "type": "inline",
      "tasks": [{"name": "t", "period_ms": 100, "local_wcet_ms": 10,
                 "setup_wcet_ms": 1, "benefit": [[0, 1.0]]}]
    },
    "odm": {"solver": "dp-profits"},
    "sim": {"horizon_ms": 100, "seed": 1}
  })");
  EXPECT_THROW(run_differential(doc), spec::SpecError);
}

}  // namespace
}  // namespace rt::runtime
