// End-to-end test of the rtoffload_cli tool: generate the sample file, run
// the pipeline on it, and validate the JSON report. Exercises the real
// binary (path injected by CMake), argument handling, and exit codes.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/json.hpp"

namespace rt {
namespace {

/// ctest runs each TEST above as its own process (gtest_discover_tests),
/// so scratch files must be per-process or parallel runs race on them.
std::string scratch_path(const std::string& stem) {
  return "/tmp/rtoffload_cli_" + std::to_string(getpid()) + "_" + stem;
}

std::string run_capture(const std::string& cmd, int* exit_code) {
  const std::string out_path = scratch_path("out.txt");
  const int rc = std::system((cmd + " > " + out_path + " 2>/dev/null").c_str());
  *exit_code = WEXITSTATUS(rc);
  std::ifstream in(out_path);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::remove(out_path.c_str());
  return buf.str();
}

TEST(CliTool, SampleRoundTripProducesCleanReport) {
  int rc = 0;
  const std::string sample = run_capture(std::string(RTOFFLOAD_CLI_PATH) + " --sample", &rc);
  ASSERT_EQ(rc, 0);
  // The sample itself must parse.
  ASSERT_NO_THROW((void)Json::parse(sample));

  const std::string in_path = scratch_path("in.json");
  {
    std::ofstream out(in_path);
    out << sample;
  }
  const std::string report_text =
      run_capture(std::string(RTOFFLOAD_CLI_PATH) + " " + in_path, &rc);
  std::remove(in_path.c_str());
  EXPECT_EQ(rc, 0) << "CLI exits non-zero only on deadline misses";

  const Json report = Json::parse(report_text);
  EXPECT_TRUE(report.at("feasible").as_bool());
  EXPECT_LE(report.at("theorem3_density").as_number(), 1.0 + 1e-12);
  EXPECT_EQ(report.at("decisions").as_array().size(), 3u);
  const Json& sim = report.at("simulation");
  EXPECT_EQ(sim.at("deadline_misses").as_number(), 0.0);
  EXPECT_GT(sim.at("released").as_number(), 0.0);
  EXPECT_EQ(sim.at("per_task").as_array().size(), 3u);
  // The exact PDA section is enabled in the sample config.
  EXPECT_TRUE(report.at("exact_pda").at("feasible").as_bool());
}

TEST(CliTool, HelpAndMissingFile) {
  int rc = 0;
  const std::string help =
      run_capture(std::string(RTOFFLOAD_CLI_PATH) + " --help", &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(help.find("usage"), std::string::npos);

  run_capture(std::string(RTOFFLOAD_CLI_PATH) + " /nonexistent.json", &rc);
  EXPECT_EQ(rc, 1);
}

TEST(CliTool, ListTypesPrintsEveryRegistry) {
  int rc = 0;
  const std::string out =
      run_capture(std::string(RTOFFLOAD_CLI_PATH) + " --list-types", &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(out.find("response-models:"), std::string::npos);
  EXPECT_NE(out.find("bursty"), std::string::npos);
  EXPECT_NE(out.find("workloads:"), std::string::npos);
  EXPECT_NE(out.find("controllers:"), std::string::npos);
  EXPECT_NE(out.find("solvers:"), std::string::npos);
  EXPECT_NE(out.find("dp-profits"), std::string::npos);
}

TEST(CliTool, ValidatePrintsTheNormalizedDocument) {
  const std::string in_path = scratch_path("spec.json");
  {
    std::ofstream out(in_path);
    out << R"({"workload": {"type": "random", "num_tasks": 3}})";
  }
  int rc = 0;
  const std::string out =
      run_capture(std::string(RTOFFLOAD_CLI_PATH) + " --validate " + in_path, &rc);
  std::remove(in_path.c_str());
  ASSERT_EQ(rc, 0);
  // Normalized output: every default materialized.
  const Json doc = Json::parse(out);
  EXPECT_EQ(doc.at("workload").at("num_tasks").as_number(), 3.0);
  EXPECT_EQ(doc.at("odm").at("solver").as_string(), "dp-profits");
  EXPECT_EQ(doc.at("sim").at("horizon_ms").as_number(), 10000.0);
}

TEST(CliTool, ValidateRejectsInvalidSpec) {
  const std::string in_path = scratch_path("bad_spec.json");
  {
    std::ofstream out(in_path);
    out << R"json({
      "workload": {"type": "random"},
      "server": {"type": "shifted-lognormal", "mu_log_ms": 3, "sigma_log": -1}
    })json";
  }
  int rc = 0;
  run_capture(std::string(RTOFFLOAD_CLI_PATH) + " --validate " + in_path, &rc);
  std::remove(in_path.c_str());
  EXPECT_EQ(rc, 1);
}

TEST(CliTool, SpecRunMatchesLegacyTaskSetRun) {
  int rc = 0;
  const std::string sample =
      run_capture(std::string(RTOFFLOAD_CLI_PATH) + " --sample", &rc);
  ASSERT_EQ(rc, 0);
  const Json sample_doc = Json::parse(sample);
  const Json& config = sample_doc.at("config");

  const std::string legacy_path = scratch_path("legacy.json");
  {
    std::ofstream out(legacy_path);
    out << sample;
  }
  const std::string legacy_report =
      run_capture(std::string(RTOFFLOAD_CLI_PATH) + " " + legacy_path, &rc);
  std::remove(legacy_path.c_str());
  ASSERT_EQ(rc, 0);

  // The same run declared as a scenario-spec document: inline workload,
  // scenario server (seed defaults to the document's sim seed, exactly the
  // legacy behavior), same solver/horizon/exact_pda.
  const Json spec_doc(Json::Object{
      {"workload", Json(Json::Object{{"type", Json("inline")},
                                     {"tasks", sample_doc.at("tasks")}})},
      {"odm", Json(Json::Object{{"solver", config.at("solver")},
                                {"estimation_error",
                                 config.at("estimation_error")},
                                {"exact_pda", config.at("exact_pda")}})},
      {"server", Json(Json::Object{{"type", Json("scenario")},
                                   {"name", config.at("scenario")}})},
      {"sim", Json(Json::Object{{"horizon_ms", config.at("horizon_ms")},
                                {"seed", config.at("seed")}})},
  });
  const std::string spec_path = scratch_path("spec_equiv.json");
  {
    std::ofstream out(spec_path);
    out << spec_doc.dump(2);
  }
  const std::string spec_report = run_capture(
      std::string(RTOFFLOAD_CLI_PATH) + " --spec " + spec_path, &rc);
  std::remove(spec_path.c_str());
  ASSERT_EQ(rc, 0);

  // Same scenario, same seeds -> byte-identical report.
  EXPECT_EQ(legacy_report, spec_report);
  EXPECT_EQ(Json::parse(legacy_report), Json::parse(spec_report));
}

TEST(CliTool, RunRealReportsRuntimeCountsAndRpc) {
  // An in-process loopback daemon serves the document's fixed 20 ms model;
  // the 8 s horizon runs in 4 s of wall time (time_scale 0.5).
  int rc = 0;
  const std::string out = run_capture(
      std::string(RTOFFLOAD_CLI_PATH) + " --run-real --spec " +
          RTOFFLOAD_SPECS_DIR + "/runtime_fixed.json",
      &rc);
  // 2 flags deadline misses: timer jitter on a loaded host, not an error.
  ASSERT_TRUE(rc == 0 || rc == 2) << "exit code " << rc;
  const Json report = Json::parse(out);
  EXPECT_TRUE(report.at("feasible").as_bool());
  const Json& runtime = report.at("runtime");
  // Releases are anchored at k*T in protocol time, so the count is exact:
  // 80 (T = 100 ms) + 54 (T = 150 ms) + 100 (T = 80 ms) over 8 s.
  EXPECT_EQ(runtime.at("released").as_number(), 234.0);
  EXPECT_EQ(runtime.at("rpc").at("wire_errors").as_number(), 0.0);
  EXPECT_EQ(runtime.at("rpc").at("connection_error").as_string(), "");
  const Json::Array& per_task = runtime.at("per_task").as_array();
  ASSERT_EQ(per_task.size(), 3u);
  for (const Json& t : per_task) {
    for (const char* key :
         {"task", "released", "timely", "compensations", "misses", "benefit"}) {
      EXPECT_TRUE(t.as_object().count(key) == 1) << "per-task key " << key;
    }
  }
}

TEST(CliTool, ReplicationsAddAggregateAndKeepRepZeroReport) {
  // --replications 1 (the default) must be byte-identical to the plain
  // run; K > 1 adds the cross-replication aggregate and reports the
  // metrics of replication 0.
  int rc = 0;
  const std::string base =
      run_capture(std::string(RTOFFLOAD_CLI_PATH), &rc);
  ASSERT_EQ(rc, 0);
  const std::string one =
      run_capture(std::string(RTOFFLOAD_CLI_PATH) + " --replications 1", &rc);
  ASSERT_EQ(rc, 0);
  EXPECT_EQ(base, one);

  const std::string many =
      run_capture(std::string(RTOFFLOAD_CLI_PATH) + " --replications 8", &rc);
  ASSERT_EQ(rc, 0);
  const Json report = Json::parse(many);
  const Json& sim = report.at("simulation");
  EXPECT_EQ(sim.at("replications").as_number(), 8.0);
  const Json& agg = report.at("aggregate");
  EXPECT_EQ(agg.at("replications").as_number(), 8.0);
  // Replication counts are identical across seeds on this periodic
  // workload, so released is a degenerate stat; benefit varies.
  EXPECT_GT(agg.at("total_benefit").at("mean").as_number(), 0.0);
  EXPECT_GE(agg.at("total_benefit").at("max").as_number(),
            agg.at("total_benefit").at("min").as_number());
}

TEST(CliTool, ReplicationsFlagRejectsBadValues) {
  int rc = 0;
  run_capture(std::string(RTOFFLOAD_CLI_PATH) + " --replications 0", &rc);
  EXPECT_EQ(rc, 1);
  run_capture(std::string(RTOFFLOAD_CLI_PATH) + " --replications nope", &rc);
  EXPECT_EQ(rc, 1);
  // Traces record a single serial run; K > 1 is rejected up front.
  run_capture(std::string(RTOFFLOAD_CLI_PATH) +
                  " --replications 4 --trace-out /tmp/never_written.json",
              &rc);
  EXPECT_EQ(rc, 1);
}

TEST(CliTool, MalformedInputFailsCleanly) {
  const std::string in_path = scratch_path("bad.json");
  {
    std::ofstream out(in_path);
    out << "{\"tasks\": [{\"name\": \"broken\"}]}";
  }
  int rc = 0;
  run_capture(std::string(RTOFFLOAD_CLI_PATH) + " " + in_path, &rc);
  std::remove(in_path.c_str());
  EXPECT_EQ(rc, 1);  // error, not a crash
}

}  // namespace
}  // namespace rt
