// End-to-end test of the rtoffload_cli tool: generate the sample file, run
// the pipeline on it, and validate the JSON report. Exercises the real
// binary (path injected by CMake), argument handling, and exit codes, plus
// the gpu_serverd daemon's error path.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
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

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The scenario document a task-set file stands for: inline workload,
/// scenario server (its seed defaults to the document's sim seed), and the
/// file's solver/estimation_error/exact_pda/horizon/seed.
Json taskset_as_doc(const Json& taskset) {
  const Json& config = taskset.at("config");
  return Json(Json::Object{
      {"workload", Json(Json::Object{{"type", Json("inline")},
                                     {"tasks", taskset.at("tasks")}})},
      {"odm", Json(Json::Object{{"solver", config.at("solver")},
                                {"estimation_error",
                                 config.at("estimation_error")},
                                {"exact_pda", config.at("exact_pda")}})},
      {"server", Json(Json::Object{{"type", Json("scenario")},
                                   {"name", config.at("scenario")}})},
      {"sim", Json(Json::Object{{"horizon_ms", config.at("horizon_ms")},
                                {"seed", config.at("seed")}})},
  });
}

Json sample_taskset() {
  int rc = 0;
  const std::string sample =
      run_capture(std::string(RTOFFLOAD_CLI_PATH) + " --sample", &rc);
  EXPECT_EQ(rc, 0);
  return Json::parse(sample);
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

/// --validate on `doc`: its exit code, and what it printed to stderr.
std::string validate_stderr(const std::string& doc, int* exit_code) {
  const std::string in_path = scratch_path("build_spec.json");
  const std::string err_path = scratch_path("build_err.txt");
  write_file(in_path, doc);
  const int rc = std::system((std::string(RTOFFLOAD_CLI_PATH) + " --validate " +
                              in_path + " > /dev/null 2> " + err_path)
                                 .c_str());
  *exit_code = WEXITSTATUS(rc);
  const std::string err = read_file(err_path);
  std::remove(in_path.c_str());
  std::remove(err_path.c_str());
  return err;
}

TEST(CliTool, ValidateBuildsTheDocument) {
  // Both documents parse and normalize; only building them against the
  // generated three-task set finds the arity error, as --spec does.
  struct Case {
    const char* name;
    const char* doc;
    const char* error;
  };
  const Case cases[] = {
      {"routing map shorter than the task set",
       R"({"workload": {"type": "random", "num_tasks": 3},
           "server": {"type": "routing",
                      "routes": [{"type": "fixed", "response_ms": 5}],
                      "route_of_stream": [0, 0]}})",
       "$.server: routing: route_of_stream maps 2 streams but the task set has 3 "
       "tasks"},
      {"explicit controller of the wrong arity",
       R"({"workload": {"type": "random", "num_tasks": 3},
           "server": {"type": "fixed", "response_ms": 5},
           "controller": {"type": "explicit",
                          "decisions": [{"level": 0}]}})",
       "$.controller: explicit controller: decisions arity (1) does not match "
       "the task set (3)"},
      {"one bad grid point of a sweep",
       R"({"workload": {"type": "random", "num_tasks": 2},
           "server": {"type": "routing",
                      "routes": [{"type": "fixed", "response_ms": 5}],
                      "route_of_stream": [0, 0]},
           "sweep": {"axes": [{"path": "workload.num_tasks", "values": [2, 3]}]}})",
       "route_of_stream maps 2 streams but the task set has 3 tasks (grid point "
       "1)"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    int rc = 0;
    const std::string err = validate_stderr(c.doc, &rc);
    EXPECT_EQ(rc, 1);
    EXPECT_NE(err.find(c.error), std::string::npos) << err;
    EXPECT_EQ(err.find("ok:"), std::string::npos) << err;
  }
}

TEST(CliTool, SpecRunMatchesLegacyTaskSetRun) {
  int rc = 0;
  const std::string sample =
      run_capture(std::string(RTOFFLOAD_CLI_PATH) + " --sample", &rc);
  ASSERT_EQ(rc, 0);
  const Json sample_doc = Json::parse(sample);

  const std::string legacy_path = scratch_path("legacy.json");
  {
    std::ofstream out(legacy_path);
    out << sample;
  }
  const std::string legacy_report =
      run_capture(std::string(RTOFFLOAD_CLI_PATH) + " " + legacy_path, &rc);
  std::remove(legacy_path.c_str());
  ASSERT_EQ(rc, 0);

  // The same run declared as a scenario-spec document.
  const Json spec_doc = taskset_as_doc(sample_doc);
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
  const std::string metrics_path = scratch_path("run_real_metrics.json");
  int rc = 0;
  const std::string out = run_capture(
      std::string(RTOFFLOAD_CLI_PATH) + " --run-real --spec " +
          RTOFFLOAD_SPECS_DIR + "/runtime_fixed.json --metrics-out " +
          metrics_path,
      &rc);
  const Json metrics = Json::parse(read_file(metrics_path));
  std::remove(metrics_path.c_str());
  // 2 flags deadline misses: timer jitter on a loaded host, not an error.
  ASSERT_TRUE(rc == 0 || rc == 2) << "exit code " << rc;
  const Json report = Json::parse(out);
  EXPECT_TRUE(report.at("feasible").as_bool());
  const Json& runtime = report.at("runtime");
  // Releases are anchored at k*T in protocol time, so the count is exact:
  // 80 (T = 100 ms) + 54 (T = 150 ms) + 100 (T = 80 ms) over 8 s.
  EXPECT_EQ(runtime.at("released").as_number(), 234.0);
  // The runtime's telemetry reaches --metrics-out, with the same count.
  EXPECT_EQ(metrics.at("counters").at("runtime.jobs_released").as_number(),
            234.0);
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
  // sim.replications 1 (the default) must be byte-identical to the plain
  // run; K > 1 adds the cross-replication aggregate and reports the
  // metrics of replication 0.
  int rc = 0;
  const std::string base =
      run_capture(std::string(RTOFFLOAD_CLI_PATH), &rc);
  ASSERT_EQ(rc, 0);
  Json doc = taskset_as_doc(sample_taskset());
  const std::string doc_path = scratch_path("replicated.json");

  doc.as_object().at("sim").as_object()["replications"] = Json(1);
  write_file(doc_path, doc.dump(2));
  const std::string one = run_capture(
      std::string(RTOFFLOAD_CLI_PATH) + " --spec " + doc_path, &rc);
  ASSERT_EQ(rc, 0);
  EXPECT_EQ(base, one);

  doc.as_object().at("sim").as_object()["replications"] = Json(8);
  write_file(doc_path, doc.dump(2));
  const std::string many = run_capture(
      std::string(RTOFFLOAD_CLI_PATH) + " --spec " + doc_path, &rc);
  std::remove(doc_path.c_str());
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

TEST(CliTool, ReplicatedRunWritesWhereReplicationsWent) {
  // A single-scenario document with sim.replications > 1 writes the batch
  // engine's split to --metrics-out. The telemetry sink selects no path:
  // the configuration is eligible, so the shared skeleton serves every
  // replication, as it does without --metrics-out.
  Json doc = taskset_as_doc(sample_taskset());
  doc.as_object().at("sim").as_object()["replications"] = Json(8);
  const std::string doc_path = scratch_path("replicated_metrics.json");
  const std::string metrics_path = scratch_path("replicated_snapshot.json");
  write_file(doc_path, doc.dump(2));
  int rc = 0;
  (void)run_capture(std::string(RTOFFLOAD_CLI_PATH) + " --spec " + doc_path +
                        " --metrics-out " + metrics_path,
                    &rc);
  const std::string snapshot = read_file(metrics_path);
  std::remove(doc_path.c_str());
  std::remove(metrics_path.c_str());
  ASSERT_EQ(rc, 0);
  const Json metrics = Json::parse(snapshot);
  const Json& counters = metrics.at("counters");
  EXPECT_EQ(counters.at("batch.fast_replications").as_number(), 8.0);
  EXPECT_EQ(counters.at("batch.fallback_replications").as_number(), 0.0);
  EXPECT_FALSE(counters.contains("sim.batch.ineligible.sink"));
  for (const char* cause :
       {"scheduler", "exec_policy", "release_policy", "context_switch", "controller",
        "trace", "post_wcet", "wide_window", "ties"}) {
    const std::string name = std::string("sim.batch.ineligible.") + cause;
    EXPECT_EQ(counters.at(name).as_number(), 0.0) << name;
  }
  EXPECT_GT(counters.at("sim.batch.resync_windows").as_number(), 0.0);
}

TEST(CliTool, ReplicationsFlagRejectsBadValues) {
  int rc = 0;
  Json doc = taskset_as_doc(sample_taskset());
  const std::string doc_path = scratch_path("bad_replications.json");
  const auto run_with = [&](const Json& replications,
                            const std::string& extra) {
    doc.as_object().at("sim").as_object()["replications"] = replications;
    write_file(doc_path, doc.dump(2));
    run_capture(std::string(RTOFFLOAD_CLI_PATH) + " --spec " + doc_path +
                    extra,
                &rc);
    return rc;
  };
  EXPECT_EQ(run_with(Json(0), ""), 1);
  EXPECT_EQ(run_with(Json("nope"), ""), 1);
  // Traces record a single serial run; K > 1 is rejected.
  EXPECT_EQ(run_with(Json(4), " --trace-out /tmp/never_written.json"), 1);
  std::remove(doc_path.c_str());
  // The count is a document field, not a flag.
  run_capture(std::string(RTOFFLOAD_CLI_PATH) + " --replications 8", &rc);
  EXPECT_EQ(rc, 1);
}

TEST(CliTool, UnknownAndRetiredFlagsAreRejected) {
  // An unknown option is an error, never a file name to open.
  int rc = 0;
  for (const char* args :
       {" --fig3", " --fgi3", " --faults x.json", " --adaptive"}) {
    SCOPED_TRACE(args);
    run_capture(std::string(RTOFFLOAD_CLI_PATH) + args, &rc);
    EXPECT_EQ(rc, 1);
  }
  const std::string err_path = scratch_path("err.txt");
  std::system((std::string(RTOFFLOAD_CLI_PATH) + " --fgi3 2> " + err_path +
               " > /dev/null")
                  .c_str());
  std::ifstream err_in(err_path);
  std::ostringstream err;
  err << err_in.rdbuf();
  std::remove(err_path.c_str());
  EXPECT_EQ(err.str(), "error: unknown option '--fgi3' (see --help)\n");
}

TEST(CliTool, JobsFlagRejectsGarbageAndOverflow) {
  int rc = 0;
  for (const char* value : {"2x", "-1", "99999999999", "", "two"}) {
    SCOPED_TRACE(value);
    run_capture(std::string(RTOFFLOAD_CLI_PATH) + " --jobs '" + value + "'",
                &rc);
    EXPECT_EQ(rc, 1);
  }
  run_capture(std::string(RTOFFLOAD_CLI_PATH) + " --jobs 2", &rc);
  EXPECT_EQ(rc, 0);
}

TEST(CliTool, SeveralFilesReportInArgumentOrderOnAnyWorkerCount) {
  // Two task sets, a missing file and a malformed one, on 1 and on 3
  // workers: the same stdout (each good file's report, in argument
  // order, as if run alone), the errors on stderr in argument order, the
  // worst exit code (1) and the same merged counters.
  Json taskset = sample_taskset();
  Json::Object& config = taskset.as_object().at("config").as_object();
  config["horizon_ms"] = Json(2000);
  const std::string first = scratch_path("several_first.json");
  write_file(first, taskset.dump(2));
  config["scenario"] = Json("busy");
  config["solver"] = Json("heu-oe");
  const std::string second = scratch_path("several_second.json");
  write_file(second, taskset.dump(2));
  const std::string missing = scratch_path("several_missing.json");
  const std::string malformed = scratch_path("several_malformed.json");
  write_file(malformed, R"({"tasks": [{"name": "broken"}]})");
  const std::string inputs =
      " " + first + " " + missing + " " + second + " " + malformed;

  int rc = 0;
  const std::string alone =
      run_capture(std::string(RTOFFLOAD_CLI_PATH) + " " + first, &rc) +
      run_capture(std::string(RTOFFLOAD_CLI_PATH) + " " + second, &rc);
  struct Run {
    std::string out, err;
    int rc = 0;
    Json counters;
  };
  const auto run_with = [&](const char* jobs) {
    const std::string out_path = scratch_path("several_out.txt");
    const std::string err_path = scratch_path("several_err.txt");
    const std::string metrics_path = scratch_path("several_metrics.json");
    Run r;
    r.rc = WEXITSTATUS(std::system(
        (std::string(RTOFFLOAD_CLI_PATH) + " --jobs " + jobs +
         " --metrics-out " + metrics_path + inputs + " > " + out_path +
         " 2> " + err_path)
            .c_str()));
    r.out = read_file(out_path);
    r.err = read_file(err_path);
    r.counters = Json::parse(read_file(metrics_path)).at("counters");
    for (const std::string& path : {out_path, err_path, metrics_path}) {
      std::remove(path.c_str());
    }
    return r;
  };
  const Run one = run_with("1");
  const Run three = run_with("3");
  for (const std::string& path : {first, second, malformed}) {
    std::remove(path.c_str());
  }

  EXPECT_EQ(one.rc, 1);
  EXPECT_EQ(three.rc, 1);
  EXPECT_NE(one.out, "");
  EXPECT_EQ(one.out, alone);
  EXPECT_EQ(three.out, one.out);
  EXPECT_EQ(three.err, one.err);
  const std::size_t missing_at = one.err.find("cannot open '" + missing + "'");
  const std::size_t malformed_at = one.err.find("(in '" + malformed + "')");
  ASSERT_NE(missing_at, std::string::npos) << one.err;
  ASSERT_NE(malformed_at, std::string::npos) << one.err;
  EXPECT_LT(missing_at, malformed_at);
  EXPECT_EQ(std::count(one.err.begin(), one.err.end(), '\n'), 2);
  EXPECT_EQ(three.counters, one.counters);
  EXPECT_GT(one.counters.at("sim.events").as_number(), 0.0);
}

TEST(CliTool, TaskSetReportsEqualTheirDocumentsAcrossScenarios) {
  // The sample at 2 s under every scenario and solver: each task-set
  // report (and exit code) is byte-equal to its document's.
  const Json sample = sample_taskset();
  const std::string taskset_path = scratch_path("family_taskset.json");
  const std::string doc_path = scratch_path("family_doc.json");
  for (const char* scenario : {"idle", "not-busy", "busy", "dead"}) {
    for (const char* solver : {"dp-profits", "heu-oe"}) {
      SCOPED_TRACE(std::string(scenario) + " / " + solver);
      Json taskset = sample;
      Json::Object& config = taskset.as_object().at("config").as_object();
      config["scenario"] = Json(scenario);
      config["solver"] = Json(solver);
      config["horizon_ms"] = Json(2000);
      write_file(taskset_path, taskset.dump(2));
      write_file(doc_path, taskset_as_doc(taskset).dump(2));

      int taskset_rc = 0, doc_rc = 0;
      const std::string taskset_report = run_capture(
          std::string(RTOFFLOAD_CLI_PATH) + " " + taskset_path, &taskset_rc);
      const std::string doc_report = run_capture(
          std::string(RTOFFLOAD_CLI_PATH) + " --spec " + doc_path, &doc_rc);
      EXPECT_EQ(taskset_rc, doc_rc);
      EXPECT_NE(taskset_report, "");
      EXPECT_EQ(taskset_report, doc_report);
    }
  }
  std::remove(taskset_path.c_str());
  std::remove(doc_path.c_str());
}

TEST(CliTool, Fig3DocumentWritesPerWorkerScenarioTelemetry) {
  // The paper's Figure 3 sweep as a document: per-worker scenario slices
  // in the trace, odm and sim counters in the metrics snapshot.
  const std::string trace_path = scratch_path("fig3_trace.json");
  const std::string metrics_path = scratch_path("fig3_metrics.json");
  int rc = 0;
  const std::string table = run_capture(
      std::string(RTOFFLOAD_CLI_PATH) + " --spec " + RTOFFLOAD_SPECS_DIR +
          "/fig3.json --jobs 2 --trace-out " + trace_path +
          " --metrics-out " + metrics_path,
      &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(table.find("scenarios: 18  total misses: 0"), std::string::npos);

  std::ifstream trace_in(trace_path);
  std::ostringstream trace_text;
  trace_text << trace_in.rdbuf();
  std::ifstream metrics_in(metrics_path);
  std::ostringstream metrics_text;
  metrics_text << metrics_in.rdbuf();
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());

  const Json trace = Json::parse(trace_text.str());
  std::size_t scenario_slices = 0, worker_lanes = 0;
  for (const Json& ev : trace.at("traceEvents").as_array()) {
    const std::string& name = ev.at("name").as_string();
    if (ev.at("ph").as_string() == "X" && name.rfind("scenario ", 0) == 0) {
      ++scenario_slices;
    }
    if (name == "thread_name" &&
        ev.at("args").at("name").as_string().rfind("worker ", 0) == 0) {
      ++worker_lanes;
    }
  }
  EXPECT_EQ(scenario_slices, 18u);
  EXPECT_GE(worker_lanes, 1u);

  const Json metrics = Json::parse(metrics_text.str());
  const Json& counters = metrics.at("counters");
  EXPECT_GT(counters.at("odm.decisions").as_number(), 0.0);
  EXPECT_GT(counters.at("sim.events").as_number(), 0.0);
}

TEST(GpuServerd, DocumentWithoutServerFailsOnStderr) {
  // Harnesses scrape stdout for "listening on"; the error must not go
  // there, and it must name the server section.
  const std::string doc_path = scratch_path("no_server.json");
  write_file(doc_path, R"({"workload": {"type": "random", "num_tasks": 3}})");
  const std::string out_path = scratch_path("serverd_out.txt");
  const std::string err_path = scratch_path("serverd_err.txt");
  const int status =
      std::system((std::string(GPU_SERVERD_PATH) + " --spec " + doc_path +
                   " > " + out_path + " 2> " + err_path)
                      .c_str());
  std::ifstream out_in(out_path), err_in(err_path);
  std::ostringstream out, err;
  out << out_in.rdbuf();
  err << err_in.rdbuf();
  for (const std::string& path : {doc_path, out_path, err_path}) {
    std::remove(path.c_str());
  }
  EXPECT_EQ(WEXITSTATUS(status), 1);
  EXPECT_EQ(out.str().find("listening on"), std::string::npos) << out.str();
  EXPECT_NE(err.str().find("server section"), std::string::npos) << err.str();
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
