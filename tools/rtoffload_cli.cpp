// rtoffload_cli -- run the offloading pipeline on a scenario document:
// build decisions (MCKP + Theorem 3), optionally verify with the exact
// processor-demand analysis, simulate against the document's server stack,
// and print a machine-readable JSON report.
//
// Usage:
//   rtoffload_cli <taskset.json> ...    analyze + simulate each file
//   rtoffload_cli --jobs N f1 f2 ...    process the files on N workers
//   rtoffload_cli --spec spec.json      run a declarative scenario document
//   rtoffload_cli --validate spec.json  check and build a document, print it normalized
//   rtoffload_cli --list-types          list registered component types
//   rtoffload_cli --run-real --spec d   run a document on the real runtime
//   rtoffload_cli --sample              print a sample task-set file
//   rtoffload_cli                       run the built-in sample (demo)
//
// --spec runs a scenario-spec document (schema in docs/SCENARIOS.md): one
// JSON object describing workload, server stack, faults, controller, sim
// parameters, and an optional sweep grid. Without a sweep it prints the
// standard report; with one it expands the grid through exp::BatchRunner
// and prints a per-scenario summary table (the paper's Figure 3 sweep is
// --spec examples/specs/fig3.json).
//
// Telemetry (docs/ANALYSIS.md §8), available in every mode:
//   --metrics-out PATH   write a metric snapshot (.csv -> CSV, else JSON)
//   --trace-out PATH     write a Chrome trace-event JSON timeline; load it
//                        in ui.perfetto.dev or chrome://tracing. A single
//                        scenario renders per-task CPU swimlanes (pid =
//                        file index); a sweep renders per-worker scenario
//                        swimlanes.
//
// With several input files the reports are computed in parallel (--jobs N,
// default 1) but always printed in argument order; the exit status is the
// worst one (1 error > 2 deadline misses > 0 clean).
//
// A task-set file {"tasks": [...], "config": {...}} is shorthand for a
// scenario document with an inline workload; config accepts
//   solver: "dp-profits" | "heu-oe"                  (default dp-profits)
//   scenario: "idle" | "not-busy" | "busy" | "dead"  (default not-busy)
//   horizon_ms, seed, estimation_error, exact_pda (bool)
// and each task follows core/serialization.hpp. Every input runs as the
// document it converts to, so both styles print byte-identical reports.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/odm.hpp"
#include "core/schedulability.hpp"
#include "core/serialization.hpp"
#include "exp/batch.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/sink.hpp"
#include "rt/health.hpp"
#include "runtime/gpu_service.hpp"
#include "runtime/offload_runtime.hpp"
#include "sim/simulator.hpp"
#include "sim/trace_export.hpp"
#include "spec/grid.hpp"
#include "spec/registry.hpp"
#include "spec/scenario_doc.hpp"
#include "util/rng.hpp"

namespace {

const char* kSampleFile = R"({
  "config": {
    "solver": "dp-profits",
    "scenario": "not-busy",
    "horizon_ms": 10000,
    "seed": 1,
    "estimation_error": 0.0,
    "exact_pda": true
  },
  "tasks": [
    {
      "name": "camera-pipeline",
      "period_ms": 100,
      "local_wcet_ms": 40,
      "setup_wcet_ms": 4,
      "benefit": [[0, 1.0], [20, 5.0], [50, 9.0]]
    },
    {
      "name": "lidar-cluster",
      "period_ms": 200,
      "local_wcet_ms": 60,
      "setup_wcet_ms": 8,
      "weight": 2.0,
      "benefit": [[0, 2.0], [40, 6.0], [90, 12.0]]
    },
    {
      "name": "control-loop",
      "period_ms": 50,
      "local_wcet_ms": 5,
      "setup_wcet_ms": 1
    }
  ]
})";

/// Trace buffer per simulated file when --trace-out is given; large enough
/// for the sample horizons, and truncation is reported, never silent.
constexpr std::size_t kTraceCapacity = 1 << 16;

void write_metrics_file(const rt::obs::Sink& sink, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0) {
    out << sink.registry().snapshot_csv();
  } else {
    out << sink.registry().snapshot_json().dump(2) << "\n";
  }
}

void write_trace_file(const rt::obs::ChromeTraceWriter& writer,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
  writer.write(out);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The ODM verdict both report kinds open with.
rt::Json::Object decision_report(const rt::core::TaskSet& tasks,
                                 const rt::core::OdmResult& odm) {
  rt::Json::Object report;
  report["feasible"] = odm.feasible;
  report["theorem3_density"] = odm.density;
  report["claimed_objective"] = odm.claimed_objective;
  report["decisions"] =
      rt::core::decisions_to_json(tasks, odm.decisions).at("decisions");
  return report;
}

/// Counts, benefit and utilization of one run, simulated or real, with
/// the per-task breakdown.
rt::Json::Object metrics_report(const rt::core::TaskSet& tasks,
                                const rt::sim::SimMetrics& metrics) {
  rt::Json::Object out;
  out["released"] = static_cast<std::int64_t>(metrics.total_released());
  out["completed"] = static_cast<std::int64_t>(metrics.total_completed());
  out["deadline_misses"] =
      static_cast<std::int64_t>(metrics.total_deadline_misses());
  out["timely_results"] =
      static_cast<std::int64_t>(metrics.total_timely_results());
  out["compensations"] =
      static_cast<std::int64_t>(metrics.total_compensations());
  out["total_benefit"] = metrics.total_benefit();
  out["cpu_utilization"] = metrics.cpu_utilization();
  rt::Json::Array per_task;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto& m = metrics.per_task[i];
    rt::Json::Object t;
    t["task"] = tasks[i].name;
    t["released"] = static_cast<std::int64_t>(m.released);
    t["timely"] = static_cast<std::int64_t>(m.timely_results);
    t["compensations"] = static_cast<std::int64_t>(m.compensations);
    t["misses"] = static_cast<std::int64_t>(m.deadline_misses);
    t["benefit"] = m.accrued_benefit;
    per_task.push_back(rt::Json(std::move(t)));
  }
  out["per_task"] = rt::Json(std::move(per_task));
  return out;
}

/// Renders a run's trace into Chrome-trace lanes named after the tasks.
void append_task_trace(rt::obs::ChromeTraceWriter& writer,
                       const rt::sim::Trace& trace,
                       const rt::core::TaskSet& tasks, int pid) {
  std::vector<std::string> names;
  names.reserve(tasks.size());
  for (const auto& t : tasks) names.push_back(t.name);
  rt::sim::append_chrome_trace(writer, trace, names, pid);
}

/// Runs one built (sweep-free) scenario and prints its report. A document
/// without a server section stops after the ODM verdict.
int run_scenario(rt::spec::BuiltScenario run, std::ostream& os,
                 rt::obs::Sink* sink, rt::obs::ChromeTraceWriter* trace,
                 int pid) {
  using namespace rt;
  if (run.replications > 1 && trace != nullptr) {
    throw std::runtime_error(
        "trace output records a single serial run; not available with "
        "sim.replications > 1");
  }
  run.odm.sink = sink;
  const core::OdmResult odm = core::decide_offloading(run.tasks, run.odm);

  Json::Object report = decision_report(run.tasks, odm);
  report["lp_bound"] = odm.lp_bound;

  if (run.exact_pda) {
    const core::PdaResult pda = core::pda_feasible(run.tasks, odm.decisions);
    Json::Object pda_obj;
    pda_obj["feasible"] = pda.feasible;
    pda_obj["horizon_ms"] = pda.horizon.ms();
    report["exact_pda"] = Json(std::move(pda_obj));
  }

  if (run.server == nullptr) {
    os << Json(std::move(report)).dump(2) << "\n";
    return 0;
  }

  run.sim.sink = sink;
  std::optional<health::ModeController> controller;
  if (run.controller != nullptr) {
    controller.emplace(*run.controller);
    run.sim.controller = &*controller;
  }

  sim::SimMetrics metrics;
  std::optional<sim::BatchMetrics> aggregate;
  std::uint64_t exit_misses = 0;
  if (run.replications > 1) {
    sim::BatchSimEngine engine;
    sim::BatchResult bres =
        engine.run(run.tasks, odm.decisions, *run.server, run.sim,
                   run.replications, run.profile);
    for (const sim::SimMetrics& m : bres.per_replication) {
      exit_misses += m.total_deadline_misses();
    }
    metrics = std::move(bres.per_replication.front());
    aggregate = std::move(bres.aggregate);
  } else {
    if (trace != nullptr) run.sim.trace_capacity = kTraceCapacity;
    const sim::SimResult res = sim::simulate(run.tasks, odm.decisions,
                                             *run.server, run.sim, run.profile);
    metrics = res.metrics;
    exit_misses = metrics.total_deadline_misses();
    if (trace != nullptr) append_task_trace(*trace, res.trace, run.tasks, pid);
  }

  Json::Object sim_obj = metrics_report(run.tasks, metrics);
  sim_obj["trace_truncated"] = metrics.trace_truncated;
  if (aggregate.has_value()) {
    sim_obj["replications"] = static_cast<std::int64_t>(run.replications);
  }
  report["simulation"] = Json(std::move(sim_obj));
  if (aggregate.has_value()) {
    report["aggregate"] = aggregate->to_json();
  }
  if (run.controller != nullptr) {
    Json::Object adaptive;
    adaptive["mode_changes"] = static_cast<std::int64_t>(metrics.mode_changes);
    adaptive["time_in_degraded_ms"] =
        static_cast<double>(metrics.time_in_degraded_ns) / 1e6;
    report["adaptive"] = Json(std::move(adaptive));
  }

  os << Json(std::move(report)).dump(2) << "\n";
  return exit_misses == 0 ? 0 : 2;
}

/// A task-set file as the scenario document it stands for: the file's
/// tasks as an inline workload, its config keys (with the same defaults)
/// in the odm, server and sim sections.
rt::spec::ScenarioDoc doc_from_taskset(const std::string& text) {
  using rt::Json;
  const Json file = Json::parse(text);
  const Json config =
      file.contains("config") ? file.at("config") : Json(Json::Object{});
  const auto field = [&](const char* key, Json fallback) {
    return config.contains(key) ? config.at(key) : std::move(fallback);
  };
  return rt::spec::ScenarioDoc::parse(Json(Json::Object{
      {"workload", Json(Json::Object{{"type", Json("inline")},
                                     {"tasks", file.at("tasks")}})},
      {"odm", Json(Json::Object{
                  {"solver", field("solver", Json("dp-profits"))},
                  {"estimation_error", field("estimation_error", Json(0.0))},
                  {"exact_pda", field("exact_pda", Json(false))}})},
      {"server", Json(Json::Object{
                     {"type", Json("scenario")},
                     {"name", field("scenario", Json("not-busy"))}})},
      {"sim", Json(Json::Object{
                  {"horizon_ms", field("horizon_ms", Json(10000.0))},
                  {"seed", field("seed", Json(1.0))}})},
  }));
}

// Analyze every file on `jobs` BatchRunner workers; reports print in
// argument order.
// Telemetry is collected per file (its own sink / trace track) and merged
// in that same order, so the outputs are identical for every jobs value.
int run_files(const std::vector<std::string>& files, unsigned jobs,
              const std::string& metrics_out, const std::string& trace_out) {
  const bool want_metrics = !metrics_out.empty();
  const bool want_trace = !trace_out.empty();
  struct FileResult {
    std::string output;  // report JSON, or empty on error
    std::string error;
    int code = 0;
    std::unique_ptr<rt::obs::Sink> sink;
    std::unique_ptr<rt::obs::ChromeTraceWriter> trace;
  };
  std::vector<FileResult> results(files.size());

  rt::exp::BatchRunner runner({.jobs = jobs});
  runner.for_each(files.size(), [&](std::size_t i, rt::Rng&) {
    FileResult& r = results[i];
    if (want_metrics) r.sink = std::make_unique<rt::obs::Sink>();
    if (want_trace) r.trace = std::make_unique<rt::obs::ChromeTraceWriter>();
    try {
      std::ifstream in(files[i]);
      if (!in) {
        r.error = "error: cannot open '" + files[i] + "'";
        r.code = 1;
        return;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      std::ostringstream report;
      r.code = run_scenario(
          rt::spec::build_scenario(doc_from_taskset(buf.str())), report,
          r.sink.get(), r.trace.get(), static_cast<int>(i));
      r.output = report.str();
    } catch (const std::exception& e) {
      r.error = std::string("error: ") + e.what() + " (in '" + files[i] + "')";
      r.code = 1;
    }
  });

  rt::obs::Sink merged;
  rt::obs::ChromeTraceWriter merged_trace;
  int worst = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const FileResult& r = results[i];
    if (!r.output.empty()) std::cout << r.output;
    if (!r.error.empty()) std::cerr << r.error << "\n";
    if (r.sink != nullptr) merged.absorb(*r.sink, static_cast<std::uint32_t>(i));
    if (r.trace != nullptr) merged_trace.append(*r.trace);
    // 1 (hard error) outranks 2 (deadline misses) outranks 0.
    if (r.code != 0 && (worst == 0 || r.code < worst)) worst = r.code;
  }
  if (want_metrics) write_metrics_file(merged, metrics_out);
  if (want_trace) write_trace_file(merged_trace, trace_out);
  return worst;
}

// One sweep-free document on the calling thread, with its telemetry files.
int run_single(const rt::spec::ScenarioDoc& doc, const std::string& metrics_out,
               const std::string& trace_out) {
  rt::obs::Sink sink;
  rt::obs::ChromeTraceWriter trace;
  const bool want_metrics = !metrics_out.empty();
  const bool want_trace = !trace_out.empty();
  const int code = run_scenario(rt::spec::build_scenario(doc), std::cout,
                                want_metrics ? &sink : nullptr,
                                want_trace ? &trace : nullptr, 0);
  if (want_metrics) write_metrics_file(sink, metrics_out);
  if (want_trace) write_trace_file(trace, trace_out);
  return code;
}

// A spec document: a single scenario prints the standard report; a sweep
// grid runs through exp::BatchRunner and prints a summary row per cell,
// with per-worker scenario swimlanes in the trace.
int run_spec(const std::string& path, std::optional<unsigned> jobs_override,
             const std::string& metrics_out, const std::string& trace_out) {
  using namespace rt;
  const spec::ScenarioDoc doc = spec::ScenarioDoc::parse_text(slurp(path));
  if (doc.sweep.is_null() || doc.sweep.at("axes").as_array().empty()) {
    return run_single(doc, metrics_out, trace_out);
  }

  const bool want_metrics = !metrics_out.empty();
  const bool want_trace = !trace_out.empty();
  spec::BatchPlan plan = spec::plan_batch(doc);
  if (jobs_override.has_value()) plan.batch.jobs = *jobs_override;
  exp::BatchRunner runner(plan.batch);
  obs::Sink sink;
  const std::vector<exp::ScenarioOutcome> outcomes =
      runner.run(plan.specs, want_metrics || want_trace ? &sink : nullptr);

  std::printf("%5s  %8s  %10s  %10s  %8s  %7s\n", "index", "feasible",
              "claimed", "benefit", "timely", "misses");
  std::uint64_t total_misses = 0;
  for (const exp::ScenarioOutcome& o : outcomes) {
    const bool feasible =
        plan.specs[o.index].decisions.has_value() || o.odm.feasible;
    std::printf("%5zu  %8s  %10.3f  %10.3f  %8llu  %7llu\n", o.index,
                feasible ? "yes" : "no", o.odm.claimed_objective,
                o.metrics.total_benefit(),
                static_cast<unsigned long long>(o.metrics.total_timely_results()),
                static_cast<unsigned long long>(o.metrics.total_deadline_misses()));
    total_misses += o.metrics.total_deadline_misses();
  }
  std::printf("scenarios: %zu  total misses: %llu\n", outcomes.size(),
              static_cast<unsigned long long>(total_misses));

  if (want_metrics) write_metrics_file(sink, metrics_out);
  if (want_trace) {
    obs::ChromeTraceWriter writer;
    obs::append_phase_events(writer, sink);
    write_trace_file(writer, trace_out);
  }
  return total_misses == 0 ? 0 : 2;
}

// --run-real: execute a (sweep-free) spec document through the real
// OffloadRuntime instead of the simulator. Without --server an in-process
// loopback daemon serves the document's own model stack; with it, the
// runtime connects to an already-running gpu_serverd.
int run_real_spec(const std::string& path, const std::string& server_addr,
                  const std::string& metrics_out,
                  const std::string& trace_out) {
  using namespace rt;
  const spec::ScenarioDoc doc = spec::ScenarioDoc::parse_text(slurp(path));
  if (!doc.sweep.is_null() && !doc.sweep.at("axes").as_array().empty()) {
    std::cerr << "error: --run-real runs a single scenario, not a sweep\n";
    return 1;
  }
  spec::BuiltScenario built = spec::build_scenario(doc);
  if (built.server == nullptr && server_addr.empty()) {
    std::cerr << "error: --run-real without --server needs a document with "
                 "a server section (it becomes the loopback daemon's model)\n";
    return 1;
  }

  const bool want_metrics = !metrics_out.empty();
  const bool want_trace = !trace_out.empty();
  obs::Sink sink;

  const core::OdmResult odm = core::decide_offloading(built.tasks, built.odm);

  runtime::RuntimeOptions options;
  options.apply_spec_section(doc.runtime);
  std::optional<runtime::LoopbackGpuServer> loopback;
  if (server_addr.empty()) {
    runtime::GpuServiceOptions service_options;
    service_options.apply_spec_section(doc.runtime);
    loopback.emplace(built.server->clone(),
                     derive_seed(built.sim.seed, 0x6775), service_options);
    options.server = loopback->address();
  } else {
    options.server = net::SocketAddress::parse(server_addr);
  }

  sim::SimConfig config = built.sim;
  config.sink = want_metrics ? &sink : nullptr;
  if (want_trace) config.trace_capacity = kTraceCapacity;
  std::optional<health::ModeController> controller;
  if (built.controller != nullptr) {
    controller.emplace(*built.controller);
    config.controller = &*controller;
  }

  const runtime::RuntimeResult result = runtime::run_offload_runtime(
      built.tasks, odm.decisions, config, built.profile, options);
  if (loopback.has_value()) loopback->stop();

  Json::Object report = decision_report(built.tasks, odm);

  const sim::SimMetrics& metrics = result.metrics;
  Json::Object runtime_obj = metrics_report(built.tasks, metrics);
  runtime_obj["server"] = options.server.to_string();
  runtime_obj["rpc"] = result.rpc_json();
  report["runtime"] = Json(std::move(runtime_obj));
  std::cout << Json(std::move(report)).dump(2) << "\n";

  if (want_metrics) write_metrics_file(sink, metrics_out);
  if (want_trace) {
    obs::ChromeTraceWriter writer;
    append_task_trace(writer, result.trace, built.tasks, 0);
    write_trace_file(writer, trace_out);
  }
  return metrics.total_deadline_misses() == 0 ? 0 : 2;
}

// Parse + validate + normalize + build a spec document; the normalized
// document goes to stdout (valid input for --spec), diagnostics to stderr.
int validate_spec(const std::string& path) {
  using namespace rt;
  try {
    const spec::ScenarioDoc doc = spec::ScenarioDoc::parse_text(slurp(path));
    // Expanding validates every grid point and each axis path; building
    // each point runs the builders' checks against its generated task set
    // (a routing map's or a controller's arity), as --spec would.
    const std::vector<spec::ScenarioDoc> grid = spec::expand_grid(doc);
    for (std::size_t g = 0; g < grid.size(); ++g) {
      try {
        (void)spec::build_scenario(grid[g]);
      } catch (const std::exception& e) {
        if (grid.size() == 1) throw;
        throw std::runtime_error(std::string(e.what()) + " (grid point " +
                                 std::to_string(g) + ")");
      }
    }
    std::cout << doc.to_json().dump(2) << "\n";
    std::cerr << "ok: " << path << " (" << grid.size()
              << (grid.size() == 1 ? " scenario)" : " scenarios)") << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << " (in '" << path << "')\n";
    return 1;
  }
}

int list_types() {
  using namespace rt;
  const auto print = [](const char* family, const std::vector<std::string>& names) {
    std::cout << family << ":";
    for (const std::string& n : names) std::cout << " " << n;
    std::cout << "\n";
  };
  print("response-models", spec::model_registry().types());
  print("workloads", spec::workload_registry().types());
  print("controllers", spec::controller_registry().types());
  print("solvers", spec::solver_names());
  return 0;
}

/// The --jobs value: a whole number >= 0 (0 = one worker per core).
unsigned parse_jobs(const std::string& flag, const std::string& text) {
  std::size_t end = 0;
  int v = -1;
  try {
    v = std::stoi(text, &end);
  } catch (const std::exception&) {
    end = 0;
  }
  if (end == 0 || end != text.size() || v < 0) {
    throw std::invalid_argument(flag + " expects a whole number >= 0, got '" +
                                text + "'");
  }
  return static_cast<unsigned>(v);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    std::optional<unsigned> jobs_flag;
    std::string metrics_out;
    std::string trace_out;
    std::string spec_path;
    std::string validate_path;
    bool run_real = false;
    std::string server_addr;
    std::vector<std::string> files;
    const auto need_value = [&](int& i, const std::string& flag) -> const char* {
      if (i + 1 >= argc) {
        throw std::invalid_argument(flag + " needs a value");
      }
      return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--sample") {
        std::cout << kSampleFile << "\n";
        return 0;
      }
      if (arg == "-h" || arg == "--help") {
        std::cout << "usage: rtoffload_cli [--jobs N] [--metrics-out PATH] "
                     "[--trace-out PATH]\n"
                     "                     [taskset.json ...] | --spec "
                     "spec.json | --validate spec.json\n"
                     "                     | --run-real --spec spec.json "
                     "[--server HOST:PORT]\n"
                     "                     | --list-types | --sample\n"
                     "With no input files, runs the built-in sample task "
                     "set.\nSeveral files are analyzed on N workers (default "
                     "1) and reported in argument order;\neach task-set file "
                     "runs as the scenario document it converts to.\n--spec "
                     "runs a declarative scenario document "
                     "(docs/SCENARIOS.md): "
                     "a single scenario\nprints the standard report; a sweep "
                     "grid prints one summary row per cell\n(--jobs "
                     "overrides the document's worker count). The paper's "
                     "Figure 3 sweep is\n--spec examples/specs/fig3.json.\n"
                     "--validate parses, checks and builds a document (every "
                     "grid point), prints it\nnormalized with every default "
                     "materialized, and exits "
                     "1 with a JSON-path-qualified message on any error.\n"
                     "--list-types lists the registered component types per "
                     "registry.\n--metrics-out writes a telemetry snapshot "
                     "(.csv for CSV, JSON otherwise);\n--trace-out writes a "
                     "Chrome trace-event timeline for ui.perfetto.dev.\n"
                     "--run-real executes a sweep-free spec document through "
                     "the real epoll\nruntime (docs/RUNTIME.md); without "
                     "--server HOST:PORT an in-process loopback\ndaemon "
                     "serves the document's own model stack (gpu_serverd "
                     "serves it out of process).\nFault scripts, the "
                     "degraded-mode controller and Monte-Carlo replications "
                     "are\ndocument sections: faults, controller, "
                     "sim.replications.\n";
        return 0;
      }
      if (arg == "--spec") {
        spec_path = need_value(i, arg);
        continue;
      }
      if (arg == "--validate") {
        validate_path = need_value(i, arg);
        continue;
      }
      if (arg == "--list-types") {
        return list_types();
      }
      if (arg == "--run-real") {
        run_real = true;
        continue;
      }
      if (arg == "--server") {
        server_addr = need_value(i, arg);
        continue;
      }
      if (arg == "--metrics-out") {
        metrics_out = need_value(i, arg);
        continue;
      }
      if (arg == "--trace-out") {
        trace_out = need_value(i, arg);
        continue;
      }
      if (arg == "--jobs" || arg == "-j") {
        jobs_flag = parse_jobs(arg, need_value(i, arg));
        continue;
      }
      if (arg.starts_with("-")) {
        std::cerr << "error: unknown option '" << arg << "' (see --help)\n";
        return 1;
      }
      files.push_back(arg);
    }
    if (run_real) {
      if (spec_path.empty() || !files.empty()) {
        std::cerr << "error: --run-real needs --spec spec.json and no other "
                     "inputs\n";
        return 1;
      }
      return run_real_spec(spec_path, server_addr, metrics_out, trace_out);
    }
    if (!validate_path.empty()) {
      if (!spec_path.empty() || !files.empty()) {
        std::cerr << "error: --validate takes exactly one spec document\n";
        return 1;
      }
      return validate_spec(validate_path);
    }
    if (!spec_path.empty()) {
      if (!files.empty()) {
        std::cerr << "error: --spec takes no other inputs\n";
        return 1;
      }
      return run_spec(spec_path, jobs_flag, metrics_out, trace_out);
    }
    if (files.empty()) {
      std::cerr << "(no input file: running the built-in sample; see --help)\n";
      return run_single(doc_from_taskset(kSampleFile), metrics_out, trace_out);
    }
    return run_files(files, jobs_flag.value_or(1), metrics_out, trace_out);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
