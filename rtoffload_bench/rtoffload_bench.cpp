// rtoffload_bench: one end-to-end benchmark over both of the paper's paths
// (README.md): a spec document through parse -> ODM/MCKP decide ->
// simulate (serial or batched) -> checked report, and a spec through the
// real offload runtime over loopback TCP -> checked protocol outcome.
//
//   rtoffload_bench --workload NAME --seed S [--seconds N] [--trace PATH]
//                   [--out PATH] [--scale smoke]
//
// Prints every metric as `name value unit`, then one JSON line
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics of an untraced run or, with --trace, the per-layer metrics of a
// traced run (which also writes a Chrome trace to PATH).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "doc_workloads.hpp"
#include "runtime_workload.hpp"

namespace rtbench {

namespace {

using rt::Json;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One invocation's outcome, printed and written as JSON.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  ///< exactly the BENCHMARK.json set
  std::vector<Metric> detail;   ///< diagnostics outside the contract
  Json layers;                  ///< per-layer span table (traced runs)
};

/// Setups per untraced run; setup_s is their median. Each setup's warm-up
/// pass takes kWarmupDocs documents of its own, at least one full cycle of
/// every workload's document kinds, generated from kSetupSeed rather than
/// --seed: set-up time then varies with the machine only, not with the
/// size of the task sets a seed happens to draw.
constexpr int kSetupRuns = 5;
constexpr std::uint64_t kWarmupDocs = 6;
constexpr std::uint64_t kSetupSeed = 0x5e7;
constexpr int kRuntimeSetupRuns = 3;
/// Protocol horizon of the runtime warm-up spec.
constexpr double kRuntimeWarmupMs = 300.0;

/// Documents per second of --seconds in a traced run, calibrated on a
/// 4-core x86 host so the traced passes take about --seconds; fixed
/// counts make the per-layer counters repeat exactly at the same seed.
double traced_docs_per_second(const std::string& workload) {
  if (workload == "sweep_fig3") return 5.0;
  if (workload == "odm_admission") return 16.0;
  if (workload == "mc_fast") return 5.0;
  return 16.0;  // mc_fallback
}

/// How often a closed-loop run probes the host's slowdown (HostProbe).
constexpr std::int64_t kProbeEveryNs = 100'000'000;

/// How strongly a closed-loop workload's CPU time follows the probe's
/// slowdown s: its timings are divided by s^k. k is the slope of ln(raw
/// CPU per operation) on ln(s) over 40 runs per workload, interleaved, on
/// a shared 4-vCPU x86-64 VM (correlation 0.97-0.99). Code that keeps
/// more memory busy suffers more from the other tenants' load.
double host_sensitivity(const std::string& workload) {
  if (workload == "odm_admission") return 1.5;
  if (workload == "mc_fallback") return 1.2;
  if (workload == "sweep_fig3") return 1.1;
  return 1.0;  // mc_fast
}

std::int64_t peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

double median(std::vector<double> v) { return pct(v, 50.0); }

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The highest of a few percentiles with at least ten samples beyond it.
void add_tail(std::vector<Metric>& out, const std::string& prefix,
              const std::vector<double>& v, const std::string& unit) {
  static constexpr double kTails[] = {99.9, 99.0, 95.0, 90.0};
  for (const double p : kTails) {
    if (static_cast<double>(v.size()) * (100.0 - p) / 100.0 >= 10.0) {
      char name[64];
      std::snprintf(name, sizeof name, "%s_p%g", prefix.c_str(), p);
      out.push_back({name, pct(v, p), unit});
      break;
    }
  }
  out.push_back({prefix + "_samples", static_cast<double>(v.size()), "count"});
}

/// `probe` is null where timings are as measured.
void add_end_to_end(Result& r, const HostProbe* probe,
                    const std::vector<double>& setups, double ops_per_s,
                    double cpu_ms_per_op,
                    const std::vector<double>& request_ms) {
  const double probe_mb = probe != nullptr ? probe->resident_mb() : 0.0;
  r.metrics = {
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0 - probe_mb,
       "MB"},
      {"ops_per_s", ops_per_s, "1/s"},
      {"request_ms_p50", pct(request_ms, 50.0), "ms"},
  };
  add_tail(r.detail, "request_ms", request_ms, "ms");
  r.detail.push_back({"cpu_ms_per_op", cpu_ms_per_op, "ms"});
  if (probe == nullptr) return;
  const std::vector<double>& s = probe->history();
  r.detail.push_back({"host.slowdown_p10", pct(s, 10), "ratio"});
  r.detail.push_back({"host.slowdown_p50", pct(s, 50), "ratio"});
  r.detail.push_back({"host.slowdown_p90", pct(s, 90), "ratio"});
  r.detail.push_back({"host.probes", static_cast<double>(s.size()), "count"});
}

/// Wall and CPU time of a run's operations, as measured and divided by
/// HostProbe::divisor.
struct Timings {
  std::uint64_t ops = 0;
  double wall_ns = 0;
  double cpu_ns = 0;
  double raw_wall_ns = 0;
  double raw_cpu_ns = 0;

  void add(const DocResult& d, double divisor) {
    ops += d.ops;
    wall_ns += static_cast<double>(d.wall_ns) / divisor;
    cpu_ns += static_cast<double>(d.cpu_ns) / divisor;
    raw_wall_ns += static_cast<double>(d.wall_ns);
    raw_cpu_ns += static_cast<double>(d.cpu_ns);
  }
  [[nodiscard]] double ops_per_s(double wall) const {
    return ratio(static_cast<double>(ops), wall / 1e9);
  }
  [[nodiscard]] double cpu_ms_per_op(double cpu) const {
    return ratio(cpu / 1e6, static_cast<double>(ops));
  }
};

void add_runtime_detail(std::vector<Metric>& out, const RuntimeTotals& t) {
  out.push_back({"runtime.jobs", static_cast<double>(t.released), "count"});
  out.push_back({"runtime.misses", static_cast<double>(t.misses), "count"});
  out.push_back({"runtime.release_late_us_p50", pct(t.release_late_us, 50), "us"});
  out.push_back({"runtime.release_late_us_p99", pct(t.release_late_us, 99), "us"});
  out.push_back({"runtime.rpc_overhead_us_p50", pct(t.rpc_overhead_us, 50), "us"});
  out.push_back({"runtime.rpc_overhead_us_p99", pct(t.rpc_overhead_us, 99), "us"});
  out.push_back({"runtime.comp_timer_late_us_p50", pct(t.comp_late_us, 50), "us"});
  out.push_back({"runtime.comp_timer_late_us_p99", pct(t.comp_late_us, 99), "us"});
  out.push_back({"net.rtt_us_p50", pct(t.rtt_us, 50), "us"});
}

double per1k_above(const std::vector<double>& v, double limit) {
  const auto n = std::count_if(v.begin(), v.end(),
                               [limit](double x) { return x > limit; });
  return ratio(1000.0 * static_cast<double>(n), static_cast<double>(v.size()));
}

/// Every per-layer metric of BENCHMARK.json, from the traced pass's spans
/// and counters; layers the workload never enters report 0.
void add_per_layer(Result& r, Env& env, std::int64_t traced_ns,
                   std::int64_t untraced_ns, double parallel_efficiency,
                   const RuntimeTotals& rt_totals) {
  const Tracer& tr = env.tracer;
  const LayerStats& st = env.stats;
  const rt::obs::MetricRegistry& reg = env.mckp_sink.registry();
  const auto counter = [&reg](const char* name) {
    const rt::obs::Counter* c = reg.find_counter(name);
    return c != nullptr ? static_cast<double>(c->value()) : 0.0;
  };
  const rt::obs::LogHistogram* cells = reg.find_histogram("mckp.dp_cells");
  const auto span_s = [&tr](const char* name) {
    double total = 0;
    for (const double us : tr.durations_us(name)) total += us;
    return total / 1e6;
  };
  const std::map<std::string, Tracer::LayerRow> table = tr.layer_table();
  const auto share = [&](const char* layer) {
    const auto it = table.find(layer);
    return it == table.end()
               ? 0.0
               : ratio(static_cast<double>(it->second.self_ns),
                       static_cast<double>(traced_ns));
  };
  const double reps = static_cast<double>(st.reps);

  // Wall time not attributed to any layer: the self time of the workload
  // and document spans, i.e. the gaps between their children.
  std::int64_t unattributed = 0;
  const std::vector<std::int64_t> self = tr.self_ns();
  for (std::size_t i = 0; i < tr.spans().size(); ++i) {
    const Span& s = tr.spans()[i];
    if (s.name == "bench.workload" || s.name == "bench.doc") {
      unattributed += self[i];
    }
  }

  r.metrics = {
      {"spec.parse_us_p50", pct(tr.durations_us("spec.parse"), 50), "us"},
      {"spec.build_us_p50", pct(tr.durations_us("spec.build"), 50), "us"},
      {"odm.decide_us_p50", pct(tr.durations_us("odm.decide"), 50), "us"},
      {"odm.decide_us_p99", pct(tr.durations_us("odm.decide"), 99), "us"},
      {"odm.share", share("odm"), "ratio"},
      {"odm.offloaded_frac",
       ratio(static_cast<double>(st.offloaded), static_cast<double>(st.tasks)),
       "ratio"},
      {"odm.infeasible", static_cast<double>(st.infeasible), "count"},
      {"core.theorem3_us_p50", pct(tr.durations_us("core.theorem3"), 50), "us"},
      {"mckp.solve_us_p50", pct(tr.durations_us("mckp.solve"), 50), "us"},
      {"mckp.solve_us_p99", pct(tr.durations_us("mckp.solve"), 99), "us"},
      {"mckp.dp_cells_per_solve",
       ratio(cells != nullptr ? static_cast<double>(cells->sum()) : 0.0,
             counter("mckp.solves")),
       "count"},
      {"mckp.items_kept_frac",
       ratio(counter("mckp.items_kept"), counter("mckp.items_total")), "ratio"},
      {"sim.events", static_cast<double>(st.sim_events), "count"},
      {"sim.events_per_s",
       ratio(static_cast<double>(st.sim_events), span_s("sim.run")), "1/s"},
      {"sim.allocs_per_event",
       ratio(static_cast<double>(st.sim_allocs),
             static_cast<double>(st.sim_events)),
       "ratio"},
      {"sim.pool_slots_peak", static_cast<double>(st.pool_slots_peak), "count"},
      {"sim.share", share("sim"), "ratio"},
      {"batch.reps_per_s", ratio(reps, span_s("batch.run")), "1/s"},
      {"batch.fast_share", ratio(static_cast<double>(st.fast), reps), "ratio"},
      {"batch.bail_share", ratio(static_cast<double>(st.bailed), reps), "ratio"},
      {"batch.ineligible_share",
       ratio(static_cast<double>(st.fallback - st.bailed), reps), "ratio"},
      {"batch.agg_events_per_s",
       ratio(st.agg_events, static_cast<double>(st.agg_batch_ns) / 1e9), "1/s"},
      {"exp.parallel_efficiency", parallel_efficiency, "ratio"},
      {"server.samples_per_s",
       ratio(static_cast<double>(st.samples),
             static_cast<double>(st.sample_ns) / 1e9),
       "1/s"},
      {"health.mode_changes_per_rep",
       ratio(static_cast<double>(st.mode_changes), reps), "ratio"},
      {"net.encodes_per_s",
       ratio(static_cast<double>(st.codec_ops),
             static_cast<double>(st.encode_ns) / 1e9),
       "1/s"},
      {"net.decodes_per_s",
       ratio(static_cast<double>(st.codec_ops),
             static_cast<double>(st.decode_ns) / 1e9),
       "1/s"},
      {"runtime.release_late_gt100us_per1k",
       per1k_above(rt_totals.release_late_us, 100.0), "per1k"},
      {"runtime.rpc_overhead_gt200us_per1k",
       per1k_above(rt_totals.rpc_overhead_us, 200.0), "per1k"},
      {"runtime.comp_timer_late_gt200us_per1k",
       per1k_above(rt_totals.comp_late_us, 200.0), "per1k"},
      {"runtime.miss_per1k_jobs",
       ratio(1000.0 * static_cast<double>(rt_totals.misses),
             static_cast<double>(rt_totals.released)),
       "per1k"},
      {"runtime.late_reply_share",
       ratio(static_cast<double>(rt_totals.late_replies),
             static_cast<double>(rt_totals.replies)),
       "ratio"},
      {"runtime.timely_rate",
       ratio(static_cast<double>(rt_totals.timely),
             static_cast<double>(rt_totals.attempts)),
       "ratio"},
      {"runtime.slack_frac_min",
       rt_totals.completed > 0 ? rt_totals.slack_frac_min : 0.0, "ratio"},
      {"runtime.oracle_gap_max", rt_totals.oracle_gap_max, "ratio"},
      {"runtime.cpu_ms_per_s",
       ratio(static_cast<double>(rt_totals.run_cpu_ns) / 1e6,
             static_cast<double>(rt_totals.run_wall_ns) / 1e9),
       "ms/s"},
      {"obs.trace_overhead",
       ratio(static_cast<double>(traced_ns), static_cast<double>(untraced_ns)),
       "ratio"},
      {"obs.span_coverage",
       1.0 - ratio(static_cast<double>(unattributed),
                   static_cast<double>(traced_ns)),
       "ratio"},
  };

  Json::Array rows;
  for (const auto& [layer, row] : table) {
    rows.push_back(Json(Json::Object{
        {"layer", Json(layer)},
        {"spans", Json(static_cast<std::int64_t>(row.spans))},
        {"total_ms", Json(static_cast<double>(row.total_ns) / 1e6)},
        {"self_ms", Json(static_cast<double>(row.self_ns) / 1e6)},
        {"self_share", Json(ratio(static_cast<double>(row.self_ns),
                                  static_cast<double>(traced_ns)))}}));
  }
  r.layers = Json(std::move(rows));
}

// ---- closed-loop document workloads ----------------------------------------

Result run_docs(Env& env) {
  Result r;
  HostProbe probe(host_sensitivity(env.opt.workload));
  std::vector<double> setups;
  std::unique_ptr<DocWorkload> w;
  for (int i = 0; i < (env.opt.smoke ? 1 : kSetupRuns); ++i) {
    w.reset();
    const double before = probe.slowdown();
    const std::int64_t t0 = wall_ns();
    w = make_doc_workload(env);
    for (std::uint64_t j = 0; j < kWarmupDocs; ++j) {
      const std::uint64_t index = static_cast<std::uint64_t>(i) * kWarmupDocs + j;
      const std::uint64_t seed = std::exchange(env.opt.seed, kSetupSeed);
      const std::string doc = w->make_doc(index);
      env.opt.seed = seed;
      const DocResult warm = w->run_doc(doc, index, false);
      r.attempted += warm.ops;
      r.failed += warm.failed;
    }
    const auto took = static_cast<double>(wall_ns() - t0);
    setups.push_back(took / 1e9 / probe.divisor(before, probe.slowdown()));
  }

  // Documents wait for the next probe, then are divided by the host's
  // slowdown between the probes before and after them.
  Timings t;
  std::vector<double> request_ms;
  std::vector<DocResult> pending;
  double last = probe.slowdown();
  std::int64_t last_ns = wall_ns();
  const auto settle = [&] {
    const double next = probe.slowdown();
    const double divisor = probe.divisor(last, next);
    for (const DocResult& d : pending) {
      t.add(d, divisor);
      request_ms.push_back(static_cast<double>(d.wall_ns) / divisor / 1e6);
    }
    pending.clear();
    last = next;
    last_ns = wall_ns();
  };
  const std::int64_t end =
      wall_ns() + static_cast<std::int64_t>(env.opt.seconds * 1e9);
  std::uint64_t index = 1;
  do {
    pending.push_back(w->run_doc(w->make_doc(index), index, false));
    ++index;
    r.attempted += pending.back().ops;
    r.failed += pending.back().failed;
    if (wall_ns() - last_ns >= kProbeEveryNs) settle();
  } while (wall_ns() < end);
  settle();

  add_end_to_end(r, &probe, setups, t.ops_per_s(t.wall_ns),
                 t.cpu_ms_per_op(t.cpu_ns), request_ms);
  r.detail.push_back({"raw.ops_per_s", t.ops_per_s(t.raw_wall_ns), "1/s"});
  r.detail.push_back({"raw.cpu_ms_per_op", t.cpu_ms_per_op(t.raw_cpu_ns), "ms"});
  r.detail.push_back({"documents", static_cast<double>(index - 1), "count"});
  return r;
}

/// Traced run: the same fixed documents through the user path (the
/// reference outcomes), untraced through the per-layer path where that
/// differs, then traced through the per-layer path. Outcomes must match
/// bit for bit.
Result run_docs_traced(Env& env) {
  Result r;
  std::unique_ptr<DocWorkload> w = make_doc_workload(env);
  const DocResult warm = w->run_doc(w->make_doc(0), 0, false);
  r.attempted += warm.ops;
  r.failed += warm.failed;

  const std::size_t n =
      env.opt.smoke ? 1
                    : std::max<std::size_t>(
                          1, static_cast<std::size_t>(
                                 env.opt.seconds *
                                 traced_docs_per_second(env.opt.workload)));
  std::vector<std::string> docs;
  for (std::size_t i = 0; i < n; ++i) docs.push_back(w->make_doc(i + 1));

  const auto pass = [&](bool serial, std::vector<std::uint64_t>& fps) {
    const std::int64_t t0 = wall_ns();
    for (std::size_t i = 0; i < n; ++i) {
      const DocResult d = w->run_doc(docs[i], i + 1, serial);
      r.attempted += d.ops;
      r.failed += d.failed;
      fps.push_back(d.fingerprint);
    }
    return wall_ns() - t0;
  };

  std::vector<std::uint64_t> reference;
  w->runner_ns = 0;
  env.probes = !w->uses_runner();
  std::int64_t untraced_ns = pass(false, reference);
  std::vector<std::uint64_t> serial;
  if (w->uses_runner()) {
    env.probes = true;
    untraced_ns = pass(true, serial);
  }

  env.stats = LayerStats{};
  env.mckp_sink = rt::obs::Sink{};
  env.tracer.set_enabled(true);
  std::vector<std::uint64_t> traced;
  std::int64_t traced_ns = 0;
  {
    Scope root(env.tracer, "bench.workload", env.opt.workload);
    traced_ns = pass(true, traced);
  }
  env.tracer.set_enabled(false);

  std::uint64_t mismatched = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool same = traced[i] == reference[i] &&
                      (serial.empty() || serial[i] == reference[i]);
    mismatched += same ? 0 : 1;
  }
  r.attempted += n;
  r.failed += mismatched;

  double efficiency = 0.0;
  if (w->uses_runner() && w->runner_ns > 0) {
    double scenario_us = 0.0;
    for (const char* name : {"odm.decide", "sim.run"}) {
      for (const double us : env.tracer.durations_us(name)) scenario_us += us;
    }
    // One BatchRunner worker: the runner's overhead over direct calls.
    efficiency = scenario_us * 1e3 / static_cast<double>(w->runner_ns);
  }
  add_per_layer(r, env, traced_ns, untraced_ns, efficiency, RuntimeTotals{});
  r.detail.push_back({"documents", static_cast<double>(n), "count"});
  r.detail.push_back({"outcome_mismatches", static_cast<double>(mismatched), "count"});
  return r;
}

// ---- runtime_loopback ------------------------------------------------------

double runtime_horizon_ms(const Options& opt) {
  const double wall_s = (opt.smoke ? 0.3 : opt.seconds) /
                        static_cast<double>(RuntimeLoopback::kSpecs);
  return wall_s * 1000.0 / RuntimeLoopback::kTimeScale;
}

Result run_runtime(Env& env) {
  Result r;
  std::vector<double> setups;
  RuntimeTotals warm;
  for (int i = 0; i < (env.opt.smoke ? 1 : kRuntimeSetupRuns); ++i) {
    const std::int64_t t0 = wall_ns();
    RuntimeLoopback setup(env);
    setup.run_spec(0, setup.make_doc(0, kRuntimeWarmupMs, 0), warm);
    setups.push_back(static_cast<double>(wall_ns() - t0) / 1e9);
  }
  RuntimeLoopback rl(env);
  RuntimeTotals t;
  for (std::size_t spec = 0; spec < RuntimeLoopback::kSpecs; ++spec) {
    rl.run_spec(spec, rl.make_doc(spec, runtime_horizon_ms(env.opt), 1 + spec),
                t);
  }
  r.attempted = warm.released + t.released;
  r.failed = warm.failed + t.failed;
  add_end_to_end(
      r, nullptr, setups,
      ratio(static_cast<double>(t.completed),
            static_cast<double>(t.run_wall_ns) / 1e9),
      ratio(static_cast<double>(t.run_cpu_ns) / 1e6,
            static_cast<double>(t.completed)),
      t.response_ms);
  add_runtime_detail(r.detail, t);
  return r;
}

Result run_runtime_traced(Env& env) {
  Result r;
  RuntimeLoopback rl(env);
  RuntimeTotals warm;
  rl.run_spec(0, rl.make_doc(0, kRuntimeWarmupMs, 0), warm);
  env.probes = true;
  env.tracer.set_enabled(true);
  RuntimeTotals t;
  std::int64_t traced_ns = 0;
  {
    Scope root(env.tracer, "bench.workload", env.opt.workload);
    const std::int64_t t0 = wall_ns();
    for (std::size_t spec = 0; spec < RuntimeLoopback::kSpecs; ++spec) {
      rl.run_spec(spec,
                  rl.make_doc(spec, runtime_horizon_ms(env.opt), 1 + spec), t);
    }
    traced_ns = wall_ns() - t0;
  }
  env.tracer.set_enabled(false);
  r.attempted = warm.released + t.released;
  r.failed = warm.failed + t.failed;
  // The runtime is an open loop of fixed wall length: tracing can only add
  // the job-span derivation on top of the runs themselves.
  add_per_layer(r, env, traced_ns, traced_ns - t.derive_ns, 0.0, t);
  add_runtime_detail(r.detail, t);
  return r;
}

// ---- output ------------------------------------------------------------------

Json metrics_json(const std::vector<Metric>& metrics) {
  Json::Object out;
  for (const Metric& m : metrics) {
    out[m.name] = Json(Json::Object{{"value", Json(m.value)},
                                    {"unit", Json(m.unit)}});
  }
  return Json(std::move(out));
}

void print_metric(const Metric& m) {
  std::printf("%s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "rtoffload_bench: %s\n"
               "usage: rtoffload_bench --workload "
               "sweep_fig3|odm_admission|mc_fast|mc_fallback|runtime_loopback\n"
               "         --seed S [--seconds N] [--trace PATH] [--out PATH] "
               "[--scale full|smoke]\n",
               why);
  return 2;
}

}  // namespace

int run_main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value);
      if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
        return usage("--seconds must be in (0, 600]");
      }
    } else if (arg == "--trace") {
      opt.trace_path = value;
    } else if (arg == "--out") {
      opt.out_path = value;
    } else if (arg == "--scale") {
      if (value != "full" && value != "smoke") {
        return usage("--scale must be full or smoke");
      }
      opt.smoke = value == "smoke";
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  const bool traced = !opt.trace_path.empty();
  Env env(opt);
  Result result;
  if (opt.workload == "runtime_loopback") {
    result = traced ? run_runtime_traced(env) : run_runtime(env);
  } else {
    result = traced ? run_docs_traced(env) : run_docs(env);
  }
  bool correct = result.failed == 0 && result.attempted > 0;
  for (const Metric& m : result.metrics) {
    correct = correct && std::isfinite(m.value);
  }

  for (const Metric& m : result.detail) print_metric(m);
  if (traced) {
    std::printf("# layer spans total_ms self_ms self_share\n");
    for (const Json& row : result.layers.as_array()) {
      std::printf("# %s %.0f %.3f %.3f %.4f\n",
                  row.at("layer").as_string().c_str(),
                  row.at("spans").as_number(), row.at("total_ms").as_number(),
                  row.at("self_ms").as_number(),
                  row.at("self_share").as_number());
    }
    std::ofstream trace(opt.trace_path);
    trace << env.tracer.chrome_json(env.tracer.spans().empty()
                                        ? 0
                                        : env.tracer.spans().front().start_ns)
                 .dump()
          << "\n";
    if (!trace) std::fprintf(stderr, "cannot write %s\n", opt.trace_path.c_str());
  }
  for (const Metric& m : result.metrics) print_metric(m);

  Json::Object line{
      {"correct", Json(correct)},
      {"attempted", Json(static_cast<std::int64_t>(result.attempted))},
      {"failed", Json(static_cast<std::int64_t>(result.failed))},
      {"metrics", metrics_json(result.metrics)}};
  if (!opt.out_path.empty()) {
    Json::Object record = line;
    record["workload"] = Json(opt.workload);
    record["seed"] = Json(static_cast<double>(opt.seed));
    record["seconds"] = Json(opt.seconds);
    record["trace"] = Json(traced);
    record["detail"] = metrics_json(result.detail);
    record["layers"] = result.layers;
    record["nproc"] = Json(static_cast<std::int64_t>(
        std::thread::hardware_concurrency()));
    std::ofstream out(opt.out_path);
    out << Json(std::move(record)).dump(2) << "\n";
    if (!out) std::fprintf(stderr, "cannot write %s\n", opt.out_path.c_str());
  }
  std::printf("%s\n", Json(std::move(line)).dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace rtbench

int main(int argc, char** argv) {
  try {
    return rtbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rtoffload_bench: %s\n", e.what());
    return 2;
  }
}
