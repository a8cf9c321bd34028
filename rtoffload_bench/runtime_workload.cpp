#include "runtime_workload.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "core/odm.hpp"
#include "net/wire.hpp"
#include "runtime/gpu_service.hpp"
#include "runtime/offload_runtime.hpp"
#include "sim/batch_engine.hpp"
#include "spec/grid.hpp"
#include "spec/scenario_doc.hpp"
#include "util/rng.hpp"

namespace rtbench {

namespace {

using rt::Json;
using rt::sim::TraceKind;

constexpr const char* kSpecFiles[RuntimeLoopback::kSpecs] = {
    "runtime_fixed.json", "runtime_lognormal.json", "runtime_faults.json"};

/// Simulator replications behind runtime.oracle_gap_max (traced runs).
constexpr std::size_t kOracleReps = 64;
/// Wire codec probe size per spec (traced runs).
constexpr std::uint64_t kCodecOps = 20000;

/// One job's protocol instants (protocol ns; -1 = not reached).
struct JobRec {
  std::size_t task = 0;
  std::int64_t intended = 0;
  std::int64_t release = -1;
  std::int64_t send = -1;
  std::int64_t resolve = -1;
  std::int64_t complete = -1;
};

void set(Json& doc, const char* path, Json value) {
  rt::spec::set_at_path(doc, path, value, rt::spec::SpecPath{});
}

std::uint64_t abs_diff(std::uint64_t a, std::uint64_t b) {
  return a > b ? a - b : b - a;
}

void probe_codec(Env& env, const rt::sim::RequestProfile& profile,
                 const rt::core::DecisionVector& decisions,
                 std::size_t max_frame_bytes) {
  rt::net::OffloadRequest req;
  req.id = 1;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    if (!decisions[i].offloaded()) continue;
    req.task = static_cast<std::uint32_t>(i);
    req.level = static_cast<std::uint32_t>(decisions[i].level);
    if (i < profile.size() && decisions[i].level < profile[i].size()) {
      req.payload_bytes = profile[i][decisions[i].level].payload_bytes;
      req.pad_bytes = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(req.payload_bytes, max_frame_bytes - 64));
    }
    break;
  }
  Scope s(env.tracer, "net.codec");
  std::string frame;
  std::int64_t t0 = wall_ns();
  for (std::uint64_t k = 0; k < kCodecOps; ++k) {
    req.send_wall_ns = static_cast<std::int64_t>(k);
    frame = rt::net::encode(req);
  }
  env.stats.encode_ns += wall_ns() - t0;
  t0 = wall_ns();
  for (std::uint64_t k = 0; k < kCodecOps; ++k) {
    if (rt::net::decode_request(frame).send_wall_ns + 1 !=
        static_cast<std::int64_t>(kCodecOps)) {
      throw std::logic_error("wire codec round trip changed a field");
    }
  }
  env.stats.decode_ns += wall_ns() - t0;
  env.stats.codec_ops += kCodecOps;
}

/// Largest |simulated - real| over the timely, compensation and miss rates.
double oracle_gap(Env& env, const rt::spec::BuiltScenario& built,
                  const rt::core::OdmResult& odm,
                  const rt::sim::SimMetrics& real) {
  rt::sim::BatchSimEngine engine;
  rt::sim::BatchResult batch;
  {
    Scope s(env.tracer, "batch.run");
    batch = engine.run(built.tasks, odm.decisions, *built.server, built.sim,
                       kOracleReps, built.profile);
  }
  env.stats.reps += kOracleReps;
  env.stats.fast += engine.stats().fast_replications;
  env.stats.bailed += engine.stats().bailed_replications;
  env.stats.fallback += engine.stats().fallback_replications;
  double sim[4] = {0, 0, 0, 0};  // attempts, timely, compensations, misses
  double released = 0;
  for (const rt::sim::SimMetrics& m : batch.per_replication) {
    for (const rt::sim::TaskMetrics& t : m.per_task) {
      sim[0] += static_cast<double>(t.offload_attempts);
      sim[1] += static_cast<double>(t.timely_results);
      sim[2] += static_cast<double>(t.compensations);
    }
    sim[3] += static_cast<double>(m.total_deadline_misses());
    released += static_cast<double>(m.total_released());
  }
  double attempts = 0;
  for (const rt::sim::TaskMetrics& t : real.per_task) {
    attempts += static_cast<double>(t.offload_attempts);
  }
  const auto rate = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  return std::max(
      {std::abs(rate(sim[1], sim[0]) -
                rate(static_cast<double>(real.total_timely_results()), attempts)),
       std::abs(rate(sim[2], sim[0]) -
                rate(static_cast<double>(real.total_compensations()), attempts)),
       std::abs(rate(sim[3], released) -
                rate(static_cast<double>(real.total_deadline_misses()),
                     static_cast<double>(real.total_released())))});
}

}  // namespace

RuntimeLoopback::RuntimeLoopback(Env& env) : env_(env) {
  for (const char* file : kSpecFiles) {
    bases_.push_back(
        read_json_file(std::string(RTOFFLOAD_SPECS_DIR) + "/" + file));
  }
}

std::string RuntimeLoopback::make_doc(std::size_t spec, double horizon_ms,
                                      std::uint64_t salt) const {
  Json doc = bases_.at(spec);
  set(doc, "runtime.time_scale", Json(kTimeScale));
  set(doc, "sim.horizon_ms", Json(std::round(horizon_ms)));
  set(doc, "sim.seed", Json(static_cast<double>(env_.doc_seed(salt, spec))));
  if (doc.contains("faults")) {
    set(doc, "faults.seed",
        Json(static_cast<double>(env_.doc_seed(salt, 16 + spec))));
  }
  return doc.dump();
}

void RuntimeLoopback::run_spec(std::size_t spec, const std::string& text,
                               RuntimeTotals& totals) {
  Tracer& tr = env_.tracer;
  Scope doc_span(tr, "bench.doc", kSpecFiles[spec]);
  rt::spec::ScenarioDoc doc;
  {
    Scope s(tr, "spec.parse");
    doc = rt::spec::ScenarioDoc::parse_text(text);
  }
  rt::spec::BuiltScenario built;
  {
    Scope s(tr, "spec.build");
    built = rt::spec::build_scenario(doc);
  }
  rt::core::OdmResult odm;
  {
    Scope s(tr, "odm.decide");
    odm = rt::core::decide_offloading(built.tasks, built.odm);
  }
  if (built.sim.release_policy != rt::sim::ReleasePolicy::kPeriodic ||
      built.controller != nullptr) {
    throw std::logic_error("runtime specs must be periodic and uncontrolled");
  }
  const std::int64_t horizon = built.sim.horizon.ns();
  std::uint64_t expected = 0;
  for (const rt::core::Task& t : built.tasks) {
    expected += static_cast<std::uint64_t>(
        (horizon + t.period.ns() - 1) / t.period.ns());
  }

  rt::runtime::GpuServiceOptions service_options;
  service_options.apply_spec_section(doc.runtime);
  rt::runtime::RuntimeOptions options;
  options.apply_spec_section(doc.runtime);
  // Every event of the run fits without reallocation or truncation.
  options.trace_capacity = 16 * expected + 64;
  const double scale = options.time_scale;

  // A fresh daemon per spec: one connection per daemon lifetime.
  std::unique_ptr<rt::runtime::LoopbackGpuServer> server;
  {
    Scope s(tr, "server.start");
    server = std::make_unique<rt::runtime::LoopbackGpuServer>(
        built.server->clone(), rt::derive_seed(built.sim.seed, 0x6775),
        service_options);
  }
  options.server = server->address();
  rt::runtime::RuntimeResult res;
  const std::int64_t wall0 = wall_ns();
  const std::int64_t cpu0 = cpu_ns();
  std::size_t run_span = kNoSpan;
  {
    Scope s(tr, "runtime.run");
    run_span = s.id();
    res = rt::runtime::run_offload_runtime(built.tasks, odm.decisions,
                                           built.sim, built.profile, options);
  }
  totals.run_wall_ns += wall_ns() - wall0;
  totals.run_cpu_ns += cpu_ns() - cpu0;
  {
    Scope s(tr, "server.stop");
    server->stop();
  }
  if (res.metrics.trace_truncated) {
    throw std::logic_error("runtime trace truncated; capacity too small");
  }

  Scope check(tr, "bench.check");
  const bool decision_ok = check_decision(env_, built.tasks, built.odm, odm);
  // Reply - send - model is the transport + dispatch overhead only where
  // the model is a fixed response (runtime_fixed, runtime_faults).
  const bool fixed_model = doc.server.at("type").as_string() == "fixed";
  const std::int64_t model_ns =
      fixed_model ? rt::Duration::from_ms(doc.server.at("response_ms").as_number())
                        .ns()
                  : 0;
  const auto wall_us = [scale](std::int64_t protocol_ns) {
    return static_cast<double>(protocol_ns) * scale / 1e3;
  };

  std::vector<std::uint64_t> next_k(built.tasks.size(), 0);
  std::unordered_map<std::uint64_t, JobRec> jobs;
  jobs.reserve(expected);
  for (const rt::sim::TraceEvent& e : res.trace.events()) {
    const std::int64_t t = e.time.ns();
    switch (e.kind) {
      case TraceKind::kRelease: {
        JobRec& j = jobs[e.job];
        j.task = e.task;
        j.intended = static_cast<std::int64_t>(next_k[e.task]++) *
                     built.tasks[e.task].period.ns();
        j.release = t;
        totals.release_late_us.push_back(wall_us(t - j.intended));
        break;
      }
      case TraceKind::kSetupDone:
        jobs[e.job].send = t;
        break;
      case TraceKind::kResultTimely: {
        JobRec& j = jobs[e.job];
        j.resolve = t;
        totals.rtt_us.push_back(wall_us(t - j.send));
        if (fixed_model) {
          totals.rpc_overhead_us.push_back(wall_us(t - j.send - model_ns));
        }
        break;
      }
      case TraceKind::kTimerFired: {
        JobRec& j = jobs[e.job];
        j.resolve = t;
        totals.comp_late_us.push_back(wall_us(
            t - j.send - odm.decisions[j.task].response_time.ns()));
        break;
      }
      case TraceKind::kJobComplete: {
        JobRec& j = jobs[e.job];
        j.complete = t;
        const std::int64_t response = t - j.intended;
        totals.response_ms.push_back(wall_us(response) / 1e3);
        const double deadline =
            static_cast<double>(built.tasks[j.task].deadline.ns());
        totals.slack_frac_min =
            std::min(totals.slack_frac_min,
                     (deadline - static_cast<double>(response)) / deadline);
        break;
      }
      default:
        break;
    }
  }

  // Offloads still in flight at the horizon are legitimate only when
  // their compensation timer lies at or past it.
  std::uint64_t in_flight = 0;
  std::uint64_t lost = 0;
  for (const auto& [id, j] : jobs) {
    if (j.send < 0 || j.resolve >= 0) continue;
    ++in_flight;
    if (j.send + odm.decisions[j.task].response_time.ns() < horizon) ++lost;
  }

  const rt::sim::SimMetrics& m = res.metrics;
  const std::uint64_t released = m.total_released();
  std::uint64_t attempts = 0;
  for (const rt::sim::TaskMetrics& t : m.per_task) attempts += t.offload_attempts;
  const std::uint64_t resolved =
      m.total_timely_results() + m.total_compensations() + in_flight;
  std::uint64_t failed = abs_diff(released, expected) +
                         abs_diff(attempts, resolved) + lost +
                         abs_diff(attempts, res.rpc_sent) + res.wire_errors +
                         res.send_failures;
  if (!res.connection_error.empty()) failed += released;
  if (!decision_ok) failed += released;

  totals.released += released;
  totals.completed += m.total_completed();
  totals.failed += std::min(failed, released);
  totals.misses += m.total_deadline_misses();
  totals.attempts += attempts;
  totals.timely += m.total_timely_results();
  totals.replies += res.rpc_replies;
  totals.late_replies += res.rpc_late_replies;

  if (!env_.probes) return;
  totals.oracle_gap_max =
      std::max(totals.oracle_gap_max, oracle_gap(env_, built, odm, m));
  probe_codec(env_, built.profile, odm.decisions, options.max_frame_bytes);
  probe_server(env_, *built.server, odm.decisions, built.profile);
  if (!tr.enabled()) return;

  // Per-job spans keyed task:job on one lane per task. The runtime's
  // epoch is its start plus a 20 ms grace; protocol instants map to wall
  // time through the time scale.
  const std::int64_t t0 = wall_ns();
  const std::int64_t epoch = wall0 + 20'000'000;
  const auto wall_at = [epoch, scale](std::int64_t protocol_ns) {
    return epoch + static_cast<std::int64_t>(
                       std::llround(static_cast<double>(protocol_ns) * scale));
  };
  for (const auto& [id, j] : jobs) {
    if (j.complete < 0) continue;
    Span job;
    job.name = "runtime.job";
    job.request = std::to_string(j.task) + ":" + std::to_string(id);
    job.start_ns = wall_at(j.intended);
    job.end_ns = wall_at(j.complete);
    job.parent = run_span;
    job.track = 1 + static_cast<int>(j.task);
    const std::size_t parent = tr.add(job);
    const auto phase = [&](const char* name, std::int64_t a, std::int64_t b) {
      Span p = job;
      p.name = name;
      p.start_ns = wall_at(a);
      p.end_ns = wall_at(b);
      p.parent = parent;
      tr.add(std::move(p));
    };
    if (j.send < 0) {
      phase("runtime.local", j.release, j.complete);
    } else {
      phase("runtime.setup", j.release, j.send);
      phase("runtime.rpc", j.send, j.resolve);
      phase("runtime.second", j.resolve, j.complete);
    }
  }
  totals.derive_ns += wall_ns() - t0;
}

}  // namespace rtbench
