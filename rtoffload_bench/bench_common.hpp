#pragma once
// Shared state of one rtoffload_bench invocation: options, the span
// tracer, per-layer counters, and the checks every workload applies to an
// ODM decision.

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/odm.hpp"
#include "core/task.hpp"
#include "obs/sink.hpp"
#include "server/response_model.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "span_trace.hpp"
#include "util/json.hpp"

namespace rtbench {

namespace core = rt::core;
namespace mckp = rt::mckp;
namespace obs = rt::obs;
namespace server = rt::server;
namespace sim = rt::sim;

/// Allocations made by the calling thread (global operator new is
/// replaced in alloc_count.cpp to count them).
std::uint64_t thread_allocations();

/// Process CPU time (user + system, all threads).
std::int64_t cpu_ns();

/// Percentile of `v` (p in [0, 100]); 0 for an empty sample.
double pct(const std::vector<double>& v, double p);

/// Measures how much slower than usual a shared host runs code right now.
/// On the 4-vCPU VM the benchmark was built on, other tenants' load
/// changed the program's speed by up to 2x over minutes to hours, and the
/// raw CPU time per operation of ten runs of one configuration spread by
/// 8-34% (interquartile range over median). The probe is a fixed
/// multiple-choice knapsack DP in the benchmark's own code (30 classes of
/// 5 items over a 20,001-wide profit axis, with a choice table: the shape
/// of mckp::solve_dp_profits, but never changed with it). Its time tracked
/// the program's with correlation 0.95-1.0 across runs of the document
/// workloads. Runs time it between documents and divide CPU-bound timings
/// by its slowdown raised to the workload's sensitivity, which reports
/// them at the probe's nominal speed.
class HostProbe {
 public:
  /// The probe's thread CPU time when that VM was quietest: the lowest
  /// 10th percentile of its times in 170 runs of the benchmark there.
  static constexpr double kNominalNs = 2.2e6;

  explicit HostProbe(double sensitivity);
  /// Runs the probe once; returns its time over kNominalNs.
  double slowdown();
  /// What to divide a timing by, given the slowdowns measured just
  /// before and after it.
  [[nodiscard]] double divisor(double before, double after) const {
    return std::pow(0.5 * (before + after), sensitivity_);
  }
  /// Every slowdown measured so far.
  [[nodiscard]] const std::vector<double>& history() const { return history_; }
  /// Memory the probe keeps resident (subtracted from peak_rss_mb).
  [[nodiscard]] double resident_mb() const;

 private:
  double sensitivity_;
  std::vector<std::int64_t> profit_;
  std::vector<std::int64_t> weight_;
  std::vector<std::int64_t> dp_;
  std::vector<std::int64_t> next_;
  std::vector<std::int32_t> choice_;
  volatile std::uint64_t result_ = 0;  ///< keeps the DP from being elided
  std::vector<double> history_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15.0;
  std::string trace_path;  ///< non-empty: traced run
  std::string out_path;
  bool smoke = false;      ///< --scale smoke: tiny documents, one setup
};

/// Counters the layers report through the benchmark's own calls. Reset
/// before the traced pass so every count covers exactly that pass.
struct LayerStats {
  std::uint64_t decisions = 0;
  std::uint64_t tasks = 0;
  std::uint64_t offloaded = 0;
  std::uint64_t infeasible = 0;

  std::uint64_t sim_events = 0;
  std::uint64_t sim_allocs = 0;
  std::uint64_t pool_slots_peak = 0;

  std::uint64_t reps = 0;
  std::uint64_t fast = 0;
  std::uint64_t bailed = 0;
  std::uint64_t fallback = 0;
  std::uint64_t mode_changes = 0;
  /// Replications whose serial-equivalent event count was estimated from
  /// re-runs, and that estimate (batch.agg_events_per_s).
  double agg_events = 0.0;
  std::int64_t agg_batch_ns = 0;

  std::uint64_t samples = 0;
  std::int64_t sample_ns = 0;

  std::uint64_t codec_ops = 0;
  std::int64_t encode_ns = 0;
  std::int64_t decode_ns = 0;
};

struct Env {
  explicit Env(Options o) : opt(std::move(o)), tracer(false) {}

  Options opt;
  Tracer tracer;
  LayerStats stats;
  /// Telemetry of the traced runs' direct MCKP re-solves (never attached
  /// to SimConfig, BatchRunner or the ODM call that decides).
  obs::Sink mckp_sink;
  /// Traced runs add layer probes (MCKP re-solve, server sampling, wire
  /// codec); both passes of a traced run do, so their wall times compare.
  bool probes = false;
  sim::SimEngine engine;  ///< the benchmark's own serial engine

  /// Seed of document `index` on stream `stream`, as a JSON-safe integer.
  [[nodiscard]] std::uint64_t doc_seed(std::uint64_t index,
                                       std::uint64_t stream) const;
};

/// One document (or request) through a workload.
struct DocResult {
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t fingerprint = 0;
  std::int64_t wall_ns = 0;  ///< program time; checks excluded
  std::int64_t cpu_ns = 0;
};

/// Wall and CPU time of the program part of one request.
class Meter {
 public:
  Meter() : wall0_(wall_ns()), cpu0_(rtbench::cpu_ns()) {}
  void stop(DocResult& r) const {
    r.wall_ns = wall_ns() - wall0_;
    r.cpu_ns = rtbench::cpu_ns() - cpu0_;
  }

 private:
  std::int64_t wall0_;
  std::int64_t cpu0_;
};

/// FNV-1a over the bits of every value added: equal fingerprints mean
/// bit-identical outcomes.
class Fingerprint {
 public:
  void add(std::uint64_t v);
  void add(double v);
  void add(const sim::SimMetrics& m);
  void add(const core::OdmResult& r);
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::uint64_t fingerprint_of(const sim::SimMetrics& m);

/// Checks one ODM result (claimed objective within the LP bound, Theorem 3
/// verdict equal to a re-check) and, with probes on, re-solves its MCKP
/// instance directly and compares the selection. Records odm.* counters.
bool check_decision(Env& env, const core::TaskSet& tasks,
                    const core::OdmConfig& config, const core::OdmResult& res);

/// One serial-engine run on a pristine clone of `prototype`, counting
/// events and allocations into the sim.* layer stats.
sim::SimMetrics simulate_serial(Env& env, const core::TaskSet& tasks,
                                const core::DecisionVector& decisions,
                                const server::ResponseModel& prototype,
                                const sim::SimConfig& config,
                                const sim::RequestProfile& profile);

/// Probe (traced runs): samples the document's server stack directly.
void probe_server(Env& env, const server::ResponseModel& prototype,
                  const core::DecisionVector& decisions,
                  const sim::RequestProfile& profile);

rt::Json read_json_file(const std::string& path);

}  // namespace rtbench
