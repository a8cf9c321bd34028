#include "bench_common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ctime>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "core/schedulability.hpp"
#include "mckp/solvers.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace rtbench {

std::int64_t cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return (static_cast<std::int64_t>(ru.ru_utime.tv_sec) +
          static_cast<std::int64_t>(ru.ru_stime.tv_sec)) *
             1'000'000'000 +
         (static_cast<std::int64_t>(ru.ru_utime.tv_usec) +
          static_cast<std::int64_t>(ru.ru_stime.tv_usec)) *
             1'000;
}

double pct(const std::vector<double>& v, double p) {
  return v.empty() ? 0.0 : rt::percentile(v, p);
}

namespace {

constexpr std::size_t kProbeClasses = 30;
constexpr std::size_t kProbeItems = 5;
constexpr std::size_t kProbeAxis = 20'000;
constexpr std::int64_t kUnreachable = std::numeric_limits<std::int64_t>::max();

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

HostProbe::HostProbe(double sensitivity)
    : sensitivity_(sensitivity),
      dp_(kProbeAxis + 1),
      next_(kProbeAxis + 1),
      choice_(kProbeClasses * (kProbeAxis + 1)) {
  rt::Rng rng(0x9e3779b97f4a7c15ull);
  for (std::size_t i = 0; i < kProbeClasses * kProbeItems; ++i) {
    profit_.push_back(static_cast<std::int64_t>(rng.uniform() * 600.0));
    weight_.push_back(static_cast<std::int64_t>(rng.uniform() * 1000.0));
  }
  slowdown();  // warm-up, not recorded
  history_.clear();
}

double HostProbe::slowdown() {
  const std::int64_t t0 = thread_cpu_ns();
  std::fill(dp_.begin(), dp_.end(), kUnreachable);
  std::fill(choice_.begin(), choice_.end(), -1);
  dp_[0] = 0;
  for (std::size_t c = 0; c < kProbeClasses; ++c) {
    std::fill(next_.begin(), next_.end(), kUnreachable);
    std::int32_t* const row = choice_.data() + c * (kProbeAxis + 1);
    for (std::size_t p = 0; p <= kProbeAxis; ++p) {
      if (dp_[p] == kUnreachable) continue;
      for (std::size_t k = c * kProbeItems; k < (c + 1) * kProbeItems; ++k) {
        const std::size_t to = p + static_cast<std::size_t>(profit_[k]);
        if (to > kProbeAxis) continue;
        if (dp_[p] + weight_[k] < next_[to]) {
          next_[to] = dp_[p] + weight_[k];
          row[to] = static_cast<std::int32_t>(k);
        }
      }
    }
    dp_.swap(next_);
  }
  // Walk the choices back from the best reachable profit.
  std::size_t p = kProbeAxis;
  while (p > 0 && dp_[p] == kUnreachable) --p;
  for (std::size_t c = kProbeClasses; c-- > 0 && p > 0;) {
    const std::int32_t k = choice_[c * (kProbeAxis + 1) + p];
    if (k < 0) break;
    p -= static_cast<std::size_t>(profit_[static_cast<std::size_t>(k)]);
  }
  result_ = result_ + p;
  const double ratio =
      static_cast<double>(thread_cpu_ns() - t0) / kNominalNs;
  history_.push_back(ratio);
  return ratio;
}

double HostProbe::resident_mb() const {
  return static_cast<double>((dp_.size() + next_.size()) * sizeof(std::int64_t) +
                             choice_.size() * sizeof(std::int32_t)) /
         (1024.0 * 1024.0);
}

std::uint64_t Env::doc_seed(std::uint64_t index, std::uint64_t stream) const {
  return rt::derive_seed(rt::derive_seed(opt.seed, stream), index) &
         0x7fffffffull;
}

void Fingerprint::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
}

void Fingerprint::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

void Fingerprint::add(const sim::SimMetrics& m) {
  for (const sim::TaskMetrics& t : m.per_task) {
    add(t.released);
    add(t.completed);
    add(t.deadline_misses);
    add(t.local_runs);
    add(t.offload_attempts);
    add(t.timely_results);
    add(t.compensations);
    add(t.late_results);
    add(t.accrued_benefit);
    add(static_cast<std::uint64_t>(t.observed_response_ms.count()));
    add(t.observed_response_ms.mean());
    add(t.observed_response_ms.variance());
    add(t.observed_response_ms.min());
    add(t.observed_response_ms.max());
    add(t.observed_response_ms.sum());
  }
  add(static_cast<std::uint64_t>(m.cpu_busy_ns));
  add(m.context_switches);
  add(static_cast<std::uint64_t>(m.trace_truncated));
  add(m.mode_changes);
  add(static_cast<std::uint64_t>(m.time_in_degraded_ns));
  add(static_cast<std::uint64_t>(m.end_time.ns()));
}

void Fingerprint::add(const core::OdmResult& r) {
  for (const core::Decision& d : r.decisions) {
    add(static_cast<std::uint64_t>(d.level));
    add(static_cast<std::uint64_t>(d.response_time.ns()));
    add(d.claimed_benefit);
  }
  add(r.claimed_objective);
  add(r.lp_bound);
  add(static_cast<std::uint64_t>(r.feasible));
  add(r.density);
}

std::uint64_t fingerprint_of(const sim::SimMetrics& m) {
  Fingerprint fp;
  fp.add(m);
  return fp.value();
}

bool check_decision(Env& env, const core::TaskSet& tasks,
                    const core::OdmConfig& config, const core::OdmResult& res) {
  LayerStats& st = env.stats;
  ++st.decisions;
  st.tasks += tasks.size();
  for (const core::Decision& d : res.decisions) st.offloaded += d.offloaded();
  if (!res.feasible) ++st.infeasible;

  bool ok = res.claimed_objective <=
            res.lp_bound + 1e-9 * std::max(1.0, std::fabs(res.lp_bound));
  {
    Scope s(env.tracer, "core.theorem3");
    ok = ok && core::theorem3_feasible(tasks, res.decisions) == res.feasible;
  }
  if (env.probes) {
    core::OdmInstance inst;
    {
      Scope s(env.tracer, "mckp.instance");
      inst = core::build_odm_instance(tasks, config);
    }
    mckp::Selection sel;
    {
      Scope s(env.tracer, "mckp.solve");
      sel = mckp::solve(inst.instance, config.solver, config.profit_scale,
                        nullptr, &env.mckp_sink);
    }
    ok = ok && sel.pick == res.raw_selection.pick &&
         sel.feasible == res.raw_selection.feasible;
  }
  return ok;
}

sim::SimMetrics simulate_serial(Env& env, const core::TaskSet& tasks,
                                const core::DecisionVector& decisions,
                                const server::ResponseModel& prototype,
                                const sim::SimConfig& config,
                                const sim::RequestProfile& profile) {
  const std::unique_ptr<server::ResponseModel> model = prototype.clone();
  Scope s(env.tracer, "sim.run");
  const std::uint64_t allocs = thread_allocations();
  sim::SimResult res = env.engine.run(tasks, decisions, *model, config, profile);
  LayerStats& st = env.stats;
  st.sim_allocs += thread_allocations() - allocs;
  st.sim_events += env.engine.stats().events_processed;
  st.pool_slots_peak = std::max<std::uint64_t>(
      st.pool_slots_peak, env.engine.stats().pool_slots_peak);
  return std::move(res.metrics);
}

void probe_server(Env& env, const server::ResponseModel& prototype,
                  const core::DecisionVector& decisions,
                  const sim::RequestProfile& profile) {
  constexpr std::uint64_t kSamples = 512;
  std::vector<server::Request> requests;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    if (!decisions[i].offloaded()) continue;
    server::Request req;
    if (i < profile.size() && decisions[i].level < profile[i].size()) {
      req = profile[i][decisions[i].level];
    }
    req.stream_id = i;
    requests.push_back(req);
  }
  if (requests.empty()) requests.emplace_back();
  const std::unique_ptr<server::ResponseModel> model = prototype.clone();
  rt::Rng rng(env.opt.seed);
  Scope s(env.tracer, "server.sample");
  const std::int64_t t0 = wall_ns();
  for (std::uint64_t k = 0; k < kSamples; ++k) {
    server::Request req = requests[k % requests.size()];
    req.send_time = rt::TimePoint(static_cast<std::int64_t>(k) * 1'000'000);
    (void)model->sample(req, rng);
  }
  env.stats.sample_ns += wall_ns() - t0;
  env.stats.samples += kSamples;
}

rt::Json read_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return rt::Json::parse(ss.str());
}

}  // namespace rtbench
