#pragma once
// runtime_loopback: the real protocol over net/ against an in-process
// LoopbackGpuServer. An open loop: periodic releases fire on schedule
// whatever the runtime's state, and every job is timed from its intended
// release instant.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace rtbench {

/// Everything measured over the runtime specs of one run (wall units).
struct RuntimeTotals {
  std::uint64_t released = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t misses = 0;
  std::uint64_t attempts = 0;
  std::uint64_t timely = 0;
  std::uint64_t replies = 0;
  std::uint64_t late_replies = 0;
  std::int64_t run_wall_ns = 0;
  std::int64_t run_cpu_ns = 0;
  std::int64_t derive_ns = 0;  ///< building job spans (traced runs)
  std::vector<double> response_ms;      ///< completion - intended release
  std::vector<double> release_late_us;  ///< measured release - k*T
  std::vector<double> rpc_overhead_us;  ///< reply - send - fixed model
  std::vector<double> comp_late_us;     ///< timer fire - (send + R)
  std::vector<double> rtt_us;           ///< reply - send, timely replies
  double slack_frac_min = std::numeric_limits<double>::infinity();
  double oracle_gap_max = 0.0;
};

class RuntimeLoopback {
 public:
  /// Wall seconds per protocol second for every spec.
  static constexpr double kTimeScale = 0.1;
  static constexpr std::size_t kSpecs = 3;

  explicit RuntimeLoopback(Env& env);

  /// Spec `spec` (runtime_fixed, runtime_lognormal, runtime_faults) with
  /// the benchmark's time scale, `horizon_ms` of protocol time, and seeds
  /// drawn from (seed, salt).
  [[nodiscard]] std::string make_doc(std::size_t spec, double horizon_ms,
                                     std::uint64_t salt) const;

  /// Parses, builds, decides, serves the spec on a fresh daemon, runs it,
  /// and checks and accumulates the outcome.
  void run_spec(std::size_t spec, const std::string& text,
                RuntimeTotals& totals);

 private:
  Env& env_;
  std::vector<rt::Json> bases_;
};

}  // namespace rtbench
