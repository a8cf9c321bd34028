#pragma once
// OffloadRuntime: the paper's per-job offloading protocol executed for
// real on an epoll event loop, against a gpu_serverd over TCP, instead of
// inside the discrete-event simulator.
//
// The protocol per offloaded job is exactly sim/simulator.hpp's, because
// it is the same code: the runtime is a driver of the shared protocol
// core (sim/protocol_core.hpp) that SimEngine also drives.
//   setup sub-job -> offload RPC -> compensation timer armed at the
//   benefit point (send + R) -> timer cancelled on a timely reply
//   (post-processing runs) or compensation released on timeout. Local
//   jobs run as single sub-jobs. Scheduling is preemptive EDF (or DM)
//   over the same split-deadline assignment; "preemption" here means the
//   armed slice-end timer is re-pointed at the new head of the ready set.
// The driver adds only what a real clock needs: time dilation, wheel
// timers, the wire round-trip, late-reply classification and RPC counts.
//
// Time runs on two axes. *Protocol time* is the simulator's timeline
// (releases at k*T, deadlines, response windows); *wall time* is
// CLOCK_MONOTONIC. They are related by options.time_scale (wall =
// protocol * scale) around an epoch chosen at run start. Releases are
// anchored at their *intended* protocol instants (k*T plus the sporadic
// draw), so released-job counts and deadline arithmetic match the
// simulator exactly; everything the jobs then experience -- execution
// progress, RPC latency, which of reply/timer wins the race -- is
// measured wall time mapped back to protocol units. Deadline misses are
// therefore real: loop scheduling jitter can miss a deadline the
// simulator would make, which is precisely what the differential oracle
// quantifies (docs/RUNTIME.md).
//
// Single-shot and single-threaded: construct, run() (blocks until the
// horizon), read the result. The controller/sink contracts are those of
// sim::SimConfig.

#include <cstdint>
#include <string>

#include "core/decision.hpp"
#include "core/task.hpp"
#include "runtime/runtime_options.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "util/json.hpp"

namespace rt::runtime {

struct RuntimeResult {
  /// Same shape the simulator reports, measured instead of simulated;
  /// end_time is the protocol horizon.
  sim::SimMetrics metrics;
  /// Protocol-time trace (same TraceKind vocabulary), so
  /// sim::append_chrome_trace renders real runs in the same lanes.
  sim::Trace trace;

  std::uint64_t rpc_sent = 0;          ///< request frames handed to the socket
  std::uint64_t rpc_replies = 0;       ///< response frames received
  std::uint64_t rpc_late_replies = 0;  ///< replies after their timer fired
  std::uint64_t send_failures = 0;     ///< sends on a closed/dead connection
  std::uint64_t wire_errors = 0;       ///< undecodable response frames
  /// Close reason if the server connection died before the horizon;
  /// empty for a clean run. The run still completes -- every orphaned
  /// offload falls back to compensation, like a dead link would.
  std::string connection_error;

  /// The transport-side counters as one JSON object (for reports).
  [[nodiscard]] Json rpc_json() const;
};

/// Connects to options.server, executes `decisions` over `tasks` for
/// config.horizon of protocol time, and returns the measured metrics.
/// Validates inputs exactly like sim::simulate and throws the same
/// exceptions; throws std::runtime_error when the connect fails.
RuntimeResult run_offload_runtime(const core::TaskSet& tasks,
                                  const core::DecisionVector& decisions,
                                  const sim::SimConfig& config,
                                  const sim::RequestProfile& profile,
                                  const RuntimeOptions& options);

}  // namespace rt::runtime
