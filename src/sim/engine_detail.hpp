#pragma once
// Internals shared by the protocol core (protocol_core.hpp, behind the
// serial engine and the real runtime) and the batched replication engine
// (batch_engine.cpp): the per-(task, decision) constant cache, decision
// validation, and deadline-monotonic ranking.
//
// Everything here is computed by the exact expressions the reference engine
// evaluates per job, so both engines inherit bit-identical arithmetic from
// one definition instead of keeping two copies in sync.

#include <cstdint>
#include <vector>

#include "core/task.hpp"
#include "server/response_model.hpp"
#include "sim/simulator.hpp"

namespace rt::sim::detail {

/// Everything about a (task, decision) pair that is constant for a run,
/// resolved once at reset(): the seed engine recomputed split_deadlines
/// (an __int128 division) and chased the per-level WCET/benefit vectors on
/// every release.
struct TaskCache {
  bool offloaded = false;
  Duration period;
  Duration deadline;
  Duration exec_wcet;           ///< local WCET, or setup WCET at the level
  Duration post_wcet;           ///< timely second phase
  Duration comp_wcet;           ///< compensation second phase at the level
  Duration d1;                  ///< first-phase relative deadline (EDF)
  Duration response_time;       ///< decision R
  double local_benefit = 0.0;   ///< weight * G(0)
  double timely_benefit = 0.0;  ///< weight * value of a timely result
  std::size_t level = 0;        ///< decision level (offloaded only)
  server::Request req;          ///< profile template, stream_id preset
};

/// Ready-queue heap node. The sort key is copied out of the sub-job so
/// heap sift comparisons stay inside the contiguous node array instead of
/// chasing pool slots.
struct ReadyNode {
  std::int64_t key = 0;
  std::uint64_t seq = 0;
  std::uint32_t slot = 0;

  /// Dispatch order: smaller key first, FIFO (release sequence) on ties.
  friend bool operator<(const ReadyNode& a, const ReadyNode& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.seq < b.seq;
  }
};

/// Throws std::invalid_argument, its message prefixed by `who`, when a
/// decision is unsimulatable (level out of range, or R >= D leaving no
/// room for compensation).
void validate_decisions(const core::TaskSet& tasks,
                        const core::DecisionVector& decisions,
                        const char* who = "simulate");

/// Fills `cache` (resized to tasks.size()) with the run constants for the
/// given decision vector under the config's deadline/benefit policies.
void fill_task_cache(std::vector<TaskCache>& cache, const core::TaskSet& tasks,
                     const core::DecisionVector& decisions,
                     const SimConfig& config, const RequestProfile& profile);

}  // namespace rt::sim::detail
