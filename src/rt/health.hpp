#pragma once
// Online server-health monitoring and degraded-mode control.
//
// The ODM solves the offloading selection once, against a response-time
// estimate; when the real component drifts away from that estimate (burst,
// outage, congestion -- see server/faults.hpp for scripting exactly that),
// every offloaded job burns its setup budget C_{i,1} only to fall back to
// compensation. The adaptive loop here closes the gap:
//
//   * ModeController keeps one sliding window of the last `window`
//     outcomes, one per resolved offload: did the result make the
//     *normal-mode* response window. Judging every outcome against the
//     normal vector's window ("shadow timeliness") is what keeps the
//     signal comparable across modes: a fat degraded-mode window that
//     admits a slow response must not read as "the server is healthy
//     again".
//
//   * It turns the window's timely rate into a two-state machine
//     (normal <-> degraded) with hysteresis: distinct degrade/recover
//     thresholds, a minimum dwell time in each mode, and a window clear on
//     every switch so each decision rests on post-switch evidence. When the
//     degraded vector generates no offload traffic at all (e.g. all-local),
//     recovery falls back to probing: after the degraded dwell expires with
//     no samples to judge, the controller optimistically re-enters normal
//     mode and lets fresh evidence confirm or re-degrade.
//
// The controller only ever changes mode when the engine asks it to -- at
// job release boundaries (sim/engine.cpp) -- so every in-flight job
// completes under the decision vector it was released with and the per-mode
// Theorem 3 guarantee applies to each job individually (docs/ANALYSIS.md
// §10 discusses the switch-transient envelope).
//
// Single-threaded, like the engine that drives it: batch evaluation gives
// every scenario its own controller (exp::BatchRunner does this from a
// shared ModeControllerConfig prototype).

#include <cstdint>
#include <vector>

#include "core/decision.hpp"
#include "core/task.hpp"
#include "util/time.hpp"

namespace rt::health {

enum class Mode : std::uint8_t { kNormal = 0, kDegraded = 1 };

const char* to_string(Mode mode);

struct HealthConfig {
  /// Sliding-window length in observations, 1..64 (one machine word).
  std::size_t window = 32;
  /// Observations required in the window before its rate is trusted.
  std::size_t min_samples = 8;
  /// Global shadow-timely rate below which normal mode degrades.
  double degrade_below = 0.5;
  /// Rate at or above which degraded mode recovers. Must exceed
  /// degrade_below: the gap is the hysteresis band.
  double recover_above = 0.8;
  /// Minimum time in normal mode before a degrade is allowed (also from
  /// run start), and in degraded mode before a recover is allowed. Dwells
  /// bound the switch rate: at most one transition per dwell.
  Duration min_normal_dwell = Duration::milliseconds(500);
  Duration min_degraded_dwell = Duration::seconds(2);

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

struct ModeControllerConfig {
  HealthConfig health;
  /// Decision vector activated in degraded mode. Empty means all-local;
  /// otherwise it must match the normal vector's arity and should be a
  /// conservative selection (e.g. core::decide_offloading with a large
  /// estimation_error, so its windows absorb the inflated responses).
  core::DecisionVector degraded;
};

class ModeController {
 public:
  explicit ModeController(ModeControllerConfig config = {});

  /// Re-arms the controller for a run over `normal` (the static vector the
  /// engine starts in): captures each task's normal-mode response window
  /// for shadow judging, materializes the degraded vector (all-local when
  /// the config left it empty), and empties the window. Throws when a
  /// non-empty degraded vector's arity mismatches.
  void begin_run(const core::DecisionVector& normal, TimePoint start);

  /// One resolved offload under whichever vector the job was released
  /// with: `timely` is the raw in-window verdict, `latency` the time from
  /// request send to resolution. Shadow semantics are applied here.
  void on_outcome(std::size_t task, bool timely, Duration latency);

  /// Hysteresis step; the engine calls this at job release boundaries and
  /// applies the returned mode to the job being released.
  Mode evaluate(TimePoint now);

  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] const core::DecisionVector& degraded_decisions() const {
    return degraded_;
  }
  [[nodiscard]] std::uint64_t mode_changes() const { return mode_changes_; }
  /// Outcomes in the window, at most HealthConfig::window.
  [[nodiscard]] std::size_t samples() const { return window_count_; }
  /// Fraction of the windowed outcomes that were (shadow-)timely; 0 when
  /// empty (gate on samples() before trusting it).
  [[nodiscard]] double timely_rate() const;

 private:
  void switch_to(Mode mode, TimePoint now);

  ModeControllerConfig config_;
  /// The last window_count_ outcomes, packed into one word: bit 0 is the
  /// newest, and window_mask_ keeps the low HealthConfig::window bits.
  std::uint64_t window_bits_ = 0;
  std::uint64_t window_mask_ = 0;
  std::size_t window_count_ = 0;
  core::DecisionVector degraded_;
  /// Normal-mode response window per task; zero for locally-run tasks.
  std::vector<Duration> normal_response_;
  Mode mode_ = Mode::kNormal;
  TimePoint mode_since_;
  std::uint64_t mode_changes_ = 0;
  bool armed_ = false;
};

/// Conservative cross-mode schedulability envelope: sum over tasks of the
/// *worse* Theorem 3 density between the two vectors. When this is <= 1,
/// even a demand pattern mixing jobs of both modes (the transient around a
/// switch) stays within the linear bound; when it exceeds 1 the per-mode
/// guarantees still hold away from switches, but the transient relies on
/// the dwell-time spacing (docs/ANALYSIS.md §10). Saturated densities
/// (R >= D) clamp to a large finite value.
double switch_envelope_density(const core::TaskSet& tasks,
                               const core::DecisionVector& normal,
                               const core::DecisionVector& degraded);

}  // namespace rt::health
