#include "rt/health.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "core/schedulability.hpp"

namespace rt::health {

const char* to_string(Mode mode) {
  switch (mode) {
    case Mode::kNormal: return "normal";
    case Mode::kDegraded: return "degraded";
  }
  return "unknown";
}

void HealthConfig::validate() const {
  if (window < 1 || window > 64) {
    throw std::invalid_argument("HealthConfig: window must be in [1, 64]");
  }
  if (min_samples < 1 || min_samples > window) {
    throw std::invalid_argument("HealthConfig: min_samples must be in [1, window]");
  }
  // The comparisons are written to also reject NaN.
  if (!(degrade_below >= 0.0 && degrade_below <= 1.0)) {
    throw std::invalid_argument("HealthConfig: degrade_below outside [0, 1]");
  }
  if (!(recover_above >= 0.0 && recover_above <= 1.0)) {
    throw std::invalid_argument("HealthConfig: recover_above outside [0, 1]");
  }
  if (!(recover_above > degrade_below)) {
    throw std::invalid_argument(
        "HealthConfig: recover_above must exceed degrade_below (hysteresis)");
  }
  if (min_normal_dwell.is_negative() || min_degraded_dwell.is_negative()) {
    throw std::invalid_argument("HealthConfig: negative dwell time");
  }
}

ModeController::ModeController(ModeControllerConfig config)
    : config_(std::move(config)) {
  config_.health.validate();
  const std::size_t w = config_.health.window;
  window_mask_ = w == 64 ? ~0ull : ((1ull << w) - 1ull);
}

double ModeController::timely_rate() const {
  if (window_count_ == 0) return 0.0;
  return static_cast<double>(std::popcount(window_bits_)) /
         static_cast<double>(window_count_);
}

void ModeController::begin_run(const core::DecisionVector& normal,
                               TimePoint start) {
  if (!config_.degraded.empty() && config_.degraded.size() != normal.size()) {
    throw std::invalid_argument(
        "ModeController: degraded vector arity mismatches the normal vector");
  }
  degraded_ = config_.degraded.empty() ? core::all_local(normal.size())
                                       : config_.degraded;
  normal_response_.assign(normal.size(), Duration::zero());
  for (std::size_t i = 0; i < normal.size(); ++i) {
    if (normal[i].offloaded()) normal_response_[i] = normal[i].response_time;
  }
  window_bits_ = 0;
  window_count_ = 0;
  mode_ = Mode::kNormal;
  mode_since_ = start;
  mode_changes_ = 0;
  armed_ = true;
}

void ModeController::on_outcome(std::size_t task, bool timely, Duration latency) {
  if (!armed_ || task >= normal_response_.size()) return;
  const Duration window = normal_response_[task];
  // Shadow timeliness: would this response have met the *normal* window?
  // In degraded mode the active window may be much wider, and a success
  // against that fat window says nothing about recovery. A task local
  // under the normal vector has no normal window (its outcomes come from a
  // degraded vector that offloads more): its raw verdict stands.
  const bool shadow = window.is_zero() ? timely : timely && latency <= window;
  window_bits_ = ((window_bits_ << 1) | (shadow ? 1u : 0u)) & window_mask_;
  if (window_count_ < config_.health.window) ++window_count_;
}

Mode ModeController::evaluate(TimePoint now) {
  if (!armed_) return mode_;
  const HealthConfig& h = config_.health;
  if (mode_ == Mode::kNormal) {
    if (now - mode_since_ < h.min_normal_dwell) return mode_;
    if (samples() >= h.min_samples && timely_rate() < h.degrade_below) {
      switch_to(Mode::kDegraded, now);
    }
  } else {
    if (now - mode_since_ < h.min_degraded_dwell) return mode_;
    if (samples() >= h.min_samples) {
      if (timely_rate() >= h.recover_above) switch_to(Mode::kNormal, now);
    } else {
      // Not enough evidence either way -- typical when the degraded vector
      // is all-local and generates no offload traffic. Probe: re-enter
      // normal mode and let the next window's evidence decide.
      switch_to(Mode::kNormal, now);
    }
  }
  return mode_;
}

void ModeController::switch_to(Mode mode, TimePoint now) {
  mode_ = mode;
  mode_since_ = now;
  ++mode_changes_;
  window_bits_ = 0;
  window_count_ = 0;
}

double switch_envelope_density(const core::TaskSet& tasks,
                               const core::DecisionVector& normal,
                               const core::DecisionVector& degraded) {
  if (tasks.size() != normal.size() || tasks.size() != degraded.size()) {
    throw std::invalid_argument("switch_envelope_density: arity mismatch");
  }
  double total = 0.0;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const double a = core::decision_density(tasks[i], normal[i]).to_double();
    const double b = core::decision_density(tasks[i], degraded[i]).to_double();
    total += std::max(a, b);
  }
  return total;
}

}  // namespace rt::health
