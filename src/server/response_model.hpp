#pragma once
// Response-time models for the timing-unreliable component.
//
// The paper's server is a GPU box behind local wireless -- fast on average,
// but with no useful worst-case bound. Everything the offloading mechanism
// sees of it is the response time of each request (or the absence of a
// response), so the whole substrate is abstracted as a ResponseModel. A
// request sent at `send_time` either completes after the returned duration
// or never (kNoResponse), in which case the client's compensation timer is
// the only thing that saves the deadline.

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "util/rng.hpp"
#include "util/time.hpp"

namespace rt::server {

/// Sentinel for "the result never comes back".
inline constexpr Duration kNoResponse = Duration::max();

/// A single offload request as seen by the server substrate.
struct Request {
  TimePoint send_time;          ///< when the client hands data to the radio
  Duration compute_time;        ///< pure kernel time on one executor
  std::size_t payload_bytes = 0;  ///< uplink payload (result assumed small)
  /// Opaque source stream (the simulator sets the task index): lets models
  /// with per-stream distributions tell requesters apart.
  std::size_t stream_id = 0;
};

/// Interface: maps a request to the total response time experienced by the
/// client (uplink + queueing + compute + downlink), or kNoResponse. A
/// response time is never negative (tests/server/sample_n_test.cpp checks
/// every registered type); the simulators reject one.
///
/// Stateful implementations (the queueing server) require non-decreasing
/// send_time across calls, which a discrete-event simulation provides
/// naturally; stateless ones ignore it.
class ResponseModel {
 public:
  virtual ~ResponseModel() = default;
  virtual Duration sample(const Request& req, Rng& rng) = 0;
  /// Batched sampling for replicated simulation: one draw of the *same*
  /// request per replication stream. Contract (enforced by
  /// tests/server/sample_n_test.cpp): `sample_n(req, rngs, out)` leaves the
  /// model and every rng in exactly the state that `out[i] = sample(req,
  /// rngs[i])` for i = 0..n-1 would, and produces the same outputs. The
  /// default is that loop; leaves override it to skip the per-draw virtual
  /// dispatch, wrappers to forward one batched call to their inner model.
  /// Requires rngs.size() == out.size().
  virtual void sample_n(const Request& req, std::span<Rng> rngs,
                        std::span<Duration> out);
  /// Forget accumulated state (queue backlog); no-op for stateless models.
  virtual void reset() {}
  /// True when sample() is a pure function of (request, rng): it neither
  /// mutates the model nor depends on earlier calls. A stateless prototype
  /// can be shared across interleaved replications without clone()/reset().
  [[nodiscard]] virtual bool is_stateless() const { return false; }
  /// Deep copy of this model *as configured*: same distribution parameters
  /// and seeds, pristine (reset-equivalent) dynamic state. Models are not
  /// thread-safe, so batch evaluation (exp::BatchRunner) replicates one
  /// prototype into an independent instance per scenario.
  [[nodiscard]] virtual std::unique_ptr<ResponseModel> clone() const = 0;
};

/// Deterministic response; the unit-test workhorse.
class FixedResponse final : public ResponseModel {
 public:
  explicit FixedResponse(Duration response) : response_(response) {}
  Duration sample(const Request&, Rng&) override { return response_; }
  void sample_n(const Request&, std::span<Rng>,
                std::span<Duration> out) override {
    for (Duration& d : out) d = response_;
  }
  bool is_stateless() const override { return true; }
  std::unique_ptr<ResponseModel> clone() const override {
    return std::make_unique<FixedResponse>(response_);
  }

 private:
  Duration response_;
};

/// Never responds: models a dead link / server.
class NeverResponds final : public ResponseModel {
 public:
  Duration sample(const Request&, Rng&) override { return kNoResponse; }
  void sample_n(const Request&, std::span<Rng>,
                std::span<Duration> out) override {
    for (Duration& d : out) d = kNoResponse;
  }
  bool is_stateless() const override { return true; }
  std::unique_ptr<ResponseModel> clone() const override {
    return std::make_unique<NeverResponds>();
  }
};

/// Shifted log-normal: shift + LogN(mu, sigma) milliseconds, with an
/// independent drop probability. A standard heavy-tailed stand-in for
/// measured network+GPU response times.
class ShiftedLognormalResponse final : public ResponseModel {
 public:
  ShiftedLognormalResponse(Duration shift, double mu_log_ms, double sigma_log,
                           double drop_probability = 0.0);
  Duration sample(const Request& req, Rng& rng) override;
  void sample_n(const Request& req, std::span<Rng> rngs,
                std::span<Duration> out) override;
  bool is_stateless() const override { return true; }
  std::unique_ptr<ResponseModel> clone() const override {
    return std::make_unique<ShiftedLognormalResponse>(*this);
  }

 private:
  Duration shift_;
  double mu_;
  double sigma_;
  double drop_probability_;
};

/// Wraps another model and enforces a hard response upper bound B: anything
/// later than B (including drops) is delivered at exactly B. Models a
/// component with a pessimistic but trusted worst case -- e.g. a local
/// accelerator behind a real-time bus -- enabling the paper's C_{i,3}
/// extension (Section 3).
class BoundedResponse final : public ResponseModel {
 public:
  BoundedResponse(std::unique_ptr<ResponseModel> inner, Duration bound);

  Duration sample(const Request& req, Rng& rng) override;
  void sample_n(const Request& req, std::span<Rng> rngs,
                std::span<Duration> out) override;
  bool is_stateless() const override { return inner_->is_stateless(); }
  void reset() override { inner_->reset(); }
  std::unique_ptr<ResponseModel> clone() const override {
    return std::make_unique<BoundedResponse>(inner_->clone(), bound_);
  }

  [[nodiscard]] Duration bound() const { return bound_; }

 private:
  std::unique_ptr<ResponseModel> inner_;
  Duration bound_;
};

/// Draws uniformly from a bag of measured samples (bootstrap), with an
/// optional drop probability.
class EmpiricalResponse final : public ResponseModel {
 public:
  explicit EmpiricalResponse(std::vector<Duration> samples,
                             double drop_probability = 0.0);
  Duration sample(const Request& req, Rng& rng) override;
  void sample_n(const Request& req, std::span<Rng> rngs,
                std::span<Duration> out) override;
  bool is_stateless() const override { return true; }
  std::unique_ptr<ResponseModel> clone() const override {
    return std::make_unique<EmpiricalResponse>(*this);
  }

 private:
  std::vector<Duration> samples_;
  double drop_probability_;
};

}  // namespace rt::server
