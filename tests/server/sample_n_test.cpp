// Property test for the batched sampling contract
// (server/response_model.hpp): for every registered response-model type,
// sample_n(req, rngs, out) must produce exactly the outputs of the
// sequential loop `out[i] = sample(req, rngs[i])` AND leave the model and
// every rng in the same state the loop would. The batched Monte-Carlo
// engine (sim/batch_engine.hpp) leans on this equivalence to draw one
// request across all replication lanes in a single virtual call.
//
// Models are built through the spec registry so the coverage check is
// structural: registering a new response-model type without adding a
// representative document here fails EveryRegisteredTypeHasADocument.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "server/response_model.hpp"
#include "spec/registry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace rt {
namespace {

/// One representative document per registered type. Parameters are chosen
/// to exercise the interesting branches: drop probabilities, wrapper
/// forwarding, per-stream routing, fault windows that open and close
/// within the sampled send times.
const std::map<std::string, const char*>& type_docs() {
  static const std::map<std::string, const char*> docs = {
      {"benefit-driven", R"({"type": "benefit-driven"})"},
      {"bounded", R"json({
        "type": "bounded", "bound_ms": 40,
        "inner": {"type": "shifted-lognormal", "mu_log_ms": 3.2,
                  "sigma_log": 0.9, "drop_probability": 0.2}
      })json"},
      {"bursty", R"json({
        "type": "bursty", "seed": 11,
        "mean_calm_ms": 120, "mean_burst_ms": 60,
        "calm": {"type": "shifted-lognormal", "mu_log_ms": 2.5,
                 "sigma_log": 0.4},
        "burst": {"type": "shifted-lognormal", "shift_ms": 30,
                  "mu_log_ms": 4.5, "sigma_log": 0.8,
                  "drop_probability": 0.3}
      })json"},
      {"empirical", R"json({
        "type": "empirical", "samples_ms": [5, 8, 13, 21, 34],
        "drop_probability": 0.25
      })json"},
      {"fault-injector", R"json({
        "type": "fault-injector",
        "script": {"seed": 5, "clauses": [
          {"kind": "slowdown", "start_ms": 0, "end_ms": 250, "factor": 2.5},
          {"kind": "drop-burst", "start_ms": 150, "end_ms": 400,
           "drop_probability": 0.5},
          {"kind": "outage", "start_ms": 450, "end_ms": 500}
        ]},
        "inner": {"type": "shifted-lognormal", "mu_log_ms": 3.0,
                  "sigma_log": 0.5}
      })json"},
      {"fixed", R"({"type": "fixed", "response_ms": 7.5})"},
      {"gpu-server", R"({"type": "gpu-server", "seed": 17})"},
      {"never", R"({"type": "never"})"},
      {"routing", R"json({
        "type": "routing",
        "route_of_stream": [0, 1, 1, 0],
        "routes": [
          {"type": "fixed", "response_ms": 3},
          {"type": "shifted-lognormal", "mu_log_ms": 2.8, "sigma_log": 0.6,
           "drop_probability": 0.1}
        ]
      })json"},
      {"scenario", R"({"type": "scenario", "name": "busy"})"},
      {"shifted-lognormal", R"json({
        "type": "shifted-lognormal", "shift_ms": 2, "mu_log_ms": 3.1,
        "sigma_log": 0.7, "drop_probability": 0.15
      })json"},
  };
  return docs;
}

spec::BuildContext build_context() {
  // benefit-driven needs the surrounding task set; every other builder
  // ignores ctx.tasks.
  static const spec::BuiltWorkload workload = [] {
    spec::BuildContext wctx;
    return spec::build_workload(
        spec::normalize_workload(
            Json::parse(R"({"type": "random", "num_tasks": 4, "seed": 7})"),
            spec::SpecPath() / "workload"),
        wctx);
  }();
  spec::BuildContext ctx;
  ctx.tasks = &workload.tasks;
  ctx.default_seed = 99;
  return ctx;
}

std::unique_ptr<server::ResponseModel> build(const std::string& text) {
  return spec::build_model(
      spec::normalize_model(Json::parse(text), spec::SpecPath() / "server"),
      build_context());
}

/// The property: across a non-decreasing send-time schedule (the stateful-
/// model contract), batched draws == sequential draws, and afterwards the
/// models and rngs are indistinguishable by further sampling.
void expect_batched_equals_sequential(const server::ResponseModel& prototype,
                                      const std::string& label) {
  constexpr std::size_t kLanes = 9;
  constexpr std::uint64_t kBase = 0xC0FFEE;
  const std::unique_ptr<server::ResponseModel> seq = prototype.clone();
  const std::unique_ptr<server::ResponseModel> bat = prototype.clone();

  std::vector<Rng> rngs_seq;
  std::vector<Rng> rngs_bat;
  for (std::size_t i = 0; i < kLanes; ++i) {
    rngs_seq.emplace_back(derive_seed(kBase, i));
    rngs_bat.emplace_back(derive_seed(kBase, i));
  }

  const auto request_at = [](std::size_t step) {
    server::Request req;
    req.send_time = TimePoint{} + Duration::from_ms(80.0 * static_cast<double>(step));
    req.compute_time = Duration::from_ms(2.0 + static_cast<double>(step));
    req.payload_bytes = 1024 * (step + 1);
    req.stream_id = step % 4;
    return req;
  };

  for (std::size_t step = 0; step < 7; ++step) {
    const server::Request req = request_at(step);
    std::vector<Duration> out_seq(kLanes);
    std::vector<Duration> out_bat(kLanes);
    for (std::size_t i = 0; i < kLanes; ++i) {
      out_seq[i] = seq->sample(req, rngs_seq[i]);
    }
    bat->sample_n(req, std::span<Rng>(rngs_bat), std::span<Duration>(out_bat));
    for (std::size_t i = 0; i < kLanes; ++i) {
      EXPECT_EQ(out_seq[i].ns(), out_bat[i].ns())
          << label << ": draw diverged at step " << step << " lane " << i;
    }
  }

  // Same rng states afterwards: the next raw word must agree lane by lane.
  for (std::size_t i = 0; i < kLanes; ++i) {
    EXPECT_EQ(rngs_seq[i].next(), rngs_bat[i].next())
        << label << ": rng state diverged in lane " << i;
  }
  // Same model state afterwards: one more sequential round must agree.
  const server::Request after = request_at(7);
  for (std::size_t i = 0; i < kLanes; ++i) {
    EXPECT_EQ(seq->sample(after, rngs_seq[i]).ns(),
              bat->sample(after, rngs_bat[i]).ns())
        << label << ": model state diverged (post-batch draw, lane " << i
        << ")";
  }
}

TEST(SampleN, EveryRegisteredTypeHasADocument) {
  for (const std::string& type : spec::model_registry().types()) {
    EXPECT_EQ(type_docs().count(type), 1u)
        << "response-model type '" << type
        << "' has no representative document in sample_n_test.cpp -- add "
           "one so its sample_n stays equivalent to sequential sampling";
  }
}

TEST(SampleN, BatchedSamplingMatchesSequentialForEveryType) {
  for (const auto& [type, text] : type_docs()) {
    SCOPED_TRACE(type);
    expect_batched_equals_sequential(*build(text), type);
  }
}

TEST(SampleN, NoRegisteredTypeReturnsANegativeResponse) {
  // The simulators store an arrival as its offset from the send, and
  // reject a negative response; every registered model, over a second of
  // send times and every stream, answers at or after the send.
  for (const auto& [type, text] : type_docs()) {
    const std::unique_ptr<server::ResponseModel> model = build(text);
    std::vector<Rng> rngs;
    for (std::uint64_t i = 0; i < 16; ++i) rngs.emplace_back(derive_seed(0xD1CE, i));
    std::vector<Duration> out(rngs.size());
    for (std::size_t step = 0; step < 100; ++step) {
      server::Request req;
      req.send_time = TimePoint{} + Duration::from_ms(10.0 * static_cast<double>(step));
      req.compute_time = Duration::from_ms(1.0 + static_cast<double>(step % 7));
      req.payload_bytes = 512 * (step % 5 + 1);
      req.stream_id = step % 4;
      model->sample_n(req, std::span<Rng>(rngs), std::span<Duration>(out));
      for (const Duration d : out) {
        ASSERT_FALSE(d.is_negative()) << type << " at step " << step << ": " << d.ns();
      }
    }
  }
}

TEST(SampleN, ComposedWrapperStackMatches) {
  // Wrappers recursively forward sample_n; a three-deep stack with state
  // at every level (fault windows, burst phases, per-stream routes) is the
  // adversarial case.
  const char* doc = R"json({
    "type": "fault-injector",
    "script": {"seed": 21, "clauses": [
      {"kind": "slowdown", "start_ms": 100, "end_ms": 300, "factor": 1.5},
      {"kind": "drop-burst", "start_ms": 250, "end_ms": 500,
       "drop_probability": 0.4}
    ]},
    "inner": {
      "type": "routing",
      "route_of_stream": [0, 1, 0, 1],
      "routes": [
        {"type": "bursty", "seed": 3, "mean_calm_ms": 90, "mean_burst_ms": 40,
         "calm": {"type": "shifted-lognormal", "mu_log_ms": 2.7,
                  "sigma_log": 0.4},
         "burst": {"type": "shifted-lognormal", "shift_ms": 25,
                   "mu_log_ms": 5.0, "sigma_log": 0.9,
                   "drop_probability": 0.35}},
        {"type": "bounded", "bound_ms": 60,
         "inner": {"type": "shifted-lognormal", "shift_ms": 1,
                   "mu_log_ms": 3.3, "sigma_log": 0.6,
                   "drop_probability": 0.2}}
      ]
    }
  })json";
  expect_batched_equals_sequential(*build(doc), "composed-stack");
}

}  // namespace
}  // namespace rt
