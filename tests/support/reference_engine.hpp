#pragma once
// The seed event engine, kept verbatim as a correctness oracle.
//
// `simulate_reference` is the pre-optimization implementation of
// sim::simulate built on std::set / std::priority_queue / std::deque /
// std::unordered_map. The production engine (sim/engine.hpp) replaces every
// one of those structures with allocation-free equivalents but must stay
// bit-identical: tests/sim/determinism_test.cpp runs both engines over a
// randomized config grid and compares metrics and traces event by event.
//
// Do not "optimize" this file; its value is that it stays the simple,
// obviously-correct version of the semantics documented in
// sim/simulator.hpp. It lives with the tests, in the rt_sim_reference
// library, because only the tests call it.
// An oracle needs no telemetry: SimConfig::sink is ignored here.

#include "sim/simulator.hpp"

namespace rt::sim {

/// Same contract as sim::simulate, seed implementation; config.sink is
/// ignored.
SimResult simulate_reference(const core::TaskSet& tasks,
                             const core::DecisionVector& decisions,
                             server::ResponseModel& server,
                             const SimConfig& config,
                             const RequestProfile& profile = {});

}  // namespace rt::sim
