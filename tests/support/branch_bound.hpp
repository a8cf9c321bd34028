#pragma once
// Exact branch-and-bound MCKP solver.
//
// The Dudzinski-Walukiewicz DP is exact only up to profit discretization;
// this solver is exact on real-valued profits: depth-first search over
// classes (largest profit spread first), pruned by the Dantzig LP bound on
// the remaining suffix. Only the solver tests call it (they check the DP
// against it), so it lives in tests/support (rt_mckp_oracles), not in
// the production library.

#include "mckp/instance.hpp"

namespace rt::mckp {

struct BranchBoundStats {
  std::uint64_t nodes_visited = 0;
  std::uint64_t nodes_pruned = 0;
};

/// Exact optimum. Throws std::invalid_argument on malformed instances and
/// std::runtime_error when the node budget (default ~20M) is exhausted --
/// which signals a pathological instance, not a wrong answer.
Selection solve_branch_bound(const Instance& inst, BranchBoundStats* stats = nullptr,
                             std::uint64_t node_budget = 20'000'000);

}  // namespace rt::mckp
