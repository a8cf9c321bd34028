#pragma once
// Exact MCKP by enumeration: every combination of one item per class. Only
// the solver tests call it (they check the DP, HEU-OE and the ODM against
// it on small instances), so it lives in tests/support (rt_mckp_oracles),
// not in the production library.

#include "mckp/instance.hpp"

namespace rt::mckp {

/// The feasible selection of largest profit, the lighter one on a profit
/// tie; with none feasible, the cheapest item per class (feasible=false),
/// as the library solvers answer. Throws std::invalid_argument when the
/// search space exceeds ~20M combinations.
Selection solve_brute_force(const Instance& inst);

}  // namespace rt::mckp
