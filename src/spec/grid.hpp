#pragma once
// Sweep-grid expansion over scenario documents (docs/SCENARIOS.md).
//
// A document's $.sweep section lists axes, each a dotted JSON path plus a
// value list; expansion is the row-major cartesian product (first axis
// outermost), every child being the base document with the axis values
// substituted and *re-parsed* -- so each grid point is validated exactly
// like a hand-written document. plan_batch() then packages the children
// for exp::BatchRunner, whose per-index seed derivation (util/rng
// derive_seed) makes results bit-identical to an inline ScenarioSpec
// vector for every worker count.

#include <cstdint>
#include <string_view>
#include <vector>

#include "exp/batch.hpp"
#include "spec/scenario_doc.hpp"
#include "util/json.hpp"

namespace rt::spec {

/// Replaces the value at `dotted` (e.g. "odm.estimation_error",
/// "faults.clauses[0].factor") inside a document-shaped Json. Intermediate
/// containers must already exist; only the final object key may be
/// created. Errors are SpecError at `errpath` (the axis's location).
void set_at_path(Json& doc, std::string_view dotted, const Json& value,
                 const SpecPath& errpath);

/// The base document with one override applied and re-validated.
ScenarioDoc with_override(const ScenarioDoc& doc, std::string_view dotted,
                          const Json& value);

/// All grid points of the document's sweep (the document itself, sweep
/// stripped, when no sweep section or no axes). Row-major: the first axis
/// varies slowest.
std::vector<ScenarioDoc> expand_grid(const ScenarioDoc& doc);

/// An expanded grid ready for exp::BatchRunner: docs[i] built specs[i],
/// and batch carries $.sweep.base_seed / $.sweep.jobs.
struct BatchPlan {
  std::vector<ScenarioDoc> docs;
  std::vector<exp::ScenarioSpec> specs;
  exp::BatchConfig batch;
};

BatchPlan plan_batch(const ScenarioDoc& doc);

}  // namespace rt::spec
