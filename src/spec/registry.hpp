#pragma once
// Factory registries for the declarative scenario layer (docs/SCENARIOS.md,
// docs/ANALYSIS.md §11).
//
// Every composable component family -- server response models, workload
// generators, degraded-mode controllers -- is a registry mapping a `type`
// string to a builder pair:
//
//   * normalize(json, path): strict validation (unknown keys rejected,
//     per-field NaN/range checks) that returns the object with every
//     default materialized. Normalization is idempotent by construction,
//     which is what makes parse -> serialize -> parse a fixed point.
//   * build(normalized, ctx): constructs the runtime component from a
//     normalized object. Model builders recurse through the registry, so a
//     composed stack like faults(routing(bursty(lognormal))) is just nested
//     JSON.
//
// New components self-register with Registry::add under their type string;
// nothing else in the layer enumerates types, so `rtoffload_cli
// --list-types` and error messages ("unknown type ... known: ...") stay
// correct automatically.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/task.hpp"
#include "mckp/solvers.hpp"
#include "rt/health.hpp"
#include "server/response_model.hpp"
#include "sim/simulator.hpp"
#include "spec/spec_error.hpp"
#include "util/json.hpp"

namespace rt::spec {

/// A built workload: the task set plus the per-(task, level) request
/// profile (non-empty only for workloads that know payload/compute shapes,
/// e.g. the case study).
struct BuiltWorkload {
  core::TaskSet tasks;
  sim::RequestProfile profile;
};

/// Context handed to build(): pieces of the surrounding document a
/// component may need. `tasks` feeds task-derived models (benefit-driven)
/// and controllers; `odm` is the document's normalized odm section (the
/// pessimistic-odm controller re-solves from it); `default_seed` is the sim
/// seed, used by stochastic models whose spec omitted a private seed.
struct BuildContext {
  const core::TaskSet* tasks = nullptr;
  const Json* odm = nullptr;
  std::uint64_t default_seed = 42;
};

template <typename Built>
class Registry {
 public:
  using Normalize = std::function<Json(const Json&, const SpecPath&)>;
  using Build = std::function<Built(const Json&, const BuildContext&)>;

  struct Entry {
    Normalize normalize;
    Build build;
  };

  void add(const std::string& type, Normalize normalize, Build build) {
    entries_[type] = Entry{std::move(normalize), std::move(build)};
  }

  [[nodiscard]] const Entry& at(const std::string& type,
                                const SpecPath& path) const {
    const auto it = entries_.find(type);
    if (it == entries_.end()) {
      std::string known;
      for (const auto& [name, entry] : entries_) {
        (void)entry;
        if (!known.empty()) known += ", ";
        known += name;
      }
      throw SpecError(path / "type",
                      "unknown type '" + type + "' (known: " + known + ")");
    }
    return it->second;
  }

  /// Registered type strings, sorted.
  [[nodiscard]] std::vector<std::string> types() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) {
      (void)entry;
      out.push_back(name);
    }
    return out;
  }

 private:
  std::map<std::string, Entry> entries_;
};

/// The three component registries (process-wide, built-ins pre-registered).
Registry<std::unique_ptr<server::ResponseModel>>& model_registry();
Registry<BuiltWorkload>& workload_registry();
Registry<health::ModeControllerConfig>& controller_registry();

/// Dispatch helpers: read obj["type"], look it up, delegate.
Json normalize_model(const Json& obj, const SpecPath& path);
std::unique_ptr<server::ResponseModel> build_model(const Json& normalized,
                                                   const BuildContext& ctx);
Json normalize_workload(const Json& obj, const SpecPath& path);
BuiltWorkload build_workload(const Json& normalized, const BuildContext& ctx);
Json normalize_controller(const Json& obj, const SpecPath& path);
health::ModeControllerConfig build_controller(const Json& normalized,
                                              const BuildContext& ctx);

/// The solver kinds a document may name, under mckp::to_string's names (the
/// CLI's listing and the odm section share this single table).
mckp::SolverKind solver_from_string(const std::string& name, const SpecPath& path);
std::vector<std::string> solver_names();

/// Fault-script sections appear both standalone ($.faults) and inside the
/// fault-injector model; both share these path-qualified wrappers around
/// server::FaultScript's own field checks.
Json normalize_fault_script(const Json& obj, const SpecPath& path);

}  // namespace rt::spec
