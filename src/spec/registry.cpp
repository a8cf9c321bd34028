#include "spec/registry.hpp"

#include "server/faults.hpp"
#include "spec/builders_internal.hpp"

namespace rt::spec {

Registry<std::unique_ptr<server::ResponseModel>>& model_registry() {
  static Registry<std::unique_ptr<server::ResponseModel>>* reg = [] {
    auto* r = new Registry<std::unique_ptr<server::ResponseModel>>();
    detail::register_builtin_models(*r);
    return r;
  }();
  return *reg;
}

Registry<BuiltWorkload>& workload_registry() {
  static Registry<BuiltWorkload>* reg = [] {
    auto* r = new Registry<BuiltWorkload>();
    detail::register_builtin_workloads(*r);
    return r;
  }();
  return *reg;
}

Registry<health::ModeControllerConfig>& controller_registry() {
  static Registry<health::ModeControllerConfig>* reg = [] {
    auto* r = new Registry<health::ModeControllerConfig>();
    detail::register_builtin_controllers(*r);
    return r;
  }();
  return *reg;
}

namespace {

std::string type_of(const Json& obj, const SpecPath& path) {
  return require_string(obj, path, "type");
}

}  // namespace

Json normalize_model(const Json& obj, const SpecPath& path) {
  return model_registry().at(type_of(obj, path), path).normalize(obj, path);
}

std::unique_ptr<server::ResponseModel> build_model(const Json& normalized,
                                                   const BuildContext& ctx) {
  const SpecPath path;
  return model_registry()
      .at(type_of(normalized, path), path)
      .build(normalized, ctx);
}

Json normalize_workload(const Json& obj, const SpecPath& path) {
  return workload_registry().at(type_of(obj, path), path).normalize(obj, path);
}

BuiltWorkload build_workload(const Json& normalized, const BuildContext& ctx) {
  const SpecPath path;
  return workload_registry()
      .at(type_of(normalized, path), path)
      .build(normalized, ctx);
}

Json normalize_controller(const Json& obj, const SpecPath& path) {
  return controller_registry().at(type_of(obj, path), path).normalize(obj, path);
}

health::ModeControllerConfig build_controller(const Json& normalized,
                                              const BuildContext& ctx) {
  const SpecPath path;
  return controller_registry()
      .at(type_of(normalized, path), path)
      .build(normalized, ctx);
}

namespace {

// The solvers a document may name, in listing order, under
// mckp::to_string's names.
constexpr mckp::SolverKind kSpecSolvers[] = {mckp::SolverKind::kDpProfits,
                                             mckp::SolverKind::kHeuOe};

}  // namespace

mckp::SolverKind solver_from_string(const std::string& name,
                                    const SpecPath& path) {
  std::string known;
  for (const mckp::SolverKind kind : kSpecSolvers) {
    if (name == mckp::to_string(kind)) return kind;
    if (!known.empty()) known += ", ";
    known += mckp::to_string(kind);
  }
  throw SpecError(path, "unknown solver '" + name + "' (known: " + known + ")");
}

std::vector<std::string> solver_names() {
  std::vector<std::string> out;
  for (const mckp::SolverKind kind : kSpecSolvers) {
    out.emplace_back(mckp::to_string(kind));
  }
  return out;
}

Json normalize_fault_script(const Json& obj, const SpecPath& path) {
  check_keys(obj, path, {"seed", "clauses"});
  Json::Object out;
  out["seed"] = Json(static_cast<double>(integer_or(obj, path, "seed", 1)));
  Json::Array clauses;
  if (has(obj, "clauses")) {
    const Json::Array& in = as_array(obj.at("clauses"), path / "clauses");
    clauses.reserve(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) {
      const SpecPath cpath = path / "clauses" / i;
      check_keys(in[i], cpath,
                 {"kind", "start_ms", "end_ms", "factor", "drop_probability",
                  "period_ms", "duty"});
      try {
        // Reuse the per-field checks of server::FaultClause (ANALYSIS §10);
        // its to_json round trip materializes the kind-specific defaults.
        clauses.push_back(server::FaultClause::from_json(in[i]).to_json());
      } catch (const std::exception& e) {
        throw SpecError(cpath, e.what());
      }
    }
  }
  out["clauses"] = Json(std::move(clauses));
  return Json(std::move(out));
}

}  // namespace rt::spec
