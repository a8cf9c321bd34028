#include "spec/grid.hpp"

#include <string>
#include <utility>
#include <variant>

namespace rt::spec {

namespace {

using PathToken = std::variant<std::string, std::size_t>;

/// "faults.clauses[0].factor" -> {"faults", "clauses", 0, "factor"}.
std::vector<PathToken> tokenize_path(std::string_view dotted,
                                     const SpecPath& errpath) {
  std::vector<PathToken> tokens;
  std::size_t i = 0;
  while (i < dotted.size()) {
    if (dotted[i] == '.') {
      throw SpecError(errpath, "malformed path '" + std::string(dotted) +
                                   "': empty segment");
    }
    if (dotted[i] == '[') {
      std::size_t j = i + 1;
      std::size_t index = 0;
      bool any = false;
      while (j < dotted.size() && dotted[j] >= '0' && dotted[j] <= '9') {
        index = index * 10 + static_cast<std::size_t>(dotted[j] - '0');
        any = true;
        ++j;
      }
      if (!any || j >= dotted.size() || dotted[j] != ']') {
        throw SpecError(errpath, "malformed path '" + std::string(dotted) +
                                     "': expected [<index>]");
      }
      tokens.emplace_back(index);
      i = j + 1;
      if (i < dotted.size() && dotted[i] == '.') ++i;
      continue;
    }
    std::size_t j = i;
    while (j < dotted.size() && dotted[j] != '.' && dotted[j] != '[') ++j;
    tokens.emplace_back(std::string(dotted.substr(i, j - i)));
    i = j;
    if (i < dotted.size() && dotted[i] == '.') ++i;
  }
  if (tokens.empty()) {
    throw SpecError(errpath, "malformed path: empty");
  }
  return tokens;
}

}  // namespace

void set_at_path(Json& doc, std::string_view dotted, const Json& value,
                 const SpecPath& errpath) {
  const std::vector<PathToken> tokens = tokenize_path(dotted, errpath);
  Json* node = &doc;
  // Walk to the parent of the final token; intermediates must exist so a
  // typo'd axis path fails loudly instead of growing a dangling subtree.
  for (std::size_t t = 0; t + 1 < tokens.size(); ++t) {
    if (const auto* key = std::get_if<std::string>(&tokens[t])) {
      if (!node->is_object() || !node->contains(*key)) {
        throw SpecError(errpath, "path '" + std::string(dotted) +
                                     "' does not resolve: no key '" + *key + "'");
      }
      node = &node->as_object().at(*key);
    } else {
      const std::size_t index = std::get<std::size_t>(tokens[t]);
      if (!node->is_array() || index >= node->as_array().size()) {
        throw SpecError(errpath, "path '" + std::string(dotted) +
                                     "' does not resolve: index " +
                                     std::to_string(index) + " out of range");
      }
      node = &node->as_array()[index];
    }
  }
  if (const auto* key = std::get_if<std::string>(&tokens.back())) {
    if (!node->is_object()) {
      throw SpecError(errpath, "path '" + std::string(dotted) +
                                   "' does not resolve to an object key");
    }
    node->as_object()[*key] = value;  // creating the leaf key is allowed
  } else {
    const std::size_t index = std::get<std::size_t>(tokens.back());
    if (!node->is_array() || index >= node->as_array().size()) {
      throw SpecError(errpath, "path '" + std::string(dotted) +
                                   "' does not resolve: index " +
                                   std::to_string(index) + " out of range");
    }
    node->as_array()[index] = value;
  }
}

ScenarioDoc with_override(const ScenarioDoc& doc, std::string_view dotted,
                          const Json& value) {
  Json j = doc.to_json();
  set_at_path(j, dotted, value, SpecPath());
  return ScenarioDoc::parse(j);
}

std::vector<ScenarioDoc> expand_grid(const ScenarioDoc& doc) {
  Json base = doc.to_json();
  if (base.is_object()) base.as_object().erase("sweep");
  if (doc.sweep.is_null()) return {ScenarioDoc::parse(base)};

  const Json::Array& axes = doc.sweep.at("axes").as_array();
  if (axes.empty()) return {ScenarioDoc::parse(base)};

  std::size_t total = 1;
  for (const Json& axis : axes) total *= axis.at("values").as_array().size();

  std::vector<ScenarioDoc> out;
  out.reserve(total);
  for (std::size_t cell = 0; cell < total; ++cell) {
    Json child = base;
    // Row-major: the first axis varies slowest (fig3.json: errors outer,
    // solvers inner).
    std::size_t rem = cell;
    std::size_t stride = total;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const SpecPath ap = SpecPath() / "sweep" / "axes" / a;
      const Json::Array& values = axes[a].at("values").as_array();
      stride /= values.size();
      const std::size_t pick = rem / stride;
      rem %= stride;
      set_at_path(child, axes[a].at("path").as_string(), values[pick],
                  ap / "path");
    }
    out.push_back(ScenarioDoc::parse(child));
  }
  return out;
}

BatchPlan plan_batch(const ScenarioDoc& doc) {
  BatchPlan plan;
  plan.docs = expand_grid(doc);
  plan.specs.reserve(plan.docs.size());
  for (std::size_t i = 0; i < plan.docs.size(); ++i) {
    exp::ScenarioSpec spec = to_scenario_spec(plan.docs[i]);
    spec.tag = static_cast<std::uint64_t>(i);
    plan.specs.push_back(std::move(spec));
  }
  if (!doc.sweep.is_null()) {
    plan.batch.base_seed =
        static_cast<std::uint64_t>(doc.sweep.at("base_seed").as_number());
    plan.batch.jobs =
        static_cast<unsigned>(doc.sweep.at("jobs").as_number());
  }
  return plan;
}

}  // namespace rt::spec
