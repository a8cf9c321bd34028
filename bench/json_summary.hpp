#pragma once
// Machine-readable summaries of the two hand-rolled timing harnesses,
// bench_adaptive and bench_runtime, so their BENCH_*.json files can be
// diffed without scraping stdout. Performance claims are measured by
// rtoffload_bench/, not by these files.
//
//   {
//     "git_describe": "v0-42-gabc1234",
//     "benchmarks": [
//       {"name": ...,
//        "config":  {"iterations": ..., "threads": ...},
//        "metrics": {"wall_ms": ..., "throughput": ..., <counters>...}},
//       ...
//     ]
//   }
//
// Each harness builds its own config/metrics objects and calls
// write_json_summary().

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>

#include "util/json.hpp"

namespace rtbench {

/// `git describe --tags --always --dirty` of the working tree, so every
/// summary records which revision produced it; "unknown" outside a
/// checkout (e.g. an extracted release tarball).
inline std::string git_describe() {
  FILE* pipe =
      ::popen("git describe --tags --always --dirty 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  std::string out;
  char buf[128];
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

/// Writes the common summary envelope around caller-built benchmark
/// entries; each entry should be {"name", "config", "metrics"}.
inline void write_json_summary(const std::string& path,
                               rt::Json::Array benchmarks) {
  rt::Json::Object root;
  root["git_describe"] = git_describe();
  root["benchmarks"] = rt::Json(std::move(benchmarks));
  std::ofstream out(path);
  if (!out) {
    std::cerr << "warning: cannot write bench summary '" << path << "'\n";
    return;
  }
  out << rt::Json(std::move(root)).dump(2) << "\n";
  std::cerr << "bench summary written to " << path << "\n";
}

/// Convenience for single-entry hand-rolled suites.
inline void write_json_summary(const std::string& path, std::string name,
                               rt::Json config, rt::Json metrics) {
  rt::Json::Object entry;
  entry["name"] = std::move(name);
  entry["config"] = std::move(config);
  entry["metrics"] = std::move(metrics);
  rt::Json::Array benchmarks;
  benchmarks.emplace_back(std::move(entry));
  write_json_summary(path, std::move(benchmarks));
}

}  // namespace rtbench
