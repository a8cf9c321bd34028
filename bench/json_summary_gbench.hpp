#pragma once
// google-benchmark adapter for the BENCH_*.json summary schema
// (json_summary.hpp): a ConsoleReporter subclass that, next to the usual
// console table, collects every iteration run and writes the common
// envelope to a fixed path in the working directory.
//
//   int main(int argc, char** argv) {
//     return rtbench::run_with_json_summary(argc, argv, "BENCH_batch.json");
//   }

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "json_summary.hpp"
#include "util/json.hpp"

namespace rtbench {

class JsonSummaryReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonSummaryReporter(std::string path) : path_(std::move(path)) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      if (run.report_big_o || run.report_rms) continue;
      rt::Json::Object entry;
      entry["name"] = run.benchmark_name();

      rt::Json::Object config;
      config["iterations"] = static_cast<std::int64_t>(run.iterations);
      config["threads"] = static_cast<std::int64_t>(run.threads);
      entry["config"] = rt::Json(std::move(config));

      rt::Json::Object metrics;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      metrics["wall_ms"] = run.real_accumulated_time / iters * 1e3;
      // items/sec when the bench reported items, else iterations/sec.
      const auto it = run.counters.find("items_per_second");
      metrics["throughput"] =
          it != run.counters.end()
              ? static_cast<double>(it->second)
              : (run.real_accumulated_time > 0.0
                     ? iters / run.real_accumulated_time
                     : 0.0);
      for (const auto& [name, counter] : run.counters) {
        metrics[name] = static_cast<double>(counter);
      }
      entry["metrics"] = rt::Json(std::move(metrics));
      entries_.emplace_back(std::move(entry));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  void Finalize() override {
    ConsoleReporter::Finalize();
    write_json_summary(path_, std::move(entries_));
  }

 private:
  std::string path_;
  rt::Json::Array entries_;
};

/// Drop-in replacement for benchmark_main's main() that adds the summary.
inline int run_with_json_summary(int argc, char** argv,
                                 const char* summary_path) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonSummaryReporter reporter{std::string(summary_path)};
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}

}  // namespace rtbench
