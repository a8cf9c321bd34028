// Throughput of the parallel scenario-sweep engine (google-benchmark).
//
// BM_BatchSweep runs the same Figure-3 grid (9 errors x 2 solvers =
// 18 scenarios, short horizon) at 1/2/4/8 workers. The grid is the
// checked-in examples/specs/fig3.json document shrunk via spec overrides
// (12 tasks, 20 s horizon) -- the benchmark measures exactly the workload a
// user would declare. Scenarios are embarrassingly parallel -- each owns
// its Rng and a cloned ResponseModel -- so on an N-core machine throughput
// should scale close to N until the scenario count stops dividing evenly.
// On a single-core container the worker counts tie; the
// `scenarios_per_sec` counter is the figure of merit.
//
// Results are bit-identical across worker counts (see
// tests/exp/test_batch_determinism.cpp); this file only measures speed.

#include <benchmark/benchmark.h>

#include <fstream>
#include <sstream>

#include "exp/batch.hpp"
#include "json_summary_gbench.hpp"
#include "spec/grid.hpp"

namespace {

rt::spec::BatchPlan sweep_plan() {
  const char* path = RTOFFLOAD_SPECS_DIR "/fig3.json";
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error(std::string("cannot open ") + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  rt::spec::ScenarioDoc doc = rt::spec::ScenarioDoc::parse_text(ss.str());
  doc = rt::spec::with_override(doc, "workload.num_tasks", rt::Json(12.0));
  doc = rt::spec::with_override(doc, "sim.horizon_ms", rt::Json(20000.0));
  return rt::spec::plan_batch(doc);
}

void BM_BatchSweep(benchmark::State& state) {
  rt::spec::BatchPlan plan = sweep_plan();
  plan.batch.jobs = static_cast<unsigned>(state.range(0));
  const std::size_t scenarios = plan.specs.size();
  for (auto _ : state) {
    rt::exp::BatchRunner runner(plan.batch);
    benchmark::DoNotOptimize(runner.run(plan.specs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(scenarios));
  state.counters["scenarios_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * scenarios),
      benchmark::Counter::kIsRate);
  state.counters["jobs"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_BatchSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return rtbench::run_with_json_summary(argc, argv, "BENCH_batch.json");
}
