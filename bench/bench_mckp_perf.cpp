// Performance micro-benchmarks for the MCKP solver family (google-benchmark).
//
// The ODM runs these solvers online (admission / mode changes), so their
// cost matters: the paper picked the pseudo-polynomial DP because n and Q_i
// are small; HEU-OE exists for when they are not.

#include <benchmark/benchmark.h>

#include "core/odm.hpp"
#include "json_summary_gbench.hpp"
#include "core/workload.hpp"
#include "support/branch_bound.hpp"
#include "mckp/solvers.hpp"
#include "obs/sink.hpp"
#include "util/rng.hpp"

namespace {

rt::mckp::Instance make_instance(int classes, int items, std::uint64_t seed) {
  rt::Rng rng(seed);
  rt::mckp::Instance inst;
  inst.capacity = 1'000'000;
  for (int c = 0; c < classes; ++c) {
    std::vector<rt::mckp::Item> cls;
    cls.push_back({rng.uniform_int(0, 40'000), rng.uniform(0.0, 0.3)});
    for (int j = 1; j < items; ++j) {
      cls.push_back({rng.uniform_int(20'000, 400'000), rng.uniform(0.1, 1.0)});
    }
    inst.classes.push_back(std::move(cls));
  }
  return inst;
}

void BM_DpProfits(benchmark::State& state) {
  const auto inst = make_instance(static_cast<int>(state.range(0)), 10, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::mckp::solve_dp_profits(inst, 1000.0));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DpProfits)->RangeMultiplier(2)->Range(4, 64)->Complexity();

void BM_DpWeights(benchmark::State& state) {
  const auto inst = make_instance(static_cast<int>(state.range(0)), 10, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::mckp::solve_dp_weights(inst, 10'000));
  }
}
BENCHMARK(BM_DpWeights)->RangeMultiplier(2)->Range(4, 64);

void BM_HeuOe(benchmark::State& state) {
  const auto inst = make_instance(static_cast<int>(state.range(0)), 10, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::mckp::solve_greedy_heu_oe(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_HeuOe)->RangeMultiplier(2)->Range(4, 256)->Complexity();

void BM_BranchBound(benchmark::State& state) {
  // Exact on real-valued profits but exponential in the worst case: past
  // ~16 classes of these adversarial random instances the node budget
  // blows -- which is exactly why the paper uses the pseudo-polynomial DP.
  const auto inst = make_instance(static_cast<int>(state.range(0)), 10, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::mckp::solve_branch_bound(inst));
  }
}
BENCHMARK(BM_BranchBound)->RangeMultiplier(2)->Range(4, 16);

void BM_BruteForce(benchmark::State& state) {
  const auto inst = make_instance(static_cast<int>(state.range(0)), 4, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::mckp::solve_brute_force(inst));
  }
}
BENCHMARK(BM_BruteForce)->DenseRange(4, 10, 2);

void BM_LpBound(benchmark::State& state) {
  const auto inst = make_instance(static_cast<int>(state.range(0)), 10, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::mckp::lp_upper_bound(inst));
  }
}
BENCHMARK(BM_LpBound)->RangeMultiplier(4)->Range(4, 256);

void BM_OdmEndToEnd(benchmark::State& state) {
  rt::Rng rng(7);
  rt::core::PaperSimConfig cfg;
  cfg.num_tasks = static_cast<int>(state.range(0));
  const auto tasks = rt::core::make_paper_simulation_taskset(rng, cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rt::core::decide_offloading(tasks));
  }
  // How much work the plain-dominance prepass saves the profit DP.
  const auto odm = rt::core::build_odm_instance(tasks, {});
  std::size_t total = 0, kept = 0;
  for (const auto& cls : odm.instance.classes) {
    total += cls.size();
    kept += rt::mckp::reduce_class(cls).undominated.size();
  }
  state.counters["items"] = static_cast<double>(total);
  state.counters["items_after_pruning"] = static_cast<double>(kept);
  // Cells the profit DP computes per decision (its live rows, before dead
  // cells are dropped), from one extra traced solve.
  rt::obs::Sink sink;
  rt::core::OdmConfig traced;
  traced.sink = &sink;
  benchmark::DoNotOptimize(rt::core::decide_offloading(tasks, traced));
  const auto* cells = sink.registry().find_histogram("mckp.dp_cells");
  state.counters["dp_cells"] =
      cells != nullptr ? static_cast<double>(cells->sum()) : 0.0;
}
BENCHMARK(BM_OdmEndToEnd)->RangeMultiplier(2)->Range(8, 64);

}  // namespace

int main(int argc, char** argv) {
  return rtbench::run_with_json_summary(argc, argv, "BENCH_mckp.json");
}
