#pragma once
// The closed-loop workloads: one caller pushes generated spec documents
// through parse -> build/plan -> decide -> simulate and checks each
// report before sending the next.

#include <cstdint>
#include <memory>
#include <string>

#include "bench_common.hpp"

namespace rtbench {

class DocWorkload {
 public:
  virtual ~DocWorkload() = default;

  /// The text of document `index`, a pure function of (seed, index).
  virtual std::string make_doc(std::uint64_t index) = 0;

  /// Runs and checks one document. `serial` takes the per-layer entry
  /// points instead of exp::BatchRunner; only sweep_fig3 distinguishes
  /// the two, and both give bit-identical outcomes.
  virtual DocResult run_doc(const std::string& text, std::uint64_t index,
                            bool serial) = 0;

  /// True when the user path goes through exp::BatchRunner.
  [[nodiscard]] virtual bool uses_runner() const { return false; }

  /// Wall time spent inside BatchRunner::run (exp.parallel_efficiency).
  std::int64_t runner_ns = 0;
};

/// sweep_fig3, odm_admission, mc_fast or mc_fallback; throws
/// std::invalid_argument for any other name.
std::unique_ptr<DocWorkload> make_doc_workload(Env& env);

}  // namespace rtbench
