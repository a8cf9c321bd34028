// Sink / PhaseProbe: the sharding-and-merge contract of docs/ANALYSIS.md
// §8. Counters and histogram buckets are integers, so a shard merge must
// be exact and order-independent; phase events append with the absorbing
// worker's id.

#include "obs/sink.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

namespace rt::obs {
namespace {

TEST(Sink, AbsorbMergesMetricsAndRewritesWorker) {
  Sink parent;
  Sink shard;
  shard.set_origin(parent.origin());
  shard.registry().counter("n").inc(3);
  shard.registry().histogram("h").add(10);
  shard.phases().push_back(PhaseEvent{"work", 99, 100, 200});

  parent.registry().counter("n").inc(1);
  parent.absorb(shard, 7);

  EXPECT_EQ(parent.registry().counter("n").value(), 4u);
  EXPECT_EQ(parent.registry().histogram("h").count(), 1u);
  ASSERT_EQ(parent.phases().size(), 1u);
  EXPECT_EQ(parent.phases()[0].worker, 7u);  // id rewritten on absorb
  EXPECT_EQ(parent.phases()[0].name, "work");
  EXPECT_EQ(parent.phases()[0].start_ns, 100);
  EXPECT_EQ(parent.phases()[0].end_ns, 200);
}

TEST(PhaseProbe, RecordsIntervalAndHistogram) {
  Sink sink;
  {
    PhaseProbe probe(&sink, "scenario 3",
                     &sink.registry().histogram("dur_ns"));
  }
  ASSERT_EQ(sink.phases().size(), 1u);
  const PhaseEvent& p = sink.phases()[0];
  EXPECT_EQ(p.name, "scenario 3");
  EXPECT_GE(p.end_ns, p.start_ns);
  EXPECT_EQ(sink.registry().histogram("dur_ns").count(), 1u);
}

TEST(PhaseProbe, NullSinkIsNoOp) {
  PhaseProbe probe(nullptr, "never recorded");
  // Nothing to assert beyond "does not crash"; the allocation guarantee is
  // enforced by tests/obs/overhead_test.cpp.
}

TEST(Sink, ShardsShareTheParentTimeOrigin) {
  Sink parent;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Sink shard;
  Sink unaligned;
  shard.set_origin(parent.origin());
  EXPECT_EQ(shard.origin(), parent.origin());
  // A shard's clock must be comparable with the parent's: both measure
  // nanoseconds since the parent's origin, which a sink created later
  // does not.
  const std::int64_t unaligned_now = unaligned.now_ns();
  const std::int64_t parent_now = parent.now_ns();
  const std::int64_t shard_now = shard.now_ns();
  EXPECT_GE(shard_now, parent_now);
  EXPECT_LT(shard_now - parent_now, 1'000'000'000);  // within a second
  EXPECT_LE(unaligned_now + 20'000'000, shard_now);
}

}  // namespace
}  // namespace rt::obs
