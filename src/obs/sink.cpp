#include "obs/sink.hpp"

namespace rt::obs {

Sink::Sink() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t Sink::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void Sink::absorb(const Sink& shard, std::uint32_t worker) {
  registry_.merge(shard.registry_);
  for (const PhaseEvent& p : shard.phases_) {
    PhaseEvent copy = p;
    copy.worker = worker;
    phases_.push_back(std::move(copy));
  }
}

}  // namespace rt::obs
