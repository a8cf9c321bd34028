// BenefitDrivenResponse's integer guide-table draw against the
// floating-point count it replaced: for every draw k the model must return
// the response that u = k * 2^-53 selects by counting the breakpoint values
// below u. The probe set covers every threshold and every guide-bucket edge,
// on random curves with duplicate and zero values, values on the 2^-53
// lattice and between its points, a maximum below 1 (the kNoResponse
// tail), a maximum just above 1, and one- and two-point streams.

#include "sim/benefit_response.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace rt::sim {
namespace {

constexpr std::uint64_t kDrawEnd = std::uint64_t{1} << 53;  // k < 2^53
constexpr int kShift = 53 - BenefitDrivenResponse::kGuideBits;

/// The sampler as it was: u = k * 2^-53 (exactly Rng::uniform()), then
/// j = #{breakpoints j >= 1 with value < u} selects breakpoint j + 1, or
/// kNoResponse past the last one.
Duration float_count(const core::BenefitFunction& g, std::uint64_t k) {
  const double u = static_cast<double>(k) * 0x1.0p-53;
  const std::vector<core::BenefitPoint>& p = g.points();
  std::size_t j = 0;
  for (std::size_t i = 1; i < p.size(); ++i) {
    j += static_cast<std::size_t>(p[i].value < u);
  }
  return j + 1 < p.size() ? p[j + 1].response_time : server::kNoResponse;
}

core::BenefitFunction curve(const std::vector<double>& values) {
  std::vector<core::BenefitPoint> points;
  for (std::size_t j = 0; j < values.size(); ++j) {
    points.push_back({Duration::from_ms(static_cast<double>(10 * j)), values[j]});
  }
  return core::BenefitFunction(std::move(points));
}

/// A random non-decreasing curve of 1..12 points whose values mix zeros,
/// repeats, lattice points m * 2^-53 (bucket edges among them), values
/// between lattice points and plain doubles, capped at `max`.
core::BenefitFunction random_curve(Rng& rng, double max) {
  const auto n = static_cast<std::size_t>(rng.uniform_int(1, 12));
  std::vector<double> values;
  for (std::size_t j = 0; j < n; ++j) {
    double v = 0.0;
    switch (rng.uniform_int(0, 6)) {
      case 0:
        v = 0.0;
        break;
      case 1:
        v = values.empty() ? 0.0 : values.back();
        break;
      case 2: {
        const auto b = static_cast<std::uint64_t>(
            rng.uniform_int(0, (1 << BenefitDrivenResponse::kGuideBits) - 1));
        const std::int64_t m =
            static_cast<std::int64_t>(b << kShift) + rng.uniform_int(-1, 1);
        v = std::ldexp(static_cast<double>(m), -53);
        break;
      }
      case 3:
        v = std::ldexp(static_cast<double>(rng.next() >> 11), -53);
        break;
      case 4:  // below 1/2, off the lattice in most low bits
        v = std::ldexp(rng.uniform(),
                       -static_cast<int>(rng.uniform_int(1, 60)));
        break;
      case 5:  // two decimals, like a measured probability
        v = static_cast<double>(rng.uniform_int(0, 100)) / 100.0;
        break;
      default:
        v = rng.uniform();
        break;
    }
    values.push_back(std::clamp(v, 0.0, max));
  }
  std::sort(values.begin(), values.end());
  if (rng.bernoulli(0.5)) values.back() = max;
  return curve(values);
}

/// Every k worth probing on curve g: each threshold t_j - 1, t_j, t_j + 1,
/// every guide-bucket edge +-1, both ends of the draw range.
std::vector<std::uint64_t> probes(const core::BenefitFunction& g) {
  std::vector<std::uint64_t> ks = {0, 1, kDrawEnd - 2, kDrawEnd - 1};
  const auto add_around = [&](std::uint64_t t) {
    for (std::uint64_t k : {t - 1, t, t + 1}) {
      if (k < kDrawEnd) ks.push_back(k);  // t - 1 wraps at t = 0
    }
  };
  for (const core::BenefitPoint& p : g.points()) {
    add_around(static_cast<std::uint64_t>(std::floor(std::ldexp(p.value, 53))));
  }
  for (std::uint64_t b = 0; b <= (1u << BenefitDrivenResponse::kGuideBits);
       ++b) {
    add_around(b << kShift);
  }
  return ks;
}

void expect_matches_float_count(const std::vector<core::BenefitFunction>& gs,
                                Rng& rng) {
  const BenefitDrivenResponse model(gs);
  for (std::size_t s = 0; s < gs.size(); ++s) {
    SCOPED_TRACE("stream " + std::to_string(s) + ": " + gs[s].to_string());
    std::vector<std::uint64_t> ks = probes(gs[s]);
    for (int i = 0; i < 64; ++i) ks.push_back(rng.next() >> 11);
    for (const std::uint64_t k : ks) {
      ASSERT_EQ(model.response_at(s, k), float_count(gs[s], k)) << "k=" << k;
    }
  }
}

TEST(BenefitDrivenResponse, UniformIsTheTopFiftyThreeBitsOfNext) {
  // The integer draw is exact only while uniform() is k * 2^-53 for
  // k = next() >> 11 from one next() call.
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    Rng copy = rng;
    const double u = rng.uniform();
    EXPECT_EQ(u, static_cast<double>(copy.next() >> 11) * 0x1.0p-53);
    EXPECT_EQ(rng.next(), copy.next());  // both advanced by one word
  }
}

TEST(BenefitDrivenResponse, MatchesFloatCountOnRandomCurves) {
  Rng rng(2014);
  for (int round = 0; round < 200; ++round) {
    std::vector<core::BenefitFunction> gs;
    const auto streams = static_cast<std::size_t>(rng.uniform_int(1, 6));
    for (std::size_t s = 0; s < streams; ++s) {
      double max = 1.0;
      switch (rng.uniform_int(0, 2)) {
        case 0:
          max = rng.uniform(0.0, 1.0);  // kNoResponse tail
          break;
        case 1:
          max = 1.0 + rng.uniform(0.0, 1e-12);
          break;
        default:
          break;
      }
      gs.push_back(random_curve(rng, max));
    }
    expect_matches_float_count(gs, rng);
  }
}

TEST(BenefitDrivenResponse, MatchesFloatCountOnEdgeCurves) {
  const double lattice = std::ldexp(1.0, -53);
  const double edge = std::ldexp(1.0, -BenefitDrivenResponse::kGuideBits);
  std::vector<core::BenefitFunction> gs = {
      curve({0.3}),                                  // local point only
      curve({0.0, 0.0}),                             // one breakpoint at 0
      curve({0.0, 1.0}),
      curve({0.1, 1.0 + 1e-12}),
      curve({0.0, 0.0, 0.0, 0.5, 0.5, 0.5}),         // zero and repeats
      curve({0.0, lattice, 2 * lattice, edge - lattice, edge, edge + lattice}),
      curve({0.0, edge, edge, 3 * edge, 1.0 - lattice}),
      curve({0.2, 0.25, 0.5, 0.75, 0.999}),          // tail above 0.999
      curve({0.0, 0.1, 0.2, 0.3, 1.0 / 3, 0.45}),    // between lattice points
      curve({0.0, 1e-300, 1e-17, 1e-16, 3e-16}),     // below 2^-53 and near it
  };
  Rng rng(7);
  expect_matches_float_count(gs, rng);
}

TEST(BenefitDrivenResponse, SampleAndSampleNDrawOneWordPerCall) {
  Rng rng(3);
  std::vector<core::BenefitFunction> gs;
  for (int s = 0; s < 4; ++s) gs.push_back(random_curve(rng, 1.0));
  BenefitDrivenResponse model(gs);
  const std::unique_ptr<server::ResponseModel> copy = model.clone();
  for (std::size_t s = 0; s < gs.size(); ++s) {
    server::Request req;
    req.stream_id = s;
    std::vector<Rng> lanes;
    for (std::uint64_t i = 0; i < 16; ++i) lanes.emplace_back(100 * s + i);
    std::vector<Rng> mirror = lanes;
    std::vector<Rng> cloned = lanes;
    std::vector<Duration> out(lanes.size());
    model.sample_n(req, lanes, out);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      Rng word = mirror[i];
      EXPECT_EQ(out[i], float_count(gs[s], word.next() >> 11));
      EXPECT_EQ(model.sample(req, mirror[i]), out[i]);
      EXPECT_EQ(copy->sample(req, cloned[i]), out[i]);
      EXPECT_EQ(mirror[i].next(), lanes[i].next());
    }
  }
}

TEST(BenefitDrivenResponse, RejectsBadInput) {
  const std::vector<core::BenefitFunction> none;
  EXPECT_THROW(BenefitDrivenResponse{none}, std::invalid_argument);
  const std::vector<core::BenefitFunction> above = {curve({0.0, 1.0 + 1e-9})};
  EXPECT_THROW(BenefitDrivenResponse{above}, std::invalid_argument);
  BenefitDrivenResponse model({curve({0.0, 1.0}), curve({0.5})});
  server::Request req;
  req.stream_id = 2;
  Rng rng(1);
  EXPECT_THROW(model.sample(req, rng), std::out_of_range);
  std::vector<Rng> lanes(1);
  std::vector<Duration> out(1);
  EXPECT_THROW(model.sample_n(req, lanes, out), std::out_of_range);
  req.stream_id = 1;
  EXPECT_THROW(model.sample_n(req, lanes, std::span<Duration>{}),
               std::invalid_argument);
  EXPECT_EQ(model.sample(req, rng), server::kNoResponse);
}

}  // namespace
}  // namespace rt::sim
