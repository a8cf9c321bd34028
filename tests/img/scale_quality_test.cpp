#include <gtest/gtest.h>

#include <cmath>

#include "img/quality.hpp"
#include "img/scale.hpp"

namespace rt::img {
namespace {

TEST(Resize, TargetDimensionsRespected) {
  const Image src = make_scene(100, 80, {.seed = 1});
  const Image down = resize(src, 25, 20);
  EXPECT_EQ(down.width(), 25);
  EXPECT_EQ(down.height(), 20);
  EXPECT_THROW(resize(src, 0, 10), std::invalid_argument);
  EXPECT_THROW(resize(Image{}, 10, 10), std::invalid_argument);
}

TEST(Resize, IdentitySizeKeepsContentApproximately) {
  const Image src = make_scene(64, 64, {.seed = 2});
  const Image same = resize(src, 64, 64);
  EXPECT_GT(psnr(src, same), 50.0);  // bilinear at 1:1 is near-lossless
}

TEST(Resize, NearestPreservesValueSet) {
  Image src(2, 2);
  src.at(0, 0) = 0.0f;
  src.at(1, 0) = 1.0f;
  src.at(0, 1) = 0.25f;
  src.at(1, 1) = 0.75f;
  const Image up = resize(src, 8, 8, ScaleFilter::kNearest);
  for (const float p : up.data()) {
    EXPECT_TRUE(p == 0.0f || p == 1.0f || p == 0.25f || p == 0.75f);
  }
}

TEST(LevelFraction, EndpointsAndValidation) {
  EXPECT_DOUBLE_EQ(level_fraction(5, 5), 1.0);
  EXPECT_DOUBLE_EQ(level_fraction(1, 5), 0.2);
  EXPECT_DOUBLE_EQ(level_fraction(1, 1), 1.0);
  EXPECT_THROW(level_fraction(0, 5), std::invalid_argument);
  EXPECT_THROW(level_fraction(6, 5), std::invalid_argument);
  EXPECT_THROW(level_fraction(1, 0), std::invalid_argument);
}

TEST(ScaleToLevel, TopLevelIsOriginal) {
  const Image src = make_scene(60, 40, {.seed = 3});
  const Image top = scale_to_level(src, 5, 5);
  EXPECT_EQ(top, src);
  const Image small = scale_to_level(src, 1, 5);
  EXPECT_EQ(small.width(), 12);
  EXPECT_EQ(small.height(), 8);
}

TEST(RoundTrip, TopLevelIsLossless) {
  const Image src = make_scene(60, 40, {.seed = 4});
  EXPECT_DOUBLE_EQ(psnr(src, round_trip(src, 5, 5)), kPsnrCap);
}

TEST(RoundTrip, QualityIncreasesWithLevel) {
  // The core empirical fact behind Table 1: PSNR rises with scaling level.
  const Image src = make_scene(120, 90, {.seed = 5});
  double prev = 0.0;
  for (int level = 1; level <= 5; ++level) {
    const double q = psnr(src, round_trip(src, level, 5));
    EXPECT_GT(q, prev) << "level " << level;
    prev = q;
  }
  EXPECT_DOUBLE_EQ(prev, kPsnrCap);  // full resolution: capped
}

TEST(LevelPayloadBytes, ScalesQuadratically) {
  EXPECT_EQ(level_payload_bytes(100, 100, 5, 5), 10'000u);
  EXPECT_EQ(level_payload_bytes(100, 100, 1, 5), 400u);  // (20x20)
  EXPECT_GT(level_payload_bytes(100, 100, 3, 5),
            level_payload_bytes(100, 100, 2, 5));
}

TEST(Mse, ZeroForIdenticalImages) {
  const Image a = make_scene(32, 32, {.seed = 6});
  EXPECT_DOUBLE_EQ(mse(a, a), 0.0);
  EXPECT_DOUBLE_EQ(psnr(a, a), kPsnrCap);
}

TEST(Mse, KnownValue) {
  Image a(2, 1, 0.0f), b(2, 1);
  b.at(0, 0) = 0.5f;
  b.at(1, 0) = 0.0f;
  EXPECT_DOUBLE_EQ(mse(a, b), 0.125);
  EXPECT_NEAR(psnr(a, b), 10.0 * std::log10(8.0), 1e-9);
}

TEST(Mse, DimensionMismatchThrows) {
  EXPECT_THROW(mse(Image(2, 2), Image(3, 2)), std::invalid_argument);
  EXPECT_THROW(mse(Image{}, Image{}), std::invalid_argument);
  EXPECT_THROW(psnr(Image(2, 2), Image(2, 3)), std::invalid_argument);
}

TEST(Psnr, MonotoneInNoise) {
  const Image src = make_scene(48, 48, {.seed = 7});
  Image mild = src, strong = src;
  for (std::size_t i = 0; i < src.size(); ++i) {
    mild.data()[i] += (i % 2 ? 0.01f : -0.01f);
    strong.data()[i] += (i % 2 ? 0.1f : -0.1f);
  }
  EXPECT_GT(psnr(src, mild), psnr(src, strong));
}

}  // namespace
}  // namespace rt::img
