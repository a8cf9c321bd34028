#include "img/vision.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "img/scale.hpp"

namespace rt::img {
namespace {

TEST(GaussianBlur5, PreservesFlatFieldsAndReducesVariance) {
  const Image flat(20, 20, 0.37f);
  const Image blurred = gaussian_blur5(flat);
  for (const float p : blurred.data()) EXPECT_NEAR(p, 0.37f, 1e-6);

  const Image noisy = make_scene(40, 40, {.seed = 2, .texture_amplitude = 0.3});
  const Image smooth = gaussian_blur5(noisy);
  auto variance = [](const Image& im) {
    const double m = im.mean();
    double acc = 0.0;
    for (const float p : im.data()) acc += (p - m) * (p - m);
    return acc / static_cast<double>(im.size());
  };
  EXPECT_LT(variance(smooth), variance(noisy));
}

TEST(SobelMagnitude, RespondsToStepEdge) {
  Image src(10, 10, 0.0f);
  for (int y = 0; y < 10; ++y) {
    for (int x = 5; x < 10; ++x) src.at(x, y) = 1.0f;
  }
  const Image mag = sobel_magnitude(src);
  EXPECT_GT(mag.at(4, 5), 0.5f);   // on the edge
  EXPECT_FLOAT_EQ(mag.at(1, 5), 0.0f);  // flat region
  EXPECT_FLOAT_EQ(mag.at(8, 5), 0.0f);
}

TEST(Threshold, Binarizes) {
  Image src(2, 1);
  src.at(0, 0) = 0.3f;
  src.at(1, 0) = 0.7f;
  const Image out = threshold(src, 0.5f);
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.0f);
  EXPECT_FLOAT_EQ(out.at(1, 0), 1.0f);
}

TEST(EdgeDetect, FindsObjectBoundaries) {
  Image src(40, 40, 0.2f);
  for (int y = 10; y < 30; ++y) {
    for (int x = 10; x < 30; ++x) src.at(x, y) = 0.9f;
  }
  const Image edges = edge_detect(src);
  double edge_pixels = 0.0;
  for (const float p : edges.data()) edge_pixels += p;
  EXPECT_GT(edge_pixels, 40.0);    // roughly the rectangle perimeter
  EXPECT_LT(edge_pixels, 400.0);   // not the whole image
  EXPECT_FLOAT_EQ(edges.at(20, 20), 0.0f);  // interior is flat
}

TEST(StereoDisparity, RecoversUniformShift) {
  // Right image = left shifted by exactly 4 pixels: textured content so the
  // block matcher has signal everywhere.
  const Image left = make_scene(64, 32, {.seed = 3, .texture_amplitude = 0.2});
  Image right(64, 32);
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 64; ++x) right.at(x, y) = left.at_clamped(x + 4, y);
  }
  // NOTE: convention -- right content appears shifted LEFT by the disparity,
  // so we match left(x) against right(x - d)... here right(x) = left(x+4)
  // means left(x) = right(x-4): disparity 4.
  const Image disp = stereo_disparity(left, right, 8, 2);
  int correct = 0, total = 0;
  for (int y = 4; y < 28; ++y) {
    for (int x = 8; x < 52; ++x) {
      ++total;
      if (std::abs(disp.at(x, y) - 4.0f / 8.0f) < 1e-4) ++correct;
    }
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.85);
}

TEST(StereoDisparity, Validation) {
  EXPECT_THROW(stereo_disparity(Image(4, 4), Image(5, 4), 4), std::invalid_argument);
  EXPECT_THROW(stereo_disparity(Image(4, 4), Image(4, 4), 0), std::invalid_argument);
  EXPECT_THROW(stereo_disparity(Image(4, 4), Image(4, 4), 2, -1),
               std::invalid_argument);
}

TEST(MatchTemplate, LocatesEmbeddedPatch) {
  const Image scene = make_scene(80, 60, {.seed = 4});
  const Image templ = crop(scene, 31, 17, 12, 12);
  const MatchResult res = match_template(scene, templ);
  EXPECT_EQ(res.x, 31);
  EXPECT_EQ(res.y, 17);
  EXPECT_NEAR(res.score, 1.0, 1e-6);
}

TEST(MatchTemplate, ScoreDegradesOffTarget) {
  const Image scene = make_scene(60, 60, {.seed = 5});
  Image templ = crop(scene, 20, 20, 10, 10);
  for (auto& p : templ.data()) p = 1.0f - p;  // anti-correlated template
  const MatchResult res = match_template(scene, templ);
  EXPECT_LT(res.score, 0.9);
}

TEST(MatchTemplate, Validation) {
  EXPECT_THROW(match_template(Image(4, 4), Image(5, 5)), std::invalid_argument);
  EXPECT_THROW(match_template(Image{}, Image{}), std::invalid_argument);
}

TEST(DetectMotion, QuietWhenNothingMoves) {
  const MotionPair pair = make_motion_pair(64, 48, 6, 0, 4);
  const MotionResult res = detect_motion(pair.frame0, pair.frame1);
  EXPECT_DOUBLE_EQ(res.changed_ratio, 0.0);
}

TEST(DetectMotion, FiresOnMovedObjects) {
  const MotionPair pair = make_motion_pair(64, 48, 6, 3, 6);
  const MotionResult res = detect_motion(pair.frame0, pair.frame1);
  EXPECT_GT(res.changed_ratio, 0.005);
  EXPECT_LT(res.changed_ratio, 0.8);
  EXPECT_EQ(res.mask.width(), 64);
}

TEST(DetectMotion, MoreMotionMoreChange) {
  const MotionPair small = make_motion_pair(96, 64, 7, 1, 4);
  const MotionPair large = make_motion_pair(96, 64, 7, 5, 4);
  EXPECT_GT(detect_motion(large.frame0, large.frame1).changed_ratio,
            detect_motion(small.frame0, small.frame1).changed_ratio);
}

}  // namespace
}  // namespace rt::img
