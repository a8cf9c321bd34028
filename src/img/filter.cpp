#include "img/filter.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rt::img {

Image gaussian_blur5(const Image& src) {
  if (src.empty()) throw std::invalid_argument("gaussian_blur5: empty image");
  // Binomial [1 4 6 4 1]/16, horizontal then vertical.
  constexpr float k[5] = {1.0f / 16, 4.0f / 16, 6.0f / 16, 4.0f / 16, 1.0f / 16};
  Image tmp(src.width(), src.height());
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      float acc = 0.0f;
      for (int i = -2; i <= 2; ++i) acc += k[i + 2] * src.at_clamped(x + i, y);
      tmp.at(x, y) = acc;
    }
  }
  Image out(src.width(), src.height());
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      float acc = 0.0f;
      for (int i = -2; i <= 2; ++i) acc += k[i + 2] * tmp.at_clamped(x, y + i);
      out.at(x, y) = acc;
    }
  }
  return out;
}

Image sobel_magnitude(const Image& src) {
  if (src.empty()) throw std::invalid_argument("sobel_magnitude: empty image");
  Image out(src.width(), src.height());
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      const float gx = -src.at_clamped(x - 1, y - 1) - 2.0f * src.at_clamped(x - 1, y) -
                       src.at_clamped(x - 1, y + 1) + src.at_clamped(x + 1, y - 1) +
                       2.0f * src.at_clamped(x + 1, y) + src.at_clamped(x + 1, y + 1);
      const float gy = -src.at_clamped(x - 1, y - 1) - 2.0f * src.at_clamped(x, y - 1) -
                       src.at_clamped(x + 1, y - 1) + src.at_clamped(x - 1, y + 1) +
                       2.0f * src.at_clamped(x, y + 1) + src.at_clamped(x + 1, y + 1);
      // Max |gx| + |gy| is 8 for unit-range input; normalize into [0, 1].
      out.at(x, y) = std::min(1.0f, std::sqrt(gx * gx + gy * gy) / 4.0f);
    }
  }
  return out;
}

Image threshold(const Image& src, float thresh) {
  Image out(src.width(), src.height());
  for (int y = 0; y < src.height(); ++y) {
    for (int x = 0; x < src.width(); ++x) {
      out.at(x, y) = src.at(x, y) >= thresh ? 1.0f : 0.0f;
    }
  }
  return out;
}

Image abs_diff(const Image& a, const Image& b) {
  if (a.width() != b.width() || a.height() != b.height()) {
    throw std::invalid_argument("abs_diff: dimension mismatch");
  }
  Image out(a.width(), a.height());
  for (std::size_t i = 0; i < a.data().size(); ++i) {
    out.data()[i] = std::fabs(a.data()[i] - b.data()[i]);
  }
  return out;
}

}  // namespace rt::img
