#pragma once
// Convolution building blocks shared by the vision tasks.

#include "img/image.hpp"

namespace rt::img {

/// Separable Gaussian blur (5-tap binomial approximation).
Image gaussian_blur5(const Image& src);

/// Sobel gradient magnitude, normalized into [0, 1].
Image sobel_magnitude(const Image& src);

/// Binary threshold: pixel >= threshold ? 1 : 0.
Image threshold(const Image& src, float thresh);

/// Absolute per-pixel difference; dimension-checked.
Image abs_diff(const Image& a, const Image& b);

}  // namespace rt::img
