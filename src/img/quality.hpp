#pragma once
// Image quality metrics.
//
// Table 1 of the paper uses PSNR as the quantitative benefit value and caps
// the full-resolution (identical-image) case at 99 dB -- we reproduce both
// conventions.

#include "img/image.hpp"

namespace rt::img {

/// PSNR cap used by the paper for lossless (identical) images.
inline constexpr double kPsnrCap = 99.0;

/// Mean squared error; throws std::invalid_argument on dimension mismatch
/// or empty images.
double mse(const Image& a, const Image& b);

/// Peak signal-to-noise ratio in dB for unit dynamic range, clamped to
/// kPsnrCap (identical images would otherwise be +inf).
double psnr(const Image& a, const Image& b);

}  // namespace rt::img
