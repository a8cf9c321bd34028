#include "img/quality.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rt::img {

namespace {
void check_pair(const Image& a, const Image& b, const char* who) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument(std::string(who) + ": empty image");
  }
  if (a.width() != b.width() || a.height() != b.height()) {
    throw std::invalid_argument(std::string(who) + ": dimension mismatch");
  }
}
}  // namespace

double mse(const Image& a, const Image& b) {
  check_pair(a, b, "mse");
  double acc = 0.0;
  const auto& pa = a.data();
  const auto& pb = b.data();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const double d = static_cast<double>(pa[i]) - static_cast<double>(pb[i]);
    acc += d * d;
  }
  return acc / static_cast<double>(pa.size());
}

double psnr(const Image& a, const Image& b) {
  const double e = mse(a, b);
  if (e <= 0.0) return kPsnrCap;
  const double v = 10.0 * std::log10(1.0 / e);
  return std::min(v, kPsnrCap);
}

}  // namespace rt::img
