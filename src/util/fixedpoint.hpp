#pragma once
// Fixed-point utilization arithmetic for schedulability tests.
//
// Theorem 3 compares a sum of up to dozens of terms C/D against 1. Exact
// rationals overflow (denominators are nanosecond periods; their LCM blows
// past int64 after a couple of additions) and doubles can flip a decision
// at the boundary. UtilFp is the middle path: a fixed denominator of 1e18,
// per-term rounding UP, and saturating addition. Any task set the test
// accepts is truly feasible (rounding up is pessimistic by < n/1e18), and
// the representation never overflows.

#include <cstdint>
#include <compare>
#include <ostream>
#include <stdexcept>
#include <string>

namespace rt {

class UtilFp {
 public:
  /// Fixed denominator: raw value 1e18 == utilization 1.0.
  static constexpr std::int64_t kOneRaw = 1'000'000'000'000'000'000LL;
  /// Saturation value, meaning "far above any capacity of interest".
  static constexpr std::int64_t kSaturatedRaw = INT64_MAX;

  constexpr UtilFp() = default;

  [[nodiscard]] static constexpr UtilFp zero() { return UtilFp{0}; }
  [[nodiscard]] static constexpr UtilFp one() { return UtilFp{kOneRaw}; }
  [[nodiscard]] static constexpr UtilFp saturated() { return UtilFp{kSaturatedRaw}; }

  /// ceil(num/den) in fixed point; throws on non-positive den or negative
  /// num; saturates instead of overflowing.
  [[nodiscard]] static UtilFp ratio_ceil(std::int64_t num, std::int64_t den) {
    if (den <= 0) throw std::invalid_argument("UtilFp: denominator must be > 0");
    if (num < 0) throw std::invalid_argument("UtilFp: negative numerator");
    const __int128 scaled = static_cast<__int128>(num) * kOneRaw;
    const __int128 q = (scaled + den - 1) / den;
    if (q >= static_cast<__int128>(kSaturatedRaw)) return saturated();
    return UtilFp{static_cast<std::int64_t>(q)};
  }

  [[nodiscard]] constexpr std::int64_t raw() const { return raw_; }
  [[nodiscard]] constexpr bool is_saturated() const { return raw_ == kSaturatedRaw; }
  [[nodiscard]] double to_double() const {
    return static_cast<double>(raw_) / static_cast<double>(kOneRaw);
  }

  /// Saturating addition (never wraps; saturation is absorbing).
  [[nodiscard]] constexpr UtilFp add_sat(UtilFp o) const {
    if (raw_ == kSaturatedRaw || o.raw_ == kSaturatedRaw ||
        raw_ > kSaturatedRaw - o.raw_) {
      return saturated();
    }
    return UtilFp{raw_ + o.raw_};
  }

  constexpr auto operator<=>(const UtilFp&) const = default;

  [[nodiscard]] std::string to_string() const {
    if (is_saturated()) return "saturated";
    return std::to_string(to_double());
  }

 private:
  constexpr explicit UtilFp(std::int64_t raw) : raw_(raw) {}
  std::int64_t raw_ = 0;
};

inline std::ostream& operator<<(std::ostream& os, UtilFp u) {
  return os << u.to_string();
}

}  // namespace rt
