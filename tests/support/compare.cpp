#include "support/compare.hpp"

#include <bit>
#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>

namespace rt {
namespace {

/// Records the first field that differs, with where it is ("task 3 ").
class FirstDiff {
 public:
  void at(std::string where) { where_ = std::move(where); }
  [[nodiscard]] bool found() const { return !message_.empty(); }

  template <class T>
  void operator()(const char* field, const T& a, const T& b) {
    if (found() || same(a, b)) return;
    std::ostringstream msg;
    msg << where_ << field << ": " << std::setprecision(17) << text(a) << " vs "
        << text(b);
    message_ = msg.str();
  }

  [[nodiscard]] ::testing::AssertionResult result() const {
    if (!found()) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << message_;
  }

 private:
  /// What `out << v` prints; iostreams have no __int128 output.
  template <class T>
  static auto text(const T& v) {
    if constexpr (std::is_same_v<T, __int128>) {
      const bool negative = v < 0;
      // Digits of |v| from the least significant, as an unsigned value so
      // the most negative __int128 has one too.
      auto rest = negative ? -static_cast<unsigned __int128>(v)
                           : static_cast<unsigned __int128>(v);
      std::string digits;
      do {
        digits.insert(digits.begin(), static_cast<char>('0' + rest % 10));
        rest /= 10;
      } while (rest != 0);
      return negative ? "-" + digits : digits;
    } else {
      return v;
    }
  }

  template <class T>
  static bool same(const T& a, const T& b) {
    if constexpr (std::is_same_v<T, double>) {
      return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
    } else {
      return a == b;
    }
  }

  std::string where_;
  std::string message_;
};

// Compares `a.<expr>` with `b.<expr>`, named by the expression itself.
#define RT_COMPARE(diff, a, b, expr) diff(#expr, (a).expr, (b).expr)

}  // namespace

namespace sim {

::testing::AssertionResult metrics_equal(const SimMetrics& a, const SimMetrics& b) {
  FirstDiff d;
  RT_COMPARE(d, a, b, per_task.size());
  for (std::size_t i = 0; i < a.per_task.size() && !d.found(); ++i) {
    const TaskMetrics& x = a.per_task[i];
    const TaskMetrics& y = b.per_task[i];
    d.at("task " + std::to_string(i) + " ");
    RT_COMPARE(d, x, y, released);
    RT_COMPARE(d, x, y, completed);
    RT_COMPARE(d, x, y, deadline_misses);
    RT_COMPARE(d, x, y, local_runs);
    RT_COMPARE(d, x, y, offload_attempts);
    RT_COMPARE(d, x, y, timely_results);
    RT_COMPARE(d, x, y, compensations);
    RT_COMPARE(d, x, y, late_results);
    RT_COMPARE(d, x, y, accrued_benefit);
    RT_COMPARE(d, x, y, observed_response_ms.count());
    RT_COMPARE(d, x, y, observed_response_ms.sum_ns());
    RT_COMPARE(d, x, y, observed_response_ms.sum_sq_ns2());
    RT_COMPARE(d, x, y, observed_response_ms.min_ns());
    RT_COMPARE(d, x, y, observed_response_ms.max_ns());
  }
  d.at("");
  RT_COMPARE(d, a, b, cpu_busy_ns);
  RT_COMPARE(d, a, b, context_switches);
  RT_COMPARE(d, a, b, trace_truncated);
  RT_COMPARE(d, a, b, mode_changes);
  RT_COMPARE(d, a, b, time_in_degraded_ns);
  RT_COMPARE(d, a, b, end_time.ns());
  return d.result();
}

::testing::AssertionResult traces_equal(const Trace& a, const Trace& b) {
  FirstDiff d;
  RT_COMPARE(d, a, b, events().size());
  RT_COMPARE(d, a, b, truncated());
  for (std::size_t i = 0; i < a.events().size() && !d.found(); ++i) {
    const TraceEvent& x = a.events()[i];
    const TraceEvent& y = b.events()[i];
    d.at("trace event " + std::to_string(i) + " ");
    RT_COMPARE(d, x, y, time.ns());
    d("kind", std::string(to_string(x.kind)), std::string(to_string(y.kind)));
    RT_COMPARE(d, x, y, task);
    RT_COMPARE(d, x, y, job);
  }
  return d.result();
}

::testing::AssertionResult no_misses(const SimMetrics& m) {
  for (std::size_t i = 0; i < m.per_task.size(); ++i) {
    if (m.per_task[i].deadline_misses != 0) {
      return ::testing::AssertionFailure()
             << "task " << i << " deadline_misses: " << m.per_task[i].deadline_misses;
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace sim

namespace core {

::testing::AssertionResult decisions_equal(const DecisionVector& a,
                                           const DecisionVector& b) {
  FirstDiff d;
  d("size()", a.size(), b.size());
  for (std::size_t i = 0; i < a.size() && !d.found(); ++i) {
    d.at("task " + std::to_string(i) + " ");
    RT_COMPARE(d, a[i], b[i], level);
    RT_COMPARE(d, a[i], b[i], response_time.ns());
    RT_COMPARE(d, a[i], b[i], claimed_benefit);
  }
  return d.result();
}

}  // namespace core
}  // namespace rt
