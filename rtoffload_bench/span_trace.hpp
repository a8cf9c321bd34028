#pragma once
// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its own calls into each
// layer (never inside the program), kept in memory, and written out once
// at exit as Chrome trace JSON. A span's layer is its name up to the first
// '.', e.g. "spec.parse" belongs to `spec`; `bench` spans are the
// benchmark's own glue (documents, checks). A disabled Tracer makes every
// Scope a single branch, so the untraced and traced runs share one code
// path.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace rtbench {

inline std::int64_t wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline constexpr std::size_t kNoSpan = std::numeric_limits<std::size_t>::max();

struct Span {
  std::string name;
  /// Shared by every span of one request: a document index, or "task:job"
  /// for runtime jobs.
  std::string request;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t parent = kNoSpan;
  /// 0 = the benchmark's thread; runtime job lanes use 1 + task index.
  int track = 0;
};

inline std::string_view layer_of(std::string_view name) {
  return name.substr(0, name.find('.'));
}

class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t current() const {
    return stack_.empty() ? kNoSpan : stack_.back();
  }

  /// Opens a span as a child of the innermost open one; an empty request
  /// inherits the parent's.
  std::size_t open(std::string_view name, std::string request) {
    Span s;
    s.name.assign(name);
    s.parent = current();
    s.request = request.empty() && s.parent != kNoSpan
                    ? spans_[s.parent].request
                    : std::move(request);
    s.start_ns = wall_ns();
    spans_.push_back(std::move(s));
    stack_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void close(std::size_t id) {
    spans_[id].end_ns = wall_ns();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
  }

  /// Records an already-finished span (derived from a program's own trace).
  std::size_t add(Span span) {
    spans_.push_back(std::move(span));
    return spans_.size() - 1;
  }

  /// Durations in microseconds of every span with this exact name.
  [[nodiscard]] std::vector<double> durations_us(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
    return out;
  }

  /// Self time of every span: its duration minus the union of its
  /// children's intervals (clipped to the span).
  [[nodiscard]] std::vector<std::int64_t> self_ns() const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent != kNoSpan) kids[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    std::vector<std::int64_t> out(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& p = spans_[i];
      auto& iv = kids[i];
      std::sort(iv.begin(), iv.end());
      std::int64_t covered = 0;
      std::int64_t reach = p.start_ns;
      for (auto [a, b] : iv) {
        a = std::max(a, reach);
        b = std::min(b, p.end_ns);
        if (b > a) {
          covered += b - a;
          reach = b;
        }
      }
      out[i] = (p.end_ns - p.start_ns) - covered;
    }
    return out;
  }

  struct LayerRow {
    std::uint64_t spans = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  /// Per-layer span count, total and self time over the benchmark's own
  /// lane (track 0); derived runtime job lanes overlap each other in time
  /// and are tabulated separately under their own layer names.
  [[nodiscard]] std::map<std::string, LayerRow> layer_table() const {
    const std::vector<std::int64_t> self = self_ns();
    std::map<std::string, LayerRow> rows;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::string key(layer_of(s.name));
      if (s.track != 0) key += "(lanes)";
      LayerRow& row = rows[key];
      ++row.spans;
      row.total_ns += s.end_ns - s.start_ns;
      row.self_ns += self[i];
    }
    return rows;
  }

  /// Chrome trace-event JSON ("X" slices, microsecond timestamps relative
  /// to `origin_ns`); span id, parent and request ride in args.
  [[nodiscard]] rt::Json chrome_json(std::int64_t origin_ns) const {
    rt::Json::Array events;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      rt::Json::Object args;
      args["id"] = rt::Json(static_cast<std::int64_t>(i));
      args["parent"] = s.parent == kNoSpan
                           ? rt::Json(nullptr)
                           : rt::Json(static_cast<std::int64_t>(s.parent));
      args["request"] = rt::Json(s.request);
      rt::Json::Object e;
      e["name"] = rt::Json(s.name);
      e["cat"] = rt::Json(std::string(layer_of(s.name)));
      e["ph"] = rt::Json("X");
      e["pid"] = rt::Json(1);
      e["tid"] = rt::Json(s.track);
      e["ts"] = rt::Json(static_cast<double>(s.start_ns - origin_ns) / 1e3);
      e["dur"] = rt::Json(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      e["args"] = rt::Json(std::move(args));
      events.push_back(rt::Json(std::move(e)));
    }
    rt::Json::Object root;
    root["traceEvents"] = rt::Json(std::move(events));
    root["displayTimeUnit"] = rt::Json("ms");
    return rt::Json(std::move(root));
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span; a no-op on a disabled tracer.
class Scope {
 public:
  Scope(Tracer& tracer, std::string_view name, std::string request = {})
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.open(name, std::move(request))
                             : kNoSpan) {}
  ~Scope() {
    if (id_ != kNoSpan) tracer_.close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::size_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::size_t id_;
};

}  // namespace rtbench
