#include "obs/chrome_trace.hpp"

#include <set>
#include <utility>

namespace rt::obs {

namespace {

double to_us(std::int64_t ns) { return static_cast<double>(ns) / 1000.0; }

Json::Object base_event(std::string_view name, std::string_view category,
                        int pid, int tid, std::int64_t ts_ns) {
  Json::Object ev;
  ev["name"] = std::string(name);
  ev["cat"] = std::string(category);
  ev["pid"] = pid;
  ev["tid"] = tid;
  ev["ts"] = to_us(ts_ns);
  return ev;
}

}  // namespace

void ChromeTraceWriter::add_complete(std::string_view name,
                                     std::string_view category, int pid,
                                     int tid, std::int64_t ts_ns,
                                     std::int64_t dur_ns) {
  Json::Object ev = base_event(name, category, pid, tid, ts_ns);
  ev["ph"] = "X";
  ev["dur"] = to_us(dur_ns);
  events_.emplace_back(std::move(ev));
}

void ChromeTraceWriter::add_instant(std::string_view name,
                                    std::string_view category, int pid,
                                    int tid, std::int64_t ts_ns) {
  Json::Object ev = base_event(name, category, pid, tid, ts_ns);
  ev["ph"] = "i";
  ev["s"] = "t";
  events_.emplace_back(std::move(ev));
}

void ChromeTraceWriter::name_thread(int pid, int tid, std::string_view name) {
  Json::Object ev;
  ev["name"] = "thread_name";
  ev["ph"] = "M";
  ev["pid"] = pid;
  ev["tid"] = tid;
  Json::Object args;
  args["name"] = std::string(name);
  ev["args"] = Json(std::move(args));
  events_.emplace_back(std::move(ev));
}

void ChromeTraceWriter::name_process(int pid, std::string_view name) {
  Json::Object ev;
  ev["name"] = "process_name";
  ev["ph"] = "M";
  ev["pid"] = pid;
  ev["tid"] = 0;
  Json::Object args;
  args["name"] = std::string(name);
  ev["args"] = Json(std::move(args));
  events_.emplace_back(std::move(ev));
}

void ChromeTraceWriter::append(const ChromeTraceWriter& other) {
  events_.insert(events_.end(), other.events_.begin(), other.events_.end());
}

std::string ChromeTraceWriter::dump(int indent) const {
  Json::Object root;
  root["traceEvents"] = Json(events_);
  root["displayTimeUnit"] = "ms";
  return Json(std::move(root)).dump(indent);
}

void ChromeTraceWriter::write(std::ostream& os, int indent) const {
  os << dump(indent) << "\n";
}

void append_phase_events(ChromeTraceWriter& writer, const Sink& sink, int pid) {
  std::set<std::uint32_t> workers;
  for (const PhaseEvent& p : sink.phases()) workers.insert(p.worker);
  for (const std::uint32_t w : workers) {
    writer.name_thread(pid, static_cast<int>(w),
                       "worker " + std::to_string(w));
  }
  for (const PhaseEvent& p : sink.phases()) {
    writer.add_complete(p.name, "batch", pid, static_cast<int>(p.worker),
                        p.start_ns, p.end_ns - p.start_ns);
  }
}

}  // namespace rt::obs
