#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace perfbench {

Tracer::Tracer() : origin_(Clock::now()) {}

int Tracer::open(std::string name, long request) {
  SpanEvent e;
  e.name = std::move(name);
  e.request = request;
  e.parent = open_.empty() ? -1 : open_.back();
  e.start_us = std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  events_.push_back(std::move(e));
  open_.push_back(static_cast<int>(events_.size()) - 1);
  return open_.back();
}

double Tracer::close(int index) {
  if (open_.empty() || open_.back() != index)
    throw std::logic_error("perfbench: spans must close innermost first");
  open_.pop_back();
  SpanEvent& e = events_[static_cast<std::size_t>(index)];
  const double now = std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  e.dur_us = now - e.start_us;
  return e.dur_us * 1e-6;
}

std::string Tracer::toChromeJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const SpanEvent& e = events_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%ld}}",
                  i == 0 ? "" : ",", e.name.c_str(), e.start_us, e.dur_us, e.request);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

std::vector<SelfTimeRow> selfTimeTable(const std::vector<SpanEvent>& events) {
  std::vector<double> child_us(events.size(), 0.0);
  for (const SpanEvent& e : events)
    if (e.parent >= 0) child_us[static_cast<std::size_t>(e.parent)] += e.dur_us;
  std::map<std::string, SelfTimeRow> rows;
  for (std::size_t i = 0; i < events.size(); ++i) {
    SelfTimeRow& row = rows[events[i].name];
    row.name = events[i].name;
    ++row.count;
    row.total_s += events[i].dur_us * 1e-6;
    row.self_s += (events[i].dur_us - child_us[i]) * 1e-6;
  }
  std::vector<SelfTimeRow> table;
  for (auto& [name, row] : rows) table.push_back(row);
  std::sort(table.begin(), table.end(),
            [](const SelfTimeRow& a, const SelfTimeRow& b) { return a.self_s > b.self_s; });
  return table;
}

}  // namespace perfbench
