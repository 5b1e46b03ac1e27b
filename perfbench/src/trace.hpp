// The benchmark's own span recorder. Spans wrap the benchmark's calls into
// each layer of the library (nothing is recorded inside the library); they
// nest on the single client thread, are kept in memory, and are written out
// as Chrome trace JSON when the run ends.
#pragma once

#include <chrono>
#include <string>
#include <vector>

namespace perfbench {

struct SpanEvent {
  std::string name;
  long request = -1;        ///< request index the span belongs to (-1: none)
  int parent = -1;          ///< index of the enclosing span (-1: root)
  double start_us = 0.0;    ///< since the recorder was created
  double dur_us = 0.0;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span; returns its index. Spans must close in LIFO order.
  int open(std::string name, long request);
  /// Closes the innermost open span (`index`); returns its duration in s.
  double close(int index);

  [[nodiscard]] const std::vector<SpanEvent>& events() const noexcept { return events_; }

  /// Chrome trace-event JSON ("X" events, one thread), loadable in Perfetto.
  [[nodiscard]] std::string toChromeJson() const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point origin_;
  std::vector<SpanEvent> events_;
  std::vector<int> open_;
};

/// RAII span. `end()` closes it early and returns its duration in seconds.
class Span {
 public:
  Span(Tracer& tracer, std::string name, long request = -1)
      : tracer_(tracer), index_(tracer.open(std::move(name), request)) {}
  ~Span() { end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double end() {
    if (open_) {
      seconds_ = tracer_.close(index_);
      open_ = false;
    }
    return seconds_;
  }

 private:
  Tracer& tracer_;
  int index_;
  bool open_ = true;
  double seconds_ = 0.0;
};

/// One row of the self-time table: a span name's total and self time (its
/// spans' durations minus the time their direct children cover).
struct SelfTimeRow {
  std::string name;
  long count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Self-time table of `events`, largest self time first. The self times of
/// all spans sum to the summed duration of the root spans.
[[nodiscard]] std::vector<SelfTimeRow> selfTimeTable(const std::vector<SpanEvent>& events);

}  // namespace perfbench
