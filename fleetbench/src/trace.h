// In-memory spans for the traced run. Every recording thread owns one
// SpanLog (no locking on the hot path); the logs are merged and written
// out once the run ends. A span names the layer call it timed, its start
// and end on the run's steady clock, the span that caused it (0 = none)
// and the request it belongs to (-1 = none).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fleetbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::int64_t request = -1;
  Clock::time_point start{};
  Clock::time_point end{};
};

using SpanLog = std::vector<Span>;

/// Hands out span ids; records nothing itself. Disabled, every record()
/// is one predictable branch and returns 0.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  std::uint64_t record(SpanLog& log, const char* name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t parent = 0,
                       std::int64_t request = -1) {
    if (!enabled_) return 0;
    const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    log.push_back(Span{name, id, parent, request, start, end});
    return id;
  }

 private:
  bool enabled_;
  std::atomic<std::uint64_t> next_id_{1};
};

struct SelfTime {
  std::int64_t count = 0;
  double total_ms = 0.0;  ///< span durations
  double self_ms = 0.0;   ///< durations minus the time children cover
};

/// Per-name totals over `spans`. A span's self time is its duration minus
/// the union of its children's intervals clipped to it.
std::map<std::string, SelfTime> self_times(const SpanLog& spans);

/// Writes the spans (times in microseconds from `epoch`) and the per-name
/// self-time table as one JSON document. Throws on I/O failure.
void write_trace(const std::string& path, const SpanLog& spans,
                 Clock::time_point epoch);

}  // namespace fleetbench
