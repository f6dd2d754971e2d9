#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace fleetbench {

namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

std::map<std::string, SelfTime> self_times(const SpanLog& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].push_back(&s);

  std::map<std::string, SelfTime> out;
  for (const Span& s : spans) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
      for (const Span* c : it->second) {
        const auto a = std::max(c->start, s.start);
        const auto b = std::min(c->end, s.end);
        if (a < b) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      Clock::time_point cur_a{}, cur_b{};
      bool open = false;
      for (const auto& [a, b] : iv) {
        if (open && a <= cur_b) {
          cur_b = std::max(cur_b, b);
          continue;
        }
        if (open) covered += ms_between(cur_a, cur_b);
        cur_a = a;
        cur_b = b;
        open = true;
      }
      if (open) covered += ms_between(cur_a, cur_b);
    }
    SelfTime& t = out[s.name];
    const double dur = ms_between(s.start, s.end);
    ++t.count;
    t.total_ms += dur;
    t.self_ms += dur - covered;
  }
  return out;
}

void write_trace(const std::string& path, const SpanLog& spans,
                 Clock::time_point epoch) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace " + path);
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - epoch).count();
  };
  std::fprintf(f, "{\"spans\": [");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"request\": %lld, \"start_us\": %.3f, \"end_us\": %.3f}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<long long>(s.request), us(s.start), us(s.end));
  }
  std::fprintf(f, "\n],\n\"self_time\": {");
  bool first = true;
  for (const auto& [name, t] : self_times(spans)) {
    std::fprintf(f,
                 "%s\n  \"%s\": {\"count\": %lld, \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}",
                 first ? "" : ",", name.c_str(),
                 static_cast<long long>(t.count), t.total_ms, t.self_ms);
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot close " + path);
}

}  // namespace fleetbench
