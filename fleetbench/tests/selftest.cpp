// Checks the benchmark's own arithmetic: the percentile rule, Poisson
// schedules, the CPU-time, peak-RSS and steal readers, the quiet-window
// rule, and span self time.
// Exits nonzero on the first failed check.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

template <typename F>
bool throws(F f) {
  try {
    f();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

std::vector<double> ramp(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_rule() {
  using fleetbench::percentile;
  check(percentile(ramp(1000), 0.99) == 990.0, "p99 of 1..1000 is 990");
  check(percentile(ramp(1000), 0.50) == 500.0, "p50 of 1..1000 is 500");
  check(percentile(ramp(100), 0.90) == 90.0, "p90 of 1..100 is 90");
  check(throws([] { percentile(ramp(999), 0.99); }),
        "p99 of 999 samples leaves 9 beyond: refused");
  check(throws([] { percentile(ramp(99), 0.90); }),
        "p90 of 99 samples leaves 9 beyond: refused");
  check(!throws([] { percentile(ramp(999), 0.99, 9); }),
        "p99 of 999 samples with 9 required beyond: allowed");
  check(throws([] { percentile({}, 0.5, 0); }), "empty sample refused");

  // Failures enter as +inf: ten of them still leave p99 finite, eleven
  // push it to +inf.
  std::vector<double> v = ramp(1000);
  for (int i = 0; i < 10; ++i) v[static_cast<std::size_t>(i)] =
      fleetbench::kFailedLatency;
  check(percentile(v, 0.99) == 990.0, "ten failures beyond p99 leave it finite");
  v[10] = fleetbench::kFailedLatency;
  check(std::isinf(percentile(v, 0.99)), "eleven failures make p99 +inf");

  check(fleetbench::median({3.0, 1.0, 2.0}) == 2.0, "median of three");
}

void poisson() {
  const auto a = fleetbench::poisson_schedule(42, 1000.0, 20000);
  const auto b = fleetbench::poisson_schedule(42, 1000.0, 20000);
  const auto c = fleetbench::poisson_schedule(43, 1000.0, 20000);
  check(a == b, "equal seeds give identical schedules");
  check(a != c, "different seeds give different schedules");
  bool increasing = true;
  for (std::size_t i = 1; i < a.size(); ++i) increasing &= a[i] > a[i - 1];
  check(increasing, "send times strictly increase");
  const double mean_gap = a.back() / static_cast<double>(a.size());
  check(std::abs(mean_gap - 1e-3) < 0.05e-3, "mean gap is 1/rate within 5%");
  check(fleetbench::poisson_schedule(1, 10.0, 0).empty(), "zero count");
  check(throws([] { fleetbench::poisson_schedule(1, 0.0, 5); }),
        "rate 0 refused");
}

void readers() {
  const char* status =
      "Name:\tfleetbench\nVmPeak:\t  123456 kB\nVmHWM:\t   40960 kB\n"
      "VmRSS:\t   30000 kB\n";
  check(fleetbench::parse_vmhwm_kib(status) == 40960, "VmHWM parsed");
  check(fleetbench::parse_vmhwm_kib("VmRSS:\t 1 kB\n") == -1,
        "missing VmHWM reads -1");
  check(fleetbench::parse_vmhwm_kib("VmHWM:\t 12 MB\n") == -1,
        "unexpected unit reads -1");

  const double before = fleetbench::peak_rss_mib();
  const std::size_t bytes = 64u << 20;
  // Volatile page-stride writes: the allocation cannot be elided.
  volatile char* block = static_cast<char*>(std::malloc(bytes));
  for (std::size_t i = 0; i < bytes; i += 4096) block[i] = 1;
  const double after = fleetbench::peak_rss_mib();
  std::free(const_cast<char*>(block));
  check(before > 0.0, "peak RSS is positive");
  check(after - before >= 48.0, "touching 64 MiB raises peak RSS by >= 48 MiB");

  const double cpu0 = fleetbench::process_cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  volatile double x = 0.0;
  while (std::chrono::steady_clock::now() - t0 < std::chrono::milliseconds(100))
    x = x + 1.0;
  const double used = fleetbench::process_cpu_seconds() - cpu0;
  check(used >= 0.05 && used < 1.0, "100 ms of spinning reads as CPU time");
}

void steal() {
  using fleetbench::parse_steal_ticks;
  check(parse_steal_ticks("cpu  2206175 0 113835 6098399 1033 0 146255 110891 0 0\n"
                          "cpu0 551543 0 28458 1524599 258 0 36563 27722 0 0\n") ==
            110891,
        "steal is the eighth field of the cpu line");
  check(parse_steal_ticks("cpu0 1 2 3 4 5 6 7 8 0 0\n") == -1,
        "a per-core line alone reads -1");
  check(parse_steal_ticks("cpu  1 2 3 4 5 6 7\n") == -1, "a short line reads -1");
  check(fleetbench::steal_ticks() >= -1, "the steal reader answers");

  using fleetbench::quiet_windows;
  using Keep = std::vector<bool>;
  check(quiet_windows({}).empty(), "no windows, none kept");
  check(quiet_windows({0, 0, 0, 0}) == Keep{true, true, true, true},
        "a quiet host keeps every window");
  check(quiet_windows({0, 5, 0, 9}) == Keep{true, false, true, false},
        "stolen windows are dropped");
  check(quiet_windows({5, 3, 8, 1, 9, 2, 7, 6}) ==
            Keep{false, false, false, true, false, true, false, false},
        "when every window lost some, the quietest quarter is kept");
  check(quiet_windows({3, 1, 2}) == Keep{false, true, false},
        "one window of three is a quarter, rounded up");
  check(quiet_windows({4, 4, 4, 9}) == Keep{true, true, true, false},
        "ties with the quietest quarter are all kept");
  check(quiet_windows({-1, -1}) == Keep{true, true},
        "unknown steal keeps every window");

  // Windows of 1,000 reads: host stalls in two stolen windows are dropped
  // with them, while the program's own stalls in quiet windows still move
  // the pooled p99.
  const std::vector<std::int64_t> stolen = {0, 0, 0, 0, 0, 0, 0, 0, 9, 9};
  std::vector<double> calm, host, own;
  for (int i = 0; i < 10000; ++i) calm.push_back(1.0 + (i % 1000) / 1000.0);
  host = own = calm;
  for (int i = 8000; i < 10000; i += 20) host[static_cast<std::size_t>(i)] += 100.0;
  for (int i = 0; i < 2000; i += 20) own[static_cast<std::size_t>(i)] += 100.0;
  auto kept_p99 = [&](const std::vector<double>& v) {
    const std::vector<bool> keep = quiet_windows(stolen);
    std::vector<double> pooled;
    for (std::size_t i = 0; i < v.size(); ++i)
      if (keep[i / 1000]) pooled.push_back(v[i]);
    return fleetbench::percentile(pooled, 0.99);
  };
  check(kept_p99(host) == kept_p99(calm),
        "stalls in stolen windows leave the kept p99 unchanged");
  check(kept_p99(own) > 100.0, "stalls in quiet windows move the kept p99");

  fleetbench::StealSampler sampler(std::chrono::steady_clock::now(),
                                   std::chrono::milliseconds(40));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const std::vector<std::int64_t> w = sampler.stop();
  bool sane = w.size() >= 2 && w.size() <= 4;
  for (const std::int64_t x : w) sane &= x >= 0 || x == -1;
  check(sane, "the sampler closes one window per period and a last one");
  check(sampler.stop().empty(), "stop is idempotent");
}

void self_time() {
  using fleetbench::Clock;
  const Clock::time_point t0{};
  auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  fleetbench::Tracer tracer(true);
  fleetbench::SpanLog log;
  const auto top = tracer.record(log, "parent", at(0), at(10));
  tracer.record(log, "child", at(1), at(3), top);
  tracer.record(log, "child", at(2), at(5), top);   // overlaps the first
  tracer.record(log, "child", at(7), at(8), top);
  tracer.record(log, "child", at(9), at(12), top);  // clipped at 10
  const auto t = fleetbench::self_times(log);
  check(std::abs(t.at("parent").self_ms - 4.0) < 1e-9,
        "self time subtracts the union of clipped children");
  check(t.at("child").count == 4, "children counted");
  fleetbench::Tracer off(false);
  fleetbench::SpanLog none;
  check(off.record(none, "x", at(0), at(1)) == 0 && none.empty(),
        "a disabled tracer records nothing");
}

}  // namespace

int main() {
  percentile_rule();
  poisson();
  readers();
  steal();
  self_time();
  if (failures == 0) std::printf("fleetbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
