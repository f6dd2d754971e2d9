#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace fleetbench {

double percentile(std::vector<double> values, double q,
                  std::int64_t min_beyond) {
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(q > 0.0 && q < 1.0))
    throw std::invalid_argument("percentile outside (0, 1)");
  const auto n = static_cast<std::int64_t>(values.size());
  // The epsilon keeps 0.99 * 1000 at rank 990 despite binary rounding.
  auto rank = static_cast<std::int64_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  rank = std::clamp<std::int64_t>(rank, 1, n);
  if (n - rank < min_beyond) {
    std::ostringstream msg;
    msg << "p" << q * 100 << " of " << n << " samples leaves " << n - rank
        << " beyond it, fewer than " << min_beyond;
    throw std::invalid_argument(msg.str());
  }
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[static_cast<std::size_t>(rank - 1)];
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5, 0);
}

double uniform01(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

std::uint64_t uniform_index(std::mt19937_64& rng, std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("uniform_index over nothing");
  return static_cast<std::uint64_t>(uniform01(rng) * static_cast<double>(n)) %
         n;
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     std::int64_t count) {
  if (!(rate > 0.0)) throw std::invalid_argument("poisson rate must be > 0");
  std::mt19937_64 rng(seed);
  std::vector<double> at;
  at.reserve(static_cast<std::size_t>(std::max<std::int64_t>(count, 0)));
  double t = 0.0;
  for (std::int64_t i = 0; i < count; ++i) {
    t += -std::log1p(-uniform01(rng)) / rate;
    at.push_back(t);
  }
  return at;
}

std::int64_t parse_steal_ticks(const std::string& proc_stat_text) {
  std::istringstream in(proc_stat_text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    if (!(fields >> name) || name != "cpu") continue;
    std::int64_t v = -1;
    for (int i = 0; i < 8; ++i)
      if (!(fields >> v)) return -1;
    return v;
  }
  return -1;
}

std::int64_t steal_ticks() {
  std::ifstream f("/proc/stat");
  std::string first;
  if (!std::getline(f, first)) return -1;
  return parse_steal_ticks(first);
}

std::vector<bool> quiet_windows(const std::vector<std::int64_t>& steal) {
  std::vector<bool> keep(steal.size(), true);
  if (steal.empty()) return keep;
  std::vector<double> v(steal.begin(), steal.end());
  const double cut = percentile(std::move(v), kQuietShare, 0);
  for (std::size_t i = 0; i < steal.size(); ++i)
    keep[i] = static_cast<double>(steal[i]) <= cut;
  return keep;
}

StealSampler::StealSampler(std::chrono::steady_clock::time_point begin,
                           std::chrono::steady_clock::duration period)
    : begin_(begin), period_(period) {
  if (period <= std::chrono::steady_clock::duration::zero())
    throw std::invalid_argument("steal sampling period must be > 0");
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lk(mu_);
    for (std::int64_t k = 0;; ++k) {
      if (cv_.wait_until(lk, begin_ + k * period_, [this] { return stopping_; }))
        return;
      samples_.push_back(steal_ticks());
    }
  });
}

StealSampler::~StealSampler() { stop(); }

std::vector<std::int64_t> StealSampler::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) return {};
    stopping_ = true;
  }
  cv_.notify_all();
  thread_.join();
  samples_.push_back(steal_ticks());
  std::vector<std::int64_t> windows;
  for (std::size_t k = 1; k < samples_.size(); ++k)
    windows.push_back(samples_[k] < 0 || samples_[k - 1] < 0
                          ? -1
                          : samples_[k] - samples_[k - 1]);
  return windows;
}

double process_cpu_seconds() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0)
    throw std::runtime_error("getrusage failed");
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::int64_t parse_vmhwm_kib(const std::string& status_text) {
  std::istringstream in(status_text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    std::int64_t kib = -1;
    std::string unit;
    if (fields >> kib >> unit && unit == "kB") return kib;
    return -1;
  }
  return -1;
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::stringstream text;
  text << f.rdbuf();
  const std::int64_t kib = parse_vmhwm_kib(text.str());
  if (kib < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return static_cast<double>(kib) / 1024.0;
}

}  // namespace fleetbench
