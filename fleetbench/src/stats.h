// The benchmark's own arithmetic: percentiles, arrival schedules, the
// process CPU-time and peak-RSS readers, and the host's steal time. Kept
// apart from the workloads so tests/selftest.cpp can check it without
// running a fleet.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace fleetbench {

/// A failed, refused or mismatched operation enters every latency sample
/// as +inf, so it misses any latency limit.
inline constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

/// Samples that must lie strictly above a reported percentile.
inline constexpr std::int64_t kMinBeyond = 10;

/// Nearest-rank percentile: the value at rank ceil(q * n) of the sorted
/// sample (+inf sorts last). Throws std::invalid_argument when the sample
/// is empty or fewer than `min_beyond` samples lie beyond that rank — the
/// sample does not support the percentile.
double percentile(std::vector<double> values, double q,
                  std::int64_t min_beyond = kMinBeyond);

/// Hypervisor steal time of the whole machine so far, in clock ticks:
/// the eighth field of the "cpu" line of /proc/stat. -1 when unknown.
std::int64_t steal_ticks();

/// The steal field of a /proc/stat text; -1 when the line is missing or
/// short.
std::int64_t parse_steal_ticks(const std::string& proc_stat_text);

/// Share of a run's windows that quiet_windows() keeps at least.
inline constexpr double kQuietShare = 0.25;

/// Which windows of a run the host left alone: those whose steal is at
/// most the nearest-rank kQuietShare percentile of the windows' steal. So
/// the quietest quarter is always kept, every window without steal when
/// at least a quarter had none, and all of them on a quiet host. Steal is
/// time the hypervisor gave one of this machine's cores to another
/// machine: it comes from the host's load, not the program's work, so
/// dropping the stolen windows drops host noise while the program's own
/// stalls in the kept windows still count.
std::vector<bool> quiet_windows(const std::vector<std::int64_t>& steal);

/// Samples steal_ticks() on a thread of its own at `begin` + k * `period`
/// (k = 0, 1, ...) until stop(), which takes a last sample: window k runs
/// from sample k to sample k + 1.
class StealSampler {
 public:
  StealSampler(std::chrono::steady_clock::time_point begin,
               std::chrono::steady_clock::duration period);
  ~StealSampler();
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  /// Stops the sampler and returns each window's steal (-1 where the
  /// kernel does not report it). Later calls return nothing.
  std::vector<std::int64_t> stop();

 private:
  std::chrono::steady_clock::time_point begin_;
  std::chrono::steady_clock::duration period_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::vector<std::int64_t> samples_;
  std::thread thread_;  ///< last: it uses everything above
};

/// Median as the nearest-rank 50th percentile (no support requirement).
double median(std::vector<double> values);

/// Uniform double in [0, 1) from the top 53 bits — hand-rolled so every
/// standard library draws the same sequence from the same seed.
double uniform01(std::mt19937_64& rng);

/// Uniform index in [0, n) (n >= 1), same portability argument.
std::uint64_t uniform_index(std::mt19937_64& rng, std::uint64_t n);

/// Open-loop Poisson arrivals: `count` send times, in seconds from the
/// phase start, at `rate` per second. A pure function of its arguments.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     std::int64_t count);

/// User + system CPU time of the whole process (getrusage), seconds.
double process_cpu_seconds();

/// VmHWM of the process in MiB (/proc/self/status); throws when missing.
double peak_rss_mib();

/// Resets VmHWM to the current RSS (/proc/self/clear_refs), so a later
/// peak_rss_mib() covers only what follows. Returns false when the kernel
/// refuses.
bool reset_peak_rss();

/// The VmHWM field of a /proc/<pid>/status text, in KiB; -1 when absent.
std::int64_t parse_vmhwm_kib(const std::string& status_text);

}  // namespace fleetbench
