// Completion collector: timestamps each response when its future becomes
// ready, not in submission order.
//
// A pool of waiter threads takes tracked futures first-in first-out and
// blocks on one each, so while no more futures are outstanding than there
// are waiters, every future has a thread parked on it and its ready time
// is exact whatever order the engines finish in. A future that was
// already ready when a waiter picked it up may have been stamped late;
// Outcome::late_pickup marks those so a run can show they stayed rare.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "serve/engine.h"
#include "trace.h"

namespace fleetbench {

struct Outcome {
  Clock::time_point ready{};
  bool done = false;
  bool ok = false;        ///< served with Status::kOk
  bool mismatch = false;  ///< output differed from its reference
  bool late_pickup = false;  ///< already ready when a waiter took it
  double queue_ms = 0.0;
  double run_ms = 0.0;
  std::int64_t batch = 0;
};

/// Called on a waiter thread for every completed response of `slot`, after
/// `out` is filled: compares a served output (sets `out.mismatch`) and
/// records the request's spans into the waiter's own `log`.
using Checker =
    std::function<void(std::size_t slot, const crisp::Tensor& output,
                       Outcome& out, SpanLog& log)>;

class Collector {
 public:
  Collector(std::size_t slots, int waiters, Checker check);
  ~Collector();
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void track(std::size_t slot, std::future<crisp::serve::Response> f);
  /// Blocks until fewer than `window` tracked futures are outstanding.
  void wait_below(std::int64_t window);
  /// Blocks until every tracked future has completed.
  void drain();
  /// drain(), then stops and joins the waiters. Idempotent.
  void finish();

  std::vector<Outcome>& outcomes() { return outcomes_; }
  /// One span log per waiter; read them only after finish().
  std::vector<SpanLog>& logs() { return logs_; }

 private:
  void waiter_main(SpanLog& log);

  Checker check_;
  std::vector<Outcome> outcomes_;  ///< one per slot, each written once
  std::vector<SpanLog> logs_;      ///< one per waiter
  mutable std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::deque<std::pair<std::size_t, std::future<crisp::serve::Response>>>
      queue_;
  std::int64_t outstanding_ = 0;
  bool stopping_ = false;
  std::vector<std::thread> waiters_;  ///< last: they use everything above
};

}  // namespace fleetbench
