#include "collector.h"

#include <chrono>

namespace fleetbench {

Collector::Collector(std::size_t slots, int waiters, Checker check)
    : check_(std::move(check)),
      outcomes_(slots),
      logs_(static_cast<std::size_t>(waiters)) {
  waiters_.reserve(static_cast<std::size_t>(waiters));
  for (int i = 0; i < waiters; ++i)
    waiters_.emplace_back(
        [this, i] { waiter_main(logs_[static_cast<std::size_t>(i)]); });
}

Collector::~Collector() { finish(); }

void Collector::track(std::size_t slot,
                      std::future<crisp::serve::Response> f) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.emplace_back(slot, std::move(f));
    ++outstanding_;
  }
  cv_work_.notify_one();
}

void Collector::wait_below(std::int64_t window) {
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return outstanding_ < window; });
}

void Collector::drain() { wait_below(1); }

void Collector::finish() {
  drain();
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : waiters_) t.join();
}

void Collector::waiter_main(SpanLog& log) {
  for (;;) {
    std::pair<std::size_t, std::future<crisp::serve::Response>> item;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_work_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    Outcome& out = outcomes_[item.first];
    out.late_pickup = item.second.wait_for(std::chrono::seconds(0)) ==
                      std::future_status::ready;
    item.second.wait();
    out.ready = Clock::now();
    try {
      crisp::serve::Response r = item.second.get();
      out.ok = r.status == crisp::serve::Response::Status::kOk;
      out.queue_ms = static_cast<double>(r.stats.queue_time.count()) / 1e3;
      out.run_ms = static_cast<double>(r.stats.run_time.count()) / 1e3;
      out.batch = r.stats.batch_size;
      if (check_) check_(item.first, r.output, out, log);
    } catch (...) {
      out.ok = false;
    }
    out.done = true;
    {
      std::lock_guard<std::mutex> lk(mu_);
      --outstanding_;
    }
    cv_done_.notify_all();
  }
}

}  // namespace fleetbench
