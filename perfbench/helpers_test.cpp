// Tests of the benchmark's own helpers: quantile and tail selection
// (stats.hpp), the open- and closed-loop accounting (loadgen.hpp) against
// synthetic consumers, and the derived-ratio arithmetic.
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <deque>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "loadgen.hpp"
#include "stats.hpp"
#include "util/sync.hpp"

namespace perfbench {
namespace {

using std::chrono::milliseconds;

TEST(Quantile, NearestRank) {
  EXPECT_EQ(rank_index(100, 0.99), 98u);
  EXPECT_EQ(rank_index(100, 0.5), 49u);
  EXPECT_EQ(rank_index(1, 0.99), 0u);
  EXPECT_EQ(rank_index(7, 1.0), 6u);
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  // 30 rounds: the 8th smallest, whatever the order.
  std::vector<double> rounds(30);
  std::iota(rounds.rbegin(), rounds.rend(), 1.0);
  EXPECT_EQ(lower_quartile(rounds), 8.0);
  EXPECT_EQ(median(rounds), 15.0);
}

TEST(Quantile, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(supported_quantile(1000, 0.99), 0.99);
  EXPECT_EQ(supported_quantile(999, 0.99), 1.0);  // too few: the maximum
  EXPECT_EQ(supported_quantile(100, 0.9), 0.9);
  EXPECT_EQ(supported_quantile(99, 0.9), 1.0);
  EXPECT_EQ(supported_quantile(3, 0.9), 1.0);
  for (std::size_t n = 1; n <= 5000; ++n) {
    for (const double q : {0.9, 0.99}) {
      const double got = supported_quantile(n, q);
      EXPECT_EQ(got == q, samples_beyond(n, q) >= kMinBeyond) << n;
    }
  }
}

TEST(Quantile, SummarizeSortsAndPicksTail) {
  std::vector<double> v(1000);
  std::iota(v.rbegin(), v.rend(), 1.0);  // 1000 .. 1, unsorted input
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.median, 500.0);
  EXPECT_EQ(s.p90_q, 0.9);
  EXPECT_EQ(s.p90, 900.0);
  EXPECT_EQ(s.p99_q, 0.99);
  EXPECT_EQ(s.p99, 990.0);
  const Summary few = summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(few.median, 2.0);
  EXPECT_EQ(few.p90_q, 1.0);
  EXPECT_EQ(few.p90, 3.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
  EXPECT_EQ(summarize({}).median, 0.0);
}

TEST(Ratio, CarriesItsBase) {
  const Ratio r = ratio(3.0, 2.0);
  EXPECT_EQ(r.value, 1.5);
  EXPECT_EQ(r.num, 3.0);
  EXPECT_EQ(r.den, 2.0);
  EXPECT_EQ(ratio(1.0, 0.0).value, 0.0);  // layer not exercised
  const Ratio k = per_kilo(5, 2000);
  EXPECT_EQ(k.value, 2.5);
  EXPECT_EQ(k.num, 5.0);
  EXPECT_EQ(k.den, 2000.0);
  EXPECT_EQ(per_kilo(0, 0).value, 0.0);
  const Ratio s = share_beyond(2.0, 0.5);
  EXPECT_EQ(s.value, 0.75);
  EXPECT_EQ(s.num, 1.5);
  EXPECT_EQ(s.den, 2.0);
  // engine - kernel < 0 means the cache pays; a slower engine gives > 0.
  EXPECT_LT(ratio(80.0 - 100.0, 1.0).value, 0.0);
}

/// A single-worker FIFO consumer that takes `service` per request.
class SlowConsumer {
 public:
  explicit SlowConsumer(milliseconds service) : service_(service) {
    worker_ = std::thread([this] { run(); });
  }
  SlowConsumer(const SlowConsumer&) = delete;
  SlowConsumer& operator=(const SlowConsumer&) = delete;
  ~SlowConsumer() {
    {
      ipg::LockGuard lock(mu_);
      closed_ = true;
    }
    cv_.notify_one();
    worker_.join();
  }
  std::future<int> submit(int v) {
    std::promise<int> p;
    std::future<int> f = p.get_future();
    {
      ipg::LockGuard lock(mu_);
      queue_.push_back({v, std::move(p)});
    }
    cv_.notify_one();
    return f;
  }

 private:
  struct Item {
    int v = 0;
    std::promise<int> p;
  };
  void run() {
    for (;;) {
      Item item;
      {
        ipg::UniqueLock lock(mu_);
        while (!closed_ && queue_.empty()) cv_.wait(lock);
        if (queue_.empty()) return;
        item = std::move(queue_.front());
        queue_.pop_front();
      }
      std::this_thread::sleep_for(service_);
      item.p.set_value(item.v);
    }
  }
  const milliseconds service_;
  ipg::Mutex mu_;
  ipg::CondVar cv_;
  std::deque<Item> queue_ IPG_GUARDED_BY(mu_);
  bool closed_ IPG_GUARDED_BY(mu_) = false;
  std::thread worker_;
};

std::vector<double> every_ms(std::size_t n) {
  std::vector<double> due(n);
  for (std::size_t i = 0; i < n; ++i) due[i] = 1e-3 * static_cast<double>(i);
  return due;
}

TEST(OpenLoop, QueueBehindSlowConsumerCountsFromDueTime) {
  // Arrivals every 1 ms into a 2 ms/request consumer: request i completes
  // no earlier than (i + 1) * 2 ms after start while it was due at i ms,
  // so its latency grows by at least 1 ms per request.
  SlowConsumer consumer(milliseconds(2));
  const std::size_t n = 20;
  const OpenLoopResult res = run_open_loop(
      every_ms(n),
      [&](std::size_t i) { return consumer.submit(static_cast<int>(i)); },
      [](std::size_t i, int v) { return v == static_cast<int>(i); });
  ASSERT_EQ(res.latency_us.size(), n);
  EXPECT_EQ(res.failed, 0u);
  for (std::size_t i = 0; i < n; ++i) {
    const double floor_us = 2000.0 * static_cast<double>(i + 1) -
                            1000.0 * static_cast<double>(i);
    EXPECT_GE(res.latency_us[i], floor_us) << i;
    EXPECT_GE(res.latency_us[i], res.late_us[i] + 2000.0) << i;
    EXPECT_GE(res.late_us[i], 0.0);
  }
}

TEST(OpenLoop, BlockingSubmitShowsAsGeneratorLateness) {
  // A consumer that blocks the sender for 2 ms per request: the generator
  // falls behind its 1 ms schedule, and every later request's latency,
  // timed from its due time, includes how late it was sent.
  const std::size_t n = 20;
  const OpenLoopResult res = run_open_loop(
      every_ms(n),
      [](std::size_t i) {
        std::this_thread::sleep_for(milliseconds(2));
        std::promise<int> p;
        p.set_value(static_cast<int>(i));
        return p.get_future();
      },
      [](std::size_t, int) { return true; });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(res.late_us[i], 1000.0 * static_cast<double>(i) - 1.0) << i;
    EXPECT_GE(res.latency_us[i], res.late_us[i] + 2000.0) << i;
  }
}

TEST(OpenLoop, FailedChecksAndThrowingSubmitsAreCounted) {
  const OpenLoopResult res = run_open_loop(
      std::vector<double>(8, 0.0),
      [](std::size_t i) {
        if (i == 7) throw std::runtime_error("refused");
        std::promise<int> p;
        p.set_value(static_cast<int>(i));
        return p.get_future();
      },
      [](std::size_t, int v) { return v % 2 == 0; });
  EXPECT_EQ(res.failed, 4u);  // 1, 3, 5 fail their check; 7 never ran
}

TEST(ClosedLoop, StopsAtPassBoundaryAndDrains) {
  Tracer tracer(true);
  std::size_t submitted = 0;
  const ClosedLoopResult res = run_closed_loop(
      4, 10, 0.0,
      [&](std::size_t i) {
        ++submitted;
        std::promise<int> p;
        p.set_value(static_cast<int>(i));
        return p.get_future();
      },
      [](std::size_t i, int v) { return v == static_cast<int>(i) && i != 12; },
      tracer, 0);
  EXPECT_EQ(res.timed_requests, 10u);  // one pass, then the window closed
  EXPECT_EQ(res.pass_s.size(), 1u);
  EXPECT_EQ(submitted, 13u);           // 3 still in flight at the boundary
  EXPECT_EQ(res.checked, 13u);         // drained and checked, not timed
  EXPECT_EQ(res.failed, 1u);
  EXPECT_EQ(tracer.size(), 10u);       // one span per timed request
}

}  // namespace
}  // namespace perfbench
