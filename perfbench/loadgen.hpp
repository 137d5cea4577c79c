#pragma once
// Load generators of the serve workloads, generic over any service whose
// submit(i) returns a std::future for request i.
//
// Closed loop: one client keeps a fixed number of requests outstanding
// and submits the next as soon as the oldest completes, so a slow service
// receives less load. Throughput is measured over whole passes of a
// fixed request count.
//
// Open loop: one load thread sends request i at its due time whatever the
// service is doing, so a stall grows a queue, and between sends it polls
// the outstanding futures, so completions are stamped in whatever order
// they happen. It spins rather than sleeps: a sleeping sender wakes late
// and a sleeping collector stamps late. Latency is measured from the due
// time, not the send time, so it counts the wait a stall (or a blocking
// submit) imposes on every later request, and the sender's own lateness
// (send - due) is reported beside it.
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <future>
#include <type_traits>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct ClosedLoopResult {
  std::uint64_t timed_requests = 0;  ///< completed inside the timed window
  std::uint64_t checked = 0;         ///< timed + drained after the window
  std::uint64_t failed = 0;          ///< check false or broken future
  double elapsed_s = 0.0;            ///< the timed window (whole passes)
  std::vector<double> pass_s;        ///< duration of each pass
};

/// Runs passes of `pass_len` requests with `outstanding` in flight until
/// the first pass boundary after `seconds`. `check(i, answer)` validates
/// request i's answer. With a tracer on, every `trace_every`-th request is
/// a span "serve.request" under `parent`.
template <typename Submit, typename Check>
ClosedLoopResult run_closed_loop(std::size_t outstanding, std::size_t pass_len,
                                 double seconds, Submit&& submit,
                                 Check&& check, Tracer& tracer,
                                 std::uint64_t parent,
                                 std::size_t trace_every = 1) {
  using Future = std::invoke_result_t<Submit&, std::size_t>;
  struct InFlight {
    Future fut;
    Clock::time_point submitted;
  };
  ClosedLoopResult res;
  std::deque<InFlight> inflight;
  std::size_t next = 0;
  auto send = [&] {
    const Clock::time_point t = Clock::now();
    inflight.push_back({submit(next++), t});
  };
  auto complete = [&](InFlight& f, std::size_t i) {
    bool ok = false;
    try {
      auto answer = f.fut.get();
      ok = check(i, answer);
    } catch (...) {
      ok = false;
    }
    ++res.checked;
    if (!ok) ++res.failed;
    return Clock::now();
  };

  const Clock::time_point t0 = Clock::now();
  Clock::time_point pass_start = t0;
  for (std::size_t k = 0; k < outstanding; ++k) send();
  for (std::size_t i = 0;; ++i) {
    InFlight f = std::move(inflight.front());
    inflight.pop_front();
    const Clock::time_point done = complete(f, i);
    ++res.timed_requests;
    if (tracer.enabled() && i % trace_every == 0) {
      tracer.record({"serve.request", tracer.next_id(), parent,
                     static_cast<std::int64_t>(i), f.submitted, done});
    }
    if ((i + 1) % pass_len == 0) {
      res.pass_s.push_back(seconds_between(pass_start, done));
      pass_start = done;
      if (seconds_between(t0, done) >= seconds) {
        res.elapsed_s = seconds_between(t0, done);
        break;
      }
    }
    send();
  }
  for (std::size_t i = res.timed_requests; !inflight.empty(); ++i) {
    InFlight f = std::move(inflight.front());
    inflight.pop_front();
    complete(f, i);
  }
  return res;
}

struct OpenLoopResult {
  std::vector<double> latency_us;  ///< completion - due, per request
  std::vector<double> late_us;     ///< send - due, per request
  std::uint64_t failed = 0;
};

/// Sends request i at start + due_s[i] (due_s ascending) and, between
/// sends, polls every outstanding future, stamping each the moment it is
/// seen ready.
template <typename Submit, typename Check>
OpenLoopResult run_open_loop(const std::vector<double>& due_s,
                             Submit&& submit, Check&& check) {
  using Future = std::invoke_result_t<Submit&, std::size_t>;
  const std::size_t n = due_s.size();
  OpenLoopResult res;
  res.latency_us.resize(n);
  res.late_us.resize(n);
  std::vector<Future> futures(n);
  std::vector<std::size_t> outstanding;

  const Clock::time_point start = Clock::now();
  auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s[i]));
  };
  std::size_t next = 0;
  while (next < n || !outstanding.empty()) {
    if (next < n) {
      const Clock::time_point t_due = due(next);
      const Clock::time_point now = Clock::now();
      if (now >= t_due) {
        res.late_us[next] = 1e6 * seconds_between(t_due, now);
        try {
          futures[next] = submit(next);
        } catch (...) {
          std::promise<decltype(futures[next].get())> broken;
          broken.set_exception(std::current_exception());
          futures[next] = broken.get_future();
        }
        outstanding.push_back(next++);
        continue;
      }
    }
    std::size_t keep = 0;
    for (const std::size_t i : outstanding) {
      if (futures[i].wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        outstanding[keep++] = i;
        continue;
      }
      const Clock::time_point done = Clock::now();
      bool ok = false;
      try {
        ok = check(i, futures[i].get());
      } catch (...) {
        ok = false;
      }
      res.latency_us[i] = 1e6 * seconds_between(due(i), done);
      if (!ok) ++res.failed;
    }
    outstanding.resize(keep);
  }
  return res;
}

}  // namespace perfbench
