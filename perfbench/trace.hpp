// Span recorder for the benchmark's traced runs.
//
// Spans are taken from outside the library: one span around each call the
// benchmark makes into a module's public functions, named "<layer>.<call>".
// The benchmark thread is the only one that records, so a stack of open
// spans gives every span its parent. Spans stay in memory and are written out
// with the result when the run ends.
//
// Every call is timed whether tracing is on or not (the end-to-end metrics
// come from the same clock); tracing only decides whether the span is kept.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct span_record {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 for a top-level span
  std::int64_t request = -1;  ///< the sample the span belongs to; -1 = setup
  double start_us = 0.0;     ///< since the tracer was created
  double dur_us = 0.0;
};

class tracer {
 public:
  explicit tracer(bool recording)
      : recording_(recording), origin_(std::chrono::steady_clock::now()) {}

  bool recording() const { return recording_; }

  /// Spans opened from now on belong to sample `request` (-1 = setup).
  void set_request(std::int64_t request) { request_ = request; }

  /// Runs `fn`, returning its wall time in seconds; keeps a span named
  /// `name` when recording.
  template <class F>
  double time(const char* name, F&& fn) {
    const std::int64_t id = next_id_++;
    const bool keep = recording_;
    if (keep) stack_.push_back(id);
    const auto t0 = std::chrono::steady_clock::now();
    std::forward<F>(fn)();
    const auto t1 = std::chrono::steady_clock::now();
    if (keep) {
      stack_.pop_back();
      span_record s;
      s.name = name;
      s.id = id;
      s.parent = stack_.empty() ? -1 : stack_.back();
      s.request = request_;
      s.start_us = micros(t0 - origin_);
      s.dur_us = micros(t1 - t0);
      spans_.push_back(std::move(s));
    }
    return std::chrono::duration<double>(t1 - t0).count();
  }

  const std::vector<span_record>& spans() const { return spans_; }

  /// What keeping one span costs, in seconds: `n` empty spans kept minus `n`
  /// dropped, per span, the median of five rounds. The calibration spans are
  /// discarded.
  double span_cost_s(std::size_t n = 20000) {
    const bool was = recording_;
    const std::size_t kept = spans_.size();
    std::vector<double> cost;
    for (int round = 0; round < 5; ++round) {
      double secs[2];
      for (int keep = 0; keep < 2; ++keep) {
        recording_ = keep == 1;
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < n; ++i) time("trace.calibrate", [] {});
        secs[keep] = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                         .count();
        spans_.resize(kept);
      }
      cost.push_back((secs[1] - secs[0]) / static_cast<double>(n));
    }
    recording_ = was;
    std::sort(cost.begin(), cost.end());
    return std::max(0.0, cost[cost.size() / 2]);
  }

 private:
  static double micros(std::chrono::steady_clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  }

  bool recording_;
  std::chrono::steady_clock::time_point origin_;
  std::int64_t next_id_ = 0;
  std::int64_t request_ = -1;
  std::vector<std::int64_t> stack_;
  std::vector<span_record> spans_;
};

}  // namespace perfbench
