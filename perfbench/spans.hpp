// Benchmark-side spans: one around each public call the benchmark makes into
// a layer of the simulator. Spans stay in memory and are written as
// Chrome-trace JSON (chrome://tracing, Perfetto) when the benchmark ends.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;  ///< Host time since the recorder was made.
    double end_us = 0.0;
    int parent = -1;  ///< Index of the enclosing span, -1 at the root.
    drmp::u64 rep = 0;  ///< Repetition id shared by every span of a repetition.
  };

  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Starts the repetition `rep`: later spans carry its id.
  void set_rep(drmp::u64 rep) { rep_ = rep; }
  /// Opens a span nested in the innermost open one; returns its index.
  int open(std::string name);
  /// Closes the innermost open span, which must be `index`.
  void close(int index);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Complete ("X") trace events, one per span, with id, parent and rep args.
  std::string chrome_json() const;
  bool write(const std::string& path) const;

 private:
  double now_us() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  drmp::u64 rep_ = 0;
};

/// RAII span; a no-op when the recorder is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name)
      : rec_(rec), index_(rec ? rec->open(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (rec_) rec_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int index_;
};

}  // namespace perfbench
