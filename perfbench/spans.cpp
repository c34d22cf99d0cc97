#include "spans.hpp"

#include <cassert>
#include <charconv>
#include <fstream>

namespace perfbench {

namespace {

std::string num(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed, 3);
  return std::string(buf, res.ptr);
}

}  // namespace

double SpanRecorder::now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanRecorder::open(std::string name) {
  Span s;
  s.name = std::move(name);
  s.start_us = now_us();
  s.parent = open_.empty() ? -1 : open_.back();
  s.rep = rep_;
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void SpanRecorder::close(int index) {
  assert(!open_.empty() && open_.back() == index);  // ScopedSpan closes innermost first.
  spans_[static_cast<std::size_t>(index)].end_us = now_us();
  open_.pop_back();
}

std::string SpanRecorder::chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ',';
    out += "\n{\"name\":\"" + s.name + "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" +
           num(s.start_us) + ",\"dur\":" + num(s.end_us - s.start_us) +
           ",\"args\":{\"id\":" + std::to_string(i) + ",\"parent\":" +
           std::to_string(s.parent) + ",\"rep\":" + std::to_string(s.rep) + "}}";
  }
  out += "\n]}\n";
  return out;
}

bool SpanRecorder::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << chrome_json();
  return static_cast<bool>(f);
}

}  // namespace perfbench
