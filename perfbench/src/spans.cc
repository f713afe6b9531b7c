#include "perfbench/src/spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "src/common/stopwatch.h"

namespace perfbench {

double TraceNowUs() {
  using Clock = smfl::Stopwatch::Clock;
  // The program's trace epoch is fixed on its first use; pair it once with
  // a nanosecond reading of the same clock.
  static const int64_t epoch_us = smfl::SteadyNowMicros();
  static const Clock::time_point epoch_tp = Clock::now();
  return static_cast<double>(epoch_us) +
         std::chrono::duration<double, std::micro>(Clock::now() - epoch_tp)
             .count();
}

int64_t SpanRecorder::Begin(const char* name, int64_t parent,
                            int64_t request) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.start_us = TraceNowUs();
  spans_.push_back(s);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanRecorder::End(int64_t index) {
  spans_[static_cast<size_t>(index)].end_us = TraceNowUs();
}

std::string SpanRecorder::ChromeEvents() const {
  std::string out =
      "\n{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,"
      "\"args\":{\"name\":\"perfbench harness\"}}";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":2,\"tid\":0,\"args\":"
                  "{\"span\":%zu,\"parent\":%lld,\"request\":%lld}}",
                  s.name, s.start_us, s.duration_us(), i,
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.request));
    out += buf;
  }
  return out;
}

std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const double lo = std::max(s.start_us, p.start_us);
    const double hi = std::min(s.end_us, p.end_us);
    if (hi > lo) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = 0.0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = spans[i].duration_us() - covered;
  }
  return self;
}

std::string MergeChromeTrace(const std::string& program_trace,
                             const std::string& harness_events) {
  const std::string key = "\"traceEvents\":[";
  const size_t open = program_trace.find(key);
  const size_t close = program_trace.rfind(']');
  if (open == std::string::npos || close == std::string::npos ||
      close < open) {
    // Unknown layout: keep the harness track alone rather than guess.
    return "{\"traceEvents\":[" + harness_events + "\n]}\n";
  }
  const size_t body = open + key.size();
  std::string program_events = program_trace.substr(body, close - body);
  const bool has_program_events =
      program_events.find('{') != std::string::npos;
  return program_trace.substr(0, body) + harness_events +
         (has_program_events ? "," : "") + program_events +
         program_trace.substr(close);
}

}  // namespace perfbench
