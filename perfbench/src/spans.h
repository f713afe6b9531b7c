// The traced run's own spans, recorded from outside the program around
// each call into a layer. Spans stay in memory and are written once, at
// the end, merged into the program's own Chrome trace.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Microseconds on the program's trace clock (smfl::SteadyNowMicros), at
// nanosecond resolution, so harness spans line up with the program's.
double TraceNowUs();

struct Span {
  const char* name;  // string literal
  double start_us = 0.0;
  double end_us = 0.0;
  int64_t parent = -1;  // index into the recorder's spans; -1 for a root
  int64_t request = 0;

  double duration_us() const { return end_us - start_us; }
};

class SpanRecorder {
 public:
  // Opens a span and returns its index.
  int64_t Begin(const char* name, int64_t parent, int64_t request);
  void End(int64_t index);

  const std::vector<Span>& spans() const { return spans_; }

  // Chrome trace events (one JSON object per span, comma separated).
  std::string ChromeEvents() const;

 private:
  std::vector<Span> spans_;
};

// Self time of every span: its duration minus the part of its interval
// that its direct children cover (overlapping children count once).
std::vector<double> SelfTimesUs(const std::vector<Span>& spans);

// One Chrome trace holding the program's events (`program_trace`, the
// TraceRecorder::ChromeTraceJson() document) and the harness's
// `harness_events`, as a separate process track.
std::string MergeChromeTrace(const std::string& program_trace,
                             const std::string& harness_events);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
