// Runtime telemetry: a process-global metrics registry (monotonic
// counters, gauges, fixed-bucket histograms with percentile snapshots) and
// scoped tracing spans exported as Chrome trace-event JSON.
//
// Telemetry is OFF by default and is purely observational: instruments
// record timings and counts, never values that feed numeric code, so the
// bitwise-determinism contract of the parallel layer (common/parallel.h)
// is untouched — trajectories are identical with telemetry on or off
// (tests/kernel_equivalence_test.cc asserts this).
//
// SetEnabled(true/false) is the one switch; the CLI turns collection on
// when a sink asks for it (--trace-out, --metrics-out, --metrics-port).
// When disabled every macro costs exactly one relaxed atomic load and a
// predictable untaken branch (the same pattern as SMFL_FAULT_FIRED);
// bench/bench_kernels.cpp's BM_TelemetryOverhead guards that the disabled
// path stays free.
//
// Naming convention (see docs/observability.md): dot-separated
// `component.operation`, e.g. "smfl.fit.iter", "parallel.chunk_us",
// "foldin.rows". Span names must be string literals (the trace recorder
// stores the pointer, not a copy).

#ifndef SMFL_COMMON_TELEMETRY_H_
#define SMFL_COMMON_TELEMETRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/common/stopwatch.h"

namespace smfl::telemetry {

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

// True when instruments record. One relaxed load — safe on any hot path.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

// Enables/disables collection.
void SetEnabled(bool on);

// Small sequential id for the calling thread (0 for the first thread that
// asks, 1 for the second, ...). Stable for the thread's lifetime; used as
// the `tid` of trace events and in log prefixes.
int SmallThreadId();

// Microseconds since the process epoch on the shared steady clock
// (src/common/stopwatch.h) — the timebase of every span and timestamp.
inline int64_t NowMicros() { return SteadyNowMicros(); }

// ---------------------------------------------------------------------------
// Instruments. All methods are thread-safe and lock-free; references
// returned by the registry stay valid for the process lifetime.

// Monotonic counter.
class Counter {
 public:
  void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void ResetForTesting() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Last-value gauge.
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void ResetForTesting() { Set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

// Fixed-bucket histogram with power-of-two bucket boundaries: bucket 0 is
// [0, 1), bucket b >= 1 is [2^(b-1), 2^b), the last bucket absorbs the
// overflow. Percentiles are estimated by linear interpolation inside the
// bucket containing the rank, so the estimate is always within one bucket
// (a factor of 2) of the exact order statistic — tight enough for latency
// monitoring at any magnitude from sub-microsecond to hours.
class Histogram {
 public:
  static constexpr int kNumBuckets = 44;

  void Record(double value);

  struct Snapshot {
    int64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    // Exact per-bucket sample counts (bucket b covers [BucketLowerBound(b),
    // BucketLowerBound(b+1)); the last absorbs overflow). Exported so the
    // Prometheus serializer can emit exact cumulative `le` buckets instead
    // of interpolated percentiles.
    std::array<int64_t, kNumBuckets> bucket_counts{};
  };
  // A consistent-enough view under concurrent writers: counts are relaxed
  // loads, so a snapshot taken mid-Record may lag by in-flight updates.
  Snapshot GetSnapshot() const;

  // Lower edge of bucket b (0, 1, 2, 4, 8, ...).
  static double BucketLowerBound(int b);

  void ResetForTesting();

 private:
  double Percentile(const int64_t* buckets, int64_t count, double q,
                    double min_seen, double max_seen) const;

  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

// ---------------------------------------------------------------------------
// Registry: name -> instrument, created on first use. Lookup takes a
// mutex; the SMFL_* macros cache the returned reference in a function-local
// static so steady-state cost is the instrument's atomic op alone.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  // Zeroes every instrument IN PLACE. References handed out earlier (and
  // cached inside macros) stay valid — essential for test isolation.
  void ResetForTesting();

  // A point-in-time copy of every instrument, sorted by name (std::map
  // order). This is the one API exporters build on: the JSONL writer below
  // and the Prometheus text serializer (src/obs/prometheus.h) both consume
  // it, so a scrape never holds the registry mutex longer than the copy.
  struct MetricsSnapshot {
    std::vector<std::pair<std::string, int64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;
  };
  MetricsSnapshot SnapshotAll() const;

  // One JSON object per line, sorted by name:
  //   {"name":"smfl.guard.rollbacks","type":"counter","value":3}
  //   {"name":"smfl.fit.objective","type":"gauge","value":12.25}
  //   {"name":"smfl.fit.update_u","type":"histogram","count":40,...,
  //    "buckets":[[1,0],[2,3],...]}  // [upper_edge, cumulative_count]
  std::string MetricsJsonl() const;
  Status WriteMetricsJsonl(const std::string& path) const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  // node-based maps: pointers stable across inserts.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// ---------------------------------------------------------------------------
// Tracing. Events accumulate in a bounded in-memory buffer and export in
// the Chrome trace-event format, loadable by chrome://tracing and Perfetto.

struct TraceEvent {
  const char* name;  // static-lifetime string (macros pass literals)
  char phase;        // 'X' = complete span, 'C' = counter sample
  int64_t ts_us;     // NowMicros() at event start
  int64_t dur_us;    // span duration ('X' only)
  int tid;           // SmallThreadId()
  double value;      // counter sample value ('C' only)
};

class TraceRecorder {
 public:
  static TraceRecorder& Global();

  void RecordComplete(const char* name, int64_t ts_us, int64_t dur_us,
                      int tid);
  void RecordCounterSample(const char* name, double value);

  // Events currently buffered / dropped since the last Clear() (the buffer
  // caps at kMaxEvents so a runaway loop cannot exhaust memory; drops are
  // counted, not silently swallowed).
  size_t size() const;
  int64_t dropped() const;
  void Clear();

  std::string ChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

  static constexpr size_t kMaxEvents = 1u << 20;

 private:
  TraceRecorder() = default;

  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  int64_t dropped_ = 0;
};

// RAII span: records start/duration/thread-id as a trace event AND the
// duration (µs) into the histogram of the same name, so phase timings show
// up both on the timeline and as percentile summaries in the metrics
// snapshot. When telemetry is disabled at construction the destructor does
// nothing, whatever the state at destruction.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : name_(name), enabled_(Enabled()) {
    if (enabled_) start_us_ = NowMicros();
  }
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  int64_t start_us_ = 0;
  bool enabled_;
};

namespace internal {
// Out-of-line slow paths for the macros below (called only when enabled).
void TraceCounterImpl(const char* name, double value);
}  // namespace internal

}  // namespace smfl::telemetry

#define SMFL_TELEMETRY_CONCAT_INNER(a, b) a##b
#define SMFL_TELEMETRY_CONCAT(a, b) SMFL_TELEMETRY_CONCAT_INNER(a, b)

// Scoped span named by a string literal: `SMFL_TRACE_SPAN("smfl.fit.iter");`
#define SMFL_TRACE_SPAN(name)                                      \
  ::smfl::telemetry::ScopedSpan SMFL_TELEMETRY_CONCAT(smfl_span_,  \
                                                      __LINE__)(name)

// Each macro expansion owns one block-scoped static caching the registry
// lookup, initialized (thread-safely) the first time telemetry is enabled
// at that call site.
#define SMFL_COUNTER_ADD(name, delta)                                      \
  do {                                                                     \
    if (::smfl::telemetry::Enabled()) {                                    \
      static ::smfl::telemetry::Counter& smfl_telemetry_instrument =       \
          ::smfl::telemetry::MetricsRegistry::Global().GetCounter(name);   \
      smfl_telemetry_instrument.Add(delta);                                \
    }                                                                      \
  } while (0)

#define SMFL_COUNTER_INC(name) SMFL_COUNTER_ADD(name, 1)

#define SMFL_GAUGE_SET(name, value)                                        \
  do {                                                                     \
    if (::smfl::telemetry::Enabled()) {                                    \
      static ::smfl::telemetry::Gauge& smfl_telemetry_instrument =         \
          ::smfl::telemetry::MetricsRegistry::Global().GetGauge(name);     \
      smfl_telemetry_instrument.Set(value);                                \
    }                                                                      \
  } while (0)

#define SMFL_HISTOGRAM_RECORD(name, value)                                 \
  do {                                                                     \
    if (::smfl::telemetry::Enabled()) {                                    \
      static ::smfl::telemetry::Histogram& smfl_telemetry_instrument =     \
          ::smfl::telemetry::MetricsRegistry::Global().GetHistogram(name); \
      smfl_telemetry_instrument.Record(value);                             \
    }                                                                      \
  } while (0)

// Time series sample: emits a Chrome counter event (plotted as a track in
// chrome://tracing — e.g. the objective trajectory over wall time) and
// sets the gauge of the same name so the last value lands in the metrics
// snapshot.
#define SMFL_TRACE_COUNTER(name, value)                                    \
  do {                                                                     \
    if (::smfl::telemetry::Enabled()) {                                    \
      ::smfl::telemetry::internal::TraceCounterImpl(name, value);          \
    }                                                                      \
  } while (0)

#endif  // SMFL_COMMON_TELEMETRY_H_
