#include "src/common/telemetry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/durable_io.h"
#include "src/common/strings.h"

namespace smfl::telemetry {

namespace internal {
std::atomic<bool> g_enabled{false};
}  // namespace internal

namespace {

// Escapes the characters JSON string literals cannot carry raw. Metric
// names are controlled literals, but exporters must never emit broken JSON
// even if a caller passes something exotic.
std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

Status WriteStringToFile(const std::string& path,
                         const std::string& contents) {
  // Atomic replace (temp + fsync + rename): trace/metrics files rewritten
  // at checkpoint boundaries never tear, so the previous flush survives a
  // crash mid-rewrite.
  return WriteFileDurable(path, contents);
}

}  // namespace

void SetEnabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

int SmallThreadId() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

// ---------------------------------------------------------------------------
// Histogram

double Histogram::BucketLowerBound(int b) {
  return b <= 0 ? 0.0 : std::ldexp(1.0, b - 1);
}

void Histogram::Record(double value) {
  // Instruments carry durations and counts: nonnegative by construction.
  // NaN or a negative (a backwards clock step) lands in bucket 0 rather
  // than corrupting the distribution.
  if (!(value >= 0.0)) value = 0.0;
  int b = 0;
  if (value >= 1.0) {
    b = std::min(1 + std::ilogb(value), kNumBuckets - 1);
  }
  buckets_[b].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double seen = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(seen, seen + value,
                                     std::memory_order_relaxed)) {
  }
  seen = min_.load(std::memory_order_relaxed);
  while (value < seen && !min_.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
  seen = max_.load(std::memory_order_relaxed);
  while (value > seen && !max_.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

double Histogram::Percentile(const int64_t* buckets, int64_t count, double q,
                             double min_seen, double max_seen) const {
  if (count <= 0) return 0.0;
  const double rank = q * static_cast<double>(count - 1);
  int64_t first_rank = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const int64_t next_first = first_rank + buckets[i];
    if (rank < static_cast<double>(next_first)) {
      const double lo = BucketLowerBound(i);
      const double hi = i + 1 < kNumBuckets
                            ? BucketLowerBound(i + 1)
                            : std::max(max_seen, lo);
      // Interpolate by position among this bucket's samples; with one
      // sample the estimate sits at the bucket's lower edge, and the final
      // clamp to [min, max] makes single-value histograms exact.
      const double frac =
          buckets[i] == 1
              ? 0.0
              : (rank - static_cast<double>(first_rank)) /
                    static_cast<double>(buckets[i] - 1);
      return std::clamp(lo + frac * (hi - lo), min_seen, max_seen);
    }
    first_rank = next_first;
  }
  return max_seen;
}

Histogram::Snapshot Histogram::GetSnapshot() const {
  int64_t buckets[kNumBuckets];
  int64_t count = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    count += buckets[i];
  }
  Snapshot snap;
  snap.count = count;
  for (int i = 0; i < kNumBuckets; ++i) {
    snap.bucket_counts[static_cast<size_t>(i)] = buckets[i];
  }
  if (count == 0) return snap;
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.min = min_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  snap.p50 = Percentile(buckets, count, 0.50, snap.min, snap.max);
  snap.p95 = Percentile(buckets, count, 0.95, snap.min, snap.max);
  snap.p99 = Percentile(buckets, count, 0.99, snap.min, snap.max);
  return snap;
}

void Histogram::ResetForTesting() {
  for (int i = 0; i < kNumBuckets; ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked:
  return *registry;  // instruments may be touched during static teardown
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricsRegistry::ResetForTesting() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->ResetForTesting();
  for (auto& [name, g] : gauges_) g->ResetForTesting();
  for (auto& [name, h] : histograms_) h->ResetForTesting();
}

MetricsRegistry::MetricsSnapshot MetricsRegistry::SnapshotAll() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    snap.histograms.emplace_back(name, h->GetSnapshot());
  }
  return snap;
}

std::string MetricsRegistry::MetricsJsonl() const {
  const MetricsSnapshot snap = SnapshotAll();
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    out += StrFormat("{\"name\":\"%s\",\"type\":\"counter\",\"value\":%lld}\n",
                     EscapeJson(name).c_str(), static_cast<long long>(value));
  }
  for (const auto& [name, value] : snap.gauges) {
    out += StrFormat("{\"name\":\"%s\",\"type\":\"gauge\",\"value\":%.17g}\n",
                     EscapeJson(name).c_str(), value);
  }
  for (const auto& [name, s] : snap.histograms) {
    out += StrFormat(
        "{\"name\":\"%s\",\"type\":\"histogram\",\"count\":%lld,"
        "\"sum\":%.10g,\"min\":%.10g,\"max\":%.10g,"
        "\"p50\":%.10g,\"p95\":%.10g,\"p99\":%.10g,\"buckets\":[",
        EscapeJson(name).c_str(), static_cast<long long>(s.count), s.sum,
        s.min, s.max, s.p50, s.p95, s.p99);
    // Exact cumulative counts as [upper_edge, count_le_edge] pairs, up to
    // the highest non-empty bucket; the final overflow bucket's cumulative
    // count is the "count" field, so it is never repeated here.
    int highest = -1;
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      if (s.bucket_counts[static_cast<size_t>(b)] > 0) highest = b;
    }
    int64_t cumulative = 0;
    for (int b = 0; b <= highest && b < Histogram::kNumBuckets - 1; ++b) {
      cumulative += s.bucket_counts[static_cast<size_t>(b)];
      out += StrFormat("%s[%.17g,%lld]", b > 0 ? "," : "",
                       Histogram::BucketLowerBound(b + 1),
                       static_cast<long long>(cumulative));
    }
    out += "]}\n";
  }
  return out;
}

Status MetricsRegistry::WriteMetricsJsonl(const std::string& path) const {
  return WriteStringToFile(path, MetricsJsonl());
}

// ---------------------------------------------------------------------------
// TraceRecorder

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder();  // leaked, as above
  return *recorder;
}

void TraceRecorder::RecordComplete(const char* name, int64_t ts_us,
                                   int64_t dur_us, int tid) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back(TraceEvent{name, 'X', ts_us, dur_us, tid, 0.0});
}

void TraceRecorder::RecordCounterSample(const char* name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= kMaxEvents) {
    ++dropped_;
    return;
  }
  events_.push_back(TraceEvent{name, 'C', NowMicros(), 0, 0, value});
}

size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

int64_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  events_.shrink_to_fit();
  dropped_ = 0;
}

std::string TraceRecorder::ChromeTraceJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = StrFormat(
      "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":%lld},"
      "\"traceEvents\":[",
      static_cast<long long>(dropped_));
  bool first = true;
  for (const TraceEvent& e : events_) {
    if (!first) out += ",";
    first = false;
    if (e.phase == 'X') {
      out += StrFormat(
          "\n{\"name\":\"%s\",\"cat\":\"smfl\",\"ph\":\"X\",\"ts\":%lld,"
          "\"dur\":%lld,\"pid\":1,\"tid\":%d}",
          EscapeJson(e.name).c_str(), static_cast<long long>(e.ts_us),
          static_cast<long long>(e.dur_us), e.tid);
    } else {
      out += StrFormat(
          "\n{\"name\":\"%s\",\"cat\":\"smfl\",\"ph\":\"C\",\"ts\":%lld,"
          "\"pid\":1,\"tid\":0,\"args\":{\"value\":%.17g}}",
          EscapeJson(e.name).c_str(), static_cast<long long>(e.ts_us),
          e.value);
    }
  }
  out += "\n]}\n";
  return out;
}

Status TraceRecorder::WriteChromeTrace(const std::string& path) const {
  return WriteStringToFile(path, ChromeTraceJson());
}

// ---------------------------------------------------------------------------

ScopedSpan::~ScopedSpan() {
  if (!enabled_) return;
  const int64_t end_us = NowMicros();
  const int64_t dur_us = end_us - start_us_;
  TraceRecorder::Global().RecordComplete(name_, start_us_, dur_us,
                                         SmallThreadId());
  MetricsRegistry::Global().GetHistogram(name_).Record(
      static_cast<double>(dur_us));
}

namespace internal {

void TraceCounterImpl(const char* name, double value) {
  TraceRecorder::Global().RecordCounterSample(name, value);
  MetricsRegistry::Global().GetGauge(name).Set(value);
}

}  // namespace internal

}  // namespace smfl::telemetry
