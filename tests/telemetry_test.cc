// Telemetry layer: histogram percentile estimates vs a reference sort,
// exact counters under concurrent ParallelFor writers, Chrome trace-event
// JSON shape, the metrics JSONL export, and the disabled-mode no-op
// contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/common/parallel.h"
#include "src/common/rng.h"
#include "src/common/telemetry.h"

namespace smfl::telemetry {
namespace {

using parallel::Index;

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    MetricsRegistry::Global().ResetForTesting();
    TraceRecorder::Global().Clear();
  }

  void TearDown() override {
    SetEnabled(false);
    MetricsRegistry::Global().ResetForTesting();
    TraceRecorder::Global().Clear();
  }
};

TEST_F(TelemetryTest, BucketLowerBoundsArePowersOfTwo) {
  EXPECT_EQ(Histogram::BucketLowerBound(0), 0.0);
  EXPECT_EQ(Histogram::BucketLowerBound(1), 1.0);
  EXPECT_EQ(Histogram::BucketLowerBound(2), 2.0);
  EXPECT_EQ(Histogram::BucketLowerBound(3), 4.0);
  EXPECT_EQ(Histogram::BucketLowerBound(11), 1024.0);
}

TEST_F(TelemetryTest, HistogramSingleValueIsExact) {
  Histogram h;
  h.Record(37.5);
  const Histogram::Snapshot s = h.GetSnapshot();
  EXPECT_EQ(s.count, 1);
  EXPECT_EQ(s.sum, 37.5);
  EXPECT_EQ(s.min, 37.5);
  EXPECT_EQ(s.max, 37.5);
  // The [min, max] clamp makes every percentile of a one-value histogram
  // exact, not merely bucket-accurate.
  EXPECT_EQ(s.p50, 37.5);
  EXPECT_EQ(s.p95, 37.5);
  EXPECT_EQ(s.p99, 37.5);
}

TEST_F(TelemetryTest, HistogramEmptySnapshotIsZero) {
  Histogram h;
  const Histogram::Snapshot s = h.GetSnapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_EQ(s.sum, 0.0);
  EXPECT_EQ(s.p50, 0.0);
  EXPECT_EQ(s.p99, 0.0);
}

// The documented accuracy contract: each percentile estimate lands within
// the power-of-two bucket containing the true order statistic, i.e. within
// a factor of 2, and never outside [min, max].
TEST_F(TelemetryTest, HistogramPercentilesWithinOneBucketOfReferenceSort) {
  Rng rng(42);
  Histogram h;
  std::vector<double> values;
  for (int i = 0; i < 2000; ++i) {
    // Latency-like spread across ~6 decades: mantissa in [1, 2), exponent
    // in [0, 20).
    const double v =
        std::ldexp(rng.Uniform(1.0, 2.0),
                   static_cast<int>(rng.Uniform(0.0, 20.0)));
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  const Histogram::Snapshot s = h.GetSnapshot();
  ASSERT_EQ(s.count, static_cast<int64_t>(values.size()));
  EXPECT_EQ(s.min, values.front());
  EXPECT_EQ(s.max, values.back());

  const auto check = [&](double q, double estimate) {
    const double rank = q * static_cast<double>(values.size() - 1);
    const double ref_lo = values[static_cast<size_t>(std::floor(rank))];
    const double ref_hi = values[static_cast<size_t>(std::ceil(rank))];
    EXPECT_GE(estimate, ref_lo / 2.0) << "q=" << q;
    EXPECT_LE(estimate, ref_hi * 2.0) << "q=" << q;
    EXPECT_GE(estimate, s.min) << "q=" << q;
    EXPECT_LE(estimate, s.max) << "q=" << q;
  };
  check(0.50, s.p50);
  check(0.95, s.p95);
  check(0.99, s.p99);
}

TEST_F(TelemetryTest, HistogramRoutesNonFiniteAndNegativeToBucketZero) {
  Histogram h;
  h.Record(-5.0);
  h.Record(std::nan(""));
  const Histogram::Snapshot s = h.GetSnapshot();
  EXPECT_EQ(s.count, 2);
  EXPECT_EQ(s.min, 0.0);
  EXPECT_EQ(s.max, 0.0);
}

// Counters must be exact, not approximate, under concurrent writers. Run
// the increments through ParallelFor at 4 threads — the same path the
// production instrumentation uses — and demand the exact total.
TEST_F(TelemetryTest, CounterExactUnderConcurrentParallelForWriters) {
  constexpr Index kN = 100000;
  Counter& counter = MetricsRegistry::Global().GetCounter("test.concurrent");
  Histogram& hist =
      MetricsRegistry::Global().GetHistogram("test.concurrent_us");
  parallel::ScopedParallelism scoped(4);
  parallel::ParallelFor(0, kN, 64, [&](Index b, Index e) {
    for (Index i = b; i < e; ++i) {
      SMFL_COUNTER_INC("test.concurrent");
      hist.Record(static_cast<double>(i % 97));
    }
  });
  EXPECT_EQ(counter.value(), kN);
  EXPECT_EQ(hist.GetSnapshot().count, kN);
}

TEST_F(TelemetryTest, RegistryReturnsStableReferencesAcrossReset) {
  Counter& a = MetricsRegistry::Global().GetCounter("test.stable");
  a.Add(7);
  MetricsRegistry::Global().ResetForTesting();
  Counter& b = MetricsRegistry::Global().GetCounter("test.stable");
  EXPECT_EQ(&a, &b);  // macro-cached references survive a reset
  EXPECT_EQ(a.value(), 0);
}

TEST_F(TelemetryTest, ChromeTraceJsonHasExpectedShape) {
  {
    SMFL_TRACE_SPAN("test.span");
  }
  SMFL_TRACE_COUNTER("test.objective", 2.5);
  auto& recorder = TraceRecorder::Global();
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.dropped(), 0);
  const std::string json = recorder.ChromeTraceJson();
  EXPECT_TRUE(Contains(json, "\"traceEvents\":[")) << json;
  EXPECT_TRUE(Contains(json, "\"name\":\"test.span\"")) << json;
  EXPECT_TRUE(Contains(json, "\"ph\":\"X\"")) << json;
  EXPECT_TRUE(Contains(json, "\"cat\":\"smfl\"")) << json;
  EXPECT_TRUE(Contains(json, "\"pid\":1")) << json;
  EXPECT_TRUE(Contains(json, "\"name\":\"test.objective\"")) << json;
  EXPECT_TRUE(Contains(json, "\"ph\":\"C\"")) << json;
  EXPECT_TRUE(Contains(json, "\"args\":{\"value\":2.5}")) << json;
  EXPECT_TRUE(Contains(json, "\"dropped_events\":0")) << json;
  // The span's duration also landed in the histogram of the same name.
  EXPECT_EQ(MetricsRegistry::Global()
                .GetHistogram("test.span")
                .GetSnapshot()
                .count,
            1);
}

TEST_F(TelemetryTest, MetricsJsonlListsEveryInstrumentType) {
  SMFL_COUNTER_ADD("test.rollbacks", 3);
  SMFL_GAUGE_SET("test.final_objective", 12.25);
  SMFL_HISTOGRAM_RECORD("test.update_us", 8.0);
  const std::string jsonl = MetricsRegistry::Global().MetricsJsonl();
  EXPECT_TRUE(Contains(
      jsonl, "{\"name\":\"test.rollbacks\",\"type\":\"counter\",\"value\":3}"))
      << jsonl;
  EXPECT_TRUE(Contains(jsonl,
                       "{\"name\":\"test.final_objective\",\"type\":\"gauge\","
                       "\"value\":12.25}"))
      << jsonl;
  EXPECT_TRUE(
      Contains(jsonl, "{\"name\":\"test.update_us\",\"type\":\"histogram\","
                      "\"count\":1,"))
      << jsonl;
}

TEST_F(TelemetryTest, SnapshotBucketCountsAreExact) {
  Histogram h;
  h.Record(0.5);  // bucket 0: [0, 1)
  h.Record(1.5);  // bucket 1: [1, 2)
  h.Record(3.0);  // bucket 2: [2, 4)
  h.Record(3.5);  // bucket 2
  const Histogram::Snapshot s = h.GetSnapshot();
  EXPECT_EQ(s.count, 4);
  EXPECT_EQ(s.bucket_counts[0], 1);
  EXPECT_EQ(s.bucket_counts[1], 1);
  EXPECT_EQ(s.bucket_counts[2], 2);
  int64_t total = 0;
  for (const int64_t c : s.bucket_counts) total += c;
  EXPECT_EQ(total, s.count);
}

TEST_F(TelemetryTest, MetricsJsonlHistogramBucketsAreCumulative) {
  SMFL_HISTOGRAM_RECORD("test.lat_us", 0.5);
  SMFL_HISTOGRAM_RECORD("test.lat_us", 1.5);
  SMFL_HISTOGRAM_RECORD("test.lat_us", 3.0);
  SMFL_HISTOGRAM_RECORD("test.lat_us", 3.5);
  const std::string jsonl = MetricsRegistry::Global().MetricsJsonl();
  // Pairs are [upper_edge, cumulative_count_at_or_below_edge], emitted up
  // to the highest non-empty bucket.
  EXPECT_TRUE(Contains(jsonl, "\"buckets\":[[1,1],[2,2],[4,4]]}")) << jsonl;
}

TEST_F(TelemetryTest, DisabledMacrosRecordNothing) {
  Counter& counter = MetricsRegistry::Global().GetCounter("test.noop");
  Gauge& gauge = MetricsRegistry::Global().GetGauge("test.noop_gauge");
  Histogram& hist = MetricsRegistry::Global().GetHistogram("test.noop_us");
  SetEnabled(false);
  SMFL_COUNTER_INC("test.noop");
  SMFL_GAUGE_SET("test.noop_gauge", 5.0);
  SMFL_HISTOGRAM_RECORD("test.noop_us", 5.0);
  SMFL_TRACE_COUNTER("test.noop_gauge", 5.0);
  {
    SMFL_TRACE_SPAN("test.noop_span");
  }
  EXPECT_EQ(counter.value(), 0);
  EXPECT_EQ(gauge.value(), 0.0);
  EXPECT_EQ(hist.GetSnapshot().count, 0);
  EXPECT_EQ(TraceRecorder::Global().size(), 0u);
}

TEST_F(TelemetryTest, SpanDisabledAtConstructionStaysSilent) {
  SetEnabled(false);
  {
    SMFL_TRACE_SPAN("test.mid_enable");
    // Enabling mid-span must not make its destructor record a bogus
    // duration measured from an unset start time.
    SetEnabled(true);
  }
  EXPECT_EQ(TraceRecorder::Global().size(), 0u);
}

TEST_F(TelemetryTest, SmallThreadIdsAreSmallAndStable) {
  const int id = SmallThreadId();
  EXPECT_GE(id, 0);
  EXPECT_EQ(id, SmallThreadId());
}

}  // namespace
}  // namespace smfl::telemetry
