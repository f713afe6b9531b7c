#include "perfbench/src/selftest.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "perfbench/src/check.h"
#include "perfbench/src/probe.h"
#include "perfbench/src/spans.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/workload.h"

namespace perfbench {

namespace {

class Checker {
 public:
  void Expect(bool ok, const std::string& what) {
    if (!ok) failures_.push_back(what);
  }
  void Near(double got, double want, const std::string& what) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), " (got %.12g, want %.12g)", got, want);
    Expect(std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want)),
           what + buf);
  }
  std::vector<std::string> failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

std::vector<double> Ramp(int n) {
  std::vector<double> v(static_cast<size_t>(n));
  // Descending, so the percentile code has to sort.
  for (int i = 0; i < n; ++i) v[static_cast<size_t>(i)] = n - i;
  return v;
}

void TestPercentiles(Checker& t) {
  t.Near(Median({3, 1, 2}), 2, "median of an odd count");
  t.Near(Median({4, 1, 3, 2}), 2.5, "median of an even count");
  // p95 needs ten samples beyond its rank: rank ceil(0.95 n), n - rank >= 10.
  t.Expect(!TailPercentile(Ramp(199), 0.95).has_value(),
           "p95 withheld at 199 samples (9 beyond it)");
  const auto p95 = TailPercentile(Ramp(200), 0.95);
  t.Expect(p95.has_value(), "p95 reported at 200 samples (10 beyond it)");
  if (p95) t.Near(*p95, 190, "p95 of 1..200 is the 190th sample");
  t.Expect(MinSamplesForPercentile(0.95) == 200, "p95 needs 200 samples");
  t.Expect(MinSamplesForPercentile(0.99) == 1000, "p99 needs 1000 samples");
  t.Expect(MinSamplesForPercentile(0.90) == 100, "p90 needs 100 samples");
  t.Expect(!TailPercentile(Ramp(16), 0.90).has_value(),
           "p90 withheld for a 16-request run");
}

void TestSelfTime(Checker& t) {
  // request [0, 100] with stages [5, 30], [30, 60] and [70, 98]; the
  // second stage has children [32, 40] and [38, 50] that overlap, and the
  // third a child [90, 110] that outlives it.
  auto span = [](const char* name, double a, double b, int64_t parent) {
    Span s;
    s.name = name;
    s.start_us = a;
    s.end_us = b;
    s.parent = parent;
    return s;
  };
  const std::vector<Span> tree = {
      span("request", 0, 100, -1), span("read", 5, 30, 0),
      span("fit", 30, 60, 0),      span("write", 70, 98, 0),
      span("iter.a", 32, 40, 2),   span("iter.b", 38, 50, 2),
      span("late", 90, 110, 3),
  };
  const std::vector<double> self = SelfTimesUs(tree);
  t.Near(self[0], 100 - 25 - 30 - 28, "request self time excludes stages");
  t.Near(self[1], 25, "leaf self time is its duration");
  t.Near(self[2], 30 - 18, "overlapping children count once");
  t.Near(self[3], 28 - 8, "a child is clipped to its parent");
  t.Near(self[6], 20, "a leaf is not clipped");
}

void TestNrmse(Checker& t) {
  // 2 rows x 4 columns (2 coordinates). Truth ranges: a01 10..30 (20),
  // a02 5..7 (2). Hidden: (0, a01) and (1, a02).
  SpatialTable in;
  in.rows = 2;
  in.cols = 4;
  in.truth = {30.0, 100.0, 10.0, 5.0,  //
              31.0, 101.0, 30.0, 7.0};
  in.observed = {1, 1, 0, 1,  //
                 1, 1, 1, 0};
  const std::string header = CsvHeader(in) + "\n";
  const OutputCheck good = CheckOutput(
      in, header + "30,100,14,5\n31,101,30,6.5\n");
  t.Expect(good.ok, "a correct output passes: " + good.error);
  t.Expect(good.hidden_cells == 2, "two hidden cells scored");
  // errors (14 - 10) / 20 = 0.2 and (6.5 - 7) / 2 = -0.25
  t.Near(Nrmse(good.scaled_sq_error, good.hidden_cells),
         std::sqrt((0.04 + 0.0625) / 2), "nrmse by hand");
  t.Expect(!CheckOutput(in, header + "30,100,14,5.000001\n31,101,30,6.5\n").ok,
           "a changed observed cell fails");
  t.Expect(!CheckOutput(in, header + "30,100,,5\n31,101,30,6.5\n").ok,
           "an empty cell fails");
  t.Expect(!CheckOutput(in, header + "30,100,nan,5\n31,101,30,6.5\n").ok,
           "a non-finite cell fails");
  t.Expect(!CheckOutput(in, header + "30,100,14,5\n31,101,30\n").ok,
           "a short row fails");
  t.Expect(!CheckOutput(in, header + "30,100,14,5\n31,101,30,6.5,1\n").ok,
           "a long row fails");
}

void TestGeneratorIsSeeded(Checker& t) {
  auto make = [](uint64_t seed) {
    const SpatialField field = MakeField(6);
    Rng rng(StreamSeed(seed, 2));
    SpatialTable table = SampleRows(field, rng, 50);
    HideCells(table, rng, 0.5);
    return ToCsv(table);
  };
  t.Expect(make(7) == make(7), "one seed gives one input");
  t.Expect(make(7) != make(8), "another seed gives another input");
}

void TestProbeScaling(Checker& t) {
  // A timing made while the probe took the reference time is unchanged; on
  // a host running at half that speed it is halved.
  t.Near(ScaleToReference(1234.5, kProbeReferenceMs, kProbeReferenceMs),
         1234.5, "scaling at the reference speed");
  t.Near(ScaleToReference(1000.0, 1.5 * kProbeReferenceMs,
                          2.5 * kProbeReferenceMs),
         500.0, "scaling by the mean of the probes around the timing");
}

}  // namespace

std::vector<std::string> RunSelfTests() {
  Checker t;
  TestPercentiles(t);
  TestSelfTime(t);
  TestNrmse(t);
  TestGeneratorIsSeeded(t);
  TestProbeScaling(t);
  return t.failures();
}

}  // namespace perfbench
