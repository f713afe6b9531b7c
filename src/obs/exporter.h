// MetricsExporter: the assembled observability plane. Owns an HttpServer
// and a ResourceSampler and serves three read-only endpoints:
//
//   /metrics   Prometheus text exposition of the whole metrics registry
//              (prometheus.h), including the process.* resource gauges and
//              the server's own obs.http.* instruments.
//   /healthz   liveness: always "ok" with status 200 while serving.
//   /statusz   live fit/serving progress as JSON, fed by the lock-free
//              FitProgress struct the FitSmfl loop and FoldIn publish
//              (src/common/fit_progress.h), plus an ETA extrapolated from
//              the smfl.fit.iter duration histogram's p50.
//
// The CLI starts one exporter when --metrics-port is set
// (src/cli/commands.cc). Everything served is observational; scraping
// cannot perturb a running fit (tests/obs_endpoint_test.cc proves byte-
// identical models with and without concurrent scrapes).

#ifndef SMFL_OBS_EXPORTER_H_
#define SMFL_OBS_EXPORTER_H_

#include <string>

#include "src/common/status.h"
#include "src/obs/http_server.h"
#include "src/obs/resource_sampler.h"

namespace smfl::obs {

// The /statusz payload. Pure function over GlobalFitProgress() and the
// metrics registry, exposed so tests can validate the JSON without a
// socket.
std::string StatuszJson();

class MetricsExporter {
 public:
  struct Options {
    int port = 0;  // 0 = ephemeral; read back with port()
    std::string bind_address = "127.0.0.1";
    int sample_interval_ms = 1000;
  };

  MetricsExporter() = default;
  ~MetricsExporter();

  MetricsExporter(const MetricsExporter&) = delete;
  MetricsExporter& operator=(const MetricsExporter&) = delete;

  Status Start(const Options& options);
  void Stop();

  int port() const { return server_.port(); }
  bool running() const { return running_; }

 private:
  HttpServer server_;
  ResourceSampler sampler_;
  bool running_ = false;
};

}  // namespace smfl::obs

#endif  // SMFL_OBS_EXPORTER_H_
