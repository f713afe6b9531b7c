#include "src/obs/exporter.h"

#include <cstdint>

#include "src/common/fit_progress.h"
#include "src/common/strings.h"
#include "src/common/telemetry.h"
#include "src/obs/prometheus.h"

namespace smfl::obs {

std::string StatuszJson() {
  const FitProgress& p = GlobalFitProgress();
  const int64_t iteration = p.iteration.load(std::memory_order_relaxed);
  const int64_t max_iterations =
      p.max_iterations.load(std::memory_order_relaxed);
  // ETA: remaining iterations at the median observed per-iteration cost.
  // The smfl.fit.iter histogram records only while telemetry collection is
  // on (--metrics-port turns it on); with no samples the field is null.
  const telemetry::Histogram::Snapshot iter_snapshot =
      telemetry::MetricsRegistry::Global()
          .GetHistogram("smfl.fit.iter")
          .GetSnapshot();
  std::string eta = "null";
  if (iter_snapshot.count > 0 && max_iterations > iteration) {
    eta = StrFormat("%.3f", static_cast<double>(max_iterations - iteration) *
                                iter_snapshot.p50 / 1e6);
  }
  return StrFormat(
      "{\"fit_active\":%s,\"restart\":%lld,\"attempt\":%lld,"
      "\"iteration\":%lld,\"max_iterations\":%lld,"
      "\"objective\":%.17g,\"convergence_delta\":%.10g,"
      "\"checkpoint_generation\":%lld,"
      "\"foldin_rows\":%lld,\"foldin_batches\":%lld,"
      "\"updates\":%lld,\"eta_seconds\":%s,\"uptime_seconds\":%.3f}\n",
      p.fit_active.load(std::memory_order_relaxed) ? "true" : "false",
      static_cast<long long>(p.restart.load(std::memory_order_relaxed)),
      static_cast<long long>(p.attempt.load(std::memory_order_relaxed)),
      static_cast<long long>(iteration),
      static_cast<long long>(max_iterations),
      p.objective.load(std::memory_order_relaxed),
      p.convergence_delta.load(std::memory_order_relaxed),
      static_cast<long long>(
          p.checkpoint_generation.load(std::memory_order_relaxed)),
      static_cast<long long>(p.foldin_rows.load(std::memory_order_relaxed)),
      static_cast<long long>(
          p.foldin_batches.load(std::memory_order_relaxed)),
      static_cast<long long>(p.updates.load(std::memory_order_relaxed)),
      eta.c_str(), static_cast<double>(telemetry::NowMicros()) / 1e6);
}

MetricsExporter::~MetricsExporter() { Stop(); }

Status MetricsExporter::Start(const Options& options) {
  if (running_) {
    return Status::FailedPrecondition("MetricsExporter: already running");
  }
  server_.Handle("/metrics", [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = PrometheusContentType();
    response.body = RenderGlobalPrometheusText();
    return response;
  });
  server_.Handle("/healthz", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "ok\n";
    return response;
  });
  server_.Handle("/statusz", [](const HttpRequest&) {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = StatuszJson();
    return response;
  });
  HttpServer::Options server_options;
  server_options.port = options.port;
  server_options.bind_address = options.bind_address;
  RETURN_NOT_OK(server_.Start(server_options));
  sampler_.Start(options.sample_interval_ms);
  running_ = true;
  return Status::OK();
}

void MetricsExporter::Stop() {
  if (!running_) return;
  sampler_.Stop();
  server_.Stop();
  running_ = false;
}

}  // namespace smfl::obs
