// End-to-end tests of the observability plane (src/obs): loopback scrapes
// of /metrics, /healthz, and /statusz while a real fit runs in-process,
// plus the HTTP server's failure paths (400/404/405/431/503, port in use).
// The core guarantee under test: scraping is purely observational — a fit
// run under concurrent scrapes serializes byte-identically to one without.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "src/common/fit_progress.h"
#include "src/common/telemetry.h"
#include "src/core/model_io.h"
#include "src/core/smfl.h"
#include "src/data/generators.h"
#include "src/data/inject.h"
#include "src/data/normalize.h"
#include "src/obs/exporter.h"
#include "src/obs/http_server.h"

namespace smfl::obs {
namespace {

using data::Mask;
using la::Index;
using la::Matrix;

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// Opens a loopback TCP connection to `port`. Returns -1 on failure.
int Connect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    close(fd);
    return -1;
  }
  return fd;
}

// Sends `request` verbatim and reads until the server closes (it always
// sends Connection: close). Returns the raw response, "" on any failure.
std::string RawRequest(int port, const std::string& request) {
  const int fd = Connect(port);
  if (fd < 0) return "";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = send(fd, request.data() + sent, request.size() - sent,
                           MSG_NOSIGNAL);
    if (n <= 0) {
      close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

std::string Get(int port, const std::string& path) {
  return RawRequest(port, "GET " + path + " HTTP/1.1\r\nHost: l\r\n\r\n");
}

// "HTTP/1.1 200 OK\r\n..." -> 200; -1 when unparseable.
int StatusCodeOf(const std::string& response) {
  const size_t sp = response.find(' ');
  if (sp == std::string::npos || sp + 4 > response.size()) return -1;
  return std::atoi(response.c_str() + sp + 1);
}

std::string BodyOf(const std::string& response) {
  const size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

// Extracts the integer value of `"key":` from a flat JSON object; -1 when
// the key is absent.
int64_t JsonInt(const std::string& json, const std::string& key) {
  const size_t pos = json.find("\"" + key + "\":");
  if (pos == std::string::npos) return -1;
  return std::atoll(json.c_str() + pos + key.size() + 3);
}

bool JsonTrue(const std::string& json, const std::string& key) {
  return Contains(json, "\"" + key + "\":true");
}

struct Scenario {
  Matrix input;
  Mask observed;
};

Scenario MakeScenario(Index rows, uint64_t seed) {
  auto dataset = data::MakeVehicleLike(rows, seed);
  SMFL_CHECK(dataset.ok());
  auto normalizer = data::MinMaxNormalizer::Fit(dataset->table.values());
  data::MissingInjectionOptions inject;
  inject.missing_rate = 0.3;
  inject.preserve_complete_rows = 20;
  inject.seed = seed + 1;
  auto injection = data::InjectMissing(dataset->table, inject);
  SMFL_CHECK(injection.ok());
  Scenario s;
  s.observed = injection->observed;
  s.input = data::ApplyMask(normalizer->Transform(dataset->table.values()),
                            s.observed);
  return s;
}

core::SmflOptions SlowFitOptions() {
  core::SmflOptions options;
  options.rank = 8;
  options.max_iterations = 3000;
  options.tolerance = 0.0;  // never early-stop: keep the fit scrapable
  options.threads = 2;
  return options;
}

class ObsEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::MetricsRegistry::Global().ResetForTesting();
    GlobalFitProgress().Reset();
  }
};

// --------------------------------------------------------------------------
// Live scrape during a real in-process fit

TEST_F(ObsEndpointTest, EndpointsServeDuringLiveFitAndStatuszAdvances) {
  MetricsExporter exporter;
  MetricsExporter::Options options;
  options.sample_interval_ms = 50;
  ASSERT_TRUE(exporter.Start(options).ok());
  const int port = exporter.port();
  ASSERT_GT(port, 0);

  const Scenario s = MakeScenario(200, 7);
  std::atomic<bool> fit_done{false};
  // Raw thread is fine in tests; production fits stay on the caller.
  std::thread fit_thread([&] {
    auto model = core::FitSmfl(s.input, s.observed, 2, SlowFitOptions());
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    fit_done.store(true);
  });

  // Scrape /statusz until we have seen two distinct iteration counts while
  // the fit is active (proving live progress), or the fit ends.
  std::set<int64_t> iterations_seen;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string response = Get(port, "/statusz");
    ASSERT_EQ(StatusCodeOf(response), 200) << response;
    const std::string body = BodyOf(response);
    const int64_t iter = JsonInt(body, "iteration");
    if (JsonTrue(body, "fit_active") && iter > 0) {
      iterations_seen.insert(iter);
    }
    if (iterations_seen.size() >= 2 || fit_done.load()) break;
  }
  fit_thread.join();
  EXPECT_GE(iterations_seen.size(), 2u)
      << "never observed the fit advancing over " << iterations_seen.size()
      << " distinct live iterations";

  // /metrics during/after the fit: valid exposition with fit instruments,
  // resource gauges, and the server's own request counter.
  const std::string metrics = Get(port, "/metrics");
  EXPECT_EQ(StatusCodeOf(metrics), 200);
  EXPECT_TRUE(Contains(metrics, "text/plain; version=0.0.4")) << metrics;
  EXPECT_TRUE(Contains(metrics, "# TYPE smfl_fit_iter histogram"));
  EXPECT_TRUE(Contains(metrics, "process_rss_bytes"));
  EXPECT_TRUE(Contains(metrics, "obs_http_requests_total"));

  const std::string healthz = Get(port, "/healthz");
  EXPECT_EQ(StatusCodeOf(healthz), 200);
  EXPECT_EQ(BodyOf(healthz), "ok\n");

  // The fit ended: /statusz must agree.
  const std::string final_status = BodyOf(Get(port, "/statusz"));
  EXPECT_FALSE(JsonTrue(final_status, "fit_active")) << final_status;
  EXPECT_GT(JsonInt(final_status, "updates"), 0) << final_status;

  exporter.Stop();
  EXPECT_FALSE(exporter.running());
}

// --------------------------------------------------------------------------
// Scrapes are purely observational

TEST_F(ObsEndpointTest, ConcurrentScrapesDoNotPerturbTheFit) {
  const Scenario s = MakeScenario(120, 11);
  core::SmflOptions options;
  options.rank = 6;
  options.max_iterations = 400;
  options.tolerance = 0.0;
  options.threads = 2;

  auto baseline = core::FitSmfl(s.input, s.observed, 2, options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::string baseline_bytes = core::SerializeModel(*baseline);

  telemetry::MetricsRegistry::Global().ResetForTesting();
  GlobalFitProgress().Reset();

  MetricsExporter exporter;
  MetricsExporter::Options exporter_options;
  exporter_options.sample_interval_ms = 20;
  ASSERT_TRUE(exporter.Start(exporter_options).ok());
  std::atomic<bool> stop_scraping{false};
  std::thread scraper([&] {
    while (!stop_scraping.load()) {
      (void)Get(exporter.port(), "/metrics");
      (void)Get(exporter.port(), "/statusz");
    }
  });

  auto scraped = core::FitSmfl(s.input, s.observed, 2, options);
  stop_scraping.store(true);
  scraper.join();
  exporter.Stop();

  ASSERT_TRUE(scraped.ok()) << scraped.status().ToString();
  EXPECT_EQ(core::SerializeModel(*scraped), baseline_bytes)
      << "concurrent scrapes changed the fitted model bytes";
  // The model file holds mean(U), not U: U must match bit for bit too.
  ASSERT_EQ(scraped->u.rows(), baseline->u.rows());
  ASSERT_EQ(scraped->u.cols(), baseline->u.cols());
  for (la::Index i = 0; i < baseline->u.size(); ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(scraped->u.data()[i]),
              std::bit_cast<uint64_t>(baseline->u.data()[i]))
        << "concurrent scrapes changed U at flat index " << i;
  }
}

// --------------------------------------------------------------------------
// HTTP failure paths

TEST_F(ObsEndpointTest, MalformedUnknownAndNonGetRequests) {
  HttpServer server;
  server.Handle("/ping", [](const HttpRequest&) {
    HttpResponse response;
    response.body = "pong";
    return response;
  });
  ASSERT_TRUE(server.Start(HttpServer::Options{}).ok());
  const int port = server.port();

  EXPECT_EQ(StatusCodeOf(Get(port, "/ping")), 200);
  EXPECT_EQ(BodyOf(Get(port, "/ping")), "pong");
  // Query strings are stripped before routing.
  EXPECT_EQ(StatusCodeOf(Get(port, "/ping?verbose=1")), 200);
  EXPECT_EQ(StatusCodeOf(Get(port, "/nope")), 404);
  EXPECT_EQ(StatusCodeOf(RawRequest(
                port, "POST /ping HTTP/1.1\r\nContent-Length: 0\r\n\r\n")),
            405);
  EXPECT_EQ(StatusCodeOf(RawRequest(port, "garbage\r\n\r\n")), 400);

  // The failure counters moved; the server survived it all.
  EXPECT_EQ(StatusCodeOf(Get(port, "/ping")), 200);
  server.Stop();
}

TEST_F(ObsEndpointTest, OversizedRequestIs431) {
  HttpServer server;
  server.Handle("/ping", [](const HttpRequest&) { return HttpResponse{}; });
  HttpServer::Options options;
  options.max_request_bytes = 128;
  ASSERT_TRUE(server.Start(options).ok());
  const std::string huge =
      "GET /" + std::string(1024, 'x') + " HTTP/1.1\r\n\r\n";
  EXPECT_EQ(StatusCodeOf(RawRequest(server.port(), huge)), 431);
  server.Stop();
}

TEST_F(ObsEndpointTest, ConnectionLimitAnswers503) {
  HttpServer server;
  server.Handle("/ping", [](const HttpRequest&) { return HttpResponse{}; });
  HttpServer::Options options;
  options.max_connections = 2;
  ASSERT_TRUE(server.Start(options).ok());

  // Two idle connections occupy both slots once accepted.
  const int a = Connect(server.port());
  const int b = Connect(server.port());
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  // Give the poll loop a round to accept them before the third arrives.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const std::string response =
      RawRequest(server.port(), "GET /ping HTTP/1.1\r\n\r\n");
  EXPECT_EQ(StatusCodeOf(response), 503) << response;

  close(a);
  close(b);
  server.Stop();
}

TEST_F(ObsEndpointTest, PortInUseIsACleanError) {
  HttpServer first;
  first.Handle("/", [](const HttpRequest&) { return HttpResponse{}; });
  ASSERT_TRUE(first.Start(HttpServer::Options{}).ok());

  HttpServer second;
  second.Handle("/", [](const HttpRequest&) { return HttpResponse{}; });
  HttpServer::Options options;
  options.port = first.port();
  const Status status = second.Start(options);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
  EXPECT_FALSE(second.running());
  first.Stop();
}

TEST_F(ObsEndpointTest, NonLoopbackBindAddressIsRejected) {
  HttpServer server;
  HttpServer::Options options;
  options.bind_address = "203.0.113.7";
  const Status status = server.Start(options);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------------
// /statusz payload shape (socket-free)

TEST_F(ObsEndpointTest, StatuszJsonCarriesFitProgressFields) {
  auto& progress = GlobalFitProgress();
  progress.fit_active.store(true, std::memory_order_relaxed);
  progress.iteration.store(42, std::memory_order_relaxed);
  progress.max_iterations.store(100, std::memory_order_relaxed);
  progress.objective.store(1.5, std::memory_order_relaxed);
  progress.checkpoint_generation.store(3, std::memory_order_relaxed);

  const std::string json = StatuszJson();
  EXPECT_TRUE(JsonTrue(json, "fit_active")) << json;
  EXPECT_EQ(JsonInt(json, "iteration"), 42) << json;
  EXPECT_EQ(JsonInt(json, "max_iterations"), 100) << json;
  EXPECT_EQ(JsonInt(json, "checkpoint_generation"), 3) << json;
  EXPECT_TRUE(Contains(json, "\"objective\":1.5")) << json;
  // No smfl.fit.iter samples recorded -> no ETA estimate.
  EXPECT_TRUE(Contains(json, "\"eta_seconds\":null")) << json;
  EXPECT_TRUE(Contains(json, "\"uptime_seconds\":")) << json;
}

}  // namespace
}  // namespace smfl::obs
