#include "src/common/logging.h"

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include "src/common/telemetry.h"

namespace smfl {

namespace {
std::atomic<int> g_log_level{static_cast<int>(LogLevel::kInfo)};

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}

std::string AsciiLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

// "HH:MM:SS.uuuuuu tNN" — wall-clock time plus the telemetry layer's small
// sequential thread id, so interleaved multi-threaded logs stay legible and
// correlate with the `tid` of trace events.
std::string TimestampAndThread() {
  // smfl-lint: allow(nondet) log-line timestamps are wall-clock by design
  const auto now = std::chrono::system_clock::now();
  // smfl-lint: allow(nondet) converting the same wall-clock read as above
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                          now.time_since_epoch())
                          .count() %
                      1000000;
  std::tm tm_buf;
  localtime_r(&secs, &tm_buf);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%02d:%02d:%02d.%06lld t%02d", tm_buf.tm_hour,
                tm_buf.tm_min, tm_buf.tm_sec, static_cast<long long>(micros),
                telemetry::SmallThreadId());
  return buf;
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_log_level.store(static_cast<int>(level));
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(g_log_level.load());
}

bool ParseLogLevel(std::string_view name, LogLevel* out) {
  const std::string key = AsciiLower(name);
  if (key == "debug") {
    *out = LogLevel::kDebug;
  } else if (key == "info") {
    *out = LogLevel::kInfo;
  } else if (key == "warning" || key == "warn") {
    *out = LogLevel::kWarning;
  } else if (key == "error") {
    *out = LogLevel::kError;
  } else {
    return false;
  }
  return true;
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << LevelTag(level) << " " << TimestampAndThread() << " "
          << file << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  if (static_cast<int>(level_) >= g_log_level.load()) {
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
  }
}

FatalLogMessage::FatalLogMessage(const char* file, int line) {
  stream_ << "[F " << TimestampAndThread() << " " << file << ":" << line
          << "] ";
}

FatalLogMessage::~FatalLogMessage() {
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
  std::abort();
}

}  // namespace internal
}  // namespace smfl
