// Lightweight leveled logging + check macros for the smfl library.
//
// SMFL_CHECK* are for programmer errors (invariant violations) and abort;
// recoverable conditions must use Status instead.

#ifndef SMFL_COMMON_LOGGING_H_
#define SMFL_COMMON_LOGGING_H_

#include <sstream>
#include <string>
#include <string_view>

namespace smfl {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

// Global log threshold; messages below it are dropped. Default: kInfo.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

// Parses "debug" | "info" | "warning" | "error" (case-insensitive, "warn"
// accepted). Returns false and leaves *out untouched on anything else.
bool ParseLogLevel(std::string_view name, LogLevel* out);

namespace internal {

// Accumulates one log line and emits it (to stderr) on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Like LogMessage but aborts the process on destruction.
class FatalLogMessage {
 public:
  FatalLogMessage(const char* file, int line);
  [[noreturn]] ~FatalLogMessage();

  template <typename T>
  FatalLogMessage& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace smfl

#define SMFL_LOG(level)                                             \
  ::smfl::internal::LogMessage(::smfl::LogLevel::k##level, __FILE__, \
                               __LINE__)

#define SMFL_CHECK(cond)                                       \
  if (!(cond))                                                 \
  ::smfl::internal::FatalLogMessage(__FILE__, __LINE__)        \
      << "Check failed: " #cond " "

#define SMFL_CHECK_EQ(a, b) SMFL_CHECK((a) == (b))
#define SMFL_CHECK_NE(a, b) SMFL_CHECK((a) != (b))
#define SMFL_CHECK_LT(a, b) SMFL_CHECK((a) < (b))
#define SMFL_CHECK_LE(a, b) SMFL_CHECK((a) <= (b))
#define SMFL_CHECK_GT(a, b) SMFL_CHECK((a) > (b))
#define SMFL_CHECK_GE(a, b) SMFL_CHECK((a) >= (b))

#ifndef NDEBUG
#define SMFL_DCHECK(cond) SMFL_CHECK(cond)
#else
#define SMFL_DCHECK(cond) \
  if (false) ::smfl::internal::FatalLogMessage(__FILE__, __LINE__)
#endif

#endif  // SMFL_COMMON_LOGGING_H_
