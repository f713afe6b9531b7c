#include "src/common/strings.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace smfl {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool ParseDoubleFast(std::string_view s, double* out) {
  // Everything else — hex floats, a leading '+', inf/nan, subnormal
  // results (from_chars accepts them, strtod reports ERANGE) and errors —
  // is for strtod to decide.
  double v = 0.0;
  const std::from_chars_result r =
      std::from_chars(s.data(), s.data() + s.size(), v);
  const double magnitude = std::fabs(v);
  // smfl-lint: allow(float-eq) an exact zero is one of the accepted cases
  const bool zero = magnitude == 0.0;
  if (r.ec != std::errc() || r.ptr != s.data() + s.size() ||
      !(zero || (magnitude > std::numeric_limits<double>::min() &&
                 magnitude <= std::numeric_limits<double>::max()))) {
    return false;
  }
  *out = v;
  return true;
}

Result<double> ParseDouble(std::string_view s) {
  std::string_view t = Trim(s);
  if (t.empty()) return Status::DataError("empty numeric field");
  double fast = 0.0;
  if (ParseDoubleFast(t, &fast)) return fast;
  std::string buf(t);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) {
    return Status::DataError("numeric value out of range: '" + buf + "'");
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::DataError("invalid numeric value: '" + buf + "'");
  }
  return v;
}

Result<int64_t> ParseInt(std::string_view s) {
  std::string_view t = Trim(s);
  if (t.empty()) return Status::DataError("empty integer field");
  std::string buf(t);
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::DataError("integer out of range: '" + buf + "'");
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::DataError("invalid integer: '" + buf + "'");
  }
  return static_cast<int64_t>(v);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

}  // namespace smfl
