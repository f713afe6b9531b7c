#include "src/common/strings.h"

#include <bit>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace smfl {

namespace {

__extension__ typedef unsigned __int128 Uint128;

// 10^k for k = 0..16.
constexpr uint64_t kPow10[17] = {1ull,
                                 10ull,
                                 100ull,
                                 1000ull,
                                 10000ull,
                                 100000ull,
                                 1000000ull,
                                 10000000ull,
                                 100000000ull,
                                 1000000000ull,
                                 10000000000ull,
                                 100000000000ull,
                                 1000000000000ull,
                                 10000000000000ull,
                                 100000000000000ull,
                                 1000000000000000ull,
                                 10000000000000000ull};

// "00", "01", ..., "99", back to back.
struct DigitPairs {
  char text[200] = {};
  constexpr DigitPairs() {
    for (int i = 0; i < 100; ++i) {
      text[2 * i] = static_cast<char>('0' + i / 10);
      text[2 * i + 1] = static_cast<char>('0' + i % 10);
    }
  }
};
constexpr DigitPairs kDigitPairs;

// The six decimal digits of v < 10^6, leading zeros included.
void WriteSixDigits(uint32_t v, char* out) {
  std::memcpy(out, kDigitPairs.text + 2 * (v / 10000), 2);
  std::memcpy(out + 2, kDigitPairs.text + 2 * (v / 100 % 100), 2);
  std::memcpy(out + 4, kDigitPairs.text + 2 * (v % 100), 2);
}

// How many of the 12 digits at `digits` remain once trailing '0's are
// dropped; digits[0] is not '0'.
size_t SignificantDigits(const char* digits) {
  // Little-endian words of eight and four digits: the last digit sits in
  // the most significant byte, and a '0' XORs to a zero byte.
  uint64_t head = 0;
  uint32_t tail = 0;
  std::memcpy(&head, digits, 8);
  std::memcpy(&tail, digits + 8, 4);
  tail ^= 0x30303030u;
  if (tail != 0) return 12 - static_cast<size_t>(std::countl_zero(tail)) / 8;
  return 8 - static_cast<size_t>(
                 std::countl_zero(head ^ 0x3030303030303030ull)) / 8;
}

// floor(log10 2^b), exact for |b| <= 2620.
constexpr int FloorLog10Pow2(int b) { return (b * 315653) >> 20; }

// FormatDoubleG12 for a finite v with 1e-4 <= |v| < 1e12, in exact integer
// arithmetic. With |v| = m 2^-s (m the 53-bit significand, so 13 <= s <= 66
// here) and 10^X <= |v| < 10^(X+1), the integer p = m 10^(11-X) is
// |v| 10^(11-X) 2^s, and %.12g's 12-digit significand is p / 2^s rounded
// half to even: printf rounds the exact binary value. The text is then
// n 10^(X-11), in %g's fixed notation (-4 <= X < 12) with trailing zeros
// and a bare point dropped.
//
// It reads back as v exactly when it lies within half the spacing of
// doubles at v: |n 2^s - p| < 10^(11-X) / 2. Neither refinement of that
// test can arise here. A tie would make n 10^(X-11) the midpoint of two
// doubles, which needs s + 1 fractional bits; 12 digits hold at most
// 11 - X of them, and s + 1 <= 11 - X would need log2|v| - X >= 42, while
// log2|v| - X < 29 below 1e12. The narrower gap just below a power of two
// never matters either: every power of two in range, 2^-13 through 2^39,
// has at most 12 significant digits, so its text is exact.
char* FormatInRange(char* out, double v, bool round_trip) {
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  const uint64_t m = (bits & ((uint64_t{1} << 52) - 1)) | (uint64_t{1} << 52);
  const int s = 1075 - static_cast<int>((bits >> 52) & 0x7ff);
  const int b = 52 - s;
  // The decade is FloorLog10Pow2(b) or one more: 10^x <= 2^b <= |v| <
  // 2^(b+1) < 10^(x+2).
  int x = FloorLog10Pow2(b);
  Uint128 p = Uint128{m} * kPow10[11 - x];
  if (p >= Uint128{kPow10[12]} << s) {
    ++x;
    p = Uint128{m} * kPow10[11 - x];
  }
  const Uint128 one = Uint128{1} << s;
  const Uint128 rem = p & (one - 1);
  uint64_t n = static_cast<uint64_t>(p >> s);
  // Up past half, or at half when n is odd.
  const bool up = rem + (n & 1) > one / 2;
  n += up;
  // |n 2^s - p|, selected without a branch: `up` is a coin flip on data.
  const Uint128 dist = rem + ((one - 2 * rem) & (Uint128{0} - up));
  if (round_trip && 2 * dist >= kPow10[11 - x]) {
    return std::to_chars(out, out + kFormatDoubleBytes, v).ptr;
  }
  char* end = out;
  if (bits >> 63 != 0) *end++ = '-';
  if (n == kPow10[12]) {  // rounded up into the next decade
    if (x == 11) {  // %g switches to exponent notation at 10^12
      std::memcpy(end, "1e+12", 5);
      return end + 5;
    }
    n = kPow10[11];
    ++x;
  }
  // The digits, then fixed-width copies that may run past the text: both
  // `digits` and `out` have room for the overrun.
  char digits[24] = {};
  WriteSixDigits(static_cast<uint32_t>(n / 1000000), digits);
  WriteSixDigits(static_cast<uint32_t>(n % 1000000), digits + 6);
  const size_t len = SignificantDigits(digits);
  if (x >= 0) {
    const auto whole = static_cast<size_t>(x) + 1;
    std::memcpy(end, digits, 12);
    end[whole] = '.';
    std::memcpy(end + whole + 1, digits + whole, 12);
    end += len > whole ? len + 1 : whole;
  } else {
    std::memcpy(end, "0.0000", 6);
    end += 1 - x;
    std::memcpy(end, digits, 12);
    end += len;
  }
  return end;
}

}  // namespace

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

char* FormatDoubleG12(char* out, double v, bool round_trip) {
  const double magnitude = std::fabs(v);
  // Both bounds are exact: 1e12 is a double, and the double nearest 10^-4
  // lies above it, so no double falls between 10^-4 and 1e-4.
  if (magnitude >= 1e-4 && magnitude < 1e12) {
    return FormatInRange(out, v, round_trip);
  }
  char* const last = out + kFormatDoubleBytes;
  std::to_chars_result r =
      std::to_chars(out, last, v, std::chars_format::general, 12);
  if (round_trip) {
    double back = 0.0;
    const std::from_chars_result parsed = std::from_chars(out, r.ptr, back);
    if (parsed.ec != std::errc() ||
        std::bit_cast<uint64_t>(back) != std::bit_cast<uint64_t>(v)) {
      r = std::to_chars(out, last, v);
    }
  }
  return r.ptr;
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
