// Small string utilities shared by CSV parsing and report printing.

#ifndef SMFL_COMMON_STRINGS_H_
#define SMFL_COMMON_STRINGS_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace smfl {

// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

// Strict double parse: the whole (trimmed) string must be consumed.
Result<double> ParseDouble(std::string_view s);

// The allocation-free half of ParseDouble, for an already trimmed field:
// true, with *out set, when std::from_chars parses all of `s` to an exact
// zero or a finite normal value — exactly where its result is strtod's.
// False leaves the verdict (a strtod value or an error) to ParseDouble.
bool ParseDoubleFast(std::string_view s, double* out);

// Room FormatDoubleG12 needs at `out`. The longest text it writes is a
// shortest round-trip form such as "-2.2250738585072014e-308" (24 bytes);
// its fixed-width copies may touch up to 27 bytes past `out`.
inline constexpr size_t kFormatDoubleBytes = 32;

// Writes `v` as printf's %.12g does (std::to_chars general format at
// precision 12) and returns the end of the text. With `round_trip`, when
// that text would read back as a double other than `v`, writes the
// shortest text that reads back as `v` (std::to_chars without a precision)
// instead. Finite values with 1e-4 <= |v| < 1e12 are rounded and checked
// in exact integer arithmetic; every other value takes std::to_chars (and
// std::from_chars for the read-back), so the bytes are those calls' bytes
// for every double.
char* FormatDoubleG12(char* out, double v, bool round_trip);

// Strict integer parse.
Result<int64_t> ParseInt(std::string_view s);

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

// Joins items with a separator.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

// Lower-cases ASCII.
std::string ToLower(std::string_view s);

}  // namespace smfl

#endif  // SMFL_COMMON_STRINGS_H_
