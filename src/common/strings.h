// Small string utilities shared by CSV parsing and report printing.

#ifndef SMFL_COMMON_STRINGS_H_
#define SMFL_COMMON_STRINGS_H_

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
