// Small string utilities shared by the text parsers and result writers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace rfp::str {

/// Removes leading/trailing ASCII whitespace.
[[nodiscard]] std::string trim(std::string_view s);

/// Splits on a delimiter; empty fields are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char delim);

/// Splits on runs of whitespace; empty fields are dropped.
[[nodiscard]] std::vector<std::string> splitWhitespace(std::string_view s);

/// True if `s` begins with `prefix`.
[[nodiscard]] bool startsWith(std::string_view s, std::string_view prefix);

/// Lower-cases ASCII.
[[nodiscard]] std::string toLower(std::string_view s);

/// printf-style float formatting with fixed precision, locale-independent.
[[nodiscard]] std::string formatDouble(double v, int precision = 3);

/// Counts read from text are capped here: no device has a million tiles of
/// one kind, and the cap keeps sums and frame products of counts in `int`.
inline constexpr int kMaxCount = 1'000'000;

/// Parses all of `token` as a base-10 integer in [lo, hi] (std::from_chars:
/// no fraction, exponent, '+' sign, whitespace or trailing characters).
/// Anything else throws CheckError "line <lineno>: <what> '<token>' must be
/// an integer in [lo, hi]", so a malformed count is never truncated.
[[nodiscard]] int parseInt(std::string_view token, int lo, int hi, int lineno,
                           std::string_view what);

}  // namespace rfp::str
