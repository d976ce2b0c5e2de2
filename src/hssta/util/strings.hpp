/// \file strings.hpp
/// Small string utilities shared by parsers and report writers.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hssta {

/// Strip leading/trailing whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Split on a single character; empty fields are kept.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Split on any whitespace run; empty fields are dropped.
[[nodiscard]] std::vector<std::string> split_ws(std::string_view s);

/// ASCII lower-case copy.
[[nodiscard]] std::string to_lower(std::string_view s);

/// True if `s` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Format a double with `prec` significant digits (used by table printers).
[[nodiscard]] std::string fmt_double(double v, int prec = 4);

/// Format a fraction as a percentage string, e.g. 0.134 -> "13.4%".
[[nodiscard]] std::string fmt_percent(double frac, int prec = 1);

/// Parse a non-negative integer, consuming the whole string; rejects
/// signs, trailing garbage and out-of-range values. Throws hssta::Error
/// naming `what` (a flag or config key) on any violation.
[[nodiscard]] uint64_t parse_count(const std::string& what,
                                   const std::string& value);

/// Parse a double, consuming the whole string; rejects trailing garbage
/// and overflow. Throws hssta::Error naming `what` on any violation.
[[nodiscard]] double parse_number(const std::string& what,
                                  const std::string& value);

/// Hex-float spelling of a double ("%a"): the bit-exact round-trip form
/// the .hstm and .hsds text formats write every double in.
[[nodiscard]] std::string hexf(double v);

/// Strict reader over the whitespace-separated tokens of the .hstm and
/// .hsds text formats. `kind` ("model file", "design state file") names
/// the format in every error, so both formats fail with the same words.
class TokenReader {
 public:
  TokenReader(std::istream& is, std::string kind)
      : is_(is), kind_(std::move(kind)) {}

  /// The next token; "<kind> truncated at <what>" at end of input.
  [[nodiscard]] std::string token(const char* what);
  /// Consume the next token, which must equal `kw`.
  void keyword(const std::string& kw);
  /// The next token as a double, hex floats included.
  [[nodiscard]] double number(const char* what);
  /// The next token as a strict count (parse_count rules).
  [[nodiscard]] size_t count(const char* what);

 private:
  std::istream& is_;
  std::string kind_;
};

}  // namespace hssta
