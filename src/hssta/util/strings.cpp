#include "hssta/util/strings.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <istream>

#include "hssta/util/error.hpp"

namespace hssta {

std::string_view trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (true) {
    const size_t next = s.find(sep, pos);
    if (next == std::string_view::npos) {
      out.emplace_back(s.substr(pos));
      return out;
    }
    out.emplace_back(s.substr(pos, next - pos));
    pos = next + 1;
  }
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t j = i;
    while (j < s.size() && !std::isspace(static_cast<unsigned char>(s[j]))) ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string fmt_double(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
  return buf;
}

std::string fmt_percent(double frac, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", prec, frac * 100.0);
  return buf;
}

uint64_t parse_count(const std::string& what, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (!end || end == value.c_str() || *end != '\0' || errno == ERANGE ||
      value.find_first_of("+-") != std::string::npos)
    throw Error("malformed count for " + what + ": " + value);
  return v;
}

double parse_number(const std::string& what, const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value.c_str(), &end);
  if (!end || end == value.c_str() || *end != '\0' || errno == ERANGE)
    throw Error("malformed number for " + what + ": " + value);
  return v;
}

std::string hexf(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string TokenReader::token(const char* what) {
  std::string tok;
  if (!(is_ >> tok)) throw Error(kind_ + " truncated at " + what);
  return tok;
}

void TokenReader::keyword(const std::string& kw) {
  const std::string tok = token(kw.c_str());
  HSSTA_REQUIRE(tok == kw,
                kind_ + ": expected '" + kw + "', got '" + tok + "'");
}

double TokenReader::number(const char* what) {
  const std::string tok = token(what);
  char* end = nullptr;
  const double v = std::strtod(tok.c_str(), &end);
  HSSTA_REQUIRE(end && *end == '\0',
                "malformed number in " + kind_ + ": " + tok);
  return v;
}

size_t TokenReader::count(const char* what) {
  return static_cast<size_t>(
      parse_count(kind_ + " field '" + what + "'", token(what)));
}

}  // namespace hssta
