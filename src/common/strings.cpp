#include "common/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace etransform {

namespace {
bool is_space(char c) {
  return std::isspace(static_cast<unsigned char>(c)) != 0;
}
char lower(char c) {
  return static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
}
bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// The std::stod reading of `field`, kept only when every character is used.
std::optional<double> parse_with_stod(std::string_view field) {
  const std::string text(field);
  try {
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used == text.size()) return value;
  } catch (const std::logic_error&) {  // invalid_argument, out_of_range
  }
  return std::nullopt;
}
}  // namespace

std::string_view trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && is_space(text[begin])) ++begin;
  while (end > begin && is_space(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      fields.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

std::vector<std::string> split_whitespace(std::string_view text) {
  std::vector<std::string> fields;
  split_whitespace(text, fields);
  return fields;
}

void split_whitespace(std::string_view text, std::vector<std::string>& fields) {
  std::size_t count = 0;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && is_space(text[i])) ++i;
    const std::size_t start = i;
    while (i < text.size() && !is_space(text[i])) ++i;
    if (i > start) {
      if (count == fields.size()) fields.emplace_back();
      fields[count++].assign(text.data() + start, i - start);
    }
  }
  fields.resize(count);
}

void append_round_trip(std::string& out, double value) {
  // std::to_chars with a precision prints exactly what printf's %.<p>g does.
  char buf[32];
  char* end =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::general,
                    12)
          .ptr;
  double reparsed = 0.0;
  std::from_chars(buf, end, reparsed);
  if (!(reparsed == value)) {
    end = std::to_chars(buf, buf + sizeof(buf), value,
                        std::chars_format::general, 17)
              .ptr;
  }
  out.append(buf, end);
}

std::string format_round_trip(double value) {
  std::string out;
  append_round_trip(out, value);
  return out;
}

std::optional<double> parse_double(std::string_view field) {
  const std::size_t n = field.size();
  std::size_t i = 0;
  bool nonzero_digit = false;
  const auto digits = [&] {
    const std::size_t start = i;
    for (; i < n && is_digit(field[i]); ++i) nonzero_digit |= field[i] != '0';
    return i > start;
  };
  if (i < n && field[i] == '-') ++i;
  bool plain = digits();
  if (plain && i < n && field[i] == '.') {
    ++i;
    plain = digits();
  }
  const bool mantissa_nonzero = nonzero_digit;
  if (plain && i < n && (field[i] == 'e' || field[i] == 'E')) {
    ++i;
    if (i < n && (field[i] == '+' || field[i] == '-')) ++i;
    plain = digits();
  }
  if (plain && i == n) {
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(field.data(), field.data() + n, value);
    if (ec == std::errc() && ptr == field.data() + n) {
      // stod's range errors (overflow, underflow to zero or a subnormal)
      // happen only near the ends of the range; leave those to stod.
      const double magnitude = std::fabs(value);
      constexpr double kMin = 2 * std::numeric_limits<double>::min();
      constexpr double kMax = std::numeric_limits<double>::max() / 2;
      if (magnitude == 0.0 ? !mantissa_nonzero
                           : magnitude >= kMin && magnitude <= kMax) {
        return value;
      }
    }
  }
  // Every schedule's open-ended tier: spare it the std::stod path.
  if (field == "inf") return std::numeric_limits<double>::infinity();
  if (field == "-inf") return -std::numeric_limits<double>::infinity();
  return parse_with_stod(field);
}

std::string to_lower(std::string_view text) {
  std::string out(text);
  for (auto& c : out) c = lower(c);
  return out;
}

bool starts_with_icase(std::string_view text, std::string_view prefix) {
  if (text.size() < prefix.size()) return false;
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    if (lower(text[i]) != lower(prefix[i])) return false;
  }
  return true;
}

bool equals_icase(std::string_view a, std::string_view b) {
  return a.size() == b.size() && starts_with_icase(a, b);
}

}  // namespace etransform
