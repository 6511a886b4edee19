// Small string utilities shared by the LP-format parser and report writers,
// plus the exact number text the .etf/.lp writers and parsers agree on.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace etransform {

/// Removes leading and trailing whitespace.
[[nodiscard]] std::string_view trim(std::string_view text);

/// Splits on a single character; empty fields are preserved.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep);

/// Splits on runs of whitespace; empty fields are dropped.
[[nodiscard]] std::vector<std::string> split_whitespace(std::string_view text);

/// split_whitespace into `fields`, reusing its strings' storage (line-by-line
/// parsers keep one vector for the whole file).
void split_whitespace(std::string_view text, std::vector<std::string>& fields);

/// Appends the shortest exact text of `value`: the `%.12g` spelling when it
/// reads back to the same double, else the `%.17g` one (`inf`, `-inf`,
/// `nan` and `-nan` as printf spells them). Byte-identical to that
/// snprintf/sscanf round trip, but built on std::to_chars/std::from_chars.
void append_round_trip(std::string& out, double value);

/// append_round_trip into a fresh string.
[[nodiscard]] std::string format_round_trip(double value);

/// Reads all of `field` as a double, accepting exactly what std::stod
/// accepts when it consumes every character. Empty on bad syntax, trailing
/// characters, overflow, and results that underflow to zero or a
/// subnormal. Plain decimals (`-?digits[.digits][(e|E)[+-]digits]`) take a
/// std::from_chars fast path; every other spelling (`+5`, `0x10`, `.5`,
/// `nan`, `infinity`) and every result near the ends of the double range
/// goes through std::stod itself, so the accepted set cannot drift.
[[nodiscard]] std::optional<double> parse_double(std::string_view field);

/// ASCII lower-casing.
[[nodiscard]] std::string to_lower(std::string_view text);

/// True if `text` begins with `prefix` ignoring ASCII case.
[[nodiscard]] bool starts_with_icase(std::string_view text,
                                     std::string_view prefix);

/// True if the two strings are equal ignoring ASCII case.
[[nodiscard]] bool equals_icase(std::string_view a, std::string_view b);

}  // namespace etransform
