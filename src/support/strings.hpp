// Small string helpers shared by the DSL/C frontends and report printers.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <vector>

#include "support/common.hpp"

namespace antarex {

/// Split on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view s, char delim);

/// Strip ASCII whitespace from both ends.
std::string trim(std::string_view s);

/// Join with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Replace every occurrence of `from` (non-empty) with `to`.
std::string replace_all(std::string s, std::string_view from, std::string_view to);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Human-readable double with fixed decimals (benches/report tables).
std::string fmt_double(double v, int decimals = 2);

/// Parse `text` as a whole decimal integer of type T (optional leading '-').
/// Throws Error naming `what` on empty text, any other character, or a
/// value outside T's range. The checked parser for integer CLI input.
template <class T>
T parse_int(std::string_view text, const char* what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc() && ptr == end) return value;
  const bool range = ec == std::errc::result_out_of_range;
  throw Error(std::string(what) + ": '" + std::string(text) + "' is " +
              (range ? "out of range" : "not an integer"));
}

}  // namespace antarex
