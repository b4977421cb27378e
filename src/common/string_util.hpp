// Small string helpers used mostly by the code generator (which builds C
// source text) and the benchmark table printers. GCC 12 does not ship
// std::format, so `strformat` provides a printf-style alternative.
#pragma once

#include <cstdarg>
#include <string>
#include <vector>

namespace lifta {

/// printf-style formatting into a std::string.
std::string strformat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// open + inner + close. Built by appending: GCC 12's -Wrestrict reports a
/// false overlap on `"literal" + std::string`.
std::string enclose(const char* open, const std::string& inner,
                    const char* close);

/// Joins `parts` with `sep` between elements.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// Indents every line of `text` by `spaces` spaces (used for nested C blocks).
std::string indent(const std::string& text, int spaces);

/// True if `text` contains `needle`.
bool contains(const std::string& text, const std::string& needle);

/// Splits on a single character; keeps empty fields.
std::vector<std::string> split(const std::string& text, char sep);

/// Strips leading/trailing whitespace.
std::string trim(const std::string& text);

/// Collapses runs of whitespace to single spaces and trims; used by codegen
/// golden tests to compare code modulo formatting.
std::string collapseWhitespace(const std::string& text);

}  // namespace lifta
