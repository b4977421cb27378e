#include "common/string_util.hpp"

#include <cctype>
#include <cstdio>

namespace lifta {

std::string strformat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(out.data(), out.size(), fmt, args);
    out.resize(static_cast<std::size_t>(needed));
  }
  va_end(args);
  return out;
}

std::string enclose(const char* open, const std::string& inner,
                    const char* close) {
  std::string s = open;
  s += inner;
  s += close;
  return s;
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string indent(const std::string& text, int spaces) {
  const std::string pad(static_cast<std::size_t>(spaces), ' ');
  std::string out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    const std::string line =
        text.substr(start, nl == std::string::npos ? nl : nl - start);
    if (!line.empty()) out += pad;
    out += line;
    if (nl == std::string::npos) break;
    out += '\n';
    start = nl + 1;
  }
  return out;
}

bool contains(const std::string& text, const std::string& needle) {
  return text.find(needle) != std::string::npos;
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string trim(const std::string& text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

std::string collapseWhitespace(const std::string& text) {
  std::string out;
  bool inSpace = false;
  for (char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) {
      inSpace = true;
      continue;
    }
    if (inSpace && !out.empty()) out += ' ';
    inSpace = false;
    out += c;
  }
  return out;
}

}  // namespace lifta
