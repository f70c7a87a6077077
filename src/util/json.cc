#include "util/json.h"

#include <cstdarg>
#include <cstdio>

namespace epx {

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out.push_back(c);
    }
  }
}

void appendf(std::string& out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list retry;
  va_copy(retry, args);
  char buf[320];
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  if (n > 0 && static_cast<size_t>(n) < sizeof(buf)) {
    out.append(buf, static_cast<size_t>(n));
  } else if (n > 0) {  // longer than the stack buffer: format in place
    const size_t at = out.size();
    out.resize(at + static_cast<size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<size_t>(n) + 1, fmt, retry);
    out.resize(at + static_cast<size_t>(n));
  }
  va_end(retry);
  va_end(args);
}

}  // namespace epx
