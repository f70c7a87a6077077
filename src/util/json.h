// Text helpers shared by the JSON exporters (the metrics registry dump,
// the telemetry timeline, flight dumps, the Chrome trace export) and the
// plain-text report tables.
//
// Strings are written one way everywhere: `"` and `\` are escaped, a
// newline becomes `\n`, and other control characters are dropped, so
// every export is valid JSON whatever a label, key or annotation holds.
// Number formats stay with each exporter (%.12g in the timeline, %.6g
// in the registry dump).
#pragma once

#include <string>
#include <string_view>

namespace epx {

/// Appends `s` as the inside of a JSON string literal (no quotes).
void append_json_escaped(std::string& out, std::string_view s);

/// printf onto the end of `out`. Never cuts the output.
[[gnu::format(printf, 2, 3)]] void appendf(std::string& out, const char* fmt, ...);

}  // namespace epx
