// The one JSON string escaper: the batch report, the structured log, the
// trace export and the service protocol all write strings through it.
#pragma once

#include <string>
#include <string_view>

namespace asynth {

/// Appends the JSON string literal of @p s to @p out: surrounding quotes,
/// `\"`, `\\`, `\n`, `\r`, `\t`, every other byte below 0x20 as `\u00XX`,
/// and all other bytes (UTF-8 included) verbatim.
void json_append_escaped(std::string& out, std::string_view s);

}  // namespace asynth
