// Minimal JSON reader/writer for the synthesis service's line-delimited
// protocol (docs/SERVICE.md).
//
// The service cannot assume anything about bytes arriving on its socket, so
// json_parse() is written defensively: it never throws, it bounds recursion
// depth, and every malformed input -- truncated literals, bad escapes, stray
// bytes after the value -- yields nullopt rather than a partial value.  The
// feature set is deliberately the JSON core (objects, arrays, strings with
// escapes incl. \uXXXX, numbers, true/false/null); there is no streaming,
// comments or NaN/Infinity dialect, because the protocol needs none of them.
//
// This is a service-layer utility, not a general serialisation framework:
// the batch report writer keeps its own schema-stable emitter, and records
// in the result store use their own checksummed format (store/record.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json_escape.hpp"

namespace asynth::service {

/// One parsed JSON value (tagged union kept simple on purpose; protocol
/// messages are a handful of fields, not documents).
struct json_value {
    enum class kind : uint8_t { null, boolean, number, string, array, object };
    kind k = kind::null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<json_value> arr;
    /// Members in input order; duplicate keys keep the *first* occurrence
    /// (find returns it), matching the defensive reading of the protocol.
    std::vector<std::pair<std::string, json_value>> obj;

    /// Member lookup on an object; nullptr when absent or not an object.
    [[nodiscard]] const json_value* find(std::string_view key) const;

    // Typed getters with defaults, for terse protocol handling.
    [[nodiscard]] std::string get_string(std::string_view key, std::string def = "") const;
    [[nodiscard]] double get_number(std::string_view key, double def = 0.0) const;
    [[nodiscard]] bool get_bool(std::string_view key, bool def = false) const;
    [[nodiscard]] bool has(std::string_view key) const { return find(key) != nullptr; }
};

/// Parses one complete JSON value (trailing whitespace allowed, anything
/// else after it is an error).  Never throws.
[[nodiscard]] std::optional<json_value> json_parse(std::string_view text);

/// Appends the JSON string literal (quotes + escapes) of @p s to @p out.
using asynth::json_append_escaped;

/// Incremental writer for one-line JSON objects: fixed field order, no
/// indentation -- the shape every protocol response uses.
struct json_line {
    std::string out = "{";
    bool first = true;

    void key(std::string_view k) {
        if (!first) out += ",";
        first = false;
        json_append_escaped(out, k);
        out += ":";
    }
    void field(std::string_view k, std::string_view v) { key(k), json_append_escaped(out, v); }
    void field(std::string_view k, const char* v) { field(k, std::string_view(v)); }
    void field(std::string_view k, double v);
    void field(std::string_view k, std::uint64_t v) { key(k), out += std::to_string(v); }
    void field(std::string_view k, bool v) { key(k), out += v ? "true" : "false"; }
    /// Appends pre-serialised JSON (e.g. a nested array) verbatim.
    void raw(std::string_view k, std::string_view json) { key(k), out += json; }

    [[nodiscard]] std::string finish() && { return std::move(out) + "}"; }
};

}  // namespace asynth::service
