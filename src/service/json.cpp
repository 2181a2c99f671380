#include "service/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace asynth::service {

const json_value* json_value::find(std::string_view key) const {
    if (k != kind::object) return nullptr;
    for (const auto& [name, value] : obj)
        if (name == key) return &value;
    return nullptr;
}

std::string json_value::get_string(std::string_view key, std::string def) const {
    const json_value* v = find(key);
    return v && v->k == kind::string ? v->str : std::move(def);
}

double json_value::get_number(std::string_view key, double def) const {
    const json_value* v = find(key);
    return v && v->k == kind::number ? v->num : def;
}

bool json_value::get_bool(std::string_view key, bool def) const {
    const json_value* v = find(key);
    return v && v->k == kind::boolean ? v->b : def;
}

namespace {

/// Recursive-descent parser over a bounded view.  All failure paths return
/// false/nullopt; `depth` caps nesting so hostile input cannot blow the
/// stack.
struct parser {
    std::string_view text;
    std::size_t pos = 0;
    static constexpr int max_depth = 32;

    void skip_ws() {
        while (pos < text.size()) {
            const char c = text[pos];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos;
        }
    }

    [[nodiscard]] bool eat(char c) {
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    [[nodiscard]] bool literal(std::string_view word) {
        if (text.substr(pos, word.size()) != word) return false;
        pos += word.size();
        return true;
    }

    /// Appends one code point as UTF-8.
    static void utf8(std::string& out, unsigned cp) {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    [[nodiscard]] bool parse_string(std::string& out) {
        if (!eat('"')) return false;
        while (pos < text.size()) {
            const char c = text[pos++];
            if (c == '"') return true;
            if (c == '\\') {
                if (pos >= text.size()) return false;
                const char e = text[pos++];
                switch (e) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'b': out += '\b'; break;
                    case 'f': out += '\f'; break;
                    case 'n': out += '\n'; break;
                    case 'r': out += '\r'; break;
                    case 't': out += '\t'; break;
                    case 'u': {
                        if (pos + 4 > text.size()) return false;
                        unsigned cp = 0;
                        for (int i = 0; i < 4; ++i) {
                            const char h = text[pos++];
                            cp <<= 4;
                            if (h >= '0' && h <= '9')
                                cp |= static_cast<unsigned>(h - '0');
                            else if (h >= 'a' && h <= 'f')
                                cp |= static_cast<unsigned>(h - 'a' + 10);
                            else if (h >= 'A' && h <= 'F')
                                cp |= static_cast<unsigned>(h - 'A' + 10);
                            else
                                return false;
                        }
                        // Surrogate pairs are not combined (the protocol never
                        // emits them); a lone surrogate decodes as-is.
                        utf8(out, cp);
                        break;
                    }
                    default: return false;
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                return false;  // raw control characters must be escaped
            } else {
                out += c;
            }
        }
        return false;  // unterminated
    }

    [[nodiscard]] bool parse_number(double& out) {
        const std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-') ++pos;
        while (pos < text.size() && ((text[pos] >= '0' && text[pos] <= '9') || text[pos] == '.' ||
                                     text[pos] == 'e' || text[pos] == 'E' || text[pos] == '+' ||
                                     text[pos] == '-'))
            ++pos;
        if (pos == start) return false;
        char buf[64];
        const std::size_t n = pos - start;
        if (n >= sizeof buf) return false;
        std::memcpy(buf, text.data() + start, n);
        buf[n] = '\0';
        char* end = nullptr;
        out = std::strtod(buf, &end);
        return end == buf + n && std::isfinite(out);
    }

    [[nodiscard]] bool parse_value(json_value& out, int depth) {
        if (depth > max_depth) return false;
        skip_ws();
        if (pos >= text.size()) return false;
        const char c = text[pos];
        if (c == '{') {
            ++pos;
            out.k = json_value::kind::object;
            skip_ws();
            if (eat('}')) return true;
            for (;;) {
                skip_ws();
                std::string key;
                if (!parse_string(key)) return false;
                skip_ws();
                if (!eat(':')) return false;
                json_value member;
                if (!parse_value(member, depth + 1)) return false;
                out.obj.emplace_back(std::move(key), std::move(member));
                skip_ws();
                if (eat('}')) return true;
                if (!eat(',')) return false;
            }
        }
        if (c == '[') {
            ++pos;
            out.k = json_value::kind::array;
            skip_ws();
            if (eat(']')) return true;
            for (;;) {
                json_value item;
                if (!parse_value(item, depth + 1)) return false;
                out.arr.push_back(std::move(item));
                skip_ws();
                if (eat(']')) return true;
                if (!eat(',')) return false;
            }
        }
        if (c == '"') {
            out.k = json_value::kind::string;
            return parse_string(out.str);
        }
        if (c == 't') {
            out.k = json_value::kind::boolean;
            out.b = true;
            return literal("true");
        }
        if (c == 'f') {
            out.k = json_value::kind::boolean;
            out.b = false;
            return literal("false");
        }
        if (c == 'n') {
            out.k = json_value::kind::null;
            return literal("null");
        }
        out.k = json_value::kind::number;
        return parse_number(out.num);
    }
};

}  // namespace

std::optional<json_value> json_parse(std::string_view text) {
    parser p{text};
    json_value out;
    if (!p.parse_value(out, 0)) return std::nullopt;
    p.skip_ws();
    if (p.pos != text.size()) return std::nullopt;  // trailing garbage
    return out;
}

void json_line::field(std::string_view k, double v) {
    key(k);
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    out += buf;
}

}  // namespace asynth::service
