// Test helper shared by test_store.cpp and test_service.cpp: a legal,
// non-default setting for any row of the flow-option table.
#pragma once

#include <string>

#include "service/options.hpp"

namespace asynth {

/// A legal value of @p o that differs from its value in @p base, as the
/// argument a user would type after the flag ("" for an off-switch, which
/// takes none: switching it off is the non-default setting).
inline std::string non_default_arg(const service::pipeline_option& o,
                                   const pipeline_options& base) {
    const double now = o.get(base);
    switch (o.type) {
        case service::option_type::count: {
            const auto v = static_cast<std::size_t>(now);
            return std::to_string(v < o.max ? v + 1 : v - 1);
        }
        case service::option_type::unit:
            return now == 0.25 ? "0.75" : "0.25";
        case service::option_type::choice:
            return o.choices[(static_cast<std::size_t>(now) + 1) % o.choices.size()];
        case service::option_type::off_switch:
            return "";
    }
    return "";
}

/// The JSON literal a hand-written request uses for @p arg.
inline std::string json_literal(const service::pipeline_option& o, const std::string& arg) {
    if (o.type == service::option_type::off_switch) return "false";
    const bool string_choice =
        o.type == service::option_type::choice && !(arg[0] >= '0' && arg[0] <= '9');
    return string_choice ? "\"" + arg + "\"" : arg;
}

}  // namespace asynth
