#include "service/options.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "batch/pool.hpp"

namespace asynth::service {

namespace {

// Choice entries are stored as their index; the strategy names are in enum
// order, so the index is the enum value.
constexpr const char* strategy_names[] = {"none", "beam", "full"};
static_assert(static_cast<int>(reduction_strategy::none) == 0 &&
              static_cast<int>(reduction_strategy::beam) == 1 &&
              static_cast<int>(reduction_strategy::full) == 2);
constexpr const char* phase_names[] = {"2", "4"};

// Larger counts are typos, not budgets; the cap also keeps every legal count
// exact in a JSON double.
constexpr std::size_t count_max = 1'000'000'000;
// --search-jobs starts that many threads; bound it well below what a host
// could refuse.
constexpr std::size_t search_jobs_max = 256;

// Rows: flag, request key, type, metavar, count range, choices, affects the
// result, help, get, set.
const pipeline_option option_table[] = {
    {"--strategy", "strategy", option_type::choice, "<s>", 0, 0, strategy_names, true,
     "none | beam | full; beam is the Fig. 9\nconcurrency-reduction search",
     [](const pipeline_options& o) { return static_cast<double>(o.strategy); },
     [](pipeline_options& o, double v) { o.strategy = static_cast<reduction_strategy>(v); }},
    {"--deadline", "deadline_ms", option_type::count, "<ms>", 0, count_max, {}, false,
     "search wall-clock budget in milliseconds, checked\nbetween search levels; a cut "
     "search returns its\nbest-so-far result (docs/SEARCH.md); 0 = off",
     [](const pipeline_options& o) { return static_cast<double>(o.search.deadline_ms); },
     [](pipeline_options& o, double v) { o.search.deadline_ms = static_cast<std::size_t>(v); }},
    {"--search-jobs", nullptr, option_type::count, "<n>", 0, search_jobs_max, {}, false,
     "search scoring threads; 0 = all hardware cores;\nidentical results for every value",
     [](const pipeline_options& o) { return static_cast<double>(o.search.jobs); },
     [](pipeline_options& o, double v) {
         o.search.jobs = batch::resolve_jobs(static_cast<std::size_t>(v));
     }},
    {"--w", "w", option_type::unit, "<x>", 0, 0, {}, true,
     "cost weight W in [0,1]; 0 biases CSC resolution,\n1 smaller logic",
     [](const pipeline_options& o) { return o.search.cost.w; },
     [](pipeline_options& o, double v) { o.search.cost.w = v; }},
    {"--frontier", "frontier", option_type::count, "<n>", 1, count_max, {}, true,
     "beam frontier size",
     [](const pipeline_options& o) { return static_cast<double>(o.search.size_frontier); },
     [](pipeline_options& o, double v) { o.search.size_frontier = static_cast<std::size_t>(v); }},
    {"--max-levels", "max_levels", option_type::count, "<n>", 0, count_max, {}, true,
     "beam depth limit",
     [](const pipeline_options& o) { return static_cast<double>(o.search.max_levels); },
     [](pipeline_options& o, double v) { o.search.max_levels = static_cast<std::size_t>(v); }},
    {"--phases", "phases", option_type::choice, "<2|4>", 0, 0, phase_names, true,
     "handshake expansion protocol",
     [](const pipeline_options& o) { return o.expand.phases == 2 ? 0.0 : 1.0; },
     [](pipeline_options& o, double v) { o.expand.phases = v == 0 ? 2 : 4; }},
    {"--csc-signals", "csc_signals", option_type::count, "<n>", 0, count_max, {}, true,
     "max inserted state signals",
     [](const pipeline_options& o) { return static_cast<double>(o.csc.max_signals); },
     [](pipeline_options& o, double v) { o.csc.max_signals = static_cast<std::size_t>(v); }},
    {"--no-perf", "perf", option_type::off_switch, "", 0, 0, {}, true,
     "skip the timed critical-cycle analysis",
     [](const pipeline_options& o) { return o.run_performance ? 1.0 : 0.0; },
     [](pipeline_options& o, double v) { o.run_performance = v != 0; }},
    {"--no-recover", "recover", option_type::off_switch, "", 0, 0, {}, true,
     "skip region-based STG recovery (ignored with --out)",
     [](const pipeline_options& o) { return o.recover_stg ? 1.0 : 0.0; },
     [](pipeline_options& o, double v) { o.recover_stg = v != 0; }},
};

/// The unit type's range; written so NaN fails.
[[nodiscard]] bool in_unit_range(double x) { return x >= 0.0 && x <= 1.0; }

/// The index of @p v in o.choices.  A number matches its decimal form, so
/// `"phases": 4` and `--phases 4` both pick "4".
[[nodiscard]] std::optional<std::size_t> choice_index(const pipeline_option& o,
                                                      const json_value& v) {
    char num[40];
    std::snprintf(num, sizeof num, "%g", v.num);
    const bool text = v.k == json_value::kind::string, number = v.k == json_value::kind::number;
    for (std::size_t i = 0; i < o.choices.size(); ++i)
        if ((text && v.str == o.choices[i]) || (number && std::strcmp(num, o.choices[i]) == 0))
            return i;
    return std::nullopt;
}

/// @p value (get/set encoding) as the user writes it.
[[nodiscard]] std::string render(const pipeline_option& o, double value) {
    if (o.type == option_type::choice) return o.choices[static_cast<std::size_t>(value)];
    char buf[40];
    std::snprintf(buf, sizeof buf, "%g", value);
    return buf;
}

}  // namespace

std::span<const pipeline_option> pipeline_option_table() { return option_table; }

const pipeline_option* find_option_flag(std::string_view flag) {
    for (const auto& o : option_table)
        if (flag == o.flag) return &o;
    return nullptr;
}

std::string option_constraint(const pipeline_option& o) {
    switch (o.type) {
        case option_type::count:
            return "an integer in [" + std::to_string(o.min) + ", " + std::to_string(o.max) + "]";
        case option_type::unit:
            return unit_constraint;
        case option_type::choice: {
            std::string out = "one of ";
            for (std::size_t i = 0; i < o.choices.size(); ++i)
                out += (i ? " | " : "") + std::string(o.choices[i]);
            return out;
        }
        case option_type::off_switch:
            return "a boolean";
    }
    return {};
}

bool apply_option(const pipeline_option& o, const json_value& v, pipeline_options& opt) {
    const bool number = v.k == json_value::kind::number;
    double value = v.num;
    switch (o.type) {
        case option_type::count:
            // Written so NaN fails, and range-checked before any integer
            // conversion: request values arrive off a socket.
            if (!number || !(v.num >= static_cast<double>(o.min) &&
                             v.num <= static_cast<double>(o.max) && v.num == std::floor(v.num)))
                return false;
            break;
        case option_type::unit:
            if (!number || !in_unit_range(v.num)) return false;
            break;
        case option_type::choice: {
            const auto i = choice_index(o, v);
            if (!i) return false;
            value = static_cast<double>(*i);
            break;
        }
        case option_type::off_switch:
            if (v.k != json_value::kind::boolean) return false;
            value = v.b ? 1.0 : 0.0;
            break;
    }
    o.set(opt, value);
    return true;
}

bool parse_unit(const char* text, double& out) {
    char* end = nullptr;
    const double x = std::strtod(text, &end);
    if (end == text || *end != '\0' || !in_unit_range(x)) return false;
    out = x;
    return true;
}

json_value option_arg_value(const pipeline_option& o, const char* text) {
    json_value v;
    if (o.type == option_type::off_switch) {
        v.k = json_value::kind::boolean;
        return v;
    }
    char* end = nullptr;
    v.num = std::strtod(text, &end);
    if (end != text && *end == '\0') {
        v.k = json_value::kind::number;
    } else {
        v.k = json_value::kind::string;
        v.str = text;
    }
    return v;
}

bool apply_request_options(const json_value& msg, pipeline_options& opt, std::string& error) {
    for (const auto& o : option_table) {
        if (!o.per_request()) continue;
        const json_value* v = msg.find(o.key);
        if (v && !apply_option(o, *v, opt)) {
            error = std::string("'") + o.key + "' must be " + option_constraint(o);
            return false;
        }
    }
    return true;
}

void append_option_field(json_line& line, const pipeline_option& o, const json_value& v) {
    if (v.k == json_value::kind::string) return line.field(o.key, std::string_view(v.str));
    if (v.k == json_value::kind::boolean) return line.field(o.key, v.b);
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v.num);  // round-trips exactly
    line.raw(o.key, buf);
}

std::string option_help() {
    const pipeline_options defaults;
    std::string out;
    for (const auto& o : option_table) {
        std::string text = o.help;
        if (o.type != option_type::off_switch)
            text += " (default " + render(o, o.get(defaults)) + ")";
        out += help_row(*o.metavar ? std::string(o.flag) + " " + o.metavar : o.flag, text);
    }
    return out;
}

std::string help_row(std::string_view head, std::string_view text) {
    std::string out = "  " + std::string(head);
    out.append(head.size() > 20 ? 3 : 22 - head.size(), ' ');
    for (const char c : text) {
        out += c;
        if (c == '\n') out.append(24, ' ');
    }
    return out + '\n';
}

}  // namespace asynth::service
