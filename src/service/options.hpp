// The pipeline's flow options, declared once.
//
// Each knob a user may set on the flow is one row of
// pipeline_option_table(), and every surface reads the table instead of
// naming the options itself: `asynth` and `asynth batch` lex argv with
// option_arg_value() and check it with apply_option(); `asynth client` does
// the same, then sends each setting with append_option_field(); the request
// protocol goes through apply_request_options(); `asynth --help` prints
// option_help().  The store fingerprint (store/result_store.hpp) stays
// hand-written because it also covers library-only fields;
// tests/test_store.cpp checks every result-affecting row splits it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "pipeline/pipeline.hpp"
#include "service/json.hpp"

namespace asynth::service {

/// The value type of one option, on the command line and in a request.
enum class option_type : std::uint8_t {
    count,       ///< integer in [min, max]; JSON number
    unit,        ///< real number in [0, 1]; JSON number
    choice,      ///< one of `choices`; JSON string, or a number spelling one
    off_switch,  ///< value-less `--no-x`; JSON boolean (`false` = switched off)
};

/// One row of the option table.
struct pipeline_option {
    const char* flag;     ///< command-line flag ("--w")
    const char* key;      ///< request key ("w"); nullptr = command line only
    option_type type;
    const char* metavar;  ///< value placeholder in --help ("<x>"; "" for a switch)
    std::size_t min, max;                  ///< count range (inclusive)
    std::span<const char* const> choices;  ///< choice names, in index order
    bool affects_result;  ///< part of the store fingerprint
    const char* help;     ///< --help text; '\n' separates lines
    /// The option's value in @p opt: the number for count and unit, the
    /// index into `choices` for choice, 1/0 for an off-switch.
    double (*get)(const pipeline_options& opt);
    /// Stores a validated value (same encoding as get) into @p opt.
    void (*set)(pipeline_options& opt, double value);

    /// May a request override it?  (`--search-jobs` sizes a thread pool on
    /// the daemon's host; it is not a per-request knob.)
    [[nodiscard]] bool per_request() const { return key != nullptr; }
};

/// Every flow option, in --help order.
[[nodiscard]] std::span<const pipeline_option> pipeline_option_table();

/// The row whose command-line flag is @p flag; nullptr when none.
[[nodiscard]] const pipeline_option* find_option_flag(std::string_view flag);

/// Legal values in words: "a number in [0,1]", "one of none | beam | full".
[[nodiscard]] std::string option_constraint(const pipeline_option& o);

/// The unit type's legal values in words, for knobs outside the table.
inline constexpr const char* unit_constraint = "a number in [0,1]";

/// The unit type's check, for knobs outside the table (the generator knobs
/// of `asynth batch`): stores @p text into @p out when all of it is a
/// number in [0,1]; false (NaN included) leaves @p out untouched.
[[nodiscard]] bool parse_unit(const char* text, double& out);

/// The validator: stores @p v into @p opt when it fits @p o's type and range;
/// false (NaN included) leaves @p opt untouched.
[[nodiscard]] bool apply_option(const pipeline_option& o, const json_value& v,
                                pipeline_options& opt);

/// The typed value of a command-line argument: a number when @p text is
/// one, else a string (@p text is ignored for an off-switch).
[[nodiscard]] json_value option_arg_value(const pipeline_option& o, const char* text);

/// Applies every per-request key present in @p msg and ignores keys the
/// table does not know.  A bad value fails the request -- it must never
/// become a silently different synthesis; @p error reads "'<key>' must be
/// ...".
[[nodiscard]] bool apply_request_options(const json_value& msg, pipeline_options& opt,
                                         std::string& error);

/// Appends @p v as the request field of @p o, a per-request row.
void append_option_field(json_line& line, const pipeline_option& o, const json_value& v);

/// The flow-options block of `asynth --help`, with the pipeline_options{}
/// defaults.
[[nodiscard]] std::string option_help();

/// One --help row, the layout of every `asynth --help` section: @p head in
/// a 20-column field, then @p text with its continuation lines ('\n'
/// between them) indented to column 24.  A head too long for its field
/// keeps three spaces before the text.
[[nodiscard]] std::string help_row(std::string_view head, std::string_view text);

}  // namespace asynth::service
