// Schema-versioned, self-checking serialisation of one synthesis outcome --
// the unit the content-addressed result store (store/result_store.hpp) keeps
// on disk and the service returns on a cache hit.
//
// The reported outcome of one run -- the row of the paper's Tables 1-2:
// verdict, reduced-SG statistics, CSC signals, literals, area, cycle,
// per-stage timings -- is declared once, as result_summary, and derived from
// a pipeline_result once, by summarize().  A stored_record is that summary
// plus the payload a store hit replays (the synthesised netlist, the
// recovered STG text, the emitted netlists), without the in-memory artefacts
// (state graphs, covers) that only the producing process can hold.  The
// batch report row (batch::spec_record) is the same summary plus the row's
// name and flags, so a store hit becomes a report row by copying the base.
//
// The wire format is a three-line-header text block:
//
//   asynth-record v<schema> <payload_bytes> <payload_hash_hex32>
//   <payload...>
//
// where the payload is `key value` lines for scalars and `key <nbytes>\n<raw
// bytes>\n` blocks for free-form strings (messages, equations, astg text) --
// length-prefixed so no escaping is needed and parsing cannot be confused by
// content.  parse_record() verifies the schema, the length and the 128-bit
// payload hash before touching the payload, and returns a typed status so the
// store can tell version skew (re-synthesise, keep counting) from corruption
// (re-synthesise, count separately) without ever throwing: a truncated,
// bit-flipped or future-schema record is a *miss*, never a crash.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/pipeline.hpp"

namespace asynth::store {

/// Bump when the payload layout changes incompatibly.  Readers reject any
/// other version (degrading to a store miss), so a mixed-version fleet only
/// loses cache efficiency, never correctness.
/// v2: emitted netlists (verilog/cmodel) + implementation-verification
/// outcome added alongside the equations.
/// v3: fields of a since-removed search-quality dial.
/// v4: those fields dropped again (v3 records read as version skew).
inline constexpr int record_schema_version = 4;

/// One synthesised signal implementation, as stored.
struct stored_impl {
    std::string name;      ///< signal name in the encoded SG
    std::string kind;      ///< impl_kind name ("wire", "gc", ...)
    double area = 0.0;     ///< area units
    std::string equation;  ///< printable equation of the chosen style
};

/// What a run reports, as a batch row, a store record and a service
/// response all show it (see file comment).
struct result_summary {
    bool completed = false;     ///< every requested stage ran
    bool synthesized = false;   ///< a valid circuit was produced
    bool csc_solved = false;    ///< CSC verdict
    std::string failed_stage;   ///< first failing stage name ("" when completed)
    std::string message;        ///< failure diagnostic or CSC verdict ("" when clean)
    std::size_t states = 0;     ///< base SG states explored
    std::size_t arcs = 0;       ///< base SG arcs
    std::size_t signals = 0;    ///< SG signal count after expansion
    std::size_t explored = 0;   ///< distinct SGs evaluated by the Fig. 9 search
    std::size_t csc_signals = 0;  ///< inserted state signals
    std::size_t literals = 0;   ///< estimated SOP literals of the reduced SG
    double initial_cost = 0.0;  ///< section-7 cost before reduction
    double reduced_cost = 0.0;  ///< section-7 cost after reduction
    double area = -1.0;         ///< circuit area in area units (-1: no circuit)
    double cycle = 0.0;         ///< critical-cycle length, model time units
    /// Pipeline wall-clock total.  A record replays it, so a store hit
    /// reports (here and in `timings`) the *producing* run's cost, not the
    /// lookup's.
    double seconds = 0.0;
    std::vector<stage_timing> timings;  ///< per-stage wall-clock seconds
    bool impl_checked = false;  ///< verify stage emulated the netlist and agreed
    std::size_t impl_states = 0;  ///< states the emulation walk visited

    bool operator==(const result_summary&) const = default;
};

/// The one projection of a pipeline outcome onto its reported summary.
[[nodiscard]] result_summary summarize(const pipeline_result& r);

/// The on-disk form of one outcome: its summary plus the replayable payload.
struct stored_record : result_summary {
    /// Fingerprint text of the producing pipeline_options (debugging aid:
    /// `get` trusts the content address, it does not re-derive this).
    std::string fingerprint;
    std::vector<stored_impl> netlist;  ///< synthesised circuit ("" when none)
    std::string recovered_astg;        ///< recovered STG text ("" when not run)
    std::string verilog;               ///< emitted Verilog ("" when no circuit)
    std::string cmodel;                ///< emitted C model ("" when no circuit)
};

/// Projects a pipeline outcome into its storable form: summarize() plus the
/// payload.  @p fingerprint is the producing options' fingerprint
/// (store/result_store.hpp).
[[nodiscard]] stored_record record_of(const pipeline_result& r, std::string fingerprint);

/// True when @p r may be stored under its (spec, options) key: the run
/// completed, and no search deadline cut its search short.  A cut result
/// depends on the machine's speed at the time, not only on the key, so
/// caching it would serve that accident forever.  Failures are retried too.
[[nodiscard]] inline bool cacheable(const pipeline_result& r) noexcept {
    return r.completed && !r.search.deadline_hit;
}

/// Serialises header + payload (the exact bytes put() writes to disk).
[[nodiscard]] std::string serialize_record(const stored_record& rec);

/// Typed deserialisation outcome, so callers can count failure modes apart.
enum class parse_status : uint8_t {
    ok,            ///< record parsed and checksum verified
    corrupt,       ///< bad header/length/hash/payload -- treat as a miss
    version_skew,  ///< intact header of an unsupported schema -- treat as a miss
};

/// Parses bytes previously produced by serialize_record().  Never throws;
/// @p out is only written on parse_status::ok.
[[nodiscard]] parse_status parse_record(std::string_view text, stored_record& out);

}  // namespace asynth::store
