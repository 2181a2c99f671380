// Schema-versioned, self-checking serialisation of one synthesis outcome --
// the unit the content-addressed result store (store/result_store.hpp) keeps
// on disk and the service returns on a cache hit.
//
// A stored_record is a *projection* of pipeline_result: everything a caller
// of `asynth batch` or the synthesis service gets to see (verdict, reduced-SG
// statistics, the synthesised netlist, per-stage timings, the recovered STG
// text) without the in-memory artefacts (state graphs, covers) that only the
// producing process can hold.  record_of() projects; the batch and service
// layers turn records back into their own report rows.
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
/// v3: search-quality dial -- the quality the producing search ran at and
/// the bound gap it reported, so approximate results stay labelled on disk.
inline constexpr int record_schema_version = 3;

/// One synthesised signal implementation, as stored.
struct stored_impl {
    std::string name;      ///< signal name in the encoded SG
    std::string kind;      ///< impl_kind name ("wire", "gc", ...)
    double area = 0.0;     ///< area units
    std::string equation;  ///< printable equation of the chosen style
};

/// The on-disk projection of a pipeline_result (see file comment).
struct stored_record {
    /// Fingerprint text of the producing pipeline_options (debugging aid:
    /// `get` trusts the content address, it does not re-derive this).
    std::string fingerprint;
    bool completed = false;
    bool synthesized = false;
    bool csc_solved = false;
    std::string failed_stage;  ///< first failing stage name ("" when completed)
    std::string message;       ///< diagnostic or CSC verdict ("" when clean)
    std::size_t states = 0;
    std::size_t arcs = 0;
    std::size_t signals = 0;
    std::size_t explored = 0;
    std::size_t csc_signals = 0;
    std::size_t literals = 0;
    double initial_cost = 0.0;
    double reduced_cost = 0.0;
    double area = -1.0;
    double cycle = 0.0;
    double seconds = 0.0;  ///< producing pipeline's wall-clock total
    /// Per-stage wall-clock of the producing run, (stage name, seconds).
    std::vector<std::pair<std::string, double>> timings;
    std::vector<stored_impl> netlist;  ///< synthesised circuit ("" when none)
    std::string recovered_astg;        ///< recovered STG text ("" when not run)
    std::string verilog;               ///< emitted Verilog ("" when no circuit)
    std::string cmodel;                ///< emitted C model ("" when no circuit)
    bool impl_checked = false;         ///< verify stage ran and agreed
    std::size_t impl_states = 0;       ///< states the emulation walk visited
    /// Quality the producing search ran at ("exact"/"bounded"/"anytime") and
    /// the bound gap it reported (v3; see search_result::bound_gap).
    std::string quality = "exact";
    double bound_gap = 0.0;
};

/// Projects a pipeline outcome into its storable form.  @p fingerprint is
/// the producing options' fingerprint (store/result_store.hpp).
[[nodiscard]] stored_record record_of(const pipeline_result& r, std::string fingerprint);

/// True when @p r may be stored under its (spec, options) key: the run
/// completed, and no anytime deadline cut its search short.  A cut result
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
