// Deterministic differential fuzzing of the synthesis pipeline.
//
// The library now has six pairs of "must agree" paths, each pinned
// only on the fixed BENCH corpus until this harness: the reference vs the
// incremental Fig. 9 engine, the exact vs the dominance-filtered minimiser,
// the cold vs warm result-store round trip, pipeline verdicts under
// write_astg∘parse, the CSP front end vs directly built STGs, and the
// emitted implementation replayed under speed-independent semantics vs the
// encoded state graph (netlist/emulate.hpp).  run_fuzz
// drives randomly generated specifications (benchmarks/generate.hpp,
// including the arbitration / multi-way choice / counter families) through
// one oracle per iteration and reports every disagreement.
//
// Everything is deterministic in (seed, options): iteration i derives its
// own PRNG stream, picks the oracle by rotation over the enabled set and the
// spec family by draw, so any failing iteration is reproducible from the
// command line (`asynth fuzz --seed S --budget <i+1>x --oracle <o>`) no
// matter how many workers ran the sweep.  On a mismatch the harness shrinks
// the recipe (fuzz/shrink.hpp) against the same oracle and, when a
// counterexample directory is configured, writes a minimised `.g` (plus the
// rendered `.csp` for the front-end oracle) whose leading `#` comments carry
// the oracle, profile, diagnosis and both repro command lines -- the exact
// files tests/data/fuzz/ pins and tests/test_fuzz.cpp replays.
//
// Oracle checks run the full pipeline twice per iteration, so spec sizes are
// deliberately small; two fixed option profiles keep the cost bounded:
// `deep` (beam search, exact synthesis -- the default surface) for the small
// families and `shallow` (no reduction, tiny CSC budget, heuristic
// minimiser) for the large free-choice families whose reduce stage would
// otherwise dominate the budget.  Both sides of an oracle always run the
// same profile; a counterexample records which one it was found under.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "benchmarks/generate.hpp"
#include "fuzz/shrink.hpp"
#include "pipeline/pipeline.hpp"
#include "store/record.hpp"

namespace asynth::fuzz {

// ---- oracles ---------------------------------------------------------------

enum class oracle : uint8_t {
    engines = 0,      ///< reference vs incremental search engine, full result equality
    minimizers,       ///< exact vs dominance minimiser selection
    store_roundtrip,  ///< record -> serialize -> parse -> re-run equality
    text_roundtrip,   ///< pipeline verdict stability under write_astg∘parse
    csp_frontend,     ///< rendered CSP text vs directly built STG (LTS equality)
    impl_vs_sg,       ///< emitted netlist emulated against the encoded state graph
};
inline constexpr std::size_t oracle_count = 6;
inline constexpr uint32_t all_oracles = (1u << oracle_count) - 1;

[[nodiscard]] constexpr uint32_t oracle_bit(oracle o) noexcept {
    return 1u << static_cast<unsigned>(o);
}
[[nodiscard]] const char* oracle_name(oracle o) noexcept;
[[nodiscard]] std::optional<oracle> oracle_from_name(std::string_view name) noexcept;

// ---- fixed pipeline-option profiles ---------------------------------------

enum class fuzz_profile : uint8_t {
    deep,     ///< beam search + exact synthesis (near-default pipeline options)
    shallow,  ///< no reduction, 1-signal CSC, heuristic minimiser, no perf/recover
};
[[nodiscard]] const char* profile_name(fuzz_profile p) noexcept;
[[nodiscard]] std::optional<fuzz_profile> profile_from_name(std::string_view name) noexcept;
/// The exact pipeline_options a profile denotes (both sides of every oracle
/// pair run these; replay must use the profile recorded in the file).
[[nodiscard]] pipeline_options profile_options(fuzz_profile p);

// ---- single-spec checks (the harness, replay and tests all call these) ----

/// Runs one pipeline-pair oracle on @p spec under @p profile.  Returns ""
/// when both sides agree, else a one-line diagnosis of the FIRST difference.
/// @p inject, when set, perturbs the second (candidate) side's options
/// before its run -- the mutation-testing hook: a perturbation that changes
/// results must be caught as a mismatch.  @p inject_net is the same hook at
/// the netlist level, consumed only by oracle::impl_vs_sg: it perturbs the
/// built circuit_netlist before emulation, and a perturbation that changes
/// behaviour must be caught as a trace-containment or readiness violation.
/// Must not be called with oracle::csp_frontend (that oracle needs the
/// recipe, not a net; see check_csp_agreement).
[[nodiscard]] std::string check_oracle(oracle o, const stg& spec,
                                       fuzz_profile profile = fuzz_profile::deep,
                                       const std::function<void(pipeline_options&)>& inject = {},
                                       const std::function<void(circuit_netlist&)>& inject_net = {});

/// The CSP-frontend oracle: parses @p csp_text and compares its expanded
/// state graph with @p direct's, by LTS language equality.  "" on agreement.
[[nodiscard]] std::string check_csp_agreement(const std::string& csp_text, const stg& direct);

/// First difference between two pipeline results ("" when equal).  Wall-clock
/// fields and the warm-start counters (memo-dependent by design) are always
/// ignored; @p ignore_pruned additionally skips search.pruned, the one field
/// the two minimiser modes legitimately disagree on.
[[nodiscard]] std::string diff_results(const pipeline_result& a, const pipeline_result& b,
                                       bool ignore_pruned);

/// First difference between two stored records ("" when equal).
/// @p ignore_wall_clock skips the seconds/timing fields (a cold and a warm
/// run of one spec agree on everything else).
[[nodiscard]] std::string diff_records(const store::stored_record& a,
                                       const store::stored_record& b, bool ignore_wall_clock);

// ---- CSP rendering ---------------------------------------------------------

/// Can @p n be expressed in the CSP grammar (spec/csp.hpp)?  True for trees
/// of calls, counters, sequences and parallels; selects and arbitration use
/// STG-level places the grammar has no words for.
[[nodiscard]] bool csp_renderable(const benchmarks::spec_node& n);

/// Renders @p n as a CSP process definition whose parse (parse_csp) must be
/// LTS-equivalent to build_spec(n, name): channel naming mirrors the
/// materialiser's depth-first order and the body is wrapped in the same
/// passive trigger loop.  Requires csp_renderable(n).
[[nodiscard]] std::string render_csp(const benchmarks::spec_node& n, const std::string& name);

// ---- the fuzzing loop ------------------------------------------------------

struct fuzz_options {
    uint64_t seed = 1;
    /// Wall-clock budget in seconds.  Exactly one of seconds/iterations
    /// should be nonzero; when both are 0, 20 iterations run.
    double seconds = 0.0;
    uint64_t iterations = 0;
    uint32_t oracles = all_oracles;  ///< bitmask of oracle_bit()
    std::size_t jobs = 1;            ///< parallel iterations; 0 = all hardware cores
    /// Channel-budget cap: families whose minimum size exceeds this are
    /// skipped (6 excludes the size-8 multi-way family whose state graphs
    /// cost ~20 s per run; nightly raises it).
    int max_size = 6;
    std::string dir;  ///< counterexample directory ("" = do not write files)
    std::size_t max_shrink_evals = 400;
    /// Test hook forwarded to check_oracle for every pipeline-pair oracle.
    std::function<void(pipeline_options&)> inject;
    /// Netlist-level mutation hook forwarded to the impl-vs-sg oracle.
    std::function<void(circuit_netlist&)> inject_net;
};

struct oracle_stats {
    uint64_t checks = 0;
    uint64_t mismatches = 0;
};

/// One confirmed mismatch, already shrunk.
struct finding {
    oracle o = oracle::engines;
    fuzz_profile profile = fuzz_profile::deep;
    uint64_t iteration = 0;    ///< absolute iteration index (repro: --budget (i+1)x)
    std::string family;        ///< generator family name
    std::string diagnosis;     ///< first difference, from the original spec
    benchmarks::spec_node shrunk;  ///< minimised recipe still failing the oracle
    std::string spec_astg;     ///< write_astg of the minimised spec
    std::string csp_text;      ///< rendered CSP of the minimised spec (csp oracle)
    shrink_stats shrink;
    std::string file;          ///< counterexample path written ("" when none)
};

struct fuzz_report {
    uint64_t iterations = 0;
    double seconds = 0.0;
    std::array<oracle_stats, oracle_count> oracles{};
    /// Specs generated per family name, deterministic order.
    std::vector<std::pair<std::string, uint64_t>> families;
    std::vector<finding> findings;
    [[nodiscard]] bool ok() const { return findings.empty(); }
    /// Printable multi-line summary (per-oracle check counts, per-family spec
    /// counts, findings); the CI smoke job greps it.
    [[nodiscard]] std::string summary() const;
};

/// Runs the differential fuzzing loop.  Deterministic per iteration index;
/// with a time budget only *how many* iterations run depends on wall-clock,
/// never what any iteration does.
[[nodiscard]] fuzz_report run_fuzz(const fuzz_options& opt);

/// The option profile a counterexample was found under: the one its
/// '# profile: <name>' header line names, deep when the header has no such
/// line or names no profile.  Replaying under another would not reproduce.
[[nodiscard]] fuzz_profile profile_of_counterexample(std::string_view text);

/// Replays one counterexample (or any .g text) through every enabled
/// pipeline-pair oracle, honouring @p profile; when @p csp_text is nonempty
/// the CSP oracle runs too.  Returns all diagnoses ("" = everything agrees).
[[nodiscard]] std::string replay_text(const std::string& astg_text, const std::string& csp_text,
                                      uint32_t oracles, fuzz_profile profile);

}  // namespace asynth::fuzz
