// End-to-end synthesis pipeline: one documented entry point that chains every
// layer of the library into the paper's Fig. 4 flow and reports what happened
// at each stage:
//
//   parse   astg text -> stg                       (petri/astg_io)
//   expand  handshake expansion                    (core/expand)
//   sg      state graph generation                 (sg/state_graph)
//   reduce  Fig. 9 concurrency-reduction search    (core/search)
//   csc     state-signal insertion                 (csc/csc)
//   logic   speed-independent logic synthesis      (logic/synthesis)
//   perf    critical-cycle timed simulation        (perf/timing)
//   recover region-based STG recovery              (regions/regions)
//   emit    netlist backends (Verilog + C model)   (netlist/backend)
//   verify  implementation-vs-SG emulation         (netlist/emulate)
//
// Every synthesised circuit is emitted and then verified: the verify stage
// replays the emitted gates against the encoded state graph, and a
// divergence is a structured *failure* (failed = verify), not a verdict --
// the pipeline promised a speed-independent circuit and the gates disagree.
//
// The pipeline never throws: every stage runs under a timed trace span and
// converts asynth::error into a structured (failed stage, diagnostic) pair
// in the result, so callers -- the asynth CLI, the benches, tests, services
// -- can report failures without a try/catch of their own.
//
// Thread safety: run_pipeline is a pure function of (spec, options) -- in
// fact of (write_astg(spec), options): the expand stage canonicalises the
// spec through a write_astg/parse_astg round trip first, so nets built in
// different construction orders (and hence with different internal
// transition/place numbering) yield bit-identical results whenever their
// canonical texts match.  That equivalence is what makes the result store's
// content addressing (store/result_store.hpp) sound.  The state-graph entry
// is likewise a pure function of (state graph, options).  No stage keeps
// global or function-local mutable state (the process-wide obs counters are
// atomic), so concurrent calls on distinct inputs are safe: the batch engine
// (batch/batch.hpp) runs many calls concurrently on a thread pool.  Each
// result owns its artefacts (the base SG rides behind a shared_ptr so
// `reduced` stays valid across moves); share a result across threads only
// for reading.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/cost.hpp"
#include "core/expand.hpp"
#include "core/search.hpp"
#include "csc/csc.hpp"
#include "logic/synthesis.hpp"
#include "netlist/backend.hpp"
#include "netlist/emulate.hpp"
#include "perf/timing.hpp"
#include "petri/stg.hpp"
#include "regions/regions.hpp"
#include "sg/state_graph.hpp"

namespace asynth {

/// The stages of the end-to-end flow, in execution order.
enum class pipeline_stage : uint8_t {
    parse,        ///< astg text -> stg (only when starting from text)
    expand,       ///< handshake expansion (core/expand)
    state_graph,  ///< reachability graph generation (sg/)
    reduce,       ///< Fig. 9 concurrency reduction (core/search)
    csc,          ///< complete state coding resolution (csc/)
    logic,        ///< logic synthesis + area (logic/)
    perf,         ///< critical-cycle analysis (perf/)
    recover,      ///< region-based STG recovery (regions/)
    emit,         ///< netlist emission, Verilog + C model (netlist/)
    verify,       ///< implementation-vs-SG emulation (netlist/emulate)
};

/// Last member of pipeline_stage; loops over all stages iterate to here.
inline constexpr pipeline_stage pipeline_stage_last = pipeline_stage::verify;

/// Short printable name of a stage ("parse", "expand", ...).
[[nodiscard]] const char* stage_name(pipeline_stage s) noexcept;

/// Wall-clock cost of one executed stage.
struct stage_timing {
    pipeline_stage stage = pipeline_stage::parse;
    double seconds = 0.0;  ///< wall-clock seconds (the stage's trace span)

    bool operator==(const stage_timing&) const = default;
};

/// Step-3 engine of the flow.
enum class reduction_strategy : uint8_t {
    none,  ///< keep maximal concurrency
    beam,  ///< Fig. 9 exploration
    full,  ///< greedy reduction to minimal concurrency
};

/// Everything the pipeline can be asked to do.  Defaults reproduce the
/// paper's Fig. 4 flow with the beam search of Fig. 9.
struct pipeline_options {
    expand_options expand;                                   ///< handshake expansion knobs
    reduction_strategy strategy = reduction_strategy::beam;  ///< none / beam / full
    search_options search;                                   ///< Fig. 9 search configuration
    csc_options csc;                                         ///< CSC insertion budget
    synthesis_options synth;                                 ///< gate library + minimiser
    /// Timed-simulation delays.  Wire- and constant-implemented outputs
    /// always get zero delay on top of these (a wire has no gate), which is
    /// what makes Table 1's fully reduced LR cycle 4 input events * 2 = 8.
    delay_model delays;
    bool run_performance = true;  ///< run the perf stage
    bool recover_stg = true;      ///< run the recover stage (STG of the result)
    /// Ignored: the verify stage runs for every synthesised circuit.  Kept
    /// only so existing callers that assign it still compile.
    bool verify_impl = false;
};

/// The pipeline outcome.  Two notions of success are kept apart:
///  * `completed` -- every requested stage ran without throwing.  A spec
///    whose CSC conflict is provably unfixable (the paper's Fig. 1) still
///    *completes*: that verdict is the analysis result, not a crash.
///  * `synthesized()` -- the flow additionally produced a valid circuit.
/// When !completed, `failed` names the first failing stage and `message`
/// carries the diagnostic; artefacts up to the failure point remain valid.
struct pipeline_result {
    bool completed = false;                 ///< all requested stages ran
    std::optional<pipeline_stage> failed;   ///< first failing stage when !completed
    std::string message;                    ///< diagnostic when !completed

    stg spec;                               ///< input specification (empty from an SG)
    stg expanded;                           ///< after handshake expansion
    /// Base SG behind a shared_ptr so `reduced` (a view into it) survives
    /// moves/copies of the result struct.
    std::shared_ptr<const state_graph> base_sg;
    subgraph reduced;                       ///< best reduced configuration
    cost_breakdown initial_cost;            ///< section-7 cost before reduction
    cost_breakdown reduced_cost;            ///< section-7 cost after reduction
    search_result search;                   ///< Fig. 9 exploration trace
    csc_result csc;                         ///< CSC insertion log + encoded SG
    synthesis_result synth;                 ///< circuit + area
    perf_report perf;                       ///< critical-cycle metrics
    recovery_result recovered;              ///< STG of the reduced result
    circuit_netlist impl_model;             ///< gate-level model (emit stage)
    std::string verilog;                    ///< emitted Verilog (emit stage)
    std::string cmodel;                     ///< emitted C model (emit stage)
    emulation_result impl_check;            ///< emulation verdict (verify stage)

    std::vector<stage_timing> timings;      ///< one entry per executed stage
    double total_seconds = 0.0;             ///< sum of stage wall-clock times

    /// True when the flow produced a valid speed-independent circuit.
    [[nodiscard]] bool synthesized() const { return csc.solved && synth.ok; }
    /// Circuit area (-1 when synthesis failed).
    [[nodiscard]] double area() const { return synth.ok ? synth.ckt.total_area : -1.0; }
    /// Critical cycle length in model time units (0 when perf did not run).
    [[nodiscard]] double cycle() const { return perf.cycle_time; }
    /// Wall-clock seconds spent in @p s (0 when the stage did not run).
    [[nodiscard]] double stage_seconds(pipeline_stage s) const noexcept;
};

/// Runs the flow from an in-memory specification (no parse stage).
[[nodiscard]] pipeline_result run_pipeline(const stg& spec, const pipeline_options& opt);
[[nodiscard]] pipeline_result run_pipeline(const stg& spec);

/// Runs only the stages from reduce on, starting from an already generated
/// state graph: hand designs such as the Q-module, and graphs reduced
/// outside the pipeline.  Keep_Conc pairs come from opt.search alone.
[[nodiscard]] pipeline_result run_pipeline(state_graph sg, const pipeline_options& opt);

/// Runs the flow from astg (.g) text, starting with the parse stage.
[[nodiscard]] pipeline_result run_pipeline_text(std::string_view astg_text,
                                                const pipeline_options& opt);

/// Human-readable multi-line report: per-stage wall-clock timings, state/arc
/// counts, cost trajectory, inserted CSC signals, area, equations and the
/// critical-cycle metrics.  Used verbatim by the asynth CLI.
[[nodiscard]] std::string pipeline_summary(const pipeline_result& r);

}  // namespace asynth
