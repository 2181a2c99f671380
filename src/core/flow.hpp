// The end-to-end design flow of the paper's Fig. 4:
//
//   1. handshake expansion with maximal reset concurrency (core/expand)
//   2. state graph generation (sg)
//   3. concurrency reduction while the cost improves (core/search)
//   4. CSC resolution by state-signal insertion (csc)
//   5. logic synthesis + area (logic), timed analysis (perf)
//   6. STG recovery from the reduced SG (regions)
//
// run_flow() drives a channel-level specification through all six steps;
// run_flow_from_sg() starts from an already complete STG/SG (hand designs
// such as the Q-module).  Wire-implemented outputs get zero delay in the
// timing model -- a wire has no gate -- which is what makes the fully
// reduced LR process cost 4 input events * 2 = 8 time units, as in Table 1.
//
// Thread safety: every entry point in this header is a pure function of its
// arguments -- no global or function-local mutable state anywhere in the
// flow (expand, sg, reduce, csc, logic, perf, regions were audited when the
// batch engine was added).  Concurrent calls on distinct
// inputs are safe, which is what batch/batch.cpp relies on.  A `subgraph`
// (including flow_report::reduced) holds a pointer to its base SG, so a
// report must not outlive or be mutated concurrently with the shared_ptr'd
// base it carries; concurrent *reads* of one report are fine.
#pragma once

#include <memory>
#include <optional>

#include "core/cost.hpp"
#include "core/expand.hpp"
#include "core/search.hpp"
#include "csc/csc.hpp"
#include "logic/synthesis.hpp"
#include "perf/timing.hpp"
#include "regions/regions.hpp"

namespace asynth {

enum class reduction_strategy : uint8_t {
    none,  ///< keep maximal concurrency
    beam,  ///< Fig. 9 exploration
    full,  ///< greedy reduction to minimal concurrency
};

/// Configuration of the whole Fig. 4 flow.
struct flow_options {
    expand_options expand;   ///< handshake expansion knobs
    reduction_strategy strategy = reduction_strategy::beam;  ///< step-3 engine
    search_options search;   ///< Fig. 9 search configuration
    csc_options csc;         ///< CSC insertion budget
    synthesis_options synth; ///< gate library + minimiser
    delay_model delays;      ///< timed-simulation delays (model time units)
    /// Wire/constant-implemented outputs get zero delay in the timed model.
    bool zero_delay_wires = true;
    bool recover = false;    ///< also run region-based STG recovery
};

struct flow_report {
    stg expanded;
    /// Owned behind a shared_ptr so that `reduced` (a view holding a pointer
    /// to the base) stays valid when the report struct is moved around.
    std::shared_ptr<const state_graph> base_sg;
    subgraph reduced;
    cost_breakdown initial_cost, reduced_cost;
    search_result search;
    csc_result csc;
    synthesis_result synth;
    perf_report perf;
    recovery_result recovered;

    // Table row accessors.
    [[nodiscard]] double area() const { return synth.ok ? synth.ckt.total_area : -1.0; }
    [[nodiscard]] std::size_t csc_signals() const { return csc.signals_inserted; }
    [[nodiscard]] double cycle() const { return perf.cycle_time; }
    [[nodiscard]] std::size_t input_events() const { return perf.input_events_on_cycle; }
};

/// Step-3 engine dispatch: applies the configured reduction strategy to
/// @p initial.  For `none` the result wraps the input unchanged (explored=1),
/// reusing @p initial_cost when the caller already evaluated it.  Shared by
/// run_flow and the pipeline so the strategy semantics cannot drift.
[[nodiscard]] search_result run_reduction(const subgraph& initial, reduction_strategy strategy,
                                          const search_options& opt,
                                          const cost_breakdown* initial_cost = nullptr);

/// Returns @p delays extended with zero-delay overrides for every wire- or
/// constant-implemented signal of @p ckt (a wire has no gate).
[[nodiscard]] delay_model wire_zero_delays(const circuit& ckt, const state_graph& g,
                                           delay_model delays);

/// Full flow from a channel-level / partial specification.
[[nodiscard]] flow_report run_flow(const stg& spec, const flow_options& opt);

/// Flow from an already generated state graph (skips expansion).
[[nodiscard]] flow_report run_flow_from_sg(state_graph sg, const flow_options& opt);

}  // namespace asynth
