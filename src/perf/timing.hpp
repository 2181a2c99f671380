// Performance estimation (paper sections 3 and 8): critical-cycle length and
// the number of input events on it.
//
// Model: a timed discrete-event simulation of the state graph with
// *persistent event clocks*.  When an event becomes excited its clock starts
// (at the completion time of the event whose firing excited it); firing
// other concurrent events does not reset the clock, so the simulation
// realises true timed-Petri-net semantics for persistent (speed-independent)
// systems -- concurrent events overlap instead of serialising, exactly what
// the paper's "critical cycle" measures.  Input choices are resolved
// earliest-completion-first (deterministic environment).
//
// The simulation runs until the configuration (SG node + relative clock
// offsets) recurs, which identifies the steady periodic regime; the period
// is the critical cycle length and walking the just-fired event's trigger
// chain back through one period counts the events (and input events) on the
// critical cycle.
#pragma once

#include <string>
#include <vector>

#include "sg/state_graph.hpp"

namespace asynth {

/// Event delay assignment for the timed simulation.  All delays are in the
/// paper's abstract *time units* (Table 1 normalises an output gate delay
/// to 1); they are not wall-clock quantities.
struct delay_model {
    double input_delay = 2.0;     ///< environment response, time units (Table 1 uses 2)
    double output_delay = 1.0;    ///< output gate delay, time units
    double internal_delay = 1.0;  ///< internal/state-signal gate delay, time units
    /// Per-signal overrides by name (used by the Table 2 MMU delay set).
    std::vector<std::pair<std::string, double>> overrides;

    [[nodiscard]] double of(const state_graph& g, uint16_t event) const;
};

struct perf_report {
    bool periodic = false;      ///< steady cyclic regime found
    double cycle_time = 0.0;    ///< critical cycle length (time units)
    std::size_t events_on_cycle = 0;
    std::size_t input_events_on_cycle = 0;
    std::size_t firings_simulated = 0;
    std::string message;
};

[[nodiscard]] perf_report analyze_performance(const subgraph& g, const delay_model& dm,
                                              std::size_t max_firings = 50000);

}  // namespace asynth
