// Logic synthesis of speed-independent circuits from an encoded state graph
// (paper sections 3 and 8).  For every non-input signal x the next-state
// function is derived from the SG:
//
//   f_x(v(s)) = 1  iff  x+ is excited in s, or x = 1 and x- is not excited
//
// with the unreachable codes as don't-cares.  Requires CSC: if two reachable
// states share a code but disagree on f_x, synthesis fails and reports the
// offending signal (resolve with csc::solve first).
//
// Two implementation styles are produced:
//  * atomic complex gate: minimised SOP of f_x (may include feedback on x);
//  * generalized C element (gC): set/reset covers driving a C-element.
// Both are decomposed into 2-input gates + shared input inverters for the
// area model; special cases x = y (a wire, area 0) and x = y' (an inverter)
// are recognised -- the fully reduced LR process becomes two wires, area 0,
// exactly as in Table 1.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "boolfn/cover.hpp"
#include "sg/state_graph.hpp"

namespace asynth {

/// Area of each cell in abstract *area units* of the standard-cell library
/// used throughout the benches.  (Documented substitution: the paper's
/// library is unnamed; shapes, not absolute units, are the comparison
/// target.)
struct gate_library {
    double inverter = 4.0;   ///< inverter, area units
    double gate2 = 8.0;      ///< any 2-input AND/OR/NAND/NOR, area units
    double celement = 16.0;  ///< 2-input C-element, area units
};

enum class impl_kind : uint8_t {
    constant,      ///< f = 0 or f = 1
    wire,          ///< x = y, area 0
    inverter,      ///< x = y'
    complex_gate,  ///< atomic SOP gate (possibly with feedback)
    gc_element,    ///< C-element with set/reset networks
};

/// Implementation of one non-input signal.
struct signal_impl {
    uint32_t signal = 0;        ///< signal index in the SG's table
    impl_kind kind = impl_kind::complex_gate;  ///< winning implementation style
    cover function;             ///< complex-gate cover of f_x
    cover set_fn, reset_fn;     ///< gC covers
    bool has_feedback = false;  ///< f_x depends on x itself
    double area_complex = 0.0;  ///< complex-gate area, area units
    double area_gc = 0.0;       ///< gC area, area units
    double area = 0.0;          ///< min of the two styles, area units (0 for wires)
    std::string equation;       ///< printable equation of the chosen style
};

/// The synthesised circuit: one implementation per non-input signal.
struct circuit {
    std::vector<signal_impl> impls;  ///< per-signal implementations
    double total_area = 0.0;         ///< sum of impl areas, area units
    [[nodiscard]] const signal_impl* find(uint32_t signal) const {
        for (const auto& i : impls)
            if (i.signal == signal) return &i;
        return nullptr;
    }
};

struct synthesis_options {
    gate_library lib;
    bool exact = true;  ///< use the exact minimiser for final equations
};

struct synthesis_result {
    bool ok = false;
    std::string message;  ///< failure diagnostic (e.g. CSC conflict)
    circuit ckt;
};

[[nodiscard]] synthesis_result synthesize(const subgraph& g, const synthesis_options& opt);
[[nodiscard]] synthesis_result synthesize(const subgraph& g);

/// Area of a cover decomposed into 2-input gates plus shared inverters.
[[nodiscard]] double decomposed_area(const cover& c, const gate_library& lib);

/// The ON/OFF next-state specification of one signal; exposed for the cost
/// estimator and tests.  `conflicting` lists codes claimed by both sides
/// (empty iff the signal is CSC-consistent).
struct nextstate_spec {
    sop_spec spec;
    std::vector<dyn_bitset> conflicting;
};

[[nodiscard]] nextstate_spec derive_nextstate(const subgraph& g, uint32_t signal);

/// ON/OFF spec for the set (dir = plus) or reset (dir = minus) network of a
/// gC implementation: the network must be 1 exactly in the excitation region
/// of the transition; states where the signal already holds the target value
/// are don't-cares.  Exposed for tests.
[[nodiscard]] sop_spec gc_network_spec(const subgraph& g, uint32_t signal, edge dir);

}  // namespace asynth
