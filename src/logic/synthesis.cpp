#include "logic/synthesis.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>
#include <unordered_set>

#include "boolfn/incremental_cover.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace asynth {

double decomposed_area(const cover& c, const gate_library& lib) {
    if (c.cubes.empty()) return 0.0;  // constant 0
    std::size_t gates2 = 0;
    dyn_bitset inverted(c.nvars);
    for (const auto& q : c.cubes) {
        const std::size_t k = q.literal_count();
        if (k > 1) gates2 += k - 1;  // AND tree
        for (std::size_t v = 0; v < c.nvars; ++v)
            if (q.literal(v) < 0) inverted.set(v);
    }
    if (c.cubes.size() > 1) gates2 += c.cubes.size() - 1;  // OR tree
    return static_cast<double>(gates2) * lib.gate2 +
           static_cast<double>(inverted.count()) * lib.inverter;
}

nextstate_spec derive_nextstate(const subgraph& g, uint32_t signal) {
    const auto& b = g.base();
    const auto plus = b.find_event(static_cast<int32_t>(signal), edge::plus);
    const auto minus = b.find_event(static_cast<int32_t>(signal), edge::minus);

    nextstate_spec out;
    out.spec.nvars = b.signals().size();
    std::unordered_map<dyn_bitset, int> side;  // +1 on, -1 off, 0 conflict
    std::vector<dyn_bitset> order;             // stable iteration
    for (auto sv : g.live_states().ones()) {
        const auto s = static_cast<uint32_t>(sv);
        const bool value = b.states()[s].code.test(signal);
        const bool rising = plus && g.enabled(s, *plus);
        const bool falling = minus && g.enabled(s, *minus);
        const bool on = rising || (value && !falling);
        const auto& code = b.states()[s].code;
        auto [it, inserted] = side.emplace(code, on ? +1 : -1);
        if (inserted) {
            order.push_back(code);
        } else if (it->second != (on ? +1 : -1) && it->second != 0) {
            it->second = 0;
            out.conflicting.push_back(code);
        }
    }
    for (const auto& code : order) {
        const int s = side.at(code);
        if (s > 0) out.spec.on.push_back(code);
        else if (s < 0) out.spec.off.push_back(code);
    }
    return out;
}

sop_spec gc_network_spec(const subgraph& g, uint32_t signal, edge dir) {
    const auto& b = g.base();
    sop_spec spec;
    spec.nvars = b.signals().size();
    const auto ev = b.find_event(static_cast<int32_t>(signal), dir);
    std::unordered_set<dyn_bitset> seen_on, seen_off;
    for (auto sv : g.live_states().ones()) {
        const auto s = static_cast<uint32_t>(sv);
        const auto& code = b.states()[s].code;
        const bool excited = ev && g.enabled(s, *ev);
        const bool value = code.test(signal);
        if (excited) {
            if (seen_on.insert(code).second) spec.on.push_back(code);
        } else if (value == (dir == edge::minus)) {
            // Quiescent at the source value of the transition: must not fire.
            if (seen_off.insert(code).second) spec.off.push_back(code);
        }
    }
    return spec;
}

namespace {

cover minimize(const sop_spec& spec, bool exact) {
    return exact ? minimize_exact(spec) : minimize_heuristic(spec);
}

}  // namespace

synthesis_result synthesize(const subgraph& g) { return synthesize(g, synthesis_options{}); }

synthesis_result synthesize(const subgraph& g, const synthesis_options& opt) {
    synthesis_result res;
    const auto& b = g.base();
    std::vector<std::string> names;
    names.reserve(b.signals().size());
    for (const auto& s : b.signals()) names.push_back(s.name);

    for (const auto& ev : b.events())
        if (ev.dir == edge::toggle && b.signals()[static_cast<uint32_t>(ev.signal)].kind !=
                                           signal_kind::input) {
            res.message = "cannot synthesise 2-phase (toggle) signal '" +
                          b.signals()[static_cast<uint32_t>(ev.signal)].name +
                          "'; use a 4-phase refinement";
            return res;
        }

    for (uint32_t sig = 0; sig < b.signals().size(); ++sig) {
        const auto& decl = b.signals()[sig];
        if (decl.kind == signal_kind::input) continue;
        // Skip signals with no events at all (nothing to implement).
        if (!b.find_event(static_cast<int32_t>(sig), edge::plus) &&
            !b.find_event(static_cast<int32_t>(sig), edge::minus))
            continue;

        // One span per implemented signal: the next-state function and, for
        // a complex gate, both gC networks.
        obs::span msp("logic.minimise", "logic");
        msp.arg("signal", decl.name);
        auto ns = derive_nextstate(g, sig);
        if (!ns.conflicting.empty()) {
            res.message = "CSC conflict on signal '" + decl.name + "' (" +
                          std::to_string(ns.conflicting.size()) +
                          " codes enable contradictory behaviour)";
            return res;
        }

        signal_impl impl;
        impl.signal = sig;
        impl.function = minimize(ns.spec, opt.exact);
        // The dominance bounds of boolfn/incremental_cover floor every valid
        // cover; cross-checking them against each synthesised function keeps
        // the search's pruning argument honest on every circuit the
        // Release-with-asserts sanitizer CI job builds.
        assert(bound_literals(ns.spec).lower <= impl.function.literal_count());

        // Classify.
        if (impl.function.cubes.empty()) {
            impl.kind = impl_kind::constant;
            impl.area = 0.0;
            impl.equation = decl.name + " = 0";
        } else if (impl.function.cubes.size() == 1 &&
                   impl.function.cubes[0].literal_count() == 0) {
            impl.kind = impl_kind::constant;
            impl.area = 0.0;
            impl.equation = decl.name + " = 1";
        } else if (impl.function.cubes.size() == 1 &&
                   impl.function.cubes[0].literal_count() == 1) {
            const auto& q = impl.function.cubes[0];
            std::size_t var = 0;
            for (std::size_t v = 0; v < q.nvars(); ++v)
                if (!q.is_dc(v)) var = v;
            if (q.literal(var) > 0 && var != sig) {
                impl.kind = impl_kind::wire;
                impl.area = 0.0;
            } else {
                impl.kind = impl_kind::inverter;
                impl.area = opt.lib.inverter;
            }
            impl.equation = decl.name + " = " + impl.function.to_string(names);
        } else {
            for (const auto& q : impl.function.cubes)
                if (!q.is_dc(sig)) impl.has_feedback = true;
            impl.area_complex = decomposed_area(impl.function, opt.lib);
            impl.set_fn = minimize(gc_network_spec(g, sig, edge::plus), opt.exact);
            impl.reset_fn = minimize(gc_network_spec(g, sig, edge::minus), opt.exact);
            impl.area_gc = decomposed_area(impl.set_fn, opt.lib) +
                           decomposed_area(impl.reset_fn, opt.lib) + opt.lib.celement;
            if (impl.area_gc < impl.area_complex) {
                impl.kind = impl_kind::gc_element;
                impl.area = impl.area_gc;
                impl.equation = decl.name + " = C(set: " + impl.set_fn.to_string(names) +
                                ", reset: " + impl.reset_fn.to_string(names) + ")";
            } else {
                impl.kind = impl_kind::complex_gate;
                impl.area = impl.area_complex;
                impl.equation = decl.name + " = " + impl.function.to_string(names);
            }
        }
        msp.arg("literals", static_cast<std::uint64_t>(impl.function.literal_count()));
        res.ckt.total_area += impl.area;
        res.ckt.impls.push_back(std::move(impl));
    }
    res.ok = true;
    return res;
}

}  // namespace asynth
