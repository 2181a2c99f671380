// Logic synthesis: next-state derivation, wire/inverter/constant detection,
// complex-gate vs gC selection and the decomposition area model.
#include <gtest/gtest.h>

#include "benchmarks/corpus.hpp"
#include "core/expand.hpp"
#include "csc/csc.hpp"
#include "logic/synthesis.hpp"
#include "sg/state_graph.hpp"

using namespace asynth;

namespace {

state_graph sg_of(const stg& net) { return state_graph::generate(net).graph; }

}  // namespace

TEST(logic, lr_full_reduction_is_two_wires) {
    auto sg = sg_of(benchmarks::lr_full_reduction());
    auto res = synthesize(subgraph::full(sg));
    ASSERT_TRUE(res.ok) << res.message;
    EXPECT_EQ(res.ckt.total_area, 0.0);
    ASSERT_EQ(res.ckt.impls.size(), 2u);
    for (const auto& i : res.ckt.impls) EXPECT_EQ(i.kind, impl_kind::wire);
    // lo = ri and ro = li.
    bool saw_lo = false, saw_ro = false;
    for (const auto& i : res.ckt.impls) {
        if (i.equation == "lo = ri") saw_lo = true;
        if (i.equation == "ro = li") saw_ro = true;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_ro);
}

TEST(logic, par_manual_contains_c_element_feedback) {
    auto sg = sg_of(benchmarks::par_manual());
    auto res = synthesize(subgraph::full(sg));
    ASSERT_TRUE(res.ok) << res.message;
    const signal_impl* ao = nullptr;
    for (const auto& i : res.ckt.impls)
        if (sg.signals()[i.signal].name == "ao") ao = &i;
    ASSERT_NE(ao, nullptr);
    // ao is the classic C-element of bi and ci: either an SOP with feedback
    // or a gC implementation, never a wire.
    EXPECT_TRUE(ao->kind == impl_kind::complex_gate || ao->kind == impl_kind::gc_element);
    EXPECT_GT(ao->area, 0.0);
    // bo and co are wires driven by ai.
    std::size_t wires = 0;
    for (const auto& i : res.ckt.impls)
        if (i.kind == impl_kind::wire) ++wires;
    EXPECT_EQ(wires, 2u);
}

TEST(logic, csc_conflict_fails_with_diagnostic) {
    auto sg = sg_of(benchmarks::fig1_controller());
    auto res = synthesize(subgraph::full(sg));
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.message.find("CSC"), std::string::npos);
    EXPECT_NE(res.message.find("Ack"), std::string::npos);
}

TEST(logic, toggle_signals_rejected) {
    expand_options o;
    o.phases = 2;
    auto sg = sg_of(expand_handshakes(benchmarks::lr_process(), o));
    auto res = synthesize(subgraph::full(sg));
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.message.find("2-phase"), std::string::npos);
}

TEST(logic, derive_nextstate_on_and_off_partition_states) {
    auto sg = sg_of(benchmarks::lr_full_reduction());
    auto g = subgraph::full(sg);
    for (uint32_t s = 0; s < sg.signals().size(); ++s) {
        if (sg.signals()[s].kind == signal_kind::input) continue;
        auto ns = derive_nextstate(g, s);
        EXPECT_TRUE(ns.conflicting.empty());
        // Every reachable code lands on exactly one side.
        EXPECT_EQ(ns.spec.on.size() + ns.spec.off.size(), sg.state_count());
    }
}

TEST(logic, derive_nextstate_reports_conflicts) {
    auto sg = sg_of(benchmarks::fig1_controller());
    auto g = subgraph::full(sg);
    auto ns = derive_nextstate(g, 0);  // Ack
    EXPECT_FALSE(ns.conflicting.empty());
}

TEST(logic, decomposed_area_model) {
    gate_library lib;
    // Empty cover (constant 0): no gates.
    cover c0;
    c0.nvars = 3;
    EXPECT_EQ(decomposed_area(c0, lib), 0.0);
    // Single positive literal: a wire at the cover level -> no gates.
    cover c1;
    c1.nvars = 3;
    cube q1(3);
    q1.set_literal(0, true);
    c1.cubes.push_back(q1);
    EXPECT_EQ(decomposed_area(c1, lib), 0.0);
    // Single negative literal: one inverter.
    cover c2 = c1;
    c2.cubes[0].set_literal(0, false);
    EXPECT_EQ(decomposed_area(c2, lib), lib.inverter);
    // a b + c'd: 2 AND2 + 1 OR2 + 1 inverter.
    cover c3;
    c3.nvars = 4;
    cube qa(4), qb(4);
    qa.set_literal(0, true);
    qa.set_literal(1, true);
    qb.set_literal(2, false);
    qb.set_literal(3, true);
    c3.cubes = {qa, qb};
    EXPECT_EQ(decomposed_area(c3, lib), 3 * lib.gate2 + lib.inverter);
    // Shared inverters are counted once: a' b + a' c.
    cover c4;
    c4.nvars = 3;
    cube qc(3), qd(3);
    qc.set_literal(0, false);
    qc.set_literal(1, true);
    qd.set_literal(0, false);
    qd.set_literal(2, true);
    c4.cubes = {qc, qd};
    EXPECT_EQ(decomposed_area(c4, lib), 3 * lib.gate2 + lib.inverter);
}

TEST(logic, qmodule_after_csc_synthesises) {
    auto sg = sg_of(benchmarks::qmodule_lr());
    auto csc = resolve_csc(subgraph::full(sg));
    ASSERT_TRUE(csc.solved);
    auto res = synthesize(subgraph::full(csc.graph));
    ASSERT_TRUE(res.ok) << res.message;
    EXPECT_GT(res.ckt.total_area, 0.0);
    // Three non-input signals now: lo, ro, csc0.
    EXPECT_EQ(res.ckt.impls.size(), 3u);
}

TEST(logic, exact_and_heuristic_agree_on_correctness) {
    auto sg = sg_of(expand_handshakes(benchmarks::par_component()));
    auto csc = resolve_csc(subgraph::full(sg), csc_options{6, 4});
    ASSERT_TRUE(csc.solved);
    auto enc = subgraph::full(csc.graph);
    for (uint32_t s = 0; s < csc.graph.signals().size(); ++s) {
        if (csc.graph.signals()[s].kind == signal_kind::input) continue;
        if (!csc.graph.find_event(static_cast<int32_t>(s), edge::plus)) continue;
        auto ns = derive_nextstate(enc, s);
        ASSERT_TRUE(ns.conflicting.empty());
        auto h = minimize_heuristic(ns.spec);
        auto e = minimize_exact(ns.spec);
        EXPECT_TRUE(verify_cover(h, ns.spec));
        EXPECT_TRUE(verify_cover(e, ns.spec));
        EXPECT_LE(e.cubes.size(), h.cubes.size());
    }
}

TEST(logic, gc_networks_cover_excitation_regions) {
    auto sg = sg_of(benchmarks::par_manual());
    auto res = synthesize(subgraph::full(sg));
    ASSERT_TRUE(res.ok);
    for (const auto& i : res.ckt.impls) {
        if (i.kind != impl_kind::gc_element) continue;
        EXPECT_FALSE(i.set_fn.cubes.empty());
        EXPECT_FALSE(i.reset_fn.cubes.empty());
        EXPECT_GE(i.area_gc, 16.0);  // at least the C-element
    }
}

TEST(logic, synthesis_area_is_sum_of_impl_areas) {
    auto sg = sg_of(benchmarks::qmodule_lr());
    auto csc = resolve_csc(subgraph::full(sg));
    auto res = synthesize(subgraph::full(csc.graph));
    ASSERT_TRUE(res.ok);
    double sum = 0;
    for (const auto& i : res.ckt.impls) sum += i.area;
    EXPECT_DOUBLE_EQ(sum, res.ckt.total_area);
}
