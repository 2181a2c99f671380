// The Fig. 9 exploration: monotone termination, Keep_Conc handling, cost
// behaviour under the weight W, and the LR headline result (the search finds
// the two-wire implementation).
#include <gtest/gtest.h>

#include "benchmarks/corpus.hpp"
#include "core/expand.hpp"
#include "core/search.hpp"
#include "sg/analysis.hpp"

using namespace asynth;

namespace {

state_graph lr_maxconc() {
    return state_graph::generate(expand_handshakes(benchmarks::lr_process())).graph;
}

int32_t sig(const state_graph& g, const char* name) {
    for (uint32_t s = 0; s < g.signals().size(); ++s)
        if (g.signals()[s].name == name) return static_cast<int32_t>(s);
    return -1;
}

}  // namespace

TEST(search, finds_the_two_wire_lr_solution) {
    auto base = lr_maxconc();
    search_options so;
    so.cost.w = 0.2;
    so.size_frontier = 6;
    auto res = reduce_concurrency(subgraph::full(base), so);
    EXPECT_EQ(res.best_cost.csc_pairs, 0u);
    EXPECT_EQ(res.best_cost.literals, 2u);  // lo = ri, ro = li
    EXPECT_EQ(count_concurrent_pairs(res.best), 0u);
    EXPECT_GT(res.explored, 1u);
}

TEST(search, result_is_subgraph_of_input) {
    auto base = lr_maxconc();
    auto g = subgraph::full(base);
    search_options so;
    auto res = reduce_concurrency(g, so);
    EXPECT_TRUE(res.best.live_states().is_subset_of(g.live_states()));
    EXPECT_TRUE(res.best.live_arcs().is_subset_of(g.live_arcs()));
    EXPECT_TRUE(res.best.state_live(res.best.initial()));
}

TEST(search, reduced_graph_is_still_valid) {
    auto base = lr_maxconc();
    search_options so;
    so.cost.w = 0.5;
    auto res = reduce_concurrency(subgraph::full(base), so);
    auto si = check_speed_independence(res.best);
    EXPECT_TRUE(si.ok());
    EXPECT_TRUE(deadlock_states(res.best).empty());
    // No event disappeared.
    dyn_bitset before(base.events().size()), after(base.events().size());
    for (const auto& a : base.arcs()) before.set(a.event);
    for (auto a : res.best.live_arcs().ones()) after.set(base.arcs()[a].event);
    EXPECT_EQ(before, after);
}

TEST(search, keepconc_pairs_survive) {
    auto base = lr_maxconc();
    search_options so;
    so.cost.w = 0.2;
    so.keep_concurrent.push_back(
        {sg_event{sig(base, "li"), edge::minus}, sg_event{sig(base, "ri"), edge::minus}});
    auto res = reduce_fully(subgraph::full(base), so);
    auto lim = *base.find_event(sig(base, "li"), edge::minus);
    auto rim = *base.find_event(sig(base, "ri"), edge::minus);
    EXPECT_TRUE(concurrent_by_diamond(res.best, lim, rim));
}

TEST(search, nonconcurrent_keepconc_pairs_are_ignored) {
    // li+ and ro+ are ordered in the expansion; asking to keep them
    // concurrent must not veto every reduction.
    auto base = lr_maxconc();
    search_options so;
    so.cost.w = 0.2;
    so.keep_concurrent.push_back(
        {sg_event{sig(base, "li"), edge::plus}, sg_event{sig(base, "ro"), edge::plus}});
    auto res = reduce_concurrency(subgraph::full(base), so);
    EXPECT_GT(res.explored, 1u);
}

TEST(search, full_reduction_leaves_no_reducible_concurrency) {
    auto base = lr_maxconc();
    search_options so;
    so.cost.w = 0.2;
    auto res = reduce_fully(subgraph::full(base), so);
    // No admissible reduction remains (count may be zero or only pairs whose
    // reduction would be invalid; for LR everything reduces).
    EXPECT_EQ(count_concurrent_pairs(res.best), 0u);
    EXPECT_GT(res.levels, 0u);
}

TEST(search, wider_frontier_never_worse) {
    auto base =
        state_graph::generate(expand_handshakes(benchmarks::par_component())).graph;
    double prev = 1e18;
    for (std::size_t width : {1u, 2u, 4u, 8u}) {
        search_options so;
        so.cost.w = 0.5;
        so.size_frontier = width;
        auto res = reduce_concurrency(subgraph::full(base), so);
        EXPECT_LE(res.best_cost.value, prev + 1e-9) << "width " << width;
        prev = std::min(prev, res.best_cost.value);
    }
}

TEST(search, zero_weight_drives_csc_to_minimum) {
    auto base = lr_maxconc();
    search_options so;
    so.cost.w = 0.0;
    so.size_frontier = 4;
    auto res = reduce_concurrency(subgraph::full(base), so);
    EXPECT_EQ(res.best_cost.csc_pairs, 0u);
}

TEST(search, explored_counts_distinct_configurations) {
    auto base = lr_maxconc();
    search_options so;
    so.size_frontier = 4;
    auto res = reduce_concurrency(subgraph::full(base), so);
    EXPECT_GE(res.explored, res.levels);
    EXPECT_FALSE(res.level_best.empty());
    EXPECT_EQ(res.level_best.size(), res.levels);
}

TEST(search, cost_components_are_consistent) {
    auto base = lr_maxconc();
    auto g = subgraph::full(base);
    cost_params p;
    p.w = 0.25;
    auto c = estimate_cost(g, p);
    EXPECT_NEAR(c.value,
                0.25 * static_cast<double>(c.literals) +
                    0.75 * p.csc_weight * static_cast<double>(c.csc_pairs),
                1e-9);
    EXPECT_EQ(c.states, g.live_state_count());
    // W = 1: pure literals.
    p.w = 1.0;
    EXPECT_NEAR(estimate_cost(g, p).value, static_cast<double>(c.literals), 1e-9);
}

TEST(search, keepconc_events_translate_labels) {
    auto spec = benchmarks::par_component();
    spec.keep_concurrent.push_back({*spec.parse_label("b?"), *spec.parse_label("c?")});
    auto expanded = expand_handshakes(spec);
    auto kc = keepconc_events(expanded);
    ASSERT_EQ(kc.size(), 1u);
    EXPECT_EQ(kc[0].first.dir, edge::plus);
    EXPECT_EQ(kc[0].second.dir, edge::plus);
}

class search_suite : public ::testing::TestWithParam<std::size_t> {};

TEST_P(search_suite, every_spec_reduces_validly) {
    auto suite = benchmarks::spec_suite();
    const auto& [name, spec] = suite.at(GetParam());
    auto expanded = expand_handshakes(spec);
    auto base = state_graph::generate(expanded).graph;
    search_options so;
    so.cost.w = 0.5;
    so.size_frontier = 2;
    auto res = reduce_concurrency(subgraph::full(base), so);
    EXPECT_LE(res.best_cost.value, estimate_cost(subgraph::full(base), so.cost).value)
        << name;
    auto si = check_speed_independence(res.best);
    EXPECT_TRUE(si.ok()) << name;
    EXPECT_TRUE(deadlock_states(res.best).empty()) << name;
}

INSTANTIATE_TEST_SUITE_P(corpus, search_suite, ::testing::Range<std::size_t>(0, 7));
