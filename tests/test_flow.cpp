// End-to-end integration of the Fig. 4 flow through run_pipeline, the one
// driver: the paper's headline shape assertions on the LR process, the PAR
// component and the MMU, and every Table 1, Table 2 and Fig. 10 row the
// benches print (bench/paper_rows.hpp), pinned.
#include <gtest/gtest.h>

#include "../bench/paper_rows.hpp"
#include "benchmarks/corpus.hpp"
#include "petri/astg_io.hpp"
#include "pipeline/pipeline.hpp"
#include "sg/analysis.hpp"

using namespace asynth;

namespace {

/// One printed row: area / CSC signals / critical cycle / input events.
struct pinned_row {
    const char* name;
    double area;
    std::size_t csc_signals;
    double cycle;
    std::size_t input_events;
};

void expect_rows(const std::vector<bench_util::paper_row>& rows,
                 const std::vector<pinned_row>& pinned) {
    ASSERT_EQ(rows.size(), pinned.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto& r = rows[i].result;
        const auto& p = pinned[i];
        EXPECT_EQ(rows[i].name, p.name);
        EXPECT_TRUE(r.completed) << p.name << ": " << r.message;
        EXPECT_TRUE(r.impl_check.ok) << p.name << ": " << r.impl_check.message;
        ASSERT_TRUE(r.synth.ok) << p.name << ": " << r.synth.message;
        EXPECT_EQ(r.area(), p.area) << p.name;
        EXPECT_EQ(r.csc.signals_inserted, p.csc_signals) << p.name;
        EXPECT_DOUBLE_EQ(r.cycle(), p.cycle) << p.name;
        EXPECT_EQ(r.perf.input_events_on_cycle, p.input_events) << p.name;
    }
}

}  // namespace

TEST(flow, table1_rows_are_pinned) {
    const std::vector<pinned_row> pinned = {
        {"Q-module (hand)", 40, 1, 14, 4},
        {"Full reduction", 0, 0, 8, 4},
        {"Max. concurrency", 128, 2, 12, 3},
        {"li || ri", 28, 0, 10, 3},
        {"li || ro", 28, 0, 10, 3},
        {"lo || ri", 36, 0, 10, 3},
        {"lo || ro", 60, 1, 11, 3},
    };
    expect_rows(bench_util::table1_rows(), pinned);
}

TEST(flow, table2_rows_are_pinned) {
    const std::vector<pinned_row> pinned = {
        {"original", 384, 5, 22, 5},
        {"original reduced", 120, 2, 28, 8},
        {"csc reduced", 180, 1, 20, 5},
        {"|| (b,l,r)", 76, 1, 19, 6},
        {"|| (b,m,r)", 128, 1, 20, 6},
        {"|| (b,l,m)", 48, 0, 17, 6},
        {"|| (l,m,r)", 108, 1, 20, 6},
    };
    expect_rows(bench_util::table2_rows(), pinned);
}

TEST(flow, fig10_rows_are_pinned) {
    const std::vector<pinned_row> pinned = {
        {"max concurrency", 332, 4, 13, 3},
        {"reduced (b? || c?)", 68, 1, 18, 5},
        {"manual (Tangram)", 40, 0, 10, 4},
    };
    expect_rows(bench_util::fig10_rows(), pinned);
}

TEST(flow, lr_beam_flow_reaches_the_wire_solution) {
    pipeline_options o;
    o.strategy = reduction_strategy::beam;
    o.search.cost.w = 0.2;
    o.search.size_frontier = 6;
    auto rep = run_pipeline(benchmarks::lr_process(), o);
    ASSERT_TRUE(rep.completed) << rep.message;
    ASSERT_TRUE(rep.synth.ok) << rep.synth.message;
    EXPECT_EQ(rep.area(), 0.0);                     // Table 1: full reduction, area 0
    EXPECT_EQ(rep.csc.signals_inserted, 0u);        // no state signals
    EXPECT_DOUBLE_EQ(rep.cycle(), 8.0);             // Table 1: cr. cycle 8
    EXPECT_EQ(rep.perf.input_events_on_cycle, 4u);  // Table 1: 4 input events
    EXPECT_TRUE(rep.recovered.ok);
}

TEST(flow, lr_max_concurrency_costs_two_state_signals) {
    pipeline_options o;
    o.strategy = reduction_strategy::none;
    auto rep = run_pipeline(benchmarks::lr_process(), o);
    ASSERT_TRUE(rep.completed) << rep.message;
    ASSERT_TRUE(rep.synth.ok) << rep.synth.message;
    EXPECT_EQ(rep.csc.signals_inserted, 2u);  // Table 1: max concurrency, 2 CSC signals
    EXPECT_GT(rep.area(), 0.0);
    EXPECT_EQ(rep.perf.input_events_on_cycle, 3u);
}

TEST(flow, reduction_shrinks_area_on_every_spec) {
    for (const auto& [name, spec] : benchmarks::spec_suite()) {
        // Encoding the *unreduced* graph of the largest specs is the most
        // expensive CSC instance in the repo; cap this comparison to the
        // small/medium entries (the large ones are covered by the reduced
        // flows below and by the dedicated MMU test).
        auto expanded = expand_handshakes(spec);
        if (state_graph::generate(expanded).graph.state_count() > 120) continue;

        pipeline_options max_opts;
        max_opts.strategy = reduction_strategy::none;
        max_opts.csc.max_signals = 6;
        max_opts.csc.beam_width = 2;
        auto maxc = run_pipeline(spec, max_opts);
        EXPECT_TRUE(maxc.completed) << name << ": " << maxc.message;

        pipeline_options red_opts = max_opts;
        red_opts.strategy = reduction_strategy::beam;
        red_opts.search.cost.w = 0.2;
        auto red = run_pipeline(spec, red_opts);
        EXPECT_TRUE(red.completed) << name << ": " << red.message;

        if (maxc.synth.ok && red.synth.ok) {
            EXPECT_LE(red.area(), maxc.area()) << name;
        }
        EXPECT_TRUE(red.synth.ok) << name << ": " << red.synth.message;
    }
}

TEST(flow, reduced_graphs_always_stay_valid) {
    for (const auto& [name, spec] : benchmarks::spec_suite()) {
        pipeline_options o;
        o.strategy = reduction_strategy::full;
        o.search.cost.w = 0.2;
        auto rep = run_pipeline(spec, o);
        ASSERT_TRUE(rep.completed) << name << ": " << rep.message;
        auto si = check_speed_independence(rep.reduced);
        EXPECT_TRUE(si.ok()) << name;
        EXPECT_TRUE(deadlock_states(rep.reduced).empty()) << name;
        EXPECT_TRUE(check_consistency(rep.reduced)) << name;
    }
}

TEST(flow, mmu_reduction_cuts_area_to_under_half) {
    // Table 2 headline: "reshuffling can yield an area reduction to less
    // than one half" of the original.
    pipeline_options orig;
    orig.strategy = reduction_strategy::none;
    orig.csc.max_signals = 6;
    orig.csc.beam_width = 3;
    auto rep_orig = run_pipeline(benchmarks::mmu_controller(), orig);
    ASSERT_TRUE(rep_orig.completed) << rep_orig.message;
    ASSERT_TRUE(rep_orig.synth.ok) << rep_orig.synth.message;

    pipeline_options red;
    red.strategy = reduction_strategy::full;
    red.search.cost.w = 0.2;
    auto rep_red = run_pipeline(benchmarks::mmu_controller(), red);
    ASSERT_TRUE(rep_red.completed) << rep_red.message;
    ASSERT_TRUE(rep_red.synth.ok) << rep_red.synth.message;

    EXPECT_LT(rep_red.area(), 0.5 * rep_orig.area());
}

TEST(flow, par_direct_implementation_at_least_twice_the_reduced) {
    // Fig. 10: direct implementation of the maximally concurrent behaviour
    // is about twice as complex as the reduced one.
    auto sg = state_graph::generate(expand_handshakes(benchmarks::par_component())).graph;
    pipeline_options direct;
    direct.strategy = reduction_strategy::none;
    direct.csc.max_signals = 6;
    auto maxc = run_pipeline(sg, direct);
    ASSERT_TRUE(maxc.completed) << maxc.message;
    ASSERT_TRUE(maxc.synth.ok) << maxc.synth.message;

    pipeline_options red;
    red.strategy = reduction_strategy::beam;
    red.search.cost.w = 0.5;
    red.search.size_frontier = 4;
    auto reduced = run_pipeline(sg, red);
    ASSERT_TRUE(reduced.completed) << reduced.message;
    ASSERT_TRUE(reduced.synth.ok) << reduced.synth.message;

    EXPECT_GE(maxc.area(), 2.0 * reduced.area());
}

TEST(flow, wire_outputs_get_zero_delay) {
    pipeline_options o;
    o.strategy = reduction_strategy::none;
    auto rep = run_pipeline(state_graph::generate(benchmarks::lr_full_reduction()).graph, o);
    ASSERT_TRUE(rep.completed) << rep.message;
    ASSERT_TRUE(rep.synth.ok);
    // 4 input edges x 2 units; the two wires contribute nothing.
    EXPECT_DOUBLE_EQ(rep.cycle(), 8.0);
}

TEST(flow, report_survives_moves) {
    // The reduced view must stay valid after the result is moved around
    // (regression test for the shared_ptr base).
    std::vector<pipeline_result> reports;
    for (int i = 0; i < 3; ++i) {
        pipeline_options o;
        o.strategy = reduction_strategy::beam;
        o.search.cost.w = 0.2;
        reports.push_back(run_pipeline(benchmarks::lr_process(), o));
    }
    for (auto& rep : reports) {
        EXPECT_EQ(count_concurrent_pairs(rep.reduced), 0u);
        EXPECT_EQ(rep.reduced.live_state_count(), 8u);
    }
}

TEST(flow, recovered_stg_roundtrips_through_text) {
    pipeline_options o;
    o.strategy = reduction_strategy::beam;
    o.search.cost.w = 0.2;
    auto rep = run_pipeline(benchmarks::lr_process(), o);
    ASSERT_TRUE(rep.recovered.ok) << rep.recovered.message;
    auto text = write_astg(rep.recovered.net);
    auto parsed = parse_astg(text);
    auto regen = state_graph::generate(parsed);
    EXPECT_TRUE(lts_equivalent(subgraph::full(regen.graph), rep.reduced));
}

class flow_random : public ::testing::TestWithParam<uint64_t> {};

TEST_P(flow_random, random_specs_run_end_to_end) {
    auto spec = benchmarks::random_handshake_spec(GetParam(), 3);
    pipeline_options o;
    o.strategy = reduction_strategy::beam;
    o.search.cost.w = 0.3;
    o.search.size_frontier = 2;
    o.csc.max_signals = 6;
    auto rep = run_pipeline(spec, o);
    EXPECT_TRUE(rep.completed) << rep.message;
    EXPECT_TRUE(rep.synth.ok) << rep.synth.message;
    EXPECT_TRUE(rep.perf.periodic) << rep.perf.message;
    EXPECT_GE(rep.area(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(seeds, flow_random, ::testing::Range<uint64_t>(0, 8));
