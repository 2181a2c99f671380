// The paper-table reproductions as data: the run_pipeline configuration of
// every row of Tables 1 and 2 and of the Fig. 10 case study.  The bench
// binaries print these rows and tests/test_flow.cpp pins them, so a row is
// configured in exactly one place.  Header-only and free of Google
// Benchmark, so the test suite can include it.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "benchmarks/corpus.hpp"
#include "pipeline/pipeline.hpp"

namespace bench_util {

using namespace asynth;

/// One printed table row: its label and the pipeline run behind it.
struct paper_row {
    std::string name;
    pipeline_result result;
};

inline int32_t signal_id(const state_graph& g, const std::string& name) {
    for (uint32_t s = 0; s < g.signals().size(); ++s)
        if (g.signals()[s].name == name) return static_cast<int32_t>(s);
    return -1;
}

/// Keep the falling edges of two wires concurrent.
inline void keep_minus_pair(search_options& so, const state_graph& g, const std::string& a,
                            const std::string& b) {
    so.keep_concurrent.push_back(
        {sg_event{signal_id(g, a), edge::minus}, sg_event{signal_id(g, b), edge::minus}});
}

/// The flow used for "keep this pair, serialise the rest" table rows.
inline pipeline_result keep_pair_flow(const stg& spec, const std::string& wire_a,
                                      const std::string& wire_b) {
    auto expanded = expand_handshakes(spec);
    auto sg = state_graph::generate(expanded).graph;
    pipeline_options o;
    o.strategy = reduction_strategy::full;
    o.search.cost.w = 0.2;
    keep_minus_pair(o.search, sg, wire_a, wire_b);
    return run_pipeline(std::move(sg), o);
}

/// Table 2's "keep these three channels concurrent" rows: the falling edges
/// of the three request wires stay pairwise concurrent.
inline pipeline_result keep_three(const stg& spec, const char* c1, const char* c2,
                                  const char* c3) {
    auto expanded = expand_handshakes(spec);
    auto sg = state_graph::generate(expanded).graph;
    pipeline_options o;
    o.strategy = reduction_strategy::full;
    o.search.cost.w = 0.2;
    o.csc.max_signals = 6;
    const std::string w1 = std::string(c1) + "o", w2 = std::string(c2) + "o",
                      w3 = std::string(c3) + "o";
    keep_minus_pair(o.search, sg, w1, w2);
    keep_minus_pair(o.search, sg, w1, w3);
    keep_minus_pair(o.search, sg, w2, w3);
    auto rep = run_pipeline(sg, o);
    if (rep.csc.solved) return rep;
    // The greedy full reduction can land on an encoding our insertion cannot
    // fix; the CSC-biased beam avoids those configurations.
    o.strategy = reduction_strategy::beam;
    o.search.cost.w = 0.1;
    o.search.size_frontier = 6;
    return run_pipeline(std::move(sg), o);
}

/// Beam (logic-biased) followed by greedy completion -- the configuration
/// that finds the asymmetric PAR solution and the LR wires.
inline pipeline_result chained_flow(state_graph sg,
                                    std::vector<std::pair<sg_event, sg_event>> keep = {}) {
    auto base = std::make_shared<const state_graph>(std::move(sg));
    search_options so;
    so.cost.w = 1.0;
    so.size_frontier = 8;
    so.keep_concurrent = keep;
    auto beam = reduce_concurrency(subgraph::full(*base), so);
    search_options so2 = so;
    so2.cost.w = 0.5;
    auto full = reduce_fully(beam.best, so2);

    pipeline_options o;
    o.strategy = reduction_strategy::none;
    return run_pipeline(full.best.materialize(), o);
}

/// Table 1: the LR process.
inline std::vector<paper_row> table1_rows() {
    const auto lr = benchmarks::lr_process();
    pipeline_options none;
    none.strategy = reduction_strategy::none;
    pipeline_options beam;
    beam.strategy = reduction_strategy::beam;
    beam.search.cost.w = 0.2;
    beam.search.size_frontier = 6;
    std::vector<paper_row> rows;
    rows.push_back({"Q-module (hand)",
                    run_pipeline(state_graph::generate(benchmarks::qmodule_lr()).graph, none)});
    rows.push_back({"Full reduction", run_pipeline(lr, beam)});
    rows.push_back({"Max. concurrency", run_pipeline(lr, none)});
    rows.push_back({"li || ri", keep_pair_flow(lr, "li", "ri")});
    rows.push_back({"li || ro", keep_pair_flow(lr, "li", "ro")});
    rows.push_back({"lo || ri", keep_pair_flow(lr, "lo", "ri")});
    rows.push_back({"lo || ro", keep_pair_flow(lr, "lo", "ro")});
    return rows;
}

/// Table 2: the MMU controller.
inline std::vector<paper_row> table2_rows() {
    const auto mmu = benchmarks::mmu_controller();
    std::vector<paper_row> rows;
    {
        pipeline_options o;
        o.strategy = reduction_strategy::none;
        o.csc.max_signals = 6;
        o.csc.beam_width = 3;
        rows.push_back({"original", run_pipeline(mmu, o)});
    }
    {
        pipeline_options o;
        o.strategy = reduction_strategy::full;
        o.search.cost.w = 0.2;
        rows.push_back({"original reduced", run_pipeline(mmu, o)});
    }
    {
        pipeline_options o;
        o.strategy = reduction_strategy::beam;
        o.search.cost.w = 0.0;  // pure CSC bias, the paper's W -> 0 regime
        o.search.size_frontier = 4;
        rows.push_back({"csc reduced", run_pipeline(mmu, o)});
    }
    rows.push_back({"|| (b,l,r)", keep_three(mmu, "b", "l", "r")});
    rows.push_back({"|| (b,m,r)", keep_three(mmu, "b", "m", "r")});
    rows.push_back({"|| (b,l,m)", keep_three(mmu, "b", "l", "m")});
    rows.push_back({"|| (l,m,r)", keep_three(mmu, "l", "m", "r")});
    return rows;
}

/// Fig. 10: the PAR component -- the direct implementation of maximal
/// concurrency, the reduction keeping b? || c?, and the manual Tangram
/// design, in that order.
inline std::vector<paper_row> fig10_rows() {
    auto sg = state_graph::generate(expand_handshakes(benchmarks::par_component())).graph;
    std::vector<std::pair<sg_event, sg_event>> keep = {
        {sg_event{signal_id(sg, "bi"), edge::plus}, sg_event{signal_id(sg, "ci"), edge::plus}}};
    pipeline_options direct;
    direct.strategy = reduction_strategy::none;
    direct.csc.max_signals = 6;
    pipeline_options manual;
    manual.strategy = reduction_strategy::none;
    std::vector<paper_row> rows;
    rows.push_back({"max concurrency", run_pipeline(sg, direct)});
    rows.push_back({"reduced (b? || c?)", chained_flow(std::move(sg), keep)});
    rows.push_back({"manual (Tangram)",
                    run_pipeline(state_graph::generate(benchmarks::par_manual()).graph, manual)});
    return rows;
}

}  // namespace bench_util
