// The PAR component case study (paper section 8, Fig. 10).
//
// The Tangram PAR component starts two subprocesses in parallel when its
// passive port is activated.  This example reproduces the paper's flow:
// automatic 4-phase expansion, concurrency reduction preserving b? || c?
// (so both subprocesses still run in parallel), CSC resolution and
// synthesis -- then compares against the manual Tangram-style circuit.
#include <cstdio>

#include "benchmarks/corpus.hpp"
#include "core/search.hpp"
#include "petri/astg_io.hpp"
#include "pipeline/pipeline.hpp"

using namespace asynth;

int main() {
    auto spec = benchmarks::par_component();
    std::printf("PAR specification (passive a; active b, c):\n%s\n", write_astg(spec).c_str());

    auto expanded = expand_handshakes(spec);
    auto sg = state_graph::generate(expanded).graph;
    std::printf("4-phase expansion: %zu states, %zu concurrent event pairs\n\n",
                sg.state_count(), count_concurrent_pairs(subgraph::full(sg)));

    // Keep_Conc: the acknowledgments of both subprocesses stay concurrent.
    auto sig = [&](const char* n) {
        return static_cast<int32_t>(*expanded.find_signal(n));
    };
    std::vector<std::pair<sg_event, sg_event>> keep = {
        {sg_event{sig("bi"), edge::plus}, sg_event{sig("ci"), edge::plus}}};

    // Logic-biased beam search followed by greedy completion.
    search_options so;
    so.cost.w = 1.0;
    so.size_frontier = 8;
    so.keep_concurrent = keep;
    auto base = std::make_shared<const state_graph>(sg);
    auto beam = reduce_concurrency(subgraph::full(*base), so);
    so.cost.w = 0.5;
    auto full = reduce_fully(beam.best, so);
    std::printf("reduction: explored %zu configurations, kept b? || c? concurrent: %s\n",
                beam.explored + full.explored,
                concurrent_by_diamond(full.best, *base->find_event(sig("bi"), edge::plus),
                                      *base->find_event(sig("ci"), edge::plus))
                    ? "yes" : "no");

    pipeline_options o;
    o.strategy = reduction_strategy::none;
    auto rep = run_pipeline(full.best.materialize(), o);
    if (!rep.completed) {
        std::printf("error: %s\n", rep.message.c_str());
        return 1;
    }
    if (rep.synth.ok) {
        std::printf("\nautomatic circuit (area %.0f, %zu state signal(s)):\n", rep.area(),
                    rep.csc.signals_inserted);
        for (const auto& i : rep.synth.ckt.impls) std::printf("  %s\n", i.equation.c_str());
    }
    if (rep.recovered.ok)
        std::printf("\nreshuffled STG (paper Fig. 10.d):\n%s",
                    write_astg(rep.recovered.net).c_str());

    auto manual = run_pipeline(state_graph::generate(benchmarks::par_manual()).graph, o);
    if (!manual.completed) {
        std::printf("error: %s\n", manual.message.c_str());
        return 1;
    }
    if (manual.synth.ok) {
        std::printf("\nmanual Tangram-style circuit (area %.0f):\n", manual.area());
        for (const auto& i : manual.synth.ckt.impls) std::printf("  %s\n", i.equation.c_str());
    }
    return 0;
}
