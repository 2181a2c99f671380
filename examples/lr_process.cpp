// The LR process walk-through (paper sections 3 and 8, Table 1).
//
// Starting from the channel-level specification l? -> r! -> r? -> l!, this
// example runs the complete flow: 4-phase handshake expansion with maximal
// reset concurrency, Fig. 9 concurrency reduction, CSC resolution, logic
// synthesis and timing -- and contrasts three implementations:
// maximum concurrency, the automatic best, and the hand-made Q-module.
#include <cstdio>

#include "benchmarks/corpus.hpp"
#include "petri/astg_io.hpp"
#include "pipeline/pipeline.hpp"

using namespace asynth;

namespace {

/// Prints one implementation; false when its pipeline run failed.
bool describe(const char* tag, const pipeline_result& rep) {
    std::printf("\n--- %s ---\n", tag);
    if (!rep.completed) {
        std::printf("error: %s\n", rep.message.c_str());
        return false;
    }
    std::printf("reduced SG: %zu states, %zu concurrent pairs, %zu CSC conflict pairs\n",
                rep.reduced.live_state_count(), count_concurrent_pairs(rep.reduced),
                rep.reduced_cost.csc_pairs);
    std::printf("state signals inserted: %zu\n", rep.csc.signals_inserted);
    if (rep.synth.ok) {
        std::printf("area: %.0f units, critical cycle: %.1f units, %zu input events\n",
                    rep.area(), rep.cycle(), rep.perf.input_events_on_cycle);
        for (const auto& i : rep.synth.ckt.impls) std::printf("  %s\n", i.equation.c_str());
    } else {
        std::printf("synthesis failed: %s\n", rep.synth.message.c_str());
    }
    return true;
}

}  // namespace

int main() {
    auto spec = benchmarks::lr_process();
    std::printf("channel-level specification:\n%s", write_astg(spec).c_str());

    pipeline_options none;
    none.strategy = reduction_strategy::none;
    bool ok = describe("maximum concurrency (no reshuffling)", run_pipeline(spec, none));
    {
        pipeline_options o;
        o.strategy = reduction_strategy::beam;
        o.search.cost.w = 0.2;
        o.search.size_frontier = 6;
        auto rep = run_pipeline(spec, o);
        ok = describe("automatic reshuffling (beam search)", rep) && ok;
        if (rep.recovered.ok)
            std::printf("\nrecovered STG for the best reduction:\n%s",
                        write_astg(rep.recovered.net).c_str());
    }
    auto qmodule = state_graph::generate(benchmarks::qmodule_lr()).graph;
    ok = describe("Q-module (hand design, for comparison)", run_pipeline(qmodule, none)) && ok;
    return ok ? 0 : 1;
}
