// The MMU controller exploration (paper section 8, Table 2).
//
// Demonstrates the extended .g front-end: channels and Keep_Conc pairs are
// declared directly in the specification text, and the flow explores the
// reshuffling space under different cost weights W.
#include <cstdio>

#include "petri/astg_io.hpp"
#include "pipeline/pipeline.hpp"

using namespace asynth;

int main() {
    // An MMU-like controller: passive request channel r, lookup channel l,
    // then the memory (m) and bus-snoop (b) channels run in parallel.  The
    // .keepconc directive asks the reshuffler to preserve the concurrency
    // between the two parallel requests -- they are the performance-critical
    // events, exactly the designer input the paper's Fig. 9 takes.
    auto spec = parse_astg(R"(.model mmu_example
.channels r l m b
.graph
r? l!
l! l?
l? m! b!
m! m?
b! b?
m? r!
b? r!
r! r?
.marking { <r!,r?> }
.keepconc m! b!
.end
)");
    std::printf("specification:\n%s\n", write_astg(spec).c_str());

    bool ok = true;
    for (double w : {0.1, 0.5, 1.0}) {
        pipeline_options o;
        o.strategy = reduction_strategy::beam;
        o.search.cost.w = w;
        o.search.size_frontier = 2;
        o.csc.max_signals = 6;
        auto rep = run_pipeline(spec, o);
        ok = ok && rep.completed;
        std::printf("W = %.1f: explored %4zu SGs -> ", w, rep.search.explored);
        if (!rep.completed)
            std::printf("error: %s\n", rep.message.c_str());
        else if (rep.synth.ok)
            std::printf("area %4.0f, %zu CSC signal(s), cycle %.0f, %zu input events\n",
                        rep.area(), rep.csc.signals_inserted, rep.cycle(),
                        rep.perf.input_events_on_cycle);
        else
            std::printf("synthesis failed: %s\n", rep.synth.message.c_str());
    }

    // Show the initial (maximally concurrent) baseline for contrast.  The
    // CSC beam is narrowed to keep the example fast: the unreduced SG is the
    // most expensive one to encode.
    pipeline_options o;
    o.strategy = reduction_strategy::none;
    o.csc.max_signals = 6;
    o.csc.beam_width = 1;
    auto rep = run_pipeline(spec, o);
    if (!rep.completed) std::printf("no reduction: error: %s\n", rep.message.c_str());
    if (rep.synth.ok)
        std::printf("no reduction: area %4.0f, %zu CSC signal(s), cycle %.0f\n", rep.area(),
                    rep.csc.signals_inserted, rep.cycle());
    return ok && rep.completed ? 0 : 1;
}
