// The CSP-like front end (paper section 1, design scenario 2): describe the
// behaviour as channel actions, let the tool do everything else.
//
//   ./csp_frontend                      # runs the built-in demo processes
//   ./csp_frontend "p = a? ; b! ; a!"   # or pass your own process text
#include <cstdio>

#include "petri/astg_io.hpp"
#include "pipeline/pipeline.hpp"
#include "spec/csp.hpp"

using namespace asynth;

namespace {

/// Runs one process through the flow; false when it does not parse or a
/// pipeline stage fails.
bool synthesise(const char* text) {
    std::printf("\nprocess: %s\n", text);
    stg spec;
    try {
        spec = parse_csp(text);
    } catch (const error& e) {
        std::printf("  error: %s\n", e.what());
        return false;
    }
    pipeline_options o;
    o.strategy = reduction_strategy::beam;
    o.search.cost.w = 0.3;
    o.search.size_frontier = 4;
    auto rep = run_pipeline(spec, o);
    if (!rep.completed) {
        std::printf("  error: %s\n", rep.message.c_str());
        return false;
    }
    if (!rep.synth.ok) {
        std::printf("  synthesis failed: %s\n", rep.synth.message.c_str());
        return true;
    }
    std::printf("  expanded to %zu states, reduced to %zu; area %.0f, cycle %.1f\n",
                rep.base_sg->state_count(), rep.reduced.live_state_count(), rep.area(),
                rep.cycle());
    for (const auto& i : rep.synth.ckt.impls) std::printf("  %s\n", i.equation.c_str());
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc > 1) return synthesise(argv[1]) ? 0 : 1;
    // The paper's two case studies, straight from CSP-like text.
    bool ok = synthesise("lr = l? ; r! ; r? ; l!");
    ok = synthesise("par = a? ; (b! ; b?) || (c! ; c?) ; a!") && ok;
    // A three-way sequencer.
    ok = synthesise("seq3 = t? ; a! ; a? ; b! ; b? ; c! ; c? ; t!") && ok;
    return ok ? 0 : 1;
}
