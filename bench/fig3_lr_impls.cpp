// Fig. 3: implementations of the LR process.
//  (a) Q-module / S-element (the classic hand design; needs one CSC signal);
//  (b) full concurrency reduction: two plain wires, area 0, "does not allow
//      to decouple the left and the right sides";
//  (c)/(d) intermediate reshufflings with a CSC signal.
// We print the synthesised equations for each.
#include "bench_util.hpp"
#include "csc/csc.hpp"

using namespace asynth;
using namespace bench_util;

namespace {

void print_equations(const char* tag, const state_graph& sg) {
    pipeline_options o;
    o.strategy = reduction_strategy::none;
    auto rep = run_pipeline(sg, o);
    std::printf("%s: area %.0f, %zu CSC signal(s)\n", tag, rep.area(), rep.csc.signals_inserted);
    if (rep.synth.ok)
        for (const auto& i : rep.synth.ckt.impls) std::printf("    %s\n", i.equation.c_str());
}

void print_figure() {
    std::printf("\n=== Fig. 3: LR implementations ===\n");
    print_equations("(a) Q-module", state_graph::generate(benchmarks::qmodule_lr()).graph);
    print_equations("(b) full reduction (two wires)",
                    state_graph::generate(benchmarks::lr_full_reduction()).graph);
    // (c)/(d): an automatically found intermediate reshuffling.
    auto sg = state_graph::generate(expand_handshakes(benchmarks::lr_process())).graph;
    auto rep = chained_flow(sg);
    std::printf("(c) automatic reshuffling: area %.0f, %zu CSC signal(s)\n", rep.area(),
                rep.csc.signals_inserted);
    if (rep.synth.ok)
        for (const auto& i : rep.synth.ckt.impls) std::printf("    %s\n", i.equation.c_str());
    print_equations("(d) max concurrency", sg);
}

void bm_synthesize_qmodule(benchmark::State& state) {
    auto sg = state_graph::generate(benchmarks::qmodule_lr()).graph;
    auto g = subgraph::full(sg);
    auto csc = resolve_csc(g);
    auto enc = subgraph::full(csc.graph);
    for (auto _ : state) {
        auto s = synthesize(enc);
        benchmark::DoNotOptimize(s.ckt.total_area);
    }
}
BENCHMARK(bm_synthesize_qmodule);

void bm_wire_detection(benchmark::State& state) {
    auto sg = state_graph::generate(benchmarks::lr_full_reduction()).graph;
    auto g = subgraph::full(sg);
    for (auto _ : state) {
        auto s = synthesize(g);
        benchmark::DoNotOptimize(s.ckt.total_area);
    }
}
BENCHMARK(bm_wire_detection);

}  // namespace

int main(int argc, char** argv) {
    print_figure();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
