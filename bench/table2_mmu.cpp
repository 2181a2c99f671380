// Table 2: area/performance trade-off for the MMU controller.
//
// Paper rows: original 744/2/100/4, original reduced 208/0/118/6,
// csc reduced 96/1/123/7, ||(b,l,r) 440/1/101/4, ||(b,m,r) 384/0/94/4,
// ||(b,l,m) 352/1/104/5, ||(l,m,r) 368/1/105/5.
//
// Substitution (see DESIGN.md): the exact Myers-Meng MMU STG is not
// recoverable from the paper; we use an MMU-like controller with the same
// four channels (passive r; active l, m, b in sequence) and the default
// delay model instead of [8]'s intervals.  Shape targets: reshuffling cuts
// area to well under half of the original; "original reduced" trades that
// area for a longer cycle; the ||(x,y,z) rows sit in between on both axes.
#include "bench_util.hpp"

using namespace asynth;
using namespace bench_util;

namespace {

void print_table() {
    print_header("Table 2: MMU controller (paper: original 744/2/100/4, reduced 208/0/118/6, "
                 "csc red 96/1/123/7, ||(b,m,r) 384/0/94/4)");
    print_rows(table2_rows());
}

void bm_mmu_sg_generation(benchmark::State& state) {
    auto expanded = expand_handshakes(benchmarks::mmu_controller());
    for (auto _ : state) {
        auto gen = state_graph::generate(expanded);
        benchmark::DoNotOptimize(gen.graph.state_count());
    }
}
BENCHMARK(bm_mmu_sg_generation);

void bm_mmu_full_reduction(benchmark::State& state) {
    auto sg = state_graph::generate(expand_handshakes(benchmarks::mmu_controller())).graph;
    auto g = subgraph::full(sg);
    search_options so;
    so.cost.w = 0.2;
    for (auto _ : state) {
        auto res = reduce_fully(g, so);
        benchmark::DoNotOptimize(res.levels);
    }
}
BENCHMARK(bm_mmu_full_reduction);

}  // namespace

int main(int argc, char** argv) {
    print_table();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
