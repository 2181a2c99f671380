// Table 1: area/performance trade-off for implementations of the LR process.
//
// Paper rows (area units from the authors' library; ours differ, shape is
// the comparison target):
//   Q-module (hand)    104  1  14  4
//   Full reduction       0  0   8  4
//   Max. concurrency   168  2  13  3
//   li || ri           144  0   9  3
//   li || ro           160  1  11  3
//   lo || ri           136  1  11  3
//   lo || ro           232  2  16  3
//
// Delay model: input events 2 units, output/internal events 1 unit, wires 0.
#include "bench_util.hpp"

using namespace asynth;
using namespace bench_util;

namespace {

void print_table() {
    print_header("Table 1: LR process (paper: Q-module 104/1/14/4, full red 0/0/8/4, "
                 "max conc 168/2/13/3, lo||ro worst)");
    print_rows(table1_rows());
}

void bm_lr_full_flow(benchmark::State& state) {
    auto lr = benchmarks::lr_process();
    pipeline_options o;
    o.strategy = reduction_strategy::beam;
    o.search.cost.w = 0.2;
    o.search.size_frontier = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        auto rep = run_pipeline(lr, o);
        benchmark::DoNotOptimize(rep.area());
    }
}
BENCHMARK(bm_lr_full_flow)->Arg(1)->Arg(4)->Arg(8);

void bm_lr_expansion(benchmark::State& state) {
    auto lr = benchmarks::lr_process();
    for (auto _ : state) {
        auto expanded = expand_handshakes(lr);
        benchmark::DoNotOptimize(expanded.transitions().size());
    }
}
BENCHMARK(bm_lr_expansion);

void bm_lr_csc(benchmark::State& state) {
    auto sg = state_graph::generate(expand_handshakes(benchmarks::lr_process())).graph;
    auto g = subgraph::full(sg);
    for (auto _ : state) {
        auto res = resolve_csc(g);
        benchmark::DoNotOptimize(res.signals_inserted);
    }
}
BENCHMARK(bm_lr_csc);

}  // namespace

int main(int argc, char** argv) {
    print_table();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
