// Ablation: the cost-function weight W (paper section 7).  W -> 0 biases the
// search towards fewer CSC conflicts, W -> 1 towards smaller estimated
// logic.  Reproduced on the expanded LR, PAR and MMU specs: at W = 0 the
// search drives conflicts to zero even at the cost of literals; at W = 1 it
// minimises literals and may leave conflicts for the CSC solver.
#include "bench_util.hpp"

using namespace asynth;
using namespace bench_util;

namespace {

void print_ablation() {
    std::printf("\n=== Ablation: cost weight W (CSC bias vs logic bias) ===\n");
    std::printf("%-8s %6s %10s %8s %8s %10s\n", "spec", "W", "explored", "csc", "lits",
                "area");
    for (const char* which : {"lr", "par", "mmu"}) {
        stg spec = std::string(which) == "lr"    ? benchmarks::lr_process()
                   : std::string(which) == "par" ? benchmarks::par_component()
                                                 : benchmarks::mmu_controller();
        auto sg = state_graph::generate(expand_handshakes(spec)).graph;
        for (double w : {0.0, 0.25, 0.5, 0.75, 1.0}) {
            pipeline_options o;
            o.strategy = reduction_strategy::beam;
            o.search.cost.w = w;
            o.search.size_frontier = 4;
            o.csc.max_signals = 6;
            auto rep = run_pipeline(sg, o);
            std::printf("%-8s %6.2f %10zu %8zu %8zu %10.0f\n", which, w, rep.search.explored,
                        rep.reduced_cost.csc_pairs, rep.reduced_cost.literals, rep.area());
        }
    }
}

void bm_cost_estimation(benchmark::State& state) {
    auto sg = state_graph::generate(expand_handshakes(benchmarks::mmu_controller())).graph;
    auto g = subgraph::full(sg);
    cost_params p;
    for (auto _ : state) {
        auto c = estimate_cost(g, p);
        benchmark::DoNotOptimize(c.value);
    }
}
BENCHMARK(bm_cost_estimation);

}  // namespace

int main(int argc, char** argv) {
    print_ablation();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
