// Fig. 10: the PAR component case study.
//
// Paper claims reproduced here:
//  * the tool performs the 4-phase expansion automatically (Fig 10.b);
//  * a direct implementation of the maximally concurrent behaviour is about
//    twice as complex as the reduced one (extra encoding logic);
//  * reduction preserving b? || c? finds an *asymmetric* solution
//    (one channel's handshake chained behind the other's);
//  * comparison against the manual Tangram-style design (Fig 10.c/f).
#include "bench_util.hpp"

using namespace asynth;
using namespace bench_util;

namespace {

void print_figure() {
    std::printf("\n=== Fig. 10: PAR component ===\n");
    auto sg = state_graph::generate(expand_handshakes(benchmarks::par_component())).graph;
    std::printf("4-phase expansion: %zu states, %zu concurrent event pairs\n", sg.state_count(),
                count_concurrent_pairs(subgraph::full(sg)));

    const auto rows = fig10_rows();
    print_header("PAR implementations");
    print_rows(rows);
    const auto& max_rep = rows[0].result;
    const auto& red_rep = rows[1].result;
    const auto& man_rep = rows[2].result;

    if (max_rep.synth.ok && red_rep.synth.ok && man_rep.synth.ok) {
        std::printf("\nmax-conc / reduced area ratio: %.2fx (paper: ~2x)\n",
                    max_rep.area() / red_rep.area());
        std::printf("reduced / manual area ratio:   %.2fx (paper: 0.88x)\n",
                    red_rep.area() / man_rep.area());
        std::printf("\nreduced circuit (asymmetric, cf. paper's observation):\n");
        for (const auto& i : red_rep.synth.ckt.impls)
            std::printf("    %s\n", i.equation.c_str());
        std::printf("manual circuit:\n");
        for (const auto& i : man_rep.synth.ckt.impls)
            std::printf("    %s\n", i.equation.c_str());
    }
}

void bm_par_expansion_flow(benchmark::State& state) {
    auto par = benchmarks::par_component();
    for (auto _ : state) {
        auto e = expand_handshakes(par);
        auto g = state_graph::generate(e);
        benchmark::DoNotOptimize(g.graph.state_count());
    }
}
BENCHMARK(bm_par_expansion_flow);

void bm_par_chained_reduction(benchmark::State& state) {
    auto sg = state_graph::generate(expand_handshakes(benchmarks::par_component())).graph;
    std::vector<std::pair<sg_event, sg_event>> keep = {
        {sg_event{signal_id(sg, "bi"), edge::plus}, sg_event{signal_id(sg, "ci"), edge::plus}}};
    for (auto _ : state) {
        auto rep = chained_flow(sg, keep);
        benchmark::DoNotOptimize(rep.area());
    }
}
BENCHMARK(bm_par_chained_reduction);

}  // namespace

int main(int argc, char** argv) {
    print_figure();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
