// Raw algorithm throughput over the random handshake corpus: SG generation,
// excitation regions, FwdRed, CSC checking, region-based STG recovery, timed
// simulation, and the minimiser tiers (full heuristic minimisation vs the
// dominance filter's literal_lower_bound).
#include "bench_util.hpp"
#include "boolfn/cover.hpp"
#include "core/reduce.hpp"
#include "logic/synthesis.hpp"
#include "perf/timing.hpp"
#include "regions/regions.hpp"

using namespace asynth;
using namespace bench_util;

namespace {

state_graph corpus_sg(int leaves) {
    return state_graph::generate(
               expand_handshakes(benchmarks::random_handshake_spec(7, leaves)))
        .graph;
}

void bm_sg_generation(benchmark::State& state) {
    auto spec = expand_handshakes(
        benchmarks::random_handshake_spec(7, static_cast<int>(state.range(0))));
    for (auto _ : state) {
        auto gen = state_graph::generate(spec);
        benchmark::DoNotOptimize(gen.graph.state_count());
    }
    state.counters["states"] = static_cast<double>(state_graph::generate(spec).graph.state_count());
}
BENCHMARK(bm_sg_generation)->Arg(2)->Arg(4)->Arg(6);

void bm_excitation_regions(benchmark::State& state) {
    auto sg = corpus_sg(static_cast<int>(state.range(0)));
    auto g = subgraph::full(sg);
    for (auto _ : state) {
        auto comps = excitation_regions(g);
        benchmark::DoNotOptimize(comps.size());
    }
}
BENCHMARK(bm_excitation_regions)->Arg(2)->Arg(4)->Arg(6);

void bm_csc_check(benchmark::State& state) {
    auto sg = corpus_sg(static_cast<int>(state.range(0)));
    auto g = subgraph::full(sg);
    for (auto _ : state) {
        auto rep = check_csc(g, 0);
        benchmark::DoNotOptimize(rep.conflict_pairs);
    }
}
BENCHMARK(bm_csc_check)->Arg(2)->Arg(4)->Arg(6);

void bm_speed_independence(benchmark::State& state) {
    auto sg = corpus_sg(static_cast<int>(state.range(0)));
    auto g = subgraph::full(sg);
    for (auto _ : state) {
        auto rep = check_speed_independence(g);
        benchmark::DoNotOptimize(rep.ok());
    }
}
BENCHMARK(bm_speed_independence)->Arg(2)->Arg(4);

void bm_region_recovery(benchmark::State& state) {
    auto sg = corpus_sg(static_cast<int>(state.range(0)));
    auto g = subgraph::full(sg);
    for (auto _ : state) {
        auto res = recover_stg(g);
        benchmark::DoNotOptimize(res.ok);
    }
}
BENCHMARK(bm_region_recovery)->Arg(2)->Arg(3);

void bm_timed_simulation(benchmark::State& state) {
    auto sg = corpus_sg(static_cast<int>(state.range(0)));
    auto g = subgraph::full(sg);
    delay_model dm;
    for (auto _ : state) {
        auto rep = analyze_performance(g, dm);
        benchmark::DoNotOptimize(rep.cycle_time);
    }
}
BENCHMARK(bm_timed_simulation)->Arg(2)->Arg(4);

/// Next-state specs of every estimated signal of a corpus SG -- the exact
/// input population the search's literal estimates run on.
std::vector<sop_spec> nextstate_specs(const state_graph& sg) {
    auto g = subgraph::full(sg);
    std::vector<sop_spec> specs;
    for (uint32_t s = 0; s < sg.signals().size(); ++s) {
        if (sg.signals()[s].kind == signal_kind::input) continue;
        auto ns = derive_nextstate(g, s);
        if (!ns.spec.on.empty()) specs.push_back(std::move(ns.spec));
    }
    return specs;
}

void bm_minimize_heuristic_tier(benchmark::State& state) {
    auto specs = nextstate_specs(corpus_sg(static_cast<int>(state.range(0))));
    for (auto _ : state) {
        std::size_t lits = 0;
        for (const auto& s : specs) lits += minimize_heuristic(s).literal_count();
        benchmark::DoNotOptimize(lits);
    }
}
BENCHMARK(bm_minimize_heuristic_tier)->Arg(2)->Arg(4);

void bm_literal_lower_bound_tier(benchmark::State& state) {
    auto specs = nextstate_specs(corpus_sg(static_cast<int>(state.range(0))));
    for (auto _ : state) {
        std::size_t lits = 0;
        for (const auto& s : specs) lits += literal_lower_bound(s);
        benchmark::DoNotOptimize(lits);
    }
}
BENCHMARK(bm_literal_lower_bound_tier)->Arg(2)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
