#include "core/flow.hpp"

#include "explore/engine.hpp"

namespace asynth {

search_result run_reduction(const subgraph& initial, reduction_strategy strategy,
                            const search_options& opt, const cost_breakdown* initial_cost) {
    switch (strategy) {
        case reduction_strategy::none: {
            search_result res;
            res.best = initial;
            res.best_cost = initial_cost ? *initial_cost : estimate_cost(initial, opt.cost);
            res.explored = 1;
            return res;
        }
        case reduction_strategy::beam:
            // Engine dispatch: both engines walk the same beam and return the
            // same result; `incremental` (the default) just does less work.
            return opt.engine == search_engine::reference
                       ? reduce_concurrency(initial, opt)
                       : explore::reduce_concurrency_incremental(initial, opt);
        case reduction_strategy::full:
            return reduce_fully(initial, opt);
    }
    return {};
}

delay_model wire_zero_delays(const circuit& ckt, const state_graph& g, delay_model delays) {
    for (const auto& impl : ckt.impls)
        if (impl.kind == impl_kind::wire || impl.kind == impl_kind::constant)
            delays.overrides.emplace_back(g.signals()[impl.signal].name, 0.0);
    return delays;
}

namespace {

flow_report continue_flow(flow_report rep, const flow_options& opt) {
    auto initial = subgraph::full(*rep.base_sg);
    rep.initial_cost = estimate_cost(initial, opt.search.cost);

    rep.search = run_reduction(initial, opt.strategy, opt.search, &rep.initial_cost);
    rep.reduced = rep.search.best;
    rep.reduced_cost = rep.search.best_cost;

    rep.csc = resolve_csc(rep.reduced, opt.csc);
    auto encoded = subgraph::full(rep.csc.graph);
    rep.synth = synthesize(encoded, opt.synth);

    delay_model delays = opt.delays;
    if (opt.zero_delay_wires && rep.synth.ok)
        delays = wire_zero_delays(rep.synth.ckt, rep.csc.graph, std::move(delays));
    rep.perf = analyze_performance(encoded, delays);

    if (opt.recover) rep.recovered = recover_stg(rep.reduced);
    return rep;
}

}  // namespace

flow_report run_flow(const stg& spec, const flow_options& opt) {
    flow_report rep;
    rep.expanded = expand_handshakes(spec, opt.expand);
    rep.base_sg =
        std::make_shared<const state_graph>(state_graph::generate(rep.expanded).graph);

    flow_options patched = opt;
    auto kc = keepconc_events(rep.expanded);
    patched.search.keep_concurrent.insert(patched.search.keep_concurrent.end(), kc.begin(),
                                          kc.end());
    return continue_flow(std::move(rep), patched);
}

flow_report run_flow_from_sg(state_graph sg, const flow_options& opt) {
    flow_report rep;
    rep.base_sg = std::make_shared<const state_graph>(std::move(sg));
    return continue_flow(std::move(rep), opt);
}

}  // namespace asynth
