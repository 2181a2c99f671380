#include "pipeline/pipeline.hpp"

#include <cstdio>
#include <type_traits>
#include <utility>
#include <vector>

#include "explore/engine.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "petri/astg_io.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace asynth {

const char* stage_name(pipeline_stage s) noexcept {
    switch (s) {
        case pipeline_stage::parse: return "parse";
        case pipeline_stage::expand: return "expand";
        case pipeline_stage::state_graph: return "state-graph";
        case pipeline_stage::reduce: return "reduce";
        case pipeline_stage::csc: return "csc";
        case pipeline_stage::logic: return "logic";
        case pipeline_stage::perf: return "perf";
        case pipeline_stage::recover: return "recover";
        case pipeline_stage::emit: return "emit";
        case pipeline_stage::verify: return "verify";
    }
    return "?";
}

double pipeline_result::stage_seconds(pipeline_stage s) const noexcept {
    for (const auto& t : timings)
        if (t.stage == s) return t.seconds;
    return 0.0;
}

namespace {

/// Runs @p body under a trace span (which doubles as the stage stopwatch),
/// appending the measurement to the result.  Bodies may take an `obs::span&`
/// to attach stage args (state counts, areas) that show up in trace exports.
/// Returns false when the stage threw, recording the structured failure.
template <typename Body>
bool run_stage(pipeline_result& rep, pipeline_stage stage, Body&& body) {
    obs::span sp(stage_name(stage), "pipeline");
    bool ok = true;
    try {
        if constexpr (std::is_invocable_v<Body&, obs::span&>)
            body(sp);
        else
            body();
    } catch (const error& e) {
        rep.failed = stage;
        rep.message = std::string(stage_name(stage)) + ": " + e.what();
        ok = false;
    } catch (const std::exception& e) {
        // The pipeline promises not to throw; resource exhaustion inside a
        // stage (bad_alloc, length_error) is reported the same way.
        rep.failed = stage;
        rep.message = std::string(stage_name(stage)) + ": " + e.what();
        ok = false;
    }
    rep.timings.push_back({stage, sp.seconds()});
    rep.total_seconds += rep.timings.back().seconds;
    return ok;
}

/// Step-3 engine dispatch.  For `none` the result wraps @p initial unchanged
/// (explored = 1) with the cost the caller already evaluated.
search_result run_reduction(const subgraph& initial, reduction_strategy strategy,
                            const search_options& opt, const cost_breakdown& initial_cost) {
    switch (strategy) {
        case reduction_strategy::none: {
            search_result res;
            res.best = initial;
            res.best_cost = initial_cost;
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

/// @p delays extended with zero-delay overrides for every wire- or
/// constant-implemented signal of @p ckt (a wire has no gate).
delay_model wire_zero_delays(const circuit& ckt, const state_graph& g, delay_model delays) {
    for (const auto& impl : ckt.impls)
        if (impl.kind == impl_kind::wire || impl.kind == impl_kind::constant)
            delays.overrides.emplace_back(g.signals()[impl.signal].name, 0.0);
    return delays;
}

/// Process-wide pipeline counters + run-span args, recorded once per run.
void count_pipeline_run(const pipeline_result& rep, obs::span& sp) {
    auto& reg = obs::registry::global();
    static obs::counter& runs =
        reg.get_counter("asynth_pipeline_runs_total", "Pipeline invocations");
    static obs::counter& completed = reg.get_counter("asynth_pipeline_completed_total",
                                                     "Runs whose requested stages all ran");
    static obs::counter& failed =
        reg.get_counter("asynth_pipeline_failed_total", "Runs that failed at some stage");
    static obs::histogram& total_ms =
        reg.get_histogram("asynth_pipeline_total_ms", obs::default_ms_buckets(),
                          "End-to-end pipeline wall time (ms)");
    runs.add();
    (rep.completed ? completed : failed).add();
    total_ms.observe(rep.total_seconds * 1e3);
    sp.arg("spec", rep.spec.model_name);
    if (!rep.completed && rep.failed) sp.arg("failed_stage", stage_name(*rep.failed));
    // Request correlation: a bound req_id (service requests, batch specs)
    // rides on the run span and every log line below automatically.
    if (!obs::current_req_id().empty()) sp.arg("req_id", obs::current_req_id());
    obs::log_event(obs::log_level::info, "pipeline.run")
        .field("spec", rep.spec.model_name)
        .field("completed", rep.completed)
        .field("total_ms", rep.total_seconds * 1e3);
    if (!rep.completed && rep.failed) {
        obs::log_event ev(obs::log_level::warn, "pipeline.stage_failed");
        ev.field("spec", rep.spec.model_name)
            .field("failed_stage", stage_name(*rep.failed))
            .field("error", rep.message);
        // The spec hash identifies the failing input even when model names
        // collide; parse failures and state-graph entries have no net worth
        // hashing.
        if (!rep.spec.transitions().empty()) {
            try {
                const std::string canon = write_astg(rep.spec);
                const hash128 h = hash128_bytes(canon.data(), canon.size());
                char hex[33];
                std::snprintf(hex, sizeof hex, "%016llx%016llx",
                              static_cast<unsigned long long>(h.hi),
                              static_cast<unsigned long long>(h.lo));
                ev.field("spec_hash", hex);
            } catch (const std::exception&) {
                // A spec broken enough to not serialise is logged without a hash.
            }
        }
    }
}

/// Front half, after the spec has been provided/parsed: canonicalise,
/// expand and generate the state graph.  False when a stage failed.
bool build_state_graph(pipeline_result& rep, const pipeline_options& opt) {
    if (!run_stage(rep, pipeline_stage::expand, [&](obs::span& sp) {
            // Canonicalise first: write_astg emits one canonical text (sorted
            // arcs) per net, and parsing it back renumbers transitions and
            // places in that text's order.  Nets built in different
            // construction orders share the canonical text but not the
            // internal numbering, and every downstream deterministic
            // tie-break (beam ordering, CSC insertion, recovery) keys off the
            // numbering.  Running all entry points through this fixpoint
            // makes the result a pure function of (canonical text, options):
            // the in-memory and text entries agree by construction, and the
            // result store's content addressing (options ++ canonical text)
            // is sound.
            rep.spec = parse_astg(write_astg(rep.spec));
            rep.expanded = expand_handshakes(rep.spec, opt.expand);
            sp.arg("spec", rep.spec.model_name);
            sp.arg("transitions", static_cast<std::uint64_t>(rep.expanded.transitions().size()));
        }))
        return false;

    if (!run_stage(rep, pipeline_stage::state_graph, [&](obs::span& sp) {
            rep.base_sg = std::make_shared<const state_graph>(
                state_graph::generate(rep.expanded).graph);
            sp.arg("states", static_cast<std::uint64_t>(rep.base_sg->state_count()));
            sp.arg("arcs", static_cast<std::uint64_t>(rep.base_sg->arc_count()));
        }))
        return false;
    return true;
}

/// Back half, from rep.base_sg: reduce, csc, logic, perf, recover, emit and
/// verify.  Fills `rep` in place.
void finish_pipeline(pipeline_result& rep, const pipeline_options& opt) {
    // Keep_Conc pairs recorded in the spec (none from an SG) ride along into
    // the search.
    search_options search = opt.search;
    auto kc = keepconc_events(rep.expanded);
    search.keep_concurrent.insert(search.keep_concurrent.end(), kc.begin(), kc.end());

    if (!run_stage(rep, pipeline_stage::reduce, [&](obs::span& sp) {
            // Written so that NaN fails too: it would otherwise run and
            // report a cost of nan.
            if (!(search.cost.w >= 0.0 && search.cost.w <= 1.0)) {
                char buf[80];
                std::snprintf(buf, sizeof buf, "cost weight W must be in [0,1], got %g",
                              search.cost.w);
                throw error(buf);
            }
            auto initial = subgraph::full(*rep.base_sg);
            rep.initial_cost = estimate_cost(initial, search.cost);
            rep.search = run_reduction(initial, opt.strategy, search, rep.initial_cost);
            rep.reduced = rep.search.best;
            rep.reduced_cost = rep.search.best_cost;
            sp.arg("explored", static_cast<std::uint64_t>(rep.search.explored));
            sp.arg("live_states", static_cast<std::uint64_t>(rep.reduced.live_state_count()));
            sp.arg("cost", rep.reduced_cost.value);
        }))
        return;

    // An unsolved CSC is a *verdict*, not a crash (the paper's Fig. 1 is
    // exactly such a spec): synthesis still runs and reports its diagnostic.
    if (!run_stage(rep, pipeline_stage::csc, [&](obs::span& sp) {
            rep.csc = resolve_csc(rep.reduced, opt.csc);
            sp.arg("solved", rep.csc.solved ? "yes" : "no");
            sp.arg("inserted", static_cast<std::uint64_t>(rep.csc.signals_inserted));
        }))
        return;

    auto encoded = subgraph::full(rep.csc.graph);
    if (!run_stage(rep, pipeline_stage::logic, [&](obs::span& sp) {
            rep.synth = synthesize(encoded, opt.synth);
            if (rep.synth.ok) sp.arg("area", rep.synth.ckt.total_area);
        }))
        return;

    if (opt.run_performance) {
        delay_model delays = opt.delays;
        if (rep.synth.ok)
            delays = wire_zero_delays(rep.synth.ckt, rep.csc.graph, std::move(delays));
        if (!run_stage(rep, pipeline_stage::perf, [&](obs::span& sp) {
                rep.perf = analyze_performance(encoded, delays);
                sp.arg("cycle", rep.perf.cycle_time);
            }))
            return;
    }

    if (opt.recover_stg) {
        if (!run_stage(rep, pipeline_stage::recover, [&] {
                rep.recovered = recover_stg(rep.reduced);
                rep.recovered.net.model_name = rep.spec.model_name + "_reduced";
            }))
            return;
    }

    // Every circuit is emitted and verified; verdict-only results have
    // nothing to emit or replay.
    if (rep.synthesized()) {
        if (!run_stage(rep, pipeline_stage::emit, [&](obs::span& sp) {
                rep.impl_model =
                    build_circuit_netlist(rep.synth.ckt, rep.csc.graph, rep.spec.model_name);
                rep.verilog = find_backend("verilog")->emit(rep.impl_model);
                rep.cmodel = find_backend("cmodel")->emit(rep.impl_model);
                sp.arg("gates", static_cast<std::uint64_t>(rep.impl_model.gate_count()));
            }))
            return;
        if (!run_stage(rep, pipeline_stage::verify, [&](obs::span& sp) {
                rep.impl_check =
                    emulate_against_sg(rep.impl_model, subgraph::full(rep.csc.graph));
                sp.arg("states", static_cast<std::uint64_t>(rep.impl_check.states_visited));
                require(rep.impl_check.ok, rep.impl_check.message);
            }))
            return;
    }
    rep.completed = true;
}

}  // namespace

pipeline_result run_pipeline(const stg& spec, const pipeline_options& opt) {
    obs::span sp("pipeline", "pipeline");
    pipeline_result rep;
    rep.spec = spec;
    if (build_state_graph(rep, opt)) finish_pipeline(rep, opt);
    count_pipeline_run(rep, sp);
    return rep;
}

pipeline_result run_pipeline(const stg& spec) { return run_pipeline(spec, pipeline_options{}); }

pipeline_result run_pipeline(state_graph sg, const pipeline_options& opt) {
    obs::span sp("pipeline", "pipeline");
    pipeline_result rep;
    rep.base_sg = std::make_shared<const state_graph>(std::move(sg));
    finish_pipeline(rep, opt);
    count_pipeline_run(rep, sp);
    return rep;
}

pipeline_result run_pipeline_text(std::string_view astg_text, const pipeline_options& opt) {
    obs::span sp("pipeline", "pipeline");
    pipeline_result rep;
    if (run_stage(rep, pipeline_stage::parse, [&] { rep.spec = parse_astg(astg_text); }) &&
        build_state_graph(rep, opt))
        finish_pipeline(rep, opt);
    count_pipeline_run(rep, sp);
    return rep;
}

std::string pipeline_summary(const pipeline_result& r) {
    std::string out;
    auto emit = [&](const char* fmt, auto&&... args) {
        // Two-pass snprintf: equations and diagnostics can be arbitrarily
        // long, so never truncate into a fixed buffer.
        int n = std::snprintf(nullptr, 0, fmt, args...);
        if (n <= 0) return;
        std::vector<char> buf(static_cast<std::size_t>(n) + 1);
        std::snprintf(buf.data(), buf.size(), fmt, args...);
        out += buf.data();
    };

    if (!r.completed) {
        emit("pipeline: %s (FAILED)\n", r.spec.model_name.c_str());
        emit("  error: %s\n", r.message.c_str());
    } else if (r.synthesized()) {
        emit("pipeline: %s (ok)\n", r.spec.model_name.c_str());
    } else {
        emit("pipeline: %s (completed, no circuit)\n", r.spec.model_name.c_str());
        const std::string& why = !r.csc.solved ? r.csc.message : r.synth.message;
        emit("  verdict: %s\n", why.c_str());
    }

    emit("stage timings:\n");
    for (const auto& t : r.timings)
        emit("  %-12s %9.3f ms\n", stage_name(t.stage), t.seconds * 1e3);
    emit("  %-12s %9.3f ms\n", "total", r.total_seconds * 1e3);

    if (r.base_sg) {
        emit("state graph: %zu states, %zu arcs (%zu signals)\n", r.base_sg->state_count(),
             r.base_sg->arc_count(), r.base_sg->signals().size());
        emit("reduction: cost %.1f -> %.1f, %zu states / %zu arcs live, %zu SGs explored\n",
             r.initial_cost.value, r.reduced_cost.value, r.reduced.live_state_count(),
             r.reduced.live_arc_count(), r.search.explored);
        if (r.search.deadline_hit)
            emit("deadline hit: best-so-far result after %zu level(s)\n", r.search.levels);
    }
    if (r.csc.signals_inserted > 0 || r.csc.solved) {
        emit("csc: %s, %zu signal(s) inserted\n", r.csc.solved ? "solved" : "UNSOLVED",
             r.csc.signals_inserted);
        for (const auto& a : r.csc.anchors) emit("  %s\n", a.c_str());
    }
    if (r.synth.ok) {
        emit("circuit: area %.0f\n", r.synth.ckt.total_area);
        for (const auto& impl : r.synth.ckt.impls) emit("  %s\n", impl.equation.c_str());
    }
    if (!r.impl_model.nets.empty())
        emit("netlist: %zu gate(s) emitted (verilog %zu bytes, cmodel %zu bytes)\n",
             r.impl_model.gate_count(), r.verilog.size(), r.cmodel.size());
    if (r.impl_check.states_visited > 0)
        emit("verify: implementation trace-equivalent to the spec "
             "(%zu states, %zu checks)\n",
             r.impl_check.states_visited, r.impl_check.checks);
    if (r.perf.periodic)
        emit("performance: cycle %.1f time units, %zu events (%zu inputs) on the critical cycle\n",
             r.perf.cycle_time, r.perf.events_on_cycle, r.perf.input_events_on_cycle);
    if (r.recovered.ok)
        emit("recovered STG: %zu places, %zu transitions\n", r.recovered.net.places().size(),
             r.recovered.net.transitions().size());
    else if (!r.recovered.message.empty())
        emit("recovered STG: failed (%s)\n", r.recovered.message.c_str());
    return out;
}

}  // namespace asynth
