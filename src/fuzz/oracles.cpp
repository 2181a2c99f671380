// The six differential oracles and the result/record diffing they share.
//
// Design rule: compare EVERYTHING deterministic, not just the headline cost.
// A wrong engine that happens to land on an equal-cost configuration still
// differs somewhere -- the subgraph bitsets, the exploration trace, an
// equation -- and the PAPERS.md DIMS critique is exactly about mismatches
// that summary metrics hide.  The only fields excluded are the ones two
// correct runs may legitimately not share: wall-clock, the warm-start
// counters (the reference engine has no literal memo to warm from), and --
// for the minimiser oracle only -- search.pruned, which counts how much work
// the dominance filter skipped, not what was selected.
#include <algorithm>
#include <string>
#include <type_traits>

#include "fuzz/fuzz.hpp"
#include "core/expand.hpp"
#include "petri/astg_io.hpp"
#include "sg/analysis.hpp"
#include "spec/csp.hpp"
#include "store/result_store.hpp"

namespace asynth::fuzz {

namespace {

using benchmarks::spec_node;
using node_kind = spec_node::kind;

// ---- diff plumbing ---------------------------------------------------------

/// Accumulates the FIRST difference only; later mismatches are not even
/// formatted (cheap short-circuit for the hot agreeing path).
struct differ {
    std::string out;

    template <typename T>
    void field(const char* name, const T& a, const T& b) {
        if (!out.empty() || a == b) return;
        if constexpr (std::is_same_v<T, std::string>) {
            out = std::string(name) + ": \"" + a.substr(0, 80) + "\" vs \"" + b.substr(0, 80) +
                  "\"";
        } else if constexpr (std::is_same_v<T, bool>) {
            out = std::string(name) + ": " + (a ? "true" : "false") + " vs " +
                  (b ? "true" : "false");
        } else {
            out = std::string(name) + ": " + std::to_string(a) + " vs " + std::to_string(b);
        }
    }

    void blob(const char* name, const std::string& a, const std::string& b) {
        if (!out.empty() || a == b) return;
        // Find the first differing line for a readable diagnosis.
        std::size_t i = 0, line = 1;
        while (i < a.size() && i < b.size() && a[i] == b[i]) {
            if (a[i] == '\n') ++line;
            ++i;
        }
        out = std::string(name) + ": first difference at line " + std::to_string(line) +
              " (byte " + std::to_string(i) + ")";
    }
};

void diff_cost(differ& d, const char* what, const cost_breakdown& a, const cost_breakdown& b) {
    std::string p(what);
    d.field((p + ".csc_pairs").c_str(), a.csc_pairs, b.csc_pairs);
    d.field((p + ".literals").c_str(), a.literals, b.literals);
    d.field((p + ".states").c_str(), a.states, b.states);
    d.field((p + ".value").c_str(), a.value, b.value);
}

// ---- oracle option pairs ---------------------------------------------------

struct option_pair {
    pipeline_options base;
    pipeline_options cand;
    bool ignore_pruned = false;
};

option_pair engine_pair(fuzz_profile p) {
    option_pair o{profile_options(p), profile_options(p), false};
    // Exact scoring on both sides: pruned must then agree (always 0) and any
    // difference anywhere is an engine bug, full stop.
    o.base.search.engine = search_engine::reference;
    o.base.search.minimizer = minimizer_mode::exact;
    o.cand.search.engine = search_engine::incremental;
    o.cand.search.minimizer = minimizer_mode::exact;
    return o;
}

option_pair minimizer_pair(fuzz_profile p) {
    option_pair o{profile_options(p), profile_options(p), true};
    o.base.search.engine = search_engine::incremental;
    o.base.search.minimizer = minimizer_mode::exact;
    o.cand.search.engine = search_engine::incremental;
    o.cand.search.minimizer = minimizer_mode::incremental;
    return o;
}

}  // namespace

// ---- names -----------------------------------------------------------------

const char* oracle_name(oracle o) noexcept {
    switch (o) {
        case oracle::engines: return "engines";
        case oracle::minimizers: return "minimizers";
        case oracle::store_roundtrip: return "store-roundtrip";
        case oracle::text_roundtrip: return "text-roundtrip";
        case oracle::csp_frontend: return "csp-frontend";
        case oracle::impl_vs_sg: return "impl-vs-sg";
    }
    return "?";
}

std::optional<oracle> oracle_from_name(std::string_view name) noexcept {
    for (std::size_t i = 0; i < oracle_count; ++i) {
        auto o = static_cast<oracle>(i);
        if (name == oracle_name(o)) return o;
    }
    // Underscore spellings match the enum names in docs and error messages.
    if (name == "impl_vs_sg") return oracle::impl_vs_sg;
    return std::nullopt;
}

const char* profile_name(fuzz_profile p) noexcept {
    return p == fuzz_profile::deep ? "deep" : "shallow";
}

std::optional<fuzz_profile> profile_from_name(std::string_view name) noexcept {
    if (name == "deep") return fuzz_profile::deep;
    if (name == "shallow") return fuzz_profile::shallow;
    return std::nullopt;
}

pipeline_options profile_options(fuzz_profile p) {
    pipeline_options o;
    if (p == fuzz_profile::deep) {
        // Near-default Fig. 4 flow; a slimmer beam keeps two full runs per
        // check affordable at the fuzz spec sizes without skipping any stage.
        o.search.size_frontier = 2;
        o.search.max_levels = 8;
    } else {
        // Large free-choice specs: the reduce search would dominate every
        // budget, so reduction is off and the late stages run in their
        // cheapest configuration.  Expansion, SG generation, cost
        // estimation, CSC and heuristic logic still execute -- verdict
        // stability across these stages is what the oracle checks.
        o.strategy = reduction_strategy::none;
        o.csc.max_signals = 1;
        o.csc.beam_width = 1;
        o.synth.exact = false;
        o.run_performance = false;
        o.recover_stg = false;
    }
    return o;
}

// ---- result / record diffing ----------------------------------------------

std::string diff_results(const pipeline_result& a, const pipeline_result& b, bool ignore_pruned) {
    differ d;
    d.field("completed", a.completed, b.completed);
    d.field("failed_stage", std::string(a.failed ? stage_name(*a.failed) : ""),
            std::string(b.failed ? stage_name(*b.failed) : ""));
    d.field("message", a.message, b.message);
    if (!d.out.empty()) return d.out;

    d.blob("spec", write_astg(a.spec), write_astg(b.spec));
    d.blob("expanded", write_astg(a.expanded), write_astg(b.expanded));
    d.field("base_sg.states", a.base_sg ? a.base_sg->state_count() : 0,
            b.base_sg ? b.base_sg->state_count() : 0);
    if (!d.out.empty()) return d.out;

    if (a.reduced.live_states() != b.reduced.live_states()) return "reduced.live_states differ";
    if (a.reduced.live_arcs() != b.reduced.live_arcs()) return "reduced.live_arcs differ";
    diff_cost(d, "initial_cost", a.initial_cost, b.initial_cost);
    diff_cost(d, "reduced_cost", a.reduced_cost, b.reduced_cost);

    if (d.out.empty() && a.search.best.live_states() != b.search.best.live_states())
        return "search.best.live_states differ";
    if (d.out.empty() && a.search.best.live_arcs() != b.search.best.live_arcs())
        return "search.best.live_arcs differ";
    diff_cost(d, "search.best_cost", a.search.best_cost, b.search.best_cost);
    d.field("search.explored", a.search.explored, b.search.explored);
    d.field("search.levels", a.search.levels, b.search.levels);
    d.field("search.level_best.size", a.search.level_best.size(), b.search.level_best.size());
    if (d.out.empty())
        for (std::size_t i = 0; i < a.search.level_best.size(); ++i)
            d.field(("search.level_best[" + std::to_string(i) + "]").c_str(),
                    a.search.level_best[i], b.search.level_best[i]);
    if (!ignore_pruned) d.field("search.pruned", a.search.pruned, b.search.pruned);

    d.field("csc.solved", a.csc.solved, b.csc.solved);
    d.field("csc.signals_inserted", a.csc.signals_inserted, b.csc.signals_inserted);
    d.field("csc.message", a.csc.message, b.csc.message);
    d.field("csc.graph.states", a.csc.graph.state_count(), b.csc.graph.state_count());
    d.field("csc.anchors.size", a.csc.anchors.size(), b.csc.anchors.size());
    if (d.out.empty())
        for (std::size_t i = 0; i < a.csc.anchors.size(); ++i)
            d.field(("csc.anchors[" + std::to_string(i) + "]").c_str(), a.csc.anchors[i],
                    b.csc.anchors[i]);

    d.field("synth.ok", a.synth.ok, b.synth.ok);
    d.field("synth.message", a.synth.message, b.synth.message);
    d.field("synth.total_area", a.synth.ckt.total_area, b.synth.ckt.total_area);
    d.field("synth.impls.size", a.synth.ckt.impls.size(), b.synth.ckt.impls.size());
    if (d.out.empty())
        for (std::size_t i = 0; i < a.synth.ckt.impls.size(); ++i) {
            const auto& x = a.synth.ckt.impls[i];
            const auto& y = b.synth.ckt.impls[i];
            std::string p = "synth.impls[" + std::to_string(i) + "].";
            d.field((p + "signal").c_str(), x.signal, y.signal);
            d.field((p + "kind").c_str(), static_cast<int>(x.kind), static_cast<int>(y.kind));
            d.field((p + "has_feedback").c_str(), x.has_feedback, y.has_feedback);
            d.field((p + "area").c_str(), x.area, y.area);
            d.field((p + "equation").c_str(), x.equation, y.equation);
        }

    d.field("perf.periodic", a.perf.periodic, b.perf.periodic);
    d.field("perf.cycle_time", a.perf.cycle_time, b.perf.cycle_time);
    d.field("perf.events_on_cycle", a.perf.events_on_cycle, b.perf.events_on_cycle);
    d.field("perf.input_events_on_cycle", a.perf.input_events_on_cycle,
            b.perf.input_events_on_cycle);
    d.field("perf.firings_simulated", a.perf.firings_simulated, b.perf.firings_simulated);
    d.field("perf.message", a.perf.message, b.perf.message);

    d.field("recovered.ok", a.recovered.ok, b.recovered.ok);
    d.field("recovered.regions_found", a.recovered.regions_found, b.recovered.regions_found);
    d.field("recovered.message", a.recovered.message, b.recovered.message);
    if (d.out.empty() && a.recovered.ok)
        d.blob("recovered.net", write_astg(a.recovered.net), write_astg(b.recovered.net));
    return d.out;
}

std::string diff_records(const store::stored_record& a, const store::stored_record& b,
                         bool ignore_wall_clock) {
    differ d;
    d.field("fingerprint", a.fingerprint, b.fingerprint);
    d.field("completed", a.completed, b.completed);
    d.field("synthesized", a.synthesized, b.synthesized);
    d.field("csc_solved", a.csc_solved, b.csc_solved);
    d.field("failed_stage", a.failed_stage, b.failed_stage);
    d.field("message", a.message, b.message);
    d.field("states", a.states, b.states);
    d.field("arcs", a.arcs, b.arcs);
    d.field("signals", a.signals, b.signals);
    d.field("explored", a.explored, b.explored);
    d.field("csc_signals", a.csc_signals, b.csc_signals);
    d.field("literals", a.literals, b.literals);
    d.field("initial_cost", a.initial_cost, b.initial_cost);
    d.field("reduced_cost", a.reduced_cost, b.reduced_cost);
    d.field("area", a.area, b.area);
    d.field("cycle", a.cycle, b.cycle);
    if (!ignore_wall_clock) d.field("seconds", a.seconds, b.seconds);
    // Even a warm run must execute the same stages in the same order.
    d.field("timings.size", a.timings.size(), b.timings.size());
    if (d.out.empty())
        for (std::size_t i = 0; i < a.timings.size(); ++i) {
            d.field("timings.stage", std::string(stage_name(a.timings[i].stage)),
                    std::string(stage_name(b.timings[i].stage)));
            if (!ignore_wall_clock)
                d.field("timings.seconds", a.timings[i].seconds, b.timings[i].seconds);
        }
    d.field("netlist.size", a.netlist.size(), b.netlist.size());
    if (d.out.empty())
        for (std::size_t i = 0; i < a.netlist.size(); ++i) {
            std::string p = "netlist[" + std::to_string(i) + "].";
            d.field((p + "name").c_str(), a.netlist[i].name, b.netlist[i].name);
            d.field((p + "kind").c_str(), a.netlist[i].kind, b.netlist[i].kind);
            d.field((p + "area").c_str(), a.netlist[i].area, b.netlist[i].area);
            d.field((p + "equation").c_str(), a.netlist[i].equation, b.netlist[i].equation);
        }
    d.blob("recovered_astg", a.recovered_astg, b.recovered_astg);
    d.blob("verilog", a.verilog, b.verilog);
    d.blob("cmodel", a.cmodel, b.cmodel);
    d.field("impl_checked", a.impl_checked, b.impl_checked);
    d.field("impl_states", a.impl_states, b.impl_states);
    return d.out;
}

// ---- the oracle checks -----------------------------------------------------

std::string check_oracle(oracle o, const stg& spec, fuzz_profile profile,
                         const std::function<void(pipeline_options&)>& inject,
                         const std::function<void(circuit_netlist&)>& inject_net) {
    switch (o) {
        case oracle::engines:
        case oracle::minimizers: {
            option_pair p = o == oracle::engines ? engine_pair(profile) : minimizer_pair(profile);
            if (inject) inject(p.cand);
            auto ra = run_pipeline(spec, p.base);
            auto rb = run_pipeline(spec, p.cand);
            return diff_results(ra, rb, p.ignore_pruned);
        }
        case oracle::store_roundtrip: {
            pipeline_options opt = profile_options(profile);
            std::string fp = store::options_fingerprint(opt);
            auto r1 = run_pipeline(spec, opt);
            auto rec1 = store::record_of(r1, fp);
            // Leg 1: the exact bytes put() writes must parse back field-equal
            // (including wall-clock: %.17g round-trips every double).
            std::string bytes = store::serialize_record(rec1);
            store::stored_record rec2;
            auto st = store::parse_record(bytes, rec2);
            if (st != store::parse_status::ok)
                return std::string("serialized record failed to parse (") +
                       (st == store::parse_status::corrupt ? "corrupt" : "version skew") + ")";
            if (auto d = diff_records(rec1, rec2, false); !d.empty())
                return "serialize/parse round trip: " + d;
            // Leg 2: the content address must survive canonicalisation --
            // a spec read back from its own .g text is the same cache entry.
            stg reparsed = parse_astg(write_astg(spec));
            if (!(store::key_of(spec, opt) == store::key_of(reparsed, opt)))
                return "store key changed under write_astg∘parse";
            // Leg 3: cold vs warm -- a re-run on the reparsed spec must
            // produce the same record apart from wall-clock.
            pipeline_options opt2 = opt;
            if (inject) inject(opt2);
            auto r2 = run_pipeline(reparsed, opt2);
            auto rec3 = store::record_of(r2, fp);
            if (auto d = diff_records(rec1, rec3, true); !d.empty())
                return "cold vs warm re-run: " + d;
            return "";
        }
        case oracle::text_roundtrip: {
            pipeline_options opt = profile_options(profile);
            std::string text = write_astg(spec);
            if (write_astg(parse_astg(text)) != text) return "write_astg∘parse is not a fixpoint";
            auto r1 = run_pipeline(spec, opt);
            pipeline_options opt2 = opt;
            if (inject) inject(opt2);
            auto r2 = run_pipeline_text(text, opt2);
            return diff_results(r1, r2, false);
        }
        case oracle::impl_vs_sg: {
            // Not a two-run pair: the "sides" are the emitted implementation
            // and the encoded state graph it was synthesised from.  Specs
            // whose pipeline fails or whose CSC is unsolvable produce no
            // circuit -- nothing to emulate, vacuously agreeing (the other
            // oracles already cover verdict stability).
            pipeline_options opt = profile_options(profile);
            if (inject) inject(opt);
            auto r = run_pipeline(spec, opt);
            if (!r.synthesized()) return "";
            auto nl = build_circuit_netlist(r.synth.ckt, r.csc.graph, r.spec.model_name);
            if (inject_net) inject_net(nl);
            auto em = emulate_against_sg(nl, subgraph::full(r.csc.graph));
            return em.ok ? "" : "implementation diverges from state graph: " + em.message;
        }
        case oracle::csp_frontend:
            return "check_oracle cannot run the CSP oracle from a net alone; "
                   "use check_csp_agreement";
    }
    return "";
}

std::string check_csp_agreement(const std::string& csp_text, const stg& direct) {
    stg parsed;
    try {
        parsed = parse_csp(csp_text);
    } catch (const error& e) {
        return std::string("rendered CSP failed to parse: ") + e.what();
    }
    state_graph a, b;
    try {
        a = state_graph::generate(expand_handshakes(parsed)).graph;
        b = state_graph::generate(expand_handshakes(direct)).graph;
    } catch (const error& e) {
        return std::string("expansion/SG failed: ") + e.what();
    }
    std::string diag;
    if (!lts_equivalent(subgraph::full(a), subgraph::full(b), &diag))
        return "CSP and direct STG disagree: " + diag;
    return "";
}

// ---- CSP rendering ---------------------------------------------------------

bool csp_renderable(const benchmarks::spec_node& n) {
    if (n.k == node_kind::choice || n.k == node_kind::arbitration) return false;
    for (const auto& c : n.children)
        if (!csp_renderable(c)) return false;
    return true;
}

namespace {

/// Sequence-level text of @p n.  Children of a parallel are wrapped in
/// parens (the grammar's atoms); sequence children inline flat -- a nested
/// sequence flattens and a parallel child is a valid par-group as-is.
std::string render_node(const spec_node& n, int& next_call, int& next_counter) {
    switch (n.k) {
        case node_kind::call: {
            std::string c = "a" + std::to_string(next_call++);
            return c + "! ; " + c + "?";
        }
        case node_kind::counter: {
            std::string c = "c" + std::to_string(next_counter++);
            std::string out;
            for (int i = 0; i < std::max(1, n.repeats); ++i) {
                if (!out.empty()) out += " ; ";
                out += c + "! ; " + c + "?";
            }
            return out;
        }
        case node_kind::sequence: {
            std::string out;
            for (const auto& c : n.children) {
                if (!out.empty()) out += " ; ";
                out += render_node(c, next_call, next_counter);
            }
            return out;
        }
        case node_kind::parallel: {
            std::string out;
            for (const auto& c : n.children) {
                if (!out.empty()) out += " || ";
                out += "(" + render_node(c, next_call, next_counter) + ")";
            }
            return out;
        }
        default:
            throw error("render_csp: node kind has no CSP form");
    }
}

}  // namespace

std::string render_csp(const benchmarks::spec_node& n, const std::string& name) {
    require(csp_renderable(n), "render_csp: recipe contains choice/arbitration");
    int next_call = 0, next_counter = 0;
    std::string body = render_node(n, next_call, next_counter);
    return name + " = t? ; " + body + " ; t!";
}

}  // namespace asynth::fuzz
