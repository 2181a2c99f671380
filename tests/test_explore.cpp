// The incremental exploration engine (src/explore/) against its oracle, the
// reference engine in core/search:
//  * analysis_cache full builds reproduce estimate_cost bit-for-bit;
//  * apply_move accepts/rejects exactly the moves forward_reduction does and
//    produces the identical child subgraphs;
//  * derived (delta) caches equal full rebuilds after arbitrary move chains;
//  * the per-move group walk yields, for every signal, the key and the ON/OFF
//    spec that derive_nextstate() gives on the materialised child, also past
//    64 signals (two-word signal masks);
//  * the whole search is equivalent on every embedded corpus spec, the spec
//    suite and generated workloads -- identical best subgraph, best cost,
//    exploration count, depth and per-level trace -- and the dominance
//    -filtered scorer (minimizer_mode::incremental) equals the exact oracle path
//    corpus-wide, with bound_move/finish_score matching score_move move by
//    move;
//  * results are independent of the expander's job count; and the signature
//    tie-break makes beam selection reproducible (pinning the stable-sort
//    satellite fix in the reference engine too);
//  * a generous search deadline changes nothing corpus-wide, and a 1 ms
//    deadline cuts the search with deadline_hit set and a valid best-so-far.
#include <gtest/gtest.h>

#include "benchmarks/corpus.hpp"
#include "benchmarks/generate.hpp"
#include "core/expand.hpp"
#include "core/reduce.hpp"
#include "core/search.hpp"
#include "explore/engine.hpp"
#include "explore/move.hpp"
#include "logic/synthesis.hpp"
#include "pipeline/pipeline.hpp"
#include "sg/analysis.hpp"

using namespace asynth;

namespace {

/// Every spec the equivalence battery sweeps: the embedded paper corpus, the
/// property-test suite and a few generated random specs.
std::vector<benchmarks::named_spec> equivalence_specs() {
    auto specs = benchmarks::corpus_specs();
    for (auto& [name, spec] : benchmarks::spec_suite())
        specs.push_back({"suite_" + name, spec});
    for (auto& s : benchmarks::generate_workload(7, 3, benchmarks::generator_options{}))
        specs.push_back(std::move(s));
    return specs;
}

/// The spec key of an assembled ON/OFF specification, from its definition:
/// splitmix64(code.hash()) of each ON (OFF) code chained into the ON (OFF)
/// lane, in list order.  The group walk must compute the same key from its
/// group records.
explore::sig_key key_of_spec(const sop_spec& spec) {
    explore::sig_key key;
    for (const auto& code : spec.on) hash128_combine(key.on, splitmix64(code.hash()));
    for (const auto& code : spec.off) hash128_combine(key.off, splitmix64(code.hash()));
    return key;
}

state_graph make_sg(const stg& spec) {
    return state_graph::generate(expand_handshakes(spec)).graph;
}

void expect_equal_results(const search_result& ref, const search_result& inc,
                          const std::string& name) {
    EXPECT_EQ(ref.best_cost.value, inc.best_cost.value) << name;
    EXPECT_EQ(ref.best_cost.csc_pairs, inc.best_cost.csc_pairs) << name;
    EXPECT_EQ(ref.best_cost.literals, inc.best_cost.literals) << name;
    EXPECT_EQ(ref.best.live_states(), inc.best.live_states()) << name;
    EXPECT_EQ(ref.best.live_arcs(), inc.best.live_arcs()) << name;
    EXPECT_EQ(ref.explored, inc.explored) << name;
    EXPECT_EQ(ref.levels, inc.levels) << name;
    EXPECT_EQ(ref.level_best, inc.level_best) << name;
}

void expect_equal_caches(const explore::analysis_cache& a, const explore::analysis_cache& b,
                         const std::string& ctx_name) {
    EXPECT_EQ(a.rows, b.rows) << ctx_name;
    EXPECT_EQ(a.event_arcs, b.event_arcs) << ctx_name;
    ASSERT_EQ(a.er.size(), b.er.size()) << ctx_name;
    for (std::size_t e = 0; e < a.er.size(); ++e) {
        ASSERT_EQ(a.er[e].size(), b.er[e].size()) << ctx_name << " event " << e;
        for (std::size_t k = 0; k < a.er[e].size(); ++k) {
            EXPECT_EQ(a.er[e][k].event, b.er[e][k].event) << ctx_name;
            EXPECT_EQ(a.er[e][k].states, b.er[e][k].states) << ctx_name;
        }
        EXPECT_EQ(a.er_union[e], b.er_union[e]) << ctx_name;
    }
    ASSERT_EQ(a.groups.size(), b.groups.size()) << ctx_name;
    for (std::size_t g = 0; g < a.groups.size(); ++g) {
        EXPECT_EQ(a.groups[g].states, b.groups[g].states) << ctx_name;
        EXPECT_EQ(a.groups[g].conflict_pairs, b.groups[g].conflict_pairs) << ctx_name;
    }
    EXPECT_EQ(a.csc_pairs, b.csc_pairs) << ctx_name;
    ASSERT_EQ(a.signals.size(), b.signals.size()) << ctx_name;
    for (std::size_t s = 0; s < a.signals.size(); ++s) {
        EXPECT_EQ(a.signals[s].estimated, b.signals[s].estimated) << ctx_name;
        if (!a.signals[s].estimated) continue;
        EXPECT_EQ(a.signals[s].key, b.signals[s].key) << ctx_name << " signal " << s;
        EXPECT_EQ(a.signals[s].literals, b.signals[s].literals) << ctx_name << " signal " << s;
    }
    EXPECT_EQ(a.cost.value, b.cost.value) << ctx_name;
}

/// A 66-signal handshake chain: s0+ .. s63+, then x+ || y+, then s0- ..
/// s63-, then x- || y-, cyclically.  Every signal mask spans two words, and
/// the concurrent x/y pairs (signals 64 and 65) give pruning moves.
stg wide_chain_spec() {
    stg net;
    std::vector<int32_t> chain;
    for (int i = 0; i < 64; ++i)
        chain.push_back(
            static_cast<int32_t>(net.add_signal("s" + std::to_string(i), signal_kind::output)));
    const auto x = static_cast<int32_t>(net.add_signal("x", signal_kind::output));
    const auto y = static_cast<int32_t>(net.add_signal("y", signal_kind::output));
    auto phase = [&](edge dir) {
        std::vector<uint32_t> t;
        for (int32_t sig : chain) t.push_back(net.add_transition({sig, dir, 0}));
        for (std::size_t i = 0; i + 1 < t.size(); ++i) net.connect(t[i], t[i + 1]);
        const uint32_t tx = net.add_transition({x, dir, 0});
        const uint32_t ty = net.add_transition({y, dir, 0});
        net.connect(t.back(), tx);
        net.connect(t.back(), ty);
        return std::make_tuple(t.front(), tx, ty);
    };
    const auto [up_first, xp, yp] = phase(edge::plus);
    const auto [down_first, xm, ym] = phase(edge::minus);
    net.connect(xp, down_first);
    net.connect(yp, down_first);
    net.connect(xm, up_first, 1);
    net.connect(ym, up_first, 1);
    net.model_name = "wide_chain";
    return net;
}

}  // namespace

TEST(analysis_cache, full_build_matches_estimate_cost) {
    for (const auto& [name, spec] : equivalence_specs()) {
        auto base = make_sg(spec);
        auto g = subgraph::full(base);
        cost_params p;
        p.w = 0.5;
        auto ctx = explore::make_context(base, p);
        auto cache = explore::build_cache(ctx, g);
        auto oracle = estimate_cost(g, p);
        EXPECT_EQ(cache.cost.value, oracle.value) << name;
        EXPECT_EQ(cache.cost.csc_pairs, oracle.csc_pairs) << name;
        EXPECT_EQ(cache.cost.literals, oracle.literals) << name;
        EXPECT_EQ(cache.cost.states, oracle.states) << name;
        for (uint32_t s = 0; s < base.signals().size(); ++s)
            if (cache.signals[s].estimated)
                EXPECT_EQ(cache.signals[s].key, key_of_spec(derive_nextstate(g, s).spec))
                    << name << " signal " << s;
    }
}

TEST(move, apply_matches_forward_reduction_exhaustively) {
    // Every ER component pair of several graphs: the move layer must accept
    // exactly the pairs forward_reduction accepts, with identical children.
    std::size_t accepted = 0, rejected = 0;
    for (const auto& [name, spec] : equivalence_specs()) {
        auto base = make_sg(spec);
        if (base.state_count() > 600) continue;  // keep the sweep fast
        auto g = subgraph::full(base);
        cost_params p;
        auto ctx = explore::make_context(base, p);
        auto cache = explore::build_cache(ctx, g);
        auto comps = excitation_regions(g);
        for (const auto& a : comps) {
            if (base.is_input_event(a.event)) continue;
            for (const auto& b : comps) {
                if (&a == &b || a.event == b.event) continue;
                auto oracle = forward_reduction(g, a, b);
                auto am = explore::apply_move(ctx, g, cache, a, b);
                ASSERT_EQ(oracle.has_value(), am.has_value())
                    << name << " FwdRed(" << base.event_name(a.event) << ", "
                    << base.event_name(b.event) << ")";
                if (!oracle) {
                    ++rejected;
                    continue;
                }
                ++accepted;
                EXPECT_EQ(oracle->live_states(), am->child.live_states()) << name;
                EXPECT_EQ(oracle->live_arcs(), am->child.live_arcs()) << name;
            }
        }
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

TEST(move, delta_score_and_derived_cache_match_full_rebuild) {
    // Walk a greedy chain of moves; at every step the delta score and the
    // derived cache must equal a from-scratch rebuild of the child.
    for (const auto& [name, spec] : equivalence_specs()) {
        auto base = make_sg(spec);
        if (base.state_count() > 600) continue;
        auto g = subgraph::full(base);
        cost_params p;
        p.w = 0.3;
        auto ctx = explore::make_context(base, p);
        auto cache = explore::build_cache(ctx, g);
        explore::literal_memo memo;
        for (int step = 0; step < 4; ++step) {
            auto comps = excitation_regions(g);
            std::optional<explore::applied_move> am;
            for (const auto& a : comps) {
                if (base.is_input_event(a.event)) continue;
                for (const auto& b : comps) {
                    if (&a == &b || a.event == b.event) continue;
                    am = explore::apply_move(ctx, g, cache, a, b);
                    if (am) break;
                }
                if (am) break;
            }
            if (!am) break;
            auto score = explore::score_move(ctx, g, cache, *am, memo);
            auto oracle = estimate_cost(am->child, p);
            ASSERT_EQ(score.cost.value, oracle.value) << name << " step " << step;
            ASSERT_EQ(score.cost.csc_pairs, oracle.csc_pairs) << name << " step " << step;
            ASSERT_EQ(score.cost.literals, oracle.literals) << name << " step " << step;
            auto derived = explore::derive_cache(ctx, g, cache, *am, score);
            auto rebuilt = explore::build_cache(ctx, am->child);
            expect_equal_caches(derived, rebuilt, name + " step " + std::to_string(step));
            g = am->child;
            cache = std::move(derived);
        }
    }
}

TEST(move, group_walk_matches_derive_nextstate) {
    // Every applied move of the first two levels (all moves of the root, then
    // all moves of its first child): each key score_move and bound_move
    // report, each spec the walk hands the bounder and the minimiser, and
    // each literal count must equal what the materialised child's
    // derive_nextstate() gives, and floor_move must floor the exact score.
    // The wide chain runs the two-word masks.
    auto specs = equivalence_specs();
    specs.push_back({"wide_chain", wide_chain_spec()});
    std::size_t moves = 0, wide_moves = 0, specs_checked = 0, unpruned_changed = 0;
    for (const auto& [name, spec] : specs) {
        auto base = make_sg(spec);
        if (base.state_count() > 600) continue;
        ++specs_checked;
        cost_params p;
        p.w = 0.5;
        auto ctx = explore::make_context(base, p);
        explore::literal_memo memo;
        auto g = subgraph::full(base);
        auto cache = explore::build_cache(ctx, g, &memo);
        for (int level = 0; level < 2; ++level) {
            std::optional<explore::applied_move> first_child;
            std::optional<explore::move_score> first_score;
            auto comps = excitation_regions(g);
            for (const auto& a : comps) {
                if (base.is_input_event(a.event)) continue;
                for (const auto& b : comps) {
                    if (&a == &b || a.event == b.event) continue;
                    auto am = explore::apply_move(ctx, g, cache, a, b);
                    if (!am) continue;
                    const std::string where = name + " level " + std::to_string(level) + " " +
                                              base.event_name(a.event) + "/" +
                                              base.event_name(b.event);
                    ++moves;
                    if (name == "wide_chain") ++wide_moves;

                    const auto walk = explore::child_walk(ctx, cache, *am);
                    for (uint32_t x = 0; x < base.signals().size(); ++x) {
                        if (!ctx.sig_events[x].estimated) continue;
                        const auto ns = derive_nextstate(am->child, x);
                        const auto spec_x = walk.spec(ctx, x);
                        EXPECT_EQ(spec_x.nvars, ns.spec.nvars) << where;
                        EXPECT_EQ(spec_x.on, ns.spec.on) << where << " signal " << x;
                        EXPECT_EQ(spec_x.off, ns.spec.off) << where << " signal " << x;
                        EXPECT_EQ(walk.key(ctx, x), key_of_spec(ns.spec)) << where;
                    }

                    auto score = explore::score_move(ctx, g, cache, *am, memo);
                    for (const auto& u : score.updates) {
                        const auto ns = derive_nextstate(am->child, u.signal);
                        EXPECT_EQ(u.key, key_of_spec(ns.spec))
                            << where << " signal " << u.signal;
                        EXPECT_EQ(u.literals,
                                  minimize_heuristic(ns.spec, p.minimize_passes).literal_count())
                            << where << " signal " << u.signal;
                    }
                    // The floor's CSC and state terms are exact and its
                    // literal term sound, also on the moves that prune no
                    // state, where it keeps every unchanged signal's count.
                    auto floor = explore::floor_move(ctx, cache, *am);
                    EXPECT_EQ(floor.csc, score.cost.csc_pairs) << where;
                    EXPECT_EQ(floor.states, score.cost.states) << where;
                    EXPECT_LE(floor.value_lo, score.cost.value) << where;
                    if (am->removed_states.none() && !score.updates.empty()) ++unpruned_changed;
                    auto eval = explore::bound_move(ctx, cache, *am, std::move(floor), memo);
                    ASSERT_EQ(eval.changed.size(), score.updates.size()) << where;
                    for (const auto& ch : eval.changed)
                        EXPECT_EQ(ch.key,
                                  key_of_spec(derive_nextstate(am->child, ch.signal).spec))
                            << where << " signal " << ch.signal;
                    if (!first_child) {
                        first_child = std::move(am);
                        first_score = std::move(score);
                    }
                }
            }
            if (!first_child) break;
            cache = explore::derive_cache(ctx, g, cache, *first_child, *first_score);
            g = first_child->child;
        }
    }
    EXPECT_GT(specs_checked, 5u);
    EXPECT_GT(moves, 0u);
    EXPECT_GT(wide_moves, 0u);
    EXPECT_GT(unpruned_changed, 0u);  // the floor's partial-literal branch ran
}

// INSTANTIATE_TEST_SUITE_P below pins the sweep width; this test fails the
// moment equivalence_specs() grows so a new spec cannot silently escape the
// cross-engine battery.
TEST(engine_equivalence_coverage, range_matches_spec_count) {
    EXPECT_EQ(equivalence_specs().size(), 19u)
        << "equivalence_specs() changed: update the Range(0, N) instantiation "
           "of engine_equivalence to match";
}

class engine_equivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(engine_equivalence, incremental_equals_reference) {
    auto specs = equivalence_specs();
    ASSERT_LT(GetParam(), specs.size());
    const auto& [name, spec] = specs[GetParam()];
    auto base = make_sg(spec);
    auto g = subgraph::full(base);
    search_options so;
    so.cost.w = 0.5;
    so.size_frontier = 4;
    so.keep_concurrent = keepconc_events(expand_handshakes(spec));
    auto ref = reduce_concurrency(g, so);
    auto inc = explore::reduce_concurrency_incremental(g, so);
    expect_equal_results(ref, inc, name);

    // The dominance-filtered scorer (the default) against the exact oracle
    // path: identical winners, costs, exploration counts and traces.
    search_options so_exact = so;
    so_exact.minimizer = minimizer_mode::exact;
    auto exact = explore::reduce_concurrency_incremental(g, so_exact);
    expect_equal_results(exact, inc, name + "/minimizer");
    EXPECT_EQ(exact.pruned, 0u) << name;

    // A second configuration (CSC-biased, narrow beam) for coverage of ties.
    search_options so2 = so;
    so2.cost.w = 0.2;
    so2.size_frontier = 2;
    expect_equal_results(reduce_concurrency(g, so2),
                         explore::reduce_concurrency_incremental(g, so2), name + "/w02");
    search_options so2_exact = so2;
    so2_exact.minimizer = minimizer_mode::exact;
    expect_equal_results(explore::reduce_concurrency_incremental(g, so2_exact),
                         explore::reduce_concurrency_incremental(g, so2),
                         name + "/w02-minimizer");
}

// 8 corpus + 8 suite + 3 generated = 19 specs (pinned by
// engine_equivalence_coverage.range_matches_spec_count above).
INSTANTIATE_TEST_SUITE_P(corpus, engine_equivalence, ::testing::Range<std::size_t>(0, 19));

TEST(move, bound_and_finish_match_score) {
    // Along greedy move chains: floor_move <= bound_move <= the exact score
    // (both tiers' optimistic costs are sound), finish_score(bound_move(...))
    // must equal score_move(...) bit for bit (same cost, same updates), and
    // the CSC and state terms are exact in every tier.  A separate memo
    // drives the bound path so a warm score-side memo cannot mask a
    // bound-side bug.
    for (const auto& [name, spec] : equivalence_specs()) {
        auto base = make_sg(spec);
        if (base.state_count() > 600) continue;
        auto g = subgraph::full(base);
        cost_params p;
        p.w = 0.5;
        auto ctx = explore::make_context(base, p);
        explore::literal_memo score_memo, bound_memo;
        auto cache = explore::build_cache(ctx, g, &bound_memo);
        for (int step = 0; step < 4; ++step) {
            auto comps = excitation_regions(g);
            std::optional<explore::applied_move> am;
            for (const auto& a : comps) {
                if (base.is_input_event(a.event)) continue;
                for (const auto& b : comps) {
                    if (&a == &b || a.event == b.event) continue;
                    am = explore::apply_move(ctx, g, cache, a, b);
                    if (am) break;
                }
                if (am) break;
            }
            if (!am) break;
            auto score = explore::score_move(ctx, g, cache, *am, score_memo);
            auto floor = explore::floor_move(ctx, cache, *am);
            EXPECT_EQ(floor.csc, score.cost.csc_pairs) << name << " step " << step;
            EXPECT_EQ(floor.states, score.cost.states) << name << " step " << step;
            EXPECT_TRUE(floor.changed.empty()) << name << " step " << step;
            const double floor_value = floor.value_lo;
            auto eval = explore::bound_move(ctx, cache, *am, std::move(floor), bound_memo);
            EXPECT_EQ(eval.csc, score.cost.csc_pairs) << name << " step " << step;
            EXPECT_EQ(eval.states, score.cost.states) << name << " step " << step;
            EXPECT_LE(eval.lits_lo, score.cost.literals) << name << " step " << step;
            EXPECT_LE(floor_value, eval.value_lo) << name << " step " << step;
            EXPECT_LE(eval.value_lo, score.cost.value) << name << " step " << step;
            auto fin = explore::finish_score(ctx, cache, *am, std::move(eval), bound_memo);
            EXPECT_EQ(fin.cost.value, score.cost.value) << name << " step " << step;
            EXPECT_EQ(fin.cost.csc_pairs, score.cost.csc_pairs) << name << " step " << step;
            EXPECT_EQ(fin.cost.literals, score.cost.literals) << name << " step " << step;
            ASSERT_EQ(fin.updates.size(), score.updates.size()) << name << " step " << step;
            for (std::size_t u = 0; u < fin.updates.size(); ++u) {
                EXPECT_EQ(fin.updates[u].signal, score.updates[u].signal) << name;
                EXPECT_TRUE(fin.updates[u].key == score.updates[u].key) << name;
                EXPECT_EQ(fin.updates[u].literals, score.updates[u].literals) << name;
            }
            auto derived = explore::derive_cache(ctx, g, cache, *am, fin);
            g = am->child;
            cache = std::move(derived);
        }
    }
}

TEST(engine, dominance_filter_actually_prunes) {
    // On a spec with a wide candidate set the default minimizer must discard
    // a nonzero number of candidates unminimised -- otherwise the filter is
    // dead code -- while returning the exact path's results (pinned corpus
    // -wide by engine_equivalence).
    auto base = make_sg(benchmarks::mmu_controller());
    auto g = subgraph::full(base);
    search_options so;
    so.cost.w = 0.5;
    auto inc = explore::reduce_concurrency_incremental(g, so);
    EXPECT_GT(inc.pruned, 0u);
    EXPECT_LT(inc.pruned, inc.explored);
}

TEST(engine, results_independent_of_job_count) {
    auto base = make_sg(benchmarks::mmu_controller());
    auto g = subgraph::full(base);
    search_options so;
    so.cost.w = 0.5;
    so.jobs = 1;
    auto serial = explore::reduce_concurrency_incremental(g, so);
    so.jobs = 4;
    auto parallel = explore::reduce_concurrency_incremental(g, so);
    expect_equal_results(serial, parallel, "mmu jobs 1 vs 4");
    // Every bound is a pure function of its key and the admission chunks are
    // fixed, so even the exactly-scored set does not depend on the jobs.
    EXPECT_EQ(serial.pruned, parallel.pruned);
}

TEST(engine, beam_selection_is_reproducible) {
    // The signature tie-break (satellite fix in the reference engine) makes
    // the selected best *subgraph*, not just its cost, stable run-to-run and
    // across engines -- even on symmetric specs where costs tie.
    auto spec = benchmarks::par_component();
    auto base = make_sg(spec);
    auto g = subgraph::full(base);
    search_options so;
    so.cost.w = 0.5;
    auto first = reduce_concurrency(g, so);
    auto second = reduce_concurrency(g, so);
    EXPECT_EQ(first.best.live_states(), second.best.live_states());
    EXPECT_EQ(first.best.live_arcs(), second.best.live_arcs());
    auto inc = explore::reduce_concurrency_incremental(g, so);
    EXPECT_EQ(first.best.live_states(), inc.best.live_states());
    EXPECT_EQ(first.best.live_arcs(), inc.best.live_arcs());
}

TEST(engine, keepconc_pairs_respected) {
    auto spec = benchmarks::lr_process();
    auto base = make_sg(spec);
    auto g = subgraph::full(base);
    auto sig = [&](const char* n) {
        for (uint32_t s = 0; s < base.signals().size(); ++s)
            if (base.signals()[s].name == n) return static_cast<int32_t>(s);
        return int32_t{-1};
    };
    search_options so;
    so.cost.w = 0.2;
    so.keep_concurrent.push_back(
        {sg_event{sig("li"), edge::minus}, sg_event{sig("ri"), edge::minus}});
    auto inc = explore::reduce_concurrency_incremental(g, so);
    auto ref = reduce_concurrency(g, so);
    expect_equal_results(ref, inc, "lr keepconc");
    auto lim = *base.find_event(sig("li"), edge::minus);
    auto rim = *base.find_event(sig("ri"), edge::minus);
    EXPECT_TRUE(concurrent_by_diamond(inc.best, lim, rim));
}

TEST(engine, pipeline_defaults_to_incremental_and_finds_lr_wires) {
    // The pipeline wiring: default engine is incremental and reproduces the
    // headline LR result (two wires).
    pipeline_options opt;
    EXPECT_EQ(opt.search.engine, search_engine::incremental);
    opt.search.cost.w = 0.2;
    opt.search.size_frontier = 6;
    auto r = run_pipeline(benchmarks::lr_process(), opt);
    ASSERT_TRUE(r.completed) << r.message;
    EXPECT_TRUE(r.synthesized());
    EXPECT_EQ(r.reduced_cost.csc_pairs, 0u);
    EXPECT_EQ(r.reduced_cost.literals, 2u);
}

TEST(engine, zero_frontier_is_clamped_not_crashing) {
    auto base = make_sg(benchmarks::lr_process());
    auto g = subgraph::full(base);
    search_options so;
    so.size_frontier = 0;  // would read fresh.front() after resize(0) unclamped
    auto ref = reduce_concurrency(g, so);
    auto inc = explore::reduce_concurrency_incremental(g, so);
    expect_equal_results(ref, inc, "lr frontier 0");
    EXPECT_GT(ref.explored, 1u);
}

TEST(engine, non_persistent_input_falls_back_to_reference) {
    // The delta validity checks assume an output-persistent root; a
    // hand-built SG violating that must still match the reference engine
    // (the incremental engine detects it and delegates).
    std::vector<signal_decl> sigs = {{"x", signal_kind::output, false, false},
                                     {"y", signal_kind::output, false, false}};
    std::vector<sg_event> events = {{0, edge::plus}, {1, edge::plus}};
    auto code = [](std::initializer_list<int> set) {
        dyn_bitset c(2);
        for (int s : set) c.set(static_cast<std::size_t>(s));
        return c;
    };
    std::vector<sg_state> states = {{marking{}, code({})},
                                    {marking{}, code({0})},
                                    {marking{}, code({1})}};
    // s0 -x-> s1, s0 -y-> s2: firing x disables y (and vice versa).
    std::vector<sg_arc> arcs = {{0, 1, 0}, {0, 2, 1}};
    auto base = state_graph::build(std::move(sigs), std::move(events), std::move(states),
                                   std::move(arcs), 0);
    auto g = subgraph::full(base);
    ASSERT_FALSE(check_speed_independence(g).output_persistent);
    search_options so;
    expect_equal_results(reduce_concurrency(g, so),
                         explore::reduce_concurrency_incremental(g, so), "non-persistent");
}

// ---- deadlines --------------------------------------------------------------

TEST(deadline, generous_deadline_equals_no_deadline) {
    // A deadline the search cannot miss changes nothing: same admission path,
    // same result, no cut.
    for (const auto& [name, spec] : equivalence_specs()) {
        auto base = make_sg(spec);
        auto g = subgraph::full(base);
        search_options so;
        so.cost.w = 0.5;
        so.size_frontier = 2;
        so.keep_concurrent = keepconc_events(expand_handshakes(spec));
        auto plain = explore::reduce_concurrency_incremental(g, so);
        search_options so_d = so;
        so_d.deadline_ms = 3'600'000;  // one hour: unmissable
        auto d = explore::reduce_concurrency_incremental(g, so_d);
        expect_equal_results(plain, d, name);
        EXPECT_FALSE(plain.deadline_hit) << name;
        EXPECT_FALSE(d.deadline_hit) << name;
    }
}

TEST(deadline, tiny_deadline_returns_a_valid_best_so_far) {
    // The multi-level search of the widest corpus spec cannot finish inside
    // 1 ms: the search must say it was cut and still hand back a usable
    // best-so-far from the levels that did run -- never a crash, never a
    // silent approximation.
    auto base = make_sg(benchmarks::mmu_controller());
    auto g = subgraph::full(base);
    search_options so;
    so.cost.w = 0.5;
    so.size_frontier = 8;
    auto full = explore::reduce_concurrency_incremental(g, so);
    search_options so_d = so;
    so_d.deadline_ms = 1;
    auto d = explore::reduce_concurrency_incremental(g, so_d);
    ASSERT_TRUE(d.deadline_hit);
    EXPECT_LE(d.levels, full.levels);
    EXPECT_EQ(d.level_best.size(), d.levels);
    EXPECT_GE(d.best_cost.value, full.best_cost.value);
    EXPECT_GT(d.best.live_states().count(), 0u);
}

TEST(signature128, distinguishes_subgraphs_and_is_stable) {
    auto base = benchmarks::fig8_fragment();
    auto g = subgraph::full(base);
    auto s1 = g.signature128();
    EXPECT_EQ(s1, subgraph::full(base).signature128());
    auto h = g;
    h.kill_arc(0);
    EXPECT_FALSE(s1 == h.signature128());
    EXPECT_TRUE(s1 < h.signature128() || h.signature128() < s1);
}
