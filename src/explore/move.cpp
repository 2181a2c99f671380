#include "explore/move.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "core/reduce.hpp"
#include "obs/metrics.hpp"

namespace asynth::explore {

namespace {

/// Exact-literal memo hits across all scoring paths -- the lazy-minimisation
/// effectiveness signal (docs/OBSERVABILITY.md).  One relaxed add per hit.
obs::counter& memo_hits() {
    static obs::counter& c = obs::registry::global().get_counter(
        "asynth_explore_memo_hits_total", "Exact-literal memo hits during move scoring");
    return c;
}

}  // namespace

std::optional<applied_move> apply_move(const context& ctx, const subgraph& g,
                                       const analysis_cache& cache, const er_component& a,
                                       const er_component& b) {
    const auto& base = g.base();

    dyn_bitset intersection = a.states;
    intersection &= b.states;
    if (intersection.none()) return std::nullopt;  // not concurrent: no-op

    // Removal zone, exactly as forward_reduction(): ER(b) plus every state of
    // this excitation episode from which the common states are reachable
    // without leaving ER(a).
    dyn_bitset zone = backward_reachable(g, intersection, &a.states);
    zone |= b.states;
    zone &= a.states;

    applied_move am;
    am.child = g;
    am.delayed_event = a.event;
    std::size_t removed_count = 0;
    for (auto sv : zone.ones()) {
        for (uint32_t arc : base.out_arcs(static_cast<uint32_t>(sv))) {
            if (!am.child.arc_live(arc)) continue;
            if (base.arcs()[arc].event == a.event) {
                am.child.kill_arc(arc);
                ++removed_count;
            }
        }
    }
    if (removed_count == 0) return std::nullopt;
    am.child.prune_unreachable();

    am.removed_arcs = g.live_arcs();
    am.removed_arcs.and_not(am.child.live_arcs());
    am.removed_states = g.live_states();
    am.removed_states.and_not(am.child.live_states());

    // Condition 3 -- no event disappears -- as a counter decrement, and the
    // disturbed set D (live states that lost an out-arc) in one sweep.
    std::vector<uint32_t> removed_per_event(ctx.nevents, 0);
    for (auto av : am.removed_arcs.ones()) {
        const auto& arc = base.arcs()[av];
        ++removed_per_event[arc.event];
        if (am.child.state_live(arc.src)) am.disturbed.push_back(arc.src);
    }
    for (std::size_t e = 0; e < ctx.nevents; ++e)
        if (removed_per_event[e] != 0 && cache.event_arcs[e] == removed_per_event[e])
            return std::nullopt;
    std::sort(am.disturbed.begin(), am.disturbed.end());
    am.disturbed.erase(std::unique(am.disturbed.begin(), am.disturbed.end()),
                       am.disturbed.end());

    // Child enabled rows of the disturbed states.
    am.disturbed_rows.assign(am.disturbed.size() * ctx.words, 0);
    for (std::size_t k = 0; k < am.disturbed.size(); ++k) {
        uint64_t* row = am.disturbed_rows.data() + k * ctx.words;
        for (uint32_t arc : base.out_arcs(am.disturbed[k]))
            if (am.child.arc_live(arc)) row_set(row, base.arcs()[arc].event);
    }

    // Condition 4 -- no new deadlock.  Only a state that lost an out-arc can
    // become one, and every disturbed state had an out-arc before the move.
    for (std::size_t k = 0; k < am.disturbed.size(); ++k) {
        const uint64_t* row = am.disturbed_rows.data() + k * ctx.words;
        bool has_out = false;
        for (std::size_t w = 0; w < ctx.words; ++w)
            if (row[w] != 0) {
                has_out = true;
                break;
            }
        if (!has_out) return std::nullopt;
    }

    // Condition 1 -- output persistency -- as a delta.  The parent is
    // output-persistent (search invariant), and arc removal can only create a
    // new violation (s, fire, e) where e was enabled at fire's destination in
    // the parent and no longer is: that destination lost an out-arc, so it is
    // in D.  Check every predecessor of every disturbed state against the
    // events the state lost.
    const detail::row_view child_rows{&ctx, &cache.rows, &am.disturbed, &am.disturbed_rows};
    for (std::size_t k = 0; k < am.disturbed.size(); ++k) {
        const uint32_t d = am.disturbed[k];
        const uint64_t* parent_row = cache.rows.data() + ctx.words * d;
        const uint64_t* child_row = am.disturbed_rows.data() + k * ctx.words;
        for (uint32_t ain : base.in_arcs(d)) {
            if (!am.child.arc_live(ain)) continue;
            const uint32_t s = base.arcs()[ain].src;
            const uint16_t f = base.arcs()[ain].event;
            const uint64_t* s_row = child_rows(s);
            for (std::size_t w = 0; w < ctx.words; ++w) {
                uint64_t lost = parent_row[w] & ~child_row[w];
                while (lost != 0) {
                    const auto e =
                        static_cast<uint16_t>(w * 64 + std::countr_zero(lost));
                    lost &= lost - 1;
                    if (e == f) continue;
                    if (!row_bit(s_row, e)) continue;  // e not enabled at s
                    if (ctx.input_event[e] && ctx.input_event[f]) continue;
                    return std::nullopt;  // firing f at s disables e
                }
            }
        }
    }

    am.sig = am.child.signature128();
    return am;
}

namespace {

/// Delta(csc_pairs): only code groups containing a removed or disturbed
/// state can change their conflict-pair count.
std::size_t delta_csc_pairs(const context& ctx, const analysis_cache& cache,
                            const applied_move& am, const detail::row_view& child_rows) {
    std::vector<uint32_t> affected;
    for (auto sv : am.removed_states.ones()) affected.push_back(cache.group_of[sv]);
    for (uint32_t d : am.disturbed) affected.push_back(cache.group_of[d]);
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()), affected.end());

    std::size_t csc = cache.csc_pairs;
    for (uint32_t gi : affected) {
        csc -= cache.groups[gi].conflict_pairs;
        csc += detail::group_conflicts(ctx, cache.groups[gi].states, &am.removed_states,
                                       child_rows);
    }
    return csc;
}

/// The canonical changed-signal enumeration both the exact scorer and the
/// dominance bounder share (one source, so their orders cannot drift): calls
/// visit(signal, key) for every estimated signal whose spec key differs from
/// the parent's.  @p walk is child_walk(ctx, cache, am).
template <typename Visit>
void for_each_changed_signal(const context& ctx, const analysis_cache& cache,
                             const applied_move& am, const detail::group_walk& walk,
                             Visit&& visit) {
    if (am.removed_states.none()) {
        // Only the delayed event's signal changed its excitation anywhere.
        const auto x = static_cast<uint32_t>(ctx.base->events()[am.delayed_event].signal);
        const sig_key key = walk.key(ctx, x);
        if (key != cache.signals[x].key) visit(x, key);
        return;
    }
    // Pruning can change any signal's spec: re-key every estimated one, all
    // from the one walk.
    std::vector<sig_key> keys;
    walk.keys(ctx, keys);
    for (uint32_t x = 0; x < ctx.sig_events.size(); ++x)
        if (ctx.sig_events[x].estimated && keys[x] != cache.signals[x].key) visit(x, keys[x]);
}

cost_breakdown combine_cost(const context& ctx, std::size_t states, std::size_t csc,
                            std::size_t literals) {
    cost_breakdown c;
    c.states = states;
    c.csc_pairs = csc;
    c.literals = literals;
    c.value = ctx.params.w * static_cast<double>(literals) +
              (1.0 - ctx.params.w) * ctx.params.csc_weight * static_cast<double>(csc);
    return c;
}

}  // namespace

move_score score_move(const context& ctx, const subgraph& parent, const analysis_cache& cache,
                      const applied_move& am, literal_memo& memo) {
    (void)parent;
    move_score out;
    const detail::row_view child_rows{&ctx, &cache.rows, &am.disturbed, &am.disturbed_rows};

    const std::size_t csc = delta_csc_pairs(ctx, cache, am, child_rows);

    // ---- Delta(literals): recompute a signal's spec key only when the move
    // can have changed it, re-minimise only when the key actually differs.
    std::size_t literals = cache.cost.literals;
    const detail::group_walk walk = child_walk(ctx, cache, am);
    for_each_changed_signal(ctx, cache, am, walk, [&](uint32_t x, const sig_key& key) {
        std::size_t lits;
        if (auto hit = memo.find(key); hit && hit->literals) {
            memo_hits().add();
            lits = *hit->literals;
        } else {
            lits = detail::minimise_literals(ctx, walk.spec(ctx, x), key, &memo);
        }
        literals -= cache.signals[x].literals;
        literals += lits;
        out.updates.push_back({x, key, lits});
    });

    out.cost = combine_cost(ctx, am.child.live_state_count(), csc, literals);
    return out;
}

move_eval floor_move(const context& ctx, const analysis_cache& cache, const applied_move& am) {
    move_eval ev;
    const detail::row_view child_rows{&ctx, &cache.rows, &am.disturbed, &am.disturbed_rows};
    ev.csc = delta_csc_pairs(ctx, cache, am, child_rows);
    ev.states = am.child.live_state_count();
    // Without pruned states only the delayed event's signal can change its
    // spec (for_each_changed_signal), so every other signal keeps the
    // parent's exact count.  Pruning can change any signal's spec: nothing
    // is known then.
    if (am.removed_states.none()) {
        const auto x = static_cast<uint32_t>(ctx.base->events()[am.delayed_event].signal);
        ev.lits_lo = cache.cost.literals - cache.signals[x].literals;
    }
    ev.value_lo = combine_cost(ctx, ev.states, ev.csc, ev.lits_lo).value;
    return ev;
}

move_eval bound_move(const context& ctx, const analysis_cache& cache, const applied_move& am,
                     move_eval floor, literal_memo& memo) {
    move_eval ev = std::move(floor);
    std::size_t lo = cache.cost.literals;
    const detail::group_walk walk = child_walk(ctx, cache, am);
    for_each_changed_signal(ctx, cache, am, walk, [&](uint32_t x, const sig_key& key) {
        move_eval::changed_signal ch{x, key, std::nullopt};
        std::size_t lower;
        const auto hit = memo.find(key);
        if (hit && hit->literals) {
            memo_hits().add();
            ch.literals = *hit->literals;
            lower = *hit->literals;
        } else if (hit && hit->lower) {
            lower = *hit->lower;  // a sibling move bounded this key
        } else {
            // First sight of this key anywhere: assemble its spec once.
            lower = literal_lower_bound(walk.spec(ctx, x));
            memo.insert_lower(key, lower);
        }
        lo -= cache.signals[x].literals;
        lo += lower;
        ev.changed.push_back(std::move(ch));
    });
    ev.lits_lo = lo;
    ev.value_lo = combine_cost(ctx, ev.states, ev.csc, ev.lits_lo).value;
    return ev;
}

move_score finish_score(const context& ctx, const analysis_cache& cache, const applied_move& am,
                        move_eval eval, literal_memo& memo) {
    move_score out;
    // The group walk is redone lazily: every unresolved signal may already be
    // an exact memo hit by now (a sibling candidate minimised the same key).
    std::optional<detail::group_walk> walk;
    std::size_t literals = cache.cost.literals;
    for (const auto& ch : eval.changed) {
        std::size_t lits;
        if (ch.literals) {
            lits = *ch.literals;
        } else if (auto hit = memo.find(ch.key); hit && hit->literals) {
            memo_hits().add();
            lits = *hit->literals;
        } else {
            if (!walk) walk = child_walk(ctx, cache, am);
            lits = detail::minimise_literals(ctx, walk->spec(ctx, ch.signal), ch.key, &memo);
        }
        literals -= cache.signals[ch.signal].literals;
        literals += lits;
        out.updates.push_back({ch.signal, ch.key, lits});
    }
    out.cost = combine_cost(ctx, eval.states, eval.csc, literals);
    return out;
}

detail::group_walk child_walk(const context& ctx, const analysis_cache& cache,
                              const applied_move& am) {
    const detail::row_view child_rows{&ctx, &cache.rows, &am.disturbed, &am.disturbed_rows};
    return detail::walk_groups(ctx, cache.groups,
                               am.removed_states.none() ? nullptr : &am.removed_states,
                               child_rows);
}

analysis_cache derive_cache(const context& ctx, const subgraph& parent,
                            const analysis_cache& parent_cache, const applied_move& am,
                            const move_score& score) {
    (void)parent;
    const auto& base = am.child.base();
    analysis_cache c;

    // Rows: copy, zero the pruned states, splice in the disturbed rows.
    c.rows = parent_cache.rows;
    for (auto sv : am.removed_states.ones())
        std::fill_n(c.rows.begin() + static_cast<std::ptrdiff_t>(ctx.words * sv), ctx.words, 0);
    for (std::size_t k = 0; k < am.disturbed.size(); ++k)
        std::copy_n(am.disturbed_rows.begin() + static_cast<std::ptrdiff_t>(k * ctx.words),
                    ctx.words,
                    c.rows.begin() + static_cast<std::ptrdiff_t>(ctx.words * am.disturbed[k]));

    c.event_arcs = parent_cache.event_arcs;
    for (auto av : am.removed_arcs.ones()) --c.event_arcs[base.arcs()[av].event];

    // ER components: an event is dirty when it lost arcs, lost member states,
    // or a removed arc connected two states of its excitation set (the
    // component partition may split); everything else is copied verbatim.
    std::vector<char> dirty(ctx.nevents, 0);
    for (auto av : am.removed_arcs.ones()) dirty[base.arcs()[av].event] = 1;
    for (std::size_t e = 0; e < ctx.nevents; ++e)
        if (!dirty[e] && parent_cache.er_union[e].intersects(am.removed_states)) dirty[e] = 1;
    for (auto av : am.removed_arcs.ones()) {
        const auto& arc = base.arcs()[av];
        for (std::size_t e = 0; e < ctx.nevents; ++e)
            if (!dirty[e] && parent_cache.er_union[e].test(arc.src) &&
                parent_cache.er_union[e].test(arc.dst))
                dirty[e] = 1;
    }
    c.er.resize(ctx.nevents);
    c.er_union.resize(ctx.nevents);
    for (std::size_t e = 0; e < ctx.nevents; ++e) {
        if (!dirty[e]) {
            c.er[e] = parent_cache.er[e];
            c.er_union[e] = parent_cache.er_union[e];
            continue;
        }
        c.er[e] = excitation_regions(am.child, static_cast<uint16_t>(e));
        dyn_bitset u(base.state_count());
        for (const auto& comp : c.er[e]) u |= comp.states;
        c.er_union[e] = std::move(u);
    }

    // CSC structure: rebuilt (one linear pass; the scorer already produced
    // the total, which the rebuild must reproduce).
    detail::build_groups(ctx, am.child, c.groups, c.group_of);
    const detail::row_view rows{&ctx, &c.rows, nullptr, nullptr};
    c.csc_pairs = 0;
    for (auto& grp : c.groups) {
        grp.conflict_pairs = detail::group_conflicts(ctx, grp.states, nullptr, rows);
        c.csc_pairs += grp.conflict_pairs;
    }

    c.signals = parent_cache.signals;
    for (const auto& u : score.updates) {
        c.signals[u.signal].key = u.key;
        c.signals[u.signal].literals = u.literals;
    }

    c.cost = score.cost;
    return c;
}

}  // namespace asynth::explore
