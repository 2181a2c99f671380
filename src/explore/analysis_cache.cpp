#include "explore/analysis_cache.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <unordered_map>

namespace asynth::explore {

context make_context(const state_graph& base, const cost_params& params) {
    context ctx;
    ctx.base = &base;
    ctx.params = params;
    ctx.nevents = base.events().size();
    ctx.words = (ctx.nevents + 63) / 64;

    ctx.noninput_mask.assign(ctx.words, 0);
    ctx.input_event.assign(ctx.nevents, 0);
    for (std::size_t e = 0; e < ctx.nevents; ++e) {
        ctx.input_event[e] = base.is_input_event(static_cast<uint16_t>(e)) ? 1 : 0;
        if (!ctx.input_event[e]) row_set(ctx.noninput_mask.data(), e);
    }

    ctx.sig_events.resize(base.signals().size());
    for (uint32_t s = 0; s < base.signals().size(); ++s) {
        auto& se = ctx.sig_events[s];
        if (auto p = base.find_event(static_cast<int32_t>(s), edge::plus)) se.plus = *p;
        if (auto m = base.find_event(static_cast<int32_t>(s), edge::minus)) se.minus = *m;
        se.estimated = base.signals()[s].kind != signal_kind::input &&
                       (se.plus >= 0 || se.minus >= 0);
    }

    ctx.sig_words = (base.signals().size() + 63) / 64;
    ctx.estimated_mask.assign(ctx.sig_words, 0);
    ctx.rise.assign(ctx.nevents * ctx.sig_words, 0);
    ctx.fall.assign(ctx.nevents * ctx.sig_words, 0);
    for (uint32_t s = 0; s < ctx.sig_events.size(); ++s) {
        const auto& se = ctx.sig_events[s];
        if (!se.estimated) continue;
        const uint64_t bit = uint64_t{1} << (s & 63U);
        ctx.estimated_mask[s >> 6] |= bit;
        if (se.plus >= 0)
            ctx.rise[static_cast<std::size_t>(se.plus) * ctx.sig_words + (s >> 6)] |= bit;
        if (se.minus >= 0)
            ctx.fall[static_cast<std::size_t>(se.minus) * ctx.sig_words + (s >> 6)] |= bit;
    }

    ctx.code_hash.reserve(base.state_count());
    for (const auto& st : base.states())
        ctx.code_hash.push_back(splitmix64(st.code.hash()));
    return ctx;
}

namespace detail {

std::vector<uint64_t> build_rows(const context& ctx, const subgraph& g) {
    const auto& b = *ctx.base;
    std::vector<uint64_t> rows(ctx.words * b.state_count(), 0);
    for (auto av : g.live_arcs().ones()) {
        const auto& arc = b.arcs()[av];
        if (!g.state_live(arc.src)) continue;
        row_set(rows.data() + ctx.words * arc.src, arc.event);
    }
    return rows;
}

void build_groups(const context& ctx, const subgraph& g, std::vector<code_group>& groups,
                  std::vector<uint32_t>& group_of) {
    const auto& b = *ctx.base;
    groups.clear();
    group_of.assign(b.state_count(), UINT32_MAX);
    std::unordered_map<dyn_bitset, uint32_t> index;
    for (auto sv : g.live_states().ones()) {
        const auto s = static_cast<uint32_t>(sv);
        auto [it, inserted] =
            index.emplace(b.states()[s].code, static_cast<uint32_t>(groups.size()));
        if (inserted) groups.emplace_back();
        groups[it->second].states.push_back(s);
        group_of[s] = it->second;
    }
}

std::size_t group_conflicts(const context& ctx, const std::vector<uint32_t>& members,
                            const dyn_bitset* removed, const row_view& rows) {
    // Gather the masked (non-input) enabled rows of the surviving members.
    std::vector<const uint64_t*> alive;
    alive.reserve(members.size());
    for (uint32_t s : members) {
        if (removed && removed->test(s)) continue;
        alive.push_back(rows(s));
    }
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < alive.size(); ++i) {
        for (std::size_t j = i + 1; j < alive.size(); ++j) {
            for (std::size_t w = 0; w < ctx.words; ++w) {
                if ((alive[i][w] & ctx.noninput_mask[w]) !=
                    (alive[j][w] & ctx.noninput_mask[w])) {
                    ++pairs;
                    break;
                }
            }
        }
    }
    return pairs;
}

group_walk walk_groups(const context& ctx, const std::vector<code_group>& groups,
                       const dyn_bitset* removed, const row_view& rows) {
    const auto& states = ctx.base->states();
    const std::size_t sw = ctx.sig_words;
    group_walk walk;
    walk.first.reserve(groups.size());
    walk.on.reserve(groups.size() * sw);
    walk.off.reserve(groups.size() * sw);
    std::vector<uint64_t> rise(sw), fall(sw), all_on(sw), any_on(sw);
    for (const auto& grp : groups) {
        bool seen = false;
        for (uint32_t s : grp.states) {
            if (removed && removed->test(s)) continue;
            std::fill(rise.begin(), rise.end(), 0);
            std::fill(fall.begin(), fall.end(), 0);
            const uint64_t* row = rows(s);
            for (std::size_t w = 0; w < ctx.words; ++w) {
                for (uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
                    const std::size_t e = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
                    for (std::size_t k = 0; k < sw; ++k) {
                        rise[k] |= ctx.rise[e * sw + k];
                        fall[k] |= ctx.fall[e * sw + k];
                    }
                }
            }
            // f(s) = rise | (code & ~fall): excited signals take their target
            // value, quiescent ones keep their code bit.
            const auto& code = states[s].code.words();
            for (std::size_t k = 0; k < sw; ++k) {
                const uint64_t ns = rise[k] | (code[k] & ~fall[k]);
                all_on[k] = seen ? all_on[k] & ns : ns;
                any_on[k] = seen ? any_on[k] | ns : ns;
            }
            if (!seen) walk.first.push_back(s);
            seen = true;
        }
        if (!seen) continue;
        for (std::size_t k = 0; k < sw; ++k) {
            walk.on.push_back(all_on[k] & ctx.estimated_mask[k]);
            walk.off.push_back(~any_on[k] & ctx.estimated_mask[k]);
        }
    }
    // Pruning can reorder the first-encounter sequence: restore it by sorting
    // the group records on their first surviving member.
    walk.order.resize(walk.first.size());
    std::iota(walk.order.begin(), walk.order.end(), 0U);
    if (removed)
        std::sort(walk.order.begin(), walk.order.end(),
                  [&](uint32_t x, uint32_t y) { return walk.first[x] < walk.first[y]; });
    return walk;
}

sig_key group_walk::key(const context& ctx, uint32_t signal) const {
    const std::size_t sw = ctx.sig_words, w = signal >> 6;
    const uint64_t bit = uint64_t{1} << (signal & 63U);
    sig_key k;
    for (uint32_t r : order) {
        if (on[r * sw + w] & bit)
            hash128_combine(k.on, ctx.code_hash[first[r]]);
        else if (off[r * sw + w] & bit)
            hash128_combine(k.off, ctx.code_hash[first[r]]);
    }
    return k;
}

void group_walk::keys(const context& ctx, std::vector<sig_key>& out) const {
    const std::size_t sw = ctx.sig_words;
    out.assign(ctx.sig_events.size(), sig_key{});
    for (uint32_t r : order) {
        const uint64_t h = ctx.code_hash[first[r]];
        for (std::size_t w = 0; w < sw; ++w) {
            for (uint64_t bits = on[r * sw + w]; bits != 0; bits &= bits - 1)
                hash128_combine(out[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))].on,
                                h);
            for (uint64_t bits = off[r * sw + w]; bits != 0; bits &= bits - 1)
                hash128_combine(out[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))].off,
                                h);
        }
    }
}

sop_spec group_walk::spec(const context& ctx, uint32_t signal) const {
    const auto& states = ctx.base->states();
    const std::size_t sw = ctx.sig_words, w = signal >> 6;
    const uint64_t bit = uint64_t{1} << (signal & 63U);
    sop_spec out;
    out.nvars = ctx.sig_events.size();
    for (uint32_t r : order) {
        if (on[r * sw + w] & bit)
            out.on.push_back(states[first[r]].code);
        else if (off[r * sw + w] & bit)
            out.off.push_back(states[first[r]].code);
    }
    return out;
}

std::size_t minimise_literals(const context& ctx, const sop_spec& spec, const sig_key& key,
                              literal_memo* memo) {
    if (memo) {
        if (auto hit = memo->find(key); hit && hit->literals) return *hit->literals;
    }
    const std::size_t literals =
        minimize_heuristic(spec, ctx.params.minimize_passes).literal_count();
    if (memo) memo->insert_exact(key, literals);
    return literals;
}

}  // namespace detail

analysis_cache build_cache(const context& ctx, const subgraph& g, literal_memo* memo) {
    const auto& b = *ctx.base;
    analysis_cache c;

    c.rows = detail::build_rows(ctx, g);
    c.event_arcs.assign(ctx.nevents, 0);
    for (auto av : g.live_arcs().ones()) ++c.event_arcs[b.arcs()[av].event];

    c.er.resize(ctx.nevents);
    c.er_union.resize(ctx.nevents);
    for (std::size_t e = 0; e < ctx.nevents; ++e) {
        c.er[e] = excitation_regions(g, static_cast<uint16_t>(e));
        dyn_bitset u(b.state_count());
        for (const auto& comp : c.er[e]) u |= comp.states;
        c.er_union[e] = std::move(u);
    }

    detail::build_groups(ctx, g, c.groups, c.group_of);
    const detail::row_view rows{&ctx, &c.rows, nullptr, nullptr};
    c.csc_pairs = 0;
    for (auto& grp : c.groups) {
        grp.conflict_pairs = detail::group_conflicts(ctx, grp.states, nullptr, rows);
        c.csc_pairs += grp.conflict_pairs;
    }

    const detail::group_walk walk = detail::walk_groups(ctx, c.groups, nullptr, rows);
    std::vector<sig_key> keys;
    walk.keys(ctx, keys);
    c.signals.resize(b.signals().size());
    std::size_t literals = 0;
    for (uint32_t s = 0; s < b.signals().size(); ++s) {
        auto& entry = c.signals[s];
        entry.estimated = ctx.sig_events[s].estimated;
        if (!entry.estimated) continue;
        entry.key = keys[s];
        auto hit = memo ? memo->find(entry.key) : std::nullopt;
        if (hit && hit->literals)
            entry.literals = *hit->literals;
        else
            entry.literals =
                detail::minimise_literals(ctx, walk.spec(ctx, s), entry.key, memo);
        literals += entry.literals;
    }

    c.cost.states = g.live_state_count();
    c.cost.csc_pairs = c.csc_pairs;
    c.cost.literals = literals;
    c.cost.value = ctx.params.w * static_cast<double>(literals) +
                   (1.0 - ctx.params.w) * ctx.params.csc_weight *
                       static_cast<double>(c.csc_pairs);
    return c;
}

}  // namespace asynth::explore
