#include "core/search.hpp"

#include <algorithm>
#include <unordered_set>

#include "sg/analysis.hpp"

namespace asynth {

namespace {

bool same_unordered(const sg_event& a1, const sg_event& b1, const sg_event& a2,
                    const sg_event& b2) {
    return (a1 == a2 && b1 == b2) || (a1 == b2 && b1 == a2);
}

/// Is (a, b) still a concurrent pair among @p comps?
bool pair_alive(const state_graph& b, const std::vector<er_component>& comps, const sg_event& e1,
                const sg_event& e2) {
    auto id1 = b.find_event(e1.signal, e1.dir);
    auto id2 = b.find_event(e2.signal, e2.dir);
    if (!id1 || !id2) return false;
    for (const auto& c1 : comps) {
        if (c1.event != *id1) continue;
        for (const auto& c2 : comps) {
            if (c2.event != *id2) continue;
            if (concurrent(c1, c2)) return true;
        }
    }
    return false;
}

}  // namespace

bool is_kept_pair(const std::vector<std::pair<sg_event, sg_event>>& keep, const sg_event& a,
                  const sg_event& b) {
    for (const auto& [k1, k2] : keep)
        if (same_unordered(k1, k2, a, b)) return true;
    return false;
}

bool kept_pairs_alive(const subgraph& g, const std::vector<std::pair<sg_event, sg_event>>& keep) {
    if (keep.empty()) return true;
    const auto& b = g.base();
    auto comps = excitation_regions(g);
    for (const auto& [e1, e2] : keep)
        if (!pair_alive(b, comps, e1, e2)) return false;
    return true;
}

std::vector<std::pair<sg_event, sg_event>> effective_keepconc(
    const subgraph& g, const std::vector<std::pair<sg_event, sg_event>>& keep) {
    std::vector<std::pair<sg_event, sg_event>> out;
    if (keep.empty()) return out;
    const auto& b = g.base();
    auto comps = excitation_regions(g);  // computed once for every pair
    for (const auto& pair : keep)
        if (pair_alive(b, comps, pair.first, pair.second)) out.push_back(pair);
    return out;
}

namespace {

struct scored {
    subgraph g;
    cost_breakdown cost;
    hash128 sig;  ///< deterministic beam tie-break for equal costs
};

/// Strict weak order for beam selection: cost first, 128-bit signature as the
/// tie-break.  Equal costs are common on symmetric specs; without the
/// signature tie-break std::sort leaves their order unspecified and
/// search_result.best is not reproducible run-to-run.
bool beam_order(const scored& a, const scored& b) {
    if (a.cost.value != b.cost.value) return a.cost.value < b.cost.value;
    return a.sig < b.sig;
}

/// Generates every admissible one-step reduction of @p g.
std::vector<subgraph> neighbours(const subgraph& g, const search_options& opt) {
    std::vector<subgraph> out;
    const auto& b = g.base();
    auto comps = excitation_regions(g);
    for (std::size_t i = 0; i < comps.size(); ++i) {
        // e2 (the delayed event) must not be an input (Fig. 9).
        if (b.is_input_event(comps[i].event)) continue;
        for (std::size_t j = 0; j < comps.size(); ++j) {
            if (i == j || comps[i].event == comps[j].event) continue;
            if (!concurrent(comps[i], comps[j])) continue;
            const auto& ea = b.events()[comps[i].event];
            const auto& eb = b.events()[comps[j].event];
            if (is_kept_pair(opt.keep_concurrent, ea, eb)) continue;
            auto red = forward_reduction(g, comps[i], comps[j]);
            if (!red) continue;
            if (!kept_pairs_alive(*red, opt.keep_concurrent)) continue;
            out.push_back(std::move(*red));
        }
    }
    return out;
}

}  // namespace

search_result reduce_concurrency(const subgraph& initial, const search_options& options) {
    search_options opt = options;
    opt.keep_concurrent = effective_keepconc(initial, options.keep_concurrent);
    // A zero-width beam would read fresh.front() after resize(0); treat it
    // as the narrowest meaningful beam instead of crashing.
    opt.size_frontier = std::max<std::size_t>(1, opt.size_frontier);

    search_result res;
    res.best = initial;
    res.best_cost = estimate_cost(initial, opt.cost);
    res.explored = 1;

    // 128-bit dedupe keys, matching the incremental engine's transposition
    // table: with 64-bit keys a single collision would silently drop a
    // distinct candidate and let the two engines diverge.
    std::unordered_set<hash128> explored{initial.signature128()};
    std::vector<scored> frontier;
    frontier.push_back(scored{initial, res.best_cost, initial.signature128()});

    for (std::size_t level = 0; level < opt.max_levels && !frontier.empty(); ++level) {
        std::vector<scored> fresh;
        for (const auto& cfg : frontier) {
            for (auto& n : neighbours(cfg.g, opt)) {
                hash128 sig = n.signature128();
                if (!explored.insert(sig).second) continue;
                cost_breakdown c = estimate_cost(n, opt.cost);
                ++res.explored;
                fresh.push_back(scored{std::move(n), c, sig});
            }
        }
        if (fresh.empty()) break;
        std::stable_sort(fresh.begin(), fresh.end(), beam_order);
        if (fresh.size() > opt.size_frontier) fresh.resize(opt.size_frontier);
        res.levels = level + 1;
        res.level_best.push_back(fresh.front().cost.value);
        if (fresh.front().cost.value < res.best_cost.value) {
            res.best = fresh.front().g;
            res.best_cost = fresh.front().cost;
        }
        frontier = std::move(fresh);
    }
    return res;
}

search_result reduce_fully(const subgraph& initial, const search_options& options) {
    search_options opt = options;
    opt.keep_concurrent = effective_keepconc(initial, options.keep_concurrent);

    search_result res;
    res.best = initial;
    res.best_cost = estimate_cost(initial, opt.cost);
    res.explored = 1;

    bool progress = true;
    while (progress) {
        progress = false;
        auto ns = neighbours(res.best, opt);
        if (ns.empty()) break;
        // Greedy: take the cheapest successor.
        std::size_t pick = 0;
        cost_breakdown best_c;
        for (std::size_t i = 0; i < ns.size(); ++i) {
            cost_breakdown c = estimate_cost(ns[i], opt.cost);
            ++res.explored;
            if (i == 0 || c.value < best_c.value) {
                best_c = c;
                pick = i;
            }
        }
        res.best = std::move(ns[pick]);
        res.best_cost = best_c;
        res.levels++;
        res.level_best.push_back(best_c.value);
        progress = true;
    }
    return res;
}

std::vector<std::pair<sg_event, sg_event>> keepconc_events(const stg& net) {
    std::vector<std::pair<sg_event, sg_event>> out;
    for (const auto& [a, b] : net.keep_concurrent)
        out.emplace_back(sg_event{a.signal, a.dir}, sg_event{b.signal, b.dir});
    return out;
}

}  // namespace asynth
