#include "explore/engine.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>
#include <optional>
#include <unordered_set>

#include "batch/pool.hpp"
#include "explore/move.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace asynth::explore {

namespace {

/// One frontier member: the subgraph plus its memoised analyses.
struct node {
    subgraph g;
    analysis_cache cache;
};

/// A candidate reduction as a lightweight descriptor: which frontier node it
/// expands and which ER component pair it reduces.  Nothing is materialised
/// until apply_move().
struct move_ref {
    uint32_t node = 0;
    const er_component* a = nullptr;
    const er_component* b = nullptr;
};

/// Runs body(0..n-1), on the search's persistent work-stealing pool when one
/// exists.  Each body writes only its own slot, so results are identical for
/// every job count.  @p min_parallel sets when a batch is worth waking the
/// pooled workers for: cheap ~10us tasks (bounds, applies) stay serial below
/// 16, while exact-minimisation batches (milliseconds per task) parallelise
/// from 2 tasks up.
template <typename Body>
void run_tasks(batch::work_stealing_pool* pool, std::size_t n, Body&& body,
               std::size_t min_parallel = 16) {
    if (!pool || n < min_parallel) {
        for (std::size_t i = 0; i < n; ++i) body(i);
        return;
    }
    pool->run(n, body);
}

/// Exact-scoring batches parallelise aggressively: one finish_score can run a
/// full heuristic minimisation, which dwarfs the pool wake-up cost.
constexpr std::size_t kParallelExact = 2;

/// Process-wide search counters, accumulated once per finished search.
void count_search(const search_result& r) {
    auto& reg = obs::registry::global();
    static obs::counter& explored =
        reg.get_counter("asynth_explore_explored_total", "Unique candidate SGs scored");
    static obs::counter& pruned = reg.get_counter(
        "asynth_explore_pruned_total", "Candidates discarded on bounds without exact scoring");
    explored.add(r.explored);
    pruned.add(r.pruned);
}

}  // namespace

search_result reduce_concurrency_incremental(const subgraph& initial,
                                             const search_options& options) {
    // The delta validity checks assume the root is output-persistent (the
    // search keeps that invariant thereafter).  A hand-built SG that is not
    // falls back to the reference engine, whose full per-candidate
    // speed-independence recheck handles it -- the engines stay equivalent
    // on every input, not just well-formed ones.  The fallback ignores the
    // deadline, like every reference-engine run.
    if (!check_speed_independence(initial).output_persistent) {
        search_result res = reduce_concurrency(initial, options);
        count_search(res);
        return res;
    }

    search_options opt = options;
    opt.keep_concurrent = effective_keepconc(initial, options.keep_concurrent);
    opt.size_frontier = std::max<std::size_t>(1, opt.size_frontier);

    const state_graph& base = initial.base();
    const context ctx = make_context(base, opt.cost);
    literal_memo memo;

    // One persistent pool per search (ROADMAP item): the per-level phases
    // dispatch several small batches each, and constructing a fresh pool per
    // batch spent more time spawning threads than scoring moves.
    std::optional<batch::work_stealing_pool> pool_storage;
    if (opt.jobs > 1) pool_storage.emplace(opt.jobs);
    batch::work_stealing_pool* pool = pool_storage ? &*pool_storage : nullptr;

    search_result res;
    res.best = initial;
    res.explored = 1;
    const auto search_start = std::chrono::steady_clock::now();

    std::vector<node> frontier(1);
    frontier[0].g = initial;
    frontier[0].cache = build_cache(ctx, initial, &memo);
    res.best_cost = frontier[0].cache.cost;

    std::unordered_set<hash128> transposition{initial.signature128()};

    for (std::size_t level = 0; level < opt.max_levels && !frontier.empty(); ++level) {
        // ---- deadline, checked between levels only (outside every parallel
        // region, so jobs-independence of the admission path is untouched).
        if (opt.deadline_ms > 0 && std::chrono::steady_clock::now() - search_start >=
                                       std::chrono::milliseconds(opt.deadline_ms)) {
            res.deadline_hit = true;
            break;
        }
        obs::span lsp("explore.level", "explore");
        lsp.arg("level", static_cast<std::uint64_t>(level));
        std::vector<move_ref> moves;
        std::vector<std::optional<applied_move>> applied;
        std::vector<uint32_t> unique;
        {
            obs::span asp("explore.apply", "explore");
            // ---- enumerate candidate moves in the reference engine's order:
            // frontier order, then ER components ascending by event.
            for (uint32_t ni = 0; ni < frontier.size(); ++ni) {
                const auto& cache = frontier[ni].cache;
                std::vector<const er_component*> comps;
                for (std::size_t e = 0; e < ctx.nevents; ++e)
                    for (const auto& comp : cache.er[e]) comps.push_back(&comp);
                for (std::size_t i = 0; i < comps.size(); ++i) {
                    // e2 (the delayed event) must not be an input (Fig. 9).
                    if (ctx.input_event[comps[i]->event]) continue;
                    for (std::size_t j = 0; j < comps.size(); ++j) {
                        if (i == j || comps[i]->event == comps[j]->event) continue;
                        if (!comps[i]->states.intersects(comps[j]->states)) continue;
                        if (is_kept_pair(opt.keep_concurrent, base.events()[comps[i]->event],
                                         base.events()[comps[j]->event]))
                            continue;
                        moves.push_back(move_ref{ni, comps[i], comps[j]});
                    }
                }
            }

            // ---- phase 1: apply + validity-check every move (parallel).
            applied.resize(moves.size());
            run_tasks(pool, moves.size(), [&](std::size_t i) {
                const move_ref& m = moves[i];
                applied[i] =
                    apply_move(ctx, frontier[m.node].g, frontier[m.node].cache, *m.a, *m.b);
                if (applied[i] && !opt.keep_concurrent.empty() &&
                    !kept_pairs_alive(applied[i]->child, opt.keep_concurrent))
                    applied[i].reset();
            });

            // ---- phase 2: transposition dedupe, serially in enumeration order
            // (the reference engine's `explored` semantics, with 128-bit keys).
            for (std::size_t i = 0; i < applied.size(); ++i) {
                if (!applied[i]) continue;
                if (transposition.insert(applied[i]->sig).second)
                    unique.push_back(static_cast<uint32_t>(i));
                else
                    applied[i].reset();
            }
        }
        lsp.arg("moves", static_cast<std::uint64_t>(moves.size()));
        lsp.arg("unique", static_cast<std::uint64_t>(unique.size()));
        if (unique.empty()) break;

        // ---- phase 3: delta-score the survivors of dedupe (parallel).
        // `admitted` lists the candidates holding an exact score afterwards;
        // with the exact minimizer that is everyone, with the incremental
        // minimizer the dominance filter discards candidates that provably
        // cannot enter the beam without ever minimising them.
        std::vector<move_score> scores(unique.size());
        std::vector<uint32_t> admitted;
        if (opt.minimizer == minimizer_mode::exact) {
            obs::span esp("explore.exact", "explore");
            esp.arg("scored", static_cast<std::uint64_t>(unique.size()));
            run_tasks(pool, unique.size(), [&](std::size_t k) {
                const move_ref& m = moves[unique[k]];
                scores[k] = score_move(ctx, frontier[m.node].g, frontier[m.node].cache,
                                       *applied[unique[k]], memo);
            });
            admitted.resize(unique.size());
            std::iota(admitted.begin(), admitted.end(), 0u);
        } else {
            // ---- phase 3a: floor every candidate (parallel, cheap).
            std::vector<move_eval> evals(unique.size());
            {
                obs::span bsp("explore.bound", "explore");
                bsp.arg("floored", static_cast<std::uint64_t>(unique.size()));
                run_tasks(pool, unique.size(), [&](std::size_t k) {
                    evals[k] = floor_move(ctx, frontier[moves[unique[k]].node].cache,
                                          *applied[unique[k]]);
                });
            }
            obs::span esp("explore.exact", "explore");

            // ---- phase 3b: best-first admission (the dominance prune).  The
            // admission cost is the size_frontier-th smallest exact value so
            // far (+inf until that many exist); a candidate whose sound lower
            // bound is strictly above it is beaten by size_frontier exact
            // scores and cannot enter the beam (ties keep their signature
            // chance, so only strict inequality prunes).  Candidates are
            // visited in ascending (floor, signature) order, in chunks: each
            // chunk is refined to bound_move's tighter bound, the members
            // still at or below the admission cost are exactly scored, and
            // their scores tighten it.  The first floor above the admission
            // cost ends the level -- everything after is provably out (the
            // list is sorted by the very bound we prune on).  Every bound is
            // a pure function of its key and the chunks are fixed, so the
            // exactly-scored set is independent of the job count.
            std::vector<uint32_t> by_floor(unique.size());
            std::iota(by_floor.begin(), by_floor.end(), 0u);
            std::sort(by_floor.begin(), by_floor.end(), [&](uint32_t x, uint32_t y) {
                if (evals[x].value_lo != evals[y].value_lo)
                    return evals[x].value_lo < evals[y].value_lo;
                return applied[unique[x]]->sig < applied[unique[y]]->sig;
            });
            std::vector<double> kbest;  // ascending, capped at size_frontier
            const auto admission = [&] {
                return kbest.size() < opt.size_frontier
                           ? std::numeric_limits<double>::infinity()
                           : kbest.back();
            };
            constexpr std::size_t chunk_cap = 16;
            std::vector<uint32_t> chunk, live;
            std::size_t refined = 0;
            std::size_t i = 0;
            while (i < by_floor.size() && evals[by_floor[i]].value_lo <= admission()) {
                const std::size_t cap =
                    kbest.size() < opt.size_frontier ? opt.size_frontier : chunk_cap;
                chunk.clear();
                while (i < by_floor.size() && chunk.size() < cap &&
                       evals[by_floor[i]].value_lo <= admission())
                    chunk.push_back(by_floor[i++]);
                run_tasks(pool, chunk.size(), [&](std::size_t j) {
                    const uint32_t k = chunk[j];
                    evals[k] = bound_move(ctx, frontier[moves[unique[k]].node].cache,
                                          *applied[unique[k]], std::move(evals[k]), memo);
                });
                refined += chunk.size();
                live.clear();
                for (uint32_t k : chunk)
                    if (evals[k].value_lo <= admission()) live.push_back(k);
                run_tasks(
                    pool, live.size(),
                    [&](std::size_t j) {
                        const uint32_t k = live[j];
                        scores[k] = finish_score(ctx, frontier[moves[unique[k]].node].cache,
                                                 *applied[unique[k]], std::move(evals[k]), memo);
                    },
                    kParallelExact);
                for (uint32_t k : live) {
                    const double v = scores[k].cost.value;
                    kbest.insert(std::upper_bound(kbest.begin(), kbest.end(), v), v);
                    if (kbest.size() > opt.size_frontier) kbest.pop_back();
                }
                admitted.insert(admitted.end(), live.begin(), live.end());
            }
            std::sort(admitted.begin(), admitted.end());
            res.pruned += unique.size() - admitted.size();
            esp.arg("refined", static_cast<std::uint64_t>(refined));
            esp.arg("scored", static_cast<std::uint64_t>(admitted.size()));
        }
        res.explored += unique.size();
        lsp.arg("admitted", static_cast<std::uint64_t>(admitted.size()));

        // Phases 4 and 5 run under one span that ends with the level.
        obs::span ssp("explore.select", "explore");
        // ---- phase 4: deterministic beam selection -- cost, then signature.
        // Restricting the sort to the admitted set is exact: every pruned
        // candidate was proved strictly worse than `size_frontier` admitted
        // ones, so the selected prefix is identical to the full sort's.
        std::vector<uint32_t> order = admitted;
        std::stable_sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
            if (scores[x].cost.value != scores[y].cost.value)
                return scores[x].cost.value < scores[y].cost.value;
            return applied[unique[x]]->sig < applied[unique[y]]->sig;
        });
        if (order.size() > opt.size_frontier) order.resize(opt.size_frontier);

        res.levels = level + 1;
        res.level_best.push_back(scores[order[0]].cost.value);
        if (scores[order[0]].cost.value < res.best_cost.value) {
            res.best = applied[unique[order[0]]]->child;
            res.best_cost = scores[order[0]].cost;
        }

        // ---- phase 5: survivors derive their caches and become the frontier.
        // Beam-width batches of ms-scale derivations: parallel from 2 up.
        std::vector<node> next(order.size());
        run_tasks(
            pool, order.size(),
            [&](std::size_t k) {
                const move_ref& m = moves[unique[order[k]]];
                const applied_move& am = *applied[unique[order[k]]];
                next[k].g = am.child;
                next[k].cache = derive_cache(ctx, frontier[m.node].g, frontier[m.node].cache, am,
                                             scores[order[k]]);
            },
            kParallelExact);
        frontier = std::move(next);
    }
    count_search(res);
    return res;
}

}  // namespace asynth::explore
