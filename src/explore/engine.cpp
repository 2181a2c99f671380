#include "explore/engine.hpp"

#include <algorithm>
#include <chrono>
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
/// @p refined counts the bounded-quality provisional beam members that were
/// exactly refined (0 outside quality::bounded).
void count_search(const search_result& r, std::size_t refined = 0) {
    auto& reg = obs::registry::global();
    static obs::counter& explored =
        reg.get_counter("asynth_explore_explored_total", "Unique candidate SGs scored");
    static obs::counter& pruned = reg.get_counter(
        "asynth_explore_pruned_total", "Candidates discarded on bounds without exact scoring");
    explored.add(r.explored);
    pruned.add(r.pruned);
    static obs::counter& refined_total = reg.get_counter(
        "asynth_explore_refined_total",
        "Bounded-quality provisional beam members refined by exact minimisation");
    refined_total.add(refined);
    if (r.quality == search_quality::bounded) {
        static obs::histogram& gap = reg.get_histogram(
            "asynth_explore_bound_gap", {0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0},
            "Final bound gap reported by bounded-quality searches");
        gap.observe(r.bound_gap);
    }
}

}  // namespace

search_result reduce_concurrency_incremental(const subgraph& initial,
                                             const search_options& options) {
    // The delta validity checks assume the root is output-persistent (the
    // search keeps that invariant thereafter).  A hand-built SG that is not
    // falls back to the reference engine, whose full per-candidate
    // speed-independence recheck handles it -- the engines stay equivalent
    // on every input, not just well-formed ones.
    // The fallback ignores the quality dial: the reference engine is the
    // exact path, so the result is labelled exact with a zero gap -- an
    // exact answer under a non-exact request is always sound.
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
    // Heap-allocated so the result can hand the memo (exact covers per spec
    // key) onward: the pipeline's logic stage warm-starts its exact
    // minimisation from the winning candidate's covers (see pipeline.cpp).
    auto memo_ptr = std::make_shared<literal_memo>();
    literal_memo& memo = *memo_ptr;

    // One persistent pool per search (ROADMAP item): the per-level phases
    // dispatch several small batches each, and constructing a fresh pool per
    // batch spent more time spawning threads than scoring moves.
    std::optional<batch::work_stealing_pool> pool_storage;
    if (opt.jobs > 1) pool_storage.emplace(opt.jobs);
    batch::work_stealing_pool* pool = pool_storage ? &*pool_storage : nullptr;

    search_result res;
    res.best = initial;
    res.explored = 1;
    res.memo = memo_ptr;
    res.quality = opt.quality;
    std::size_t refined = 0;  // bounded-quality exact refinements (obs only)
    const auto search_start = std::chrono::steady_clock::now();

    std::vector<node> frontier(1);
    frontier[0].g = initial;
    frontier[0].cache = build_cache(ctx, initial, &memo);
    res.best_cost = frontier[0].cache.cost;

    std::unordered_set<hash128> transposition{initial.signature128()};

    for (std::size_t level = 0; level < opt.max_levels && !frontier.empty(); ++level) {
        // ---- anytime deadline, checked between levels only (outside every
        // parallel region, so jobs-independence of the admission path is
        // untouched).  The trivial bound best_cost - 0 is sound: no
        // unexplored configuration can cost less than the cost floor 0.
        if (opt.quality == search_quality::anytime && opt.deadline_ms > 0 &&
            std::chrono::steady_clock::now() - search_start >=
                std::chrono::milliseconds(opt.deadline_ms)) {
            res.deadline_hit = true;
            res.bound_gap = res.best_cost.value;
            break;
        }
        obs::span lsp("explore.level", "explore");
        lsp.arg("level", static_cast<std::uint64_t>(level));
        // ---- enumerate candidate moves in the reference engine's order:
        // frontier order, then ER components ascending by event.
        std::vector<move_ref> moves;
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
        std::vector<std::optional<applied_move>> applied(moves.size());
        run_tasks(pool, moves.size(), [&](std::size_t i) {
            const move_ref& m = moves[i];
            applied[i] = apply_move(ctx, frontier[m.node].g, frontier[m.node].cache, *m.a, *m.b);
            if (applied[i] && !opt.keep_concurrent.empty() &&
                !kept_pairs_alive(applied[i]->child, opt.keep_concurrent))
                applied[i].reset();
        });

        // ---- phase 2: transposition dedupe, serially in enumeration order
        // (the reference engine's `explored` semantics, with 128-bit keys).
        std::vector<uint32_t> unique;
        for (std::size_t i = 0; i < applied.size(); ++i) {
            if (!applied[i]) continue;
            if (transposition.insert(applied[i]->sig).second)
                unique.push_back(static_cast<uint32_t>(i));
            else
                applied[i].reset();
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
        // Smallest optimistic cost among this level's never-refined
        // candidates (bounded quality only): the gap accounting below
        // measures the selection against it.
        std::optional<double> min_pruned_lo;
        const bool bounded = opt.quality == search_quality::bounded;
        if (!bounded && opt.minimizer == minimizer_mode::exact) {
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
            // ---- phase 3a: bound every candidate (parallel, cheap).
            std::vector<move_eval> evals(unique.size());
            {
                obs::span bsp("explore.bound", "explore");
                bsp.arg("bounded", static_cast<std::uint64_t>(unique.size()));
                run_tasks(pool, unique.size(), [&](std::size_t k) {
                    const move_ref& m = moves[unique[k]];
                    evals[k] = bound_move(ctx, frontier[m.node].g, frontier[m.node].cache,
                                          *applied[unique[k]], memo);
                });
            }
            obs::span esp("explore.exact", "explore");

            // ---- phase 3b: exactly score the beam-width most promising
            // candidates to establish the admission cost.  The dominance
            // filter seeds by the *upper* bound (a guaranteed-achievable
            // cost makes the tightest threshold); bounded quality seeds by
            // the *lower* bound -- the provisional beam the mode admits on.
            // Seeding only affects how tight the initial threshold is, never
            // which candidates the beam finally selects.
            std::vector<uint32_t> by_hi(unique.size());
            std::iota(by_hi.begin(), by_hi.end(), 0u);
            std::stable_sort(by_hi.begin(), by_hi.end(), [&](uint32_t x, uint32_t y) {
                const double vx = bounded ? evals[x].value_lo : evals[x].value_hi;
                const double vy = bounded ? evals[y].value_lo : evals[y].value_hi;
                if (vx != vy) return vx < vy;
                return applied[unique[x]]->sig < applied[unique[y]]->sig;
            });
            const std::size_t nseed = std::min(by_hi.size(), opt.size_frontier);
            run_tasks(
                pool, nseed,
                [&](std::size_t i) {
                    const uint32_t k = by_hi[i];
                    scores[k] = finish_score(ctx, frontier[moves[unique[k]].node].cache,
                                             *applied[unique[k]], std::move(evals[k]), memo);
                },
                kParallelExact);
            admitted.assign(by_hi.begin(), by_hi.begin() + static_cast<std::ptrdiff_t>(nseed));

            // ---- phase 3c: lazy refinement to the no-displacement fixpoint
            // (the dominance prune; bounded quality runs the identical loop
            // from its lower-bound seed).  A candidate whose optimistic
            // cost is strictly worse than `size_frontier` exact scores cannot
            // be among the `size_frontier` best (ties keep their signature
            // chance, so only strict inequality prunes).  The remaining
            // candidates are visited in ascending optimistic cost and scored
            // in chunks; each chunk tightens the admission cost (the
            // size_frontier-th smallest exact value so far), so the first
            // candidate above it ends the level -- everything after is
            // provably out (the list is sorted by the very bound we prune
            // on).  The chunk size is a constant, but with jobs > 1 the
            // exactly-scored set (and so `res.pruned`) can still vary
            // run-to-run: sibling moves race benignly to bound a shared key
            // from different warm covers, and the last writer's upper bound
            // seeds the sort.  The *selection* never varies -- pruning only
            // ever consults sound lower bounds against exact scores.
            std::vector<uint32_t> rest(by_hi.begin() + static_cast<std::ptrdiff_t>(nseed),
                                       by_hi.end());
            std::stable_sort(rest.begin(), rest.end(), [&](uint32_t x, uint32_t y) {
                if (evals[x].value_lo != evals[y].value_lo)
                    return evals[x].value_lo < evals[y].value_lo;
                return applied[unique[x]]->sig < applied[unique[y]]->sig;
            });
            std::vector<double> kbest;  // ascending, capped at size_frontier
            for (uint32_t k : admitted) kbest.push_back(scores[k].cost.value);
            std::sort(kbest.begin(), kbest.end());
            constexpr std::size_t chunk_cap = 16;
            std::vector<uint32_t> chunk;
            std::size_t i = 0;
            while (i < rest.size() && evals[rest[i]].value_lo <= kbest.back()) {
                chunk.clear();
                while (i < rest.size() && chunk.size() < chunk_cap &&
                       evals[rest[i]].value_lo <= kbest.back())
                    chunk.push_back(rest[i++]);
                run_tasks(
                    pool, chunk.size(),
                    [&](std::size_t j) {
                        const uint32_t k = chunk[j];
                        scores[k] = finish_score(ctx, frontier[moves[unique[k]].node].cache,
                                                 *applied[unique[k]], std::move(evals[k]), memo);
                    },
                    kParallelExact);
                for (uint32_t k : chunk) {
                    const double v = scores[k].cost.value;
                    if (v < kbest.back()) {
                        kbest.insert(std::lower_bound(kbest.begin(), kbest.end(), v), v);
                        kbest.pop_back();
                    }
                }
                admitted.insert(admitted.end(), chunk.begin(), chunk.end());
            }
            if (bounded) {
                // Everything left in `rest` was pruned on its bound without
                // refinement; the cheapest such bound feeds the gap
                // accounting after selection (at the fixpoint it exceeds the
                // admission cost, so the achieved gap is 0 -- unless a bound
                // was unsound, which the gap would then report rather than
                // silently absorb).
                refined += admitted.size();
                if (i < rest.size()) min_pruned_lo = evals[rest[i]].value_lo;
            }
            std::sort(admitted.begin(), admitted.end());
            res.pruned += unique.size() - admitted.size();
            esp.arg("scored", static_cast<std::uint64_t>(admitted.size()));
        }
        res.explored += unique.size();
        lsp.arg("admitted", static_cast<std::uint64_t>(admitted.size()));

        // ---- phase 4: deterministic beam selection -- cost, then signature.
        // Restricting the sort to the admitted set is exact in every mode:
        // every pruned candidate was proved strictly worse than
        // `size_frontier` admitted ones, so the selected prefix is identical
        // to the full sort's.  Bounded quality additionally prices its
        // pruning below -- the gap is 0 whenever the bounds were sound.
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
        if (bounded) {
            // The cheapest never-refined candidate had exact cost >=
            // min_pruned_lo (the lower bound is sound), so the level's price
            // is at most level_best - min_pruned_lo when that is positive.
            // At the refinement fixpoint min_pruned_lo exceeds the admission
            // cost and the achieved gap is exactly 0; a nonzero entry here
            // means a bound under-estimated -- reported, never hidden.
            const double gap =
                min_pruned_lo
                    ? std::max(0.0, scores[order[0]].cost.value - *min_pruned_lo)
                    : 0.0;
            res.level_gap.push_back(gap);
            res.bound_gap += gap;
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
    count_search(res, refined);
    return res;
}

}  // namespace asynth::explore
