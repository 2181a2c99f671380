// The move layer of the incremental engine: candidate reductions as
// lightweight descriptors, applied and delta-scored against the parent's
// analysis_cache instead of being re-analysed from scratch.
//
// apply_move() is an exact replacement for forward_reduction() on the search
// path: it produces the identical child subgraph and accepts/rejects the
// identical candidate set, but runs the Definition 5.1 validity battery as a
// delta.  Only states that lost an out-arc (the "disturbed" set D) can gain a
// deadlock or a persistency violation, and "no event disappears" is a counter
// decrement -- so validity costs O(|removed arcs| + |D| * degree) instead of
// a full O(states * degree^2) speed-independence sweep.
//
// score_move() computes the child's section-7 cost as a delta: csc_pairs is
// adjusted only for code groups containing removed/disturbed states, and a
// signal is re-minimised only when its 128-bit spec key differs from the
// parent's (otherwise the parent's literal count is provably reusable).  All
// keys and specs of one move come from a single walk over the code groups
// (child_walk()), not from one walk per signal.  A
// search-global literal_memo additionally dedupes minimisations across
// sibling candidates that converge to the same spec.
#pragma once

#include <optional>
#include <vector>

#include "explore/analysis_cache.hpp"

namespace asynth::explore {

/// One applied (and validity-checked) reduction, plus the delta bookkeeping
/// the scorer and the survivor cache derivation need.
struct applied_move {
    subgraph child;             ///< identical to forward_reduction()'s result
    hash128 sig;                ///< child.signature128() (transposition key)
    dyn_bitset removed_arcs;    ///< live in parent, dead in child
    dyn_bitset removed_states;  ///< pruned by the reduction
    /// D: states live in the child that lost at least one out-arc, ascending.
    std::vector<uint32_t> disturbed;
    /// Child enabled-event rows of the disturbed states, `ctx.words` words
    /// each, in `disturbed` order.
    std::vector<uint64_t> disturbed_rows;
    uint16_t delayed_event = 0;  ///< the reduced event a of FwdRed(a, b)
};

/// Applies FwdRed(a, b) to @p g with delta validity checks.  Returns
/// std::nullopt exactly when forward_reduction(g, a, b) would (given that
/// @p g itself is output-persistent, which the search maintains invariantly).
/// @p cache is the parent node's analyses.
[[nodiscard]] std::optional<applied_move> apply_move(const context& ctx, const subgraph& g,
                                                     const analysis_cache& cache,
                                                     const er_component& a,
                                                     const er_component& b);

/// Cost evaluation of one applied move.
struct move_score {
    cost_breakdown cost;  ///< equals estimate_cost(child, ctx.params)
    /// Signals whose spec key changed: their fresh key + literal count.
    /// Signals absent from this list provably kept the parent's entry.
    struct sig_update {
        uint32_t signal = 0;
        sig_key key;
        std::size_t literals = 0;
    };
    std::vector<sig_update> updates;
};

/// Delta-scores @p am against the parent's cache.
[[nodiscard]] move_score score_move(const context& ctx, const subgraph& parent,
                                    const analysis_cache& cache, const applied_move& am,
                                    literal_memo& memo);

/// Partial (bounded) evaluation of one applied move -- the cheap first phase
/// of the dominance filter.  The CSC term is exact (it is a counting delta);
/// the literal term is bracketed instead of minimised: signals whose spec key
/// kept the parent's value contribute exactly, and each changed signal
/// contributes either an exact memo hit or [lower, upper] bounds from
/// boolfn/bound_literals warm-started on the parent cover.  value_lo is a
/// sound optimistic cost -- no exact score of this move can be smaller -- so
/// a candidate whose value_lo is strictly worse than `size_frontier`
/// already-exact scores can be discarded without ever minimising.  value_hi
/// is only a seeding heuristic (the heuristic minimiser may exceed it) and
/// must never be used to prune.
///
/// search_quality::bounded seeds its provisional beam on value_lo instead of
/// value_hi and then widens refinement to the same no-displacement fixpoint
/// as the dominance filter; the per-level price of anything never refined is
/// quantified into search_result::level_gap (sound because value_lo is
/// sound, and 0 at the fixpoint; see engine.cpp).  The value_hi never-prune
/// rule holds in every mode.
struct move_eval {
    std::size_t csc = 0;     ///< exact Delta-adjusted csc_pairs of the child
    std::size_t states = 0;  ///< child live states
    /// Bracketed literal total over all estimated signals.
    std::size_t lits_lo = 0, lits_hi = 0;
    double value_lo = 0.0;  ///< cost with lits_lo (sound lower bound)
    double value_hi = 0.0;  ///< cost with lits_hi (seeding heuristic only)
    /// Changed-key signals in the exact scorer's canonical order.  Specs are
    /// deliberately NOT materialised here: a pruned candidate never assembles
    /// one, and finish_score() rebuilds the (deterministic) group order from
    /// the parent cache for the few candidates that survive.
    struct changed_signal {
        uint32_t signal = 0;
        sig_key key;
        bool resolved = false;      ///< exact literal count already known
        std::size_t literals = 0;   ///< valid when resolved
        literal_bounds bounds;      ///< valid when !resolved
    };
    std::vector<changed_signal> changed;
};

/// Bounded evaluation of @p am against the parent's cache.  Bounds for new
/// keys are memoised in @p memo (and reused from it), so sibling moves that
/// converge to the same spec bound it once -- and assemble its minterm lists
/// at most once.
[[nodiscard]] move_eval bound_move(const context& ctx, const subgraph& parent,
                                   const analysis_cache& cache, const applied_move& am,
                                   literal_memo& memo);

/// Resolves a bounded evaluation into the exact score.  Bit-for-bit equal to
/// score_move() on the same (cache, am) pair (pinned in
/// tests/test_explore.cpp): the unresolved signals run the identical memoised
/// heuristic minimisation, in the identical order, over identically assembled
/// specs.
[[nodiscard]] move_score finish_score(const context& ctx, const analysis_cache& cache,
                                      const applied_move& am, move_eval eval,
                                      literal_memo& memo);

/// The child's group walk, from which score_move(), bound_move() and
/// finish_score() read every changed signal's key and spec: one pass over
/// the parent's code groups, skipping the pruned states and reading the
/// disturbed states' child rows.  Deterministic in (cache, am).
[[nodiscard]] detail::group_walk child_walk(const context& ctx, const analysis_cache& cache,
                                            const applied_move& am);

/// Derives the child's full cache from the parent's: clean ER components and
/// signal entries are copied, dirty ones recomputed; the CSC structure and
/// enabled rows are rebuilt.  Exact: equals build_cache(ctx, am.child).
[[nodiscard]] analysis_cache derive_cache(const context& ctx, const subgraph& parent,
                                          const analysis_cache& parent_cache,
                                          const applied_move& am, const move_score& score);

}  // namespace asynth::explore
