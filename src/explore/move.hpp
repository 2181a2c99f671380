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
//
// The dominance filter splits that score into three tiers, and a candidate
// pays only for the tiers it survives: floor_move() (the CSC delta plus the
// literals of the signals the move cannot change), bound_move() (the group
// walk plus a lower bound per changed signal) and finish_score() (the exact
// minimisation, equal to score_move()).
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

/// Partial evaluation of one applied move -- the dominance filter's bound,
/// refined in two tiers.  The CSC term is exact in both (a counting delta);
/// the literal term is a sound lower bound: no exact score of this move can
/// be smaller than value_lo, so a candidate whose value_lo is strictly worse
/// than `size_frontier` already-exact scores can be discarded without ever
/// minimising.
///  * floor_move(): the literals of the signals the move provably leaves
///    unchanged, and nothing for the rest.  No walk, no keys, no spec.
///  * bound_move(): one group walk re-keys the changed signals; each adds
///    its exact memoised count or literal_lower_bound() of its spec.
struct move_eval {
    std::size_t csc = 0;      ///< exact Delta-adjusted csc_pairs of the child
    std::size_t states = 0;   ///< child live states
    std::size_t lits_lo = 0;  ///< sound lower bound on the literal total
    double value_lo = 0.0;    ///< cost with lits_lo (sound lower bound)
    /// Changed-key signals in the exact scorer's canonical order (filled by
    /// bound_move()).  Specs are deliberately NOT materialised here: a pruned
    /// candidate never assembles one, and finish_score() rebuilds the
    /// (deterministic) group order from the parent cache for the few
    /// candidates that survive.
    struct changed_signal {
        uint32_t signal = 0;
        sig_key key;
        std::optional<std::size_t> literals;  ///< exact count, when already known
    };
    std::vector<changed_signal> changed;
};

/// The cheap first tier of @p am's bound, from the parent's cache alone.
[[nodiscard]] move_eval floor_move(const context& ctx, const analysis_cache& cache,
                                   const applied_move& am);

/// Refines @p floor (floor_move() of the same move) to the second tier.
/// Lower bounds of new keys are memoised in @p memo (and reused from it), so
/// sibling moves that converge to the same spec bound it once -- and
/// assemble its minterm lists at most once.  Every value it reads or stores
/// is a pure function of a spec key, so the result does not depend on which
/// thread bounded a shared key first.
[[nodiscard]] move_eval bound_move(const context& ctx, const analysis_cache& cache,
                                   const applied_move& am, move_eval floor,
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
