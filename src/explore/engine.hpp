// The incremental Fig. 9 exploration engine (the default and only product
// search path).  Same beam, same results as core/search's reference engine --
// the per-level candidate set, every candidate's cost, the deterministic
// (cost, signature) beam order and therefore search_result are identical;
// tests/test_explore.cpp pins the equivalence over the whole corpus.
//
// What changes is the work per candidate:
//
//  * every frontier node carries an analysis_cache (memoised excitation
//    regions, CSC structure, per-signal minimised covers);
//  * candidate moves are applied with delta validity checks and delta-scored
//    against the parent's cache (move.hpp) -- a candidate that prunes no
//    state re-minimises at most one signal instead of all of them;
//  * with search_options::minimizer == incremental (the default) candidates
//    are dominance-filtered best-first: every candidate gets a cheap floor
//    (the exact CSC delta plus the literals of the signals the move cannot
//    change), candidates are visited in ascending floor order, refined to a
//    lower bound (boolfn literal_lower_bound) and exactly scored only while
//    that bound can still beat the beam's admission cost -- selection stays
//    bit-identical to the exact path because only strictly-dominated
//    candidates are dropped (see the admission logic in engine.cpp);
//  * a 128-bit transposition table replaces the collision-prone
//    std::size_t `explored` set;
//  * with search_options::jobs > 1 the per-level apply/score work fans out
//    over one persistent batch work-stealing pool per search; the expander
//    merges in enumeration order, so results -- the pruned count included --
//    are independent of the job count.
//
// The one knob that may change the result is search_options::deadline_ms:
// when the wall-clock deadline expires the search stops at a level boundary
// and returns the best-so-far configuration with deadline_hit set.  A search
// the deadline does not cut is bit-identical to an undeadlined one.  Only
// this engine honours the deadline; see docs/SEARCH.md.
#pragma once

#include "core/search.hpp"

namespace asynth::explore {

/// Runs the Fig. 9 exploration from @p initial, incrementally.  Returns the
/// same search_result as reduce_concurrency(initial, opt).
[[nodiscard]] search_result reduce_concurrency_incremental(const subgraph& initial,
                                                           const search_options& opt);

}  // namespace asynth::explore
