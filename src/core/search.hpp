// The concurrency-reduction exploration of Fig. 9: an alpha-beta-style beam
// search over state graphs.  Each level applies every admissible
// FwdRed(e2, e1) to every member of the frontier; the `size_frontier` best
// candidates (by the section-7 cost function) survive.  The search is
// monotone -- every level has strictly fewer arcs -- so it terminates, and
// the best configuration over *all* explored SGs is returned.
//
// Keep_Conc pairs are honoured two ways: candidate reductions directly
// targeting a kept pair are skipped (the paper's rule), and reductions whose
// side effects destroy a kept pair's concurrency are rejected as well.
#pragma once

#include <vector>

#include "core/cost.hpp"
#include "core/reduce.hpp"
#include "petri/stg.hpp"
#include "sg/state_graph.hpp"

namespace asynth {

/// Which implementation of the Fig. 9 exploration to run.  Both engines walk
/// the same beam (same candidates, same costs, same deterministic tie-break)
/// and return the same result; they differ only in how the work is done.
enum class search_engine : uint8_t {
    /// The original copy-everything implementation: every candidate is fully
    /// materialised and re-analysed from scratch.  Kept as the oracle the
    /// incremental engine is tested against.
    reference,
    /// src/explore/: delta-evaluated moves over memoised per-node analyses,
    /// a 128-bit transposition table, and an optional parallel expander.
    incremental,
};

/// How the incremental engine obtains the literal term of Def. 5.2 when
/// scoring candidates.  Both modes produce bit-identical search results --
/// the dominance filter only ever discards candidates it can *prove* (via a
/// sound lower bound) cannot enter the beam; every admitted candidate is
/// scored by the same heuristic minimisation either way.  The reference
/// engine always scores exactly and ignores this knob.
enum class minimizer_mode : uint8_t {
    /// Every validity-checked candidate is exactly minimised (the oracle the
    /// dominance path is tested against).
    exact,
    /// Candidates are bounded first (boolfn/incremental_cover): the beam-width
    /// best upper bounds are exactly scored to establish the admission cost,
    /// and candidates whose optimistic bound is strictly worse are discarded
    /// without ever running the minimiser.
    incremental,
};

/// Knobs of the Fig. 9 exploration.
struct search_options {
    /// Beam width: candidates kept per level (the paper's size_frontier).
    std::size_t size_frontier = 4;
    /// Safety cap on exploration depth; the search is monotone in arcs, so
    /// it normally terminates well before this.
    std::size_t max_levels = 128;
    /// Section-7 cost function parameters driving candidate ranking.
    cost_params cost;
    /// Unordered pairs whose concurrency must be preserved (Keep_Conc).
    std::vector<std::pair<sg_event, sg_event>> keep_concurrent;
    /// Engine selection for the beam strategy.  Not a product knob: the
    /// default incremental engine is the one search path, and `reference`
    /// stays reachable only for tests, the `engines` fuzz oracle and
    /// bench/reduce_search.
    search_engine engine = search_engine::incremental;
    /// Candidate-scoring strategy of the incremental engine.  Results are
    /// identical; `exact` is kept only as the oracle of the `minimizers` fuzz
    /// oracle, tests/test_explore.cpp and bench/reduce_search.
    minimizer_mode minimizer = minimizer_mode::incremental;
    /// Worker threads for the incremental engine's frontier expander; <= 1
    /// runs serially.  Results are identical for every value (the expander
    /// merges in a deterministic order); only wall-clock changes.
    std::size_t jobs = 1;
    /// Wall-clock budget in milliseconds (CLI: --deadline); 0 means no
    /// deadline.  The incremental engine checks it between levels, outside
    /// all parallel regions, so the jobs-independence of the admission path
    /// is untouched; a search the deadline does not cut is bit-identical to
    /// an undeadlined one.  The reference engine and the none/full
    /// strategies ignore it.
    std::size_t deadline_ms = 0;
};

/// Outcome of one exploration run.
struct search_result {
    subgraph best;                  ///< lowest-cost configuration found anywhere
    cost_breakdown best_cost;       ///< its cost evaluation
    std::size_t explored = 0;       ///< distinct SGs evaluated
    std::size_t levels = 0;         ///< exploration depth reached
    std::vector<double> level_best; ///< best cost per level (trace)
    /// Candidates the dominance filter discarded without exact minimisation
    /// (counted inside `explored`; always 0 for minimizer_mode::exact and
    /// for the reference engine).  Purely observability -- two runs differing
    /// only in `minimizer` return identical results apart from this field,
    /// and with jobs > 1 this one field may vary run-to-run (benign memo
    /// races shift how much work the filter skips, never what is selected).
    std::size_t pruned = 0;
    /// Did `deadline_ms` cut the search short?  When set, `best` is the
    /// best-so-far configuration of the levels that did run.
    bool deadline_hit = false;
};

/// Runs the Fig. 9 exploration from @p initial.
[[nodiscard]] search_result reduce_concurrency(const subgraph& initial,
                                               const search_options& opt);

/// Greedy full reduction: repeatedly applies the best admissible FwdRed until
/// none is left, regardless of whether the cost improves.  Produces the
/// "full reduction" / "original reduced" rows of Tables 1 and 2.
[[nodiscard]] search_result reduce_fully(const subgraph& initial, const search_options& opt);

/// Translates the Keep_Conc label pairs recorded in an STG into SG events.
[[nodiscard]] std::vector<std::pair<sg_event, sg_event>> keepconc_events(const stg& net);

// ---- shared between the reference and incremental engines -------------------
// Both engines must agree on Keep_Conc semantics to the letter, so the three
// predicates live here rather than being duplicated in src/explore/.

/// Does @p keep contain the unordered pair (a, b)?
[[nodiscard]] bool is_kept_pair(const std::vector<std::pair<sg_event, sg_event>>& keep,
                                const sg_event& a, const sg_event& b);

/// All Keep_Conc pairs still concurrent in @p g?
[[nodiscard]] bool kept_pairs_alive(const subgraph& g,
                                    const std::vector<std::pair<sg_event, sg_event>>& keep);

/// Keep_Conc pairs that are not even concurrent in the starting SG cannot be
/// preserved and must not veto every reduction; drop them up front.
[[nodiscard]] std::vector<std::pair<sg_event, sg_event>> effective_keepconc(
    const subgraph& g, const std::vector<std::pair<sg_event, sg_event>>& keep);

}  // namespace asynth
