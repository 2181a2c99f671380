// Per-node memoised analyses for the incremental Fig. 9 exploration engine.
//
// The reference search re-derives everything (excitation regions, the CSC
// conflict count, every signal's minimised next-state cover) from scratch for
// every candidate reduction.  Almost all of that work is redundant: a
// FwdRed(a, b) removes arcs of one event and prunes a few states, so most ER
// components, most code groups and most signal covers are bit-for-bit
// identical to the parent's.  An analysis_cache captures exactly the parts a
// move can invalidate, at base-state granularity:
//
//  * excitation-region components per event, with the per-event state union
//    used to decide which events a given arc/state removal can disturb;
//  * the enabled-event row of every live state (one bit per event), which is
//    what both the CSC conflict count and the next-state functions read;
//  * live states grouped by binary code in first-encounter order -- the CSC
//    structure -- with a conflict-pair count per group so Delta(csc_pairs)
//    only touches groups containing removed/disturbed states;
//  * per-signal spec keys: an order-sensitive 128-bit hash of the ON/OFF
//    code sequence exactly as derive_nextstate() would emit it.  Equal keys
//    mean the heuristic minimiser would see the identical input, so the
//    cached literal count can be reused without re-minimising.
//
// Keys and specs come from one group walk per move (detail::walk_groups):
// every surviving state's next-state vector is computed once, with word
// operations, and folded into two signal masks per code group -- the signals
// that are 1 at every surviving member and those that are 0 at every one.
// Each signal's key and ON/OFF spec is then read off those per-group records
// instead of re-walking the states once per signal.
//
// Every cached quantity is *exact*: the incremental engine reproduces the
// reference engine's costs to the last bit (the corpus equivalence test in
// tests/test_explore.cpp pins this).  The only approximation anywhere is the
// use of 128-bit hashes as identities, whose collision probability over a
// search is negligible.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "boolfn/cover.hpp"
#include "boolfn/incremental_cover.hpp"
#include "core/cost.hpp"
#include "sg/analysis.hpp"
#include "sg/state_graph.hpp"
#include "util/hash.hpp"

namespace asynth::explore {

/// Order-sensitive identity of one signal's next-state specification: the
/// chained hash of the ON and OFF code sequences in derive_nextstate() order.
struct sig_key {
    hash128 on, off;
    [[nodiscard]] bool operator==(const sig_key&) const noexcept = default;
};

/// Cached cost terms of one non-input signal.
struct signal_entry {
    sig_key key;                ///< spec identity at the node
    std::size_t literals = 0;   ///< minimised SOP literal count
    bool estimated = false;     ///< participates in the cost (non-input, has events)
};

/// Live states sharing one binary code, in ascending state order.  Groups are
/// kept in first-encounter order over ascending live states -- the exact
/// iteration order of derive_nextstate() and check_csc().
struct code_group {
    std::vector<uint32_t> states;     ///< ascending member state ids
    std::size_t conflict_pairs = 0;   ///< member pairs with differing non-input
                                      ///< enabled sets (the group's CSC term)
};

/// Immutable per-search context: base-graph lookups every node shares.
struct context {
    const state_graph* base = nullptr;
    cost_params params;
    std::size_t nevents = 0;
    std::size_t words = 0;                  ///< 64-bit words per enabled-event row
    std::vector<uint64_t> noninput_mask;    ///< row mask of non-input events
    std::vector<char> input_event;          ///< per event: signal is an input
    struct signal_events {
        int plus = -1;          ///< event id of sig+ (-1: absent)
        int minus = -1;         ///< event id of sig- (-1: absent)
        bool estimated = false; ///< non-input with at least one event
    };
    std::vector<signal_events> sig_events;  ///< per signal
    std::vector<uint64_t> code_hash;        ///< per state: mixed hash of its code
    /// Signal masks, `sig_words` 64-bit words each (the width of a state code).
    std::size_t sig_words = 0;
    std::vector<uint64_t> estimated_mask;   ///< the estimated signals
    /// Per event, `sig_words` words each: the estimated signal the event
    /// raises (`rise`) or lowers (`fall`) -- set only for the sig+/sig- event
    /// that sig_events names -- so a state's next-state vector is
    /// rise(row) | (code & ~fall(row)) over its enabled events.
    std::vector<uint64_t> rise, fall;
};

/// The memoised analyses attached to one frontier node.
struct analysis_cache {
    /// Enabled-event rows, `words` words per state, flat.  Rows of dead
    /// states are all-zero.
    std::vector<uint64_t> rows;
    /// Live arc count per event (condition 3 -- "no event disappears" -- is a
    /// counter decrement instead of a full live-arc sweep).
    std::vector<uint32_t> event_arcs;
    /// ER components per event, in excitation_regions() order.
    std::vector<std::vector<er_component>> er;
    /// Union of each event's component states (dirtiness test support).
    std::vector<dyn_bitset> er_union;
    /// CSC structure: code groups in first-encounter order + membership map.
    std::vector<code_group> groups;
    std::vector<uint32_t> group_of;  ///< per state: group index (live states only)
    std::size_t csc_pairs = 0;       ///< sum of per-group conflict pairs
    /// Per-signal cost terms (index: signal id).
    std::vector<signal_entry> signals;
    /// The node's section-7 cost; equals estimate_cost() on the subgraph.
    cost_breakdown cost;
};

[[nodiscard]] context make_context(const state_graph& base, const cost_params& params);

/// One memoised fact about a spec key.  Entries are monotone: a key starts
/// empty, may gain cheap `bounds` from a dominance pass, and is upgraded to
/// `literals` + `cubes` the first time the exact path minimises it.  Every
/// stored value is a pure function of the key, so lookup/upgrade order cannot
/// affect search results.
struct memo_entry {
    /// Exact heuristic literal count, once the key has been minimised.
    std::optional<std::size_t> literals;
    /// The minimised cover itself -- the warm-start parent for future
    /// restrict-and-repair bounds.  Non-null iff `literals` is set.
    std::shared_ptr<const cover> cubes;
    /// Cheap lower/upper bounds from boolfn/bound_literals, when a dominance
    /// pass bounded the key before (or instead of) minimising it.
    std::optional<literal_bounds> bounds;
};

/// Search-global memo: spec identity -> literal facts (exact counts, covers,
/// dominance bounds).  Thread-safe (the parallel expander scores moves
/// concurrently).
class literal_memo {
public:
    [[nodiscard]] std::optional<memo_entry> find(const sig_key& key) {
        std::lock_guard<std::mutex> lock(m_);
        auto it = map_.find(combine(key));
        if (it == map_.end()) return std::nullopt;
        return it->second;
    }
    void insert_exact(const sig_key& key, std::size_t literals,
                      std::shared_ptr<const cover> cubes) {
        std::lock_guard<std::mutex> lock(m_);
        auto& e = map_[combine(key)];
        e.literals = literals;
        e.cubes = std::move(cubes);
    }
    void insert_bounds(const sig_key& key, literal_bounds bounds) {
        std::lock_guard<std::mutex> lock(m_);
        map_[combine(key)].bounds = bounds;
    }

private:
    static hash128 combine(const sig_key& key) noexcept {
        hash128 k = key.on;
        hash128_combine(k, key.off.hi);
        hash128_combine(k, key.off.lo);
        return k;
    }
    std::unordered_map<hash128, memo_entry> map_;
    std::mutex m_;
};

/// Full (non-incremental) cache build: used for the search root and as the
/// oracle the derived caches are tested against.  @p memo, when non-null,
/// is consulted/seeded for the per-signal minimisations.
[[nodiscard]] analysis_cache build_cache(const context& ctx, const subgraph& g,
                                         literal_memo* memo = nullptr);

/// The spec key of an already-assembled ON/OFF specification: the identical
/// chained hash that detail::group_walk::key computes from the group records
/// (pinned in tests/test_logic.cpp).  This is the bridge that lets a
/// consumer holding only a sop_spec -- the logic stage, whose
/// derive_nextstate() emits the same minterm lists in the same order -- look
/// up the search's literal_memo without an analysis_cache.
[[nodiscard]] sig_key key_of_spec(const sop_spec& spec);

// ---- row helpers (shared with move.cpp) ------------------------------------

inline bool row_bit(const uint64_t* row, std::size_t event) noexcept {
    return (row[event >> 6] >> (event & 63U)) & 1U;
}
inline void row_set(uint64_t* row, std::size_t event) noexcept {
    row[event >> 6] |= uint64_t{1} << (event & 63U);
}

// ---- internals shared by analysis_cache.cpp and move.cpp -------------------

namespace detail {

/// Row lookup over a base row array with a sparse override (the child rows of
/// the disturbed states during move scoring).  @p overrides is ascending.
struct row_view {
    const context* ctx = nullptr;
    const std::vector<uint64_t>* rows = nullptr;
    const std::vector<uint32_t>* overrides = nullptr;
    const std::vector<uint64_t>* override_rows = nullptr;

    [[nodiscard]] const uint64_t* operator()(uint32_t state) const noexcept {
        if (overrides) {
            auto it = std::lower_bound(overrides->begin(), overrides->end(), state);
            if (it != overrides->end() && *it == state)
                return override_rows->data() +
                       ctx->words * static_cast<std::size_t>(it - overrides->begin());
        }
        return rows->data() + ctx->words * state;
    }
};

/// The code groups as one node sees them: one record per group with a
/// surviving member, holding that member and the estimated signals whose
/// next-state value f_x (paper section 3) is 1 at every surviving member
/// (`on`) or 0 at every one (`off`).  A signal in neither mask is
/// conflicting in that group, which derive_nextstate() leaves out of both
/// sides; so is the group here.
struct group_walk {
    std::vector<uint32_t> first;  ///< per record: first surviving member state
    std::vector<uint64_t> on;     ///< per record: ctx.sig_words words
    std::vector<uint64_t> off;    ///< per record: ctx.sig_words words
    /// The records in the node's first-encounter order (ascending first
    /// surviving member, the derive_nextstate() order).
    std::vector<uint32_t> order;

    /// The order-sensitive spec key of estimated signal @p signal.
    [[nodiscard]] sig_key key(const context& ctx, uint32_t signal) const;
    /// Every estimated signal's key in one pass (entries of the other
    /// signals stay empty); @p out is indexed by signal.
    void keys(const context& ctx, std::vector<sig_key>& out) const;
    /// The ON/OFF spec of estimated signal @p signal: the identical minterm
    /// lists, in the identical order, that derive_nextstate() emits.
    [[nodiscard]] sop_spec spec(const context& ctx, uint32_t signal) const;
};

/// Walks @p groups once (members with a set bit in @p removed are skipped;
/// @p removed may be null), reading enabled sets through @p rows.
[[nodiscard]] group_walk walk_groups(const context& ctx, const std::vector<code_group>& groups,
                                     const dyn_bitset* removed, const row_view& rows);

/// Conflict pairs within one code group: member pairs whose non-input enabled
/// sets differ (members in @p removed skipped; may be null).
[[nodiscard]] std::size_t group_conflicts(const context& ctx, const std::vector<uint32_t>& members,
                                          const dyn_bitset* removed, const row_view& rows);

/// Live states grouped by code in first-encounter order (= ascending minimum
/// member, the derive_nextstate()/check_csc() iteration order).
void build_groups(const context& ctx, const subgraph& g, std::vector<code_group>& groups,
                  std::vector<uint32_t>& group_of);

/// Enabled-event rows of every live state.
[[nodiscard]] std::vector<uint64_t> build_rows(const context& ctx, const subgraph& g);

/// Minimised literal count of @p spec via minimize_heuristic(), memoised
/// under @p key when @p memo is non-null.
[[nodiscard]] std::size_t minimise_literals(const context& ctx, const sop_spec& spec,
                                            const sig_key& key, literal_memo* memo);

}  // namespace detail

}  // namespace asynth::explore
