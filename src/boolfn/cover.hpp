// Two-level logic: cubes, covers and minimisation.
//
// Specifications arrive as explicit ON/OFF minterm lists (state codes from
// the SG); the don't-care set is implicitly everything else (unreachable
// codes), which is what makes concurrency reduction shrink logic: fewer
// reachable states -> larger DC-set -> cheaper covers (paper section 7).
//
// Two minimisers are provided: a fast espresso-flavoured heuristic
// (expand-against-OFF + irredundant greedy cover, multi-pass) used inside
// the reshuffling cost function, and an exact prime-enumeration/branch-and-
// bound minimiser used for final equations and as a test oracle.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/dyn_bitset.hpp"

namespace asynth {

/// A product term over n boolean variables.  Per variable the cube stores
/// whether value 1 is allowed (pos) and whether value 0 is allowed (neg):
/// pos&neg = don't care, pos only = positive literal, neg only = negative
/// literal, neither = empty cube.
class cube {
public:
    cube() = default;
    /// The universal cube (all variables don't-care).
    explicit cube(std::size_t nvars) : pos_(nvars, true), neg_(nvars, true) {}
    /// The minterm cube of @p point.
    static cube minterm(const dyn_bitset& point);

    [[nodiscard]] std::size_t nvars() const noexcept { return pos_.size(); }

    void set_literal(std::size_t var, bool positive) {
        pos_.assign(var, positive);
        neg_.assign(var, !positive);
    }
    void set_dc(std::size_t var) {
        pos_.set(var);
        neg_.set(var);
    }

    /// +1 = positive literal, -1 = negative literal, 0 = don't care.
    [[nodiscard]] int literal(std::size_t var) const {
        const bool p = pos_.test(var), n = neg_.test(var);
        if (p && n) return 0;
        return p ? +1 : -1;
    }
    [[nodiscard]] bool is_dc(std::size_t var) const { return pos_.test(var) && neg_.test(var); }
    [[nodiscard]] std::size_t literal_count() const;

    [[nodiscard]] bool covers(const dyn_bitset& point) const;
    /// True iff every point of @p o is also covered by this cube.
    [[nodiscard]] bool contains(const cube& o) const;
    [[nodiscard]] bool intersects(const cube& o) const;
    /// The literals this cube cannot drop on its own: bit v is set iff some
    /// point of @p off differs from the cube in literal v and nowhere else,
    /// so that the cube with v dropped covers it.  When the cube already
    /// covers a point of @p off, every bit is set.  One pass over @p off
    /// answers the drop test for every literal at once.
    [[nodiscard]] dyn_bitset blocking_literals(const std::vector<dyn_bitset>& off) const;

    [[nodiscard]] bool operator==(const cube&) const = default;
    [[nodiscard]] std::size_t hash() const noexcept;

    /// "a b' c" style rendering with the given variable names.
    [[nodiscard]] std::string to_string(const std::vector<std::string>& names) const;

private:
    dyn_bitset pos_, neg_;
};

/// A sum of cubes.
struct cover {
    std::size_t nvars = 0;    ///< variable count shared by all cubes
    std::vector<cube> cubes;  ///< the product terms (empty = constant 0)

    [[nodiscard]] bool covers(const dyn_bitset& point) const;
    [[nodiscard]] std::size_t literal_count() const;
    [[nodiscard]] std::string to_string(const std::vector<std::string>& names) const;
};

/// ON/OFF minterm specification; DC = complement of (on u off).
struct sop_spec {
    std::size_t nvars = 0;
    std::vector<dyn_bitset> on, off;
};

/// Espresso-flavoured heuristic minimiser.
[[nodiscard]] cover minimize_heuristic(const sop_spec& spec, unsigned passes = 2);

struct exact_limits {
    std::size_t max_primes = 4096;
    std::size_t max_branch_nodes = 200000;
};

/// Exact minimiser (all primes + branch-and-bound set cover).  Falls back to
/// the heuristic result when the limits are exceeded; `*was_exact` reports
/// which happened.
///
/// @p heuristic_seed, when non-null and a valid cover of @p spec, substitutes
/// for the internal minimize_heuristic() call that seeds the branch-and-bound
/// incumbent -- the warm-start hook the logic stage feeds from the search's
/// literal_memo.  The result is identical for every valid seed: a completed
/// set cover is bound-independent (the incumbent update is strict), and a
/// search that hits the node budget is re-run cold, so only the saved
/// heuristic pass -- never the answer -- depends on the seed.  An invalid
/// seed is ignored.
[[nodiscard]] cover minimize_exact(const sop_spec& spec, const exact_limits& lim = {},
                                   bool* was_exact = nullptr,
                                   const cover* heuristic_seed = nullptr);

/// True iff the cover includes every ON minterm and excludes every OFF one.
[[nodiscard]] bool verify_cover(const cover& c, const sop_spec& spec);

// ---- minimiser building blocks (shared with boolfn/incremental_cover) ------
// The espresso-flavoured passes are built from two kernels that the
// incremental cover engine reuses for its targeted repairs; they live here so
// the repair path cannot drift from the minimiser's semantics.

namespace detail {

/// Expands @p c by dropping literals (in @p order) while it stays disjoint
/// from every OFF minterm.
[[nodiscard]] cube expand_against_off(cube c, const std::vector<dyn_bitset>& off,
                                      const std::vector<std::size_t>& order);

/// Greedy irredundant cover of the ON minterms by the candidate cubes:
/// essentials first, then maximum uncovered gain (ties towards fewer
/// literals, then lower index).
[[nodiscard]] std::vector<cube> greedy_cover(const std::vector<cube>& candidates,
                                             const std::vector<dyn_bitset>& on);

}  // namespace detail

}  // namespace asynth
