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
// bound minimiser used for final equations and as a test oracle.  A cheap
// literal lower bound (literal_lower_bound()) lets the search discard
// candidates without minimising them at all.
//
// The exact minimiser's primes come from a minimal-transversal enumerator:
// a cube through ON minterm m that keeps literal set L avoids OFF minterm o
// iff L hits the row m XOR o, so the primes through m are the minimal
// transversals of m's OFF rows.  Its cost follows the number of primes, not
// the implicant lattice above m, which a large DC-set makes exponential.
// The primes come out in the order a literal-dropping DFS over that lattice
// would reach them (prime_implicants()), and the set cover breaks cost ties
// by that order, so the order is part of every synthesised equation.  The
// branch and bound takes its first bound from the heuristic's own cover;
// callers pass no seed.
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

/// Every prime implicant of ON u DC that covers an ON minterm, or nullopt
/// when there are at least @p max_primes of them.  Order: primes grouped by
/// the first ON minterm (in `spec.on` order) they cover, each group sorted by
/// its ascending list of don't-care variables, compared lexicographically --
/// the order in which a depth-first search that drops literals in ascending
/// variable order from each ON minterm first reaches them.  An ON minterm
/// that is also an OFF minterm contributes its own minterm cube.  The result
/// is an antichain of distinct cubes.
[[nodiscard]] std::optional<std::vector<cube>> prime_implicants(const sop_spec& spec,
                                                                std::size_t max_primes);

/// Exact minimiser (all primes + branch-and-bound set cover).  Falls back to
/// the heuristic result when the limits are exceeded; `*was_exact` reports
/// which happened.
[[nodiscard]] cover minimize_exact(const sop_spec& spec, const exact_limits& lim = {},
                                   bool* was_exact = nullptr);

/// True iff the cover includes every ON minterm and excludes every OFF one.
[[nodiscard]] bool verify_cover(const cover& c, const sop_spec& spec);

/// Sound lower bound on the literal count of ANY valid cover of @p spec
/// (0 when ON or OFF is empty), by a forced-literal clique argument: an OFF
/// minterm at Hamming distance 1 from an ON minterm m forces a specific
/// literal into every cube covering m, and ON minterms whose forced literals
/// disagree can never share a cube, so a greedy clique of pairwise-
/// incompatible ON minterms yields a per-cube literal sum no cover can beat.
/// O(|ON| * |OFF| + |ON|^2) word operations -- no expansion, no covering.
/// The search's dominance filter prunes on it (src/explore/move.hpp); the
/// brute-force literal optimum pins its soundness in tests/test_boolfn.cpp.
[[nodiscard]] std::size_t literal_lower_bound(const sop_spec& spec);

}  // namespace asynth

template <>
struct std::hash<asynth::cube> {
    std::size_t operator()(const asynth::cube& c) const noexcept { return c.hash(); }
};
