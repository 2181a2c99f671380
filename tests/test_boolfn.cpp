// Cube/cover algebra and the two minimisers, cross-checked against brute
// force truth tables on random functions; minimize_exact against a
// brute-force optimum over all 3^n cubes; prime_implicants against the
// literal-dropping DFS it replaced; plus the literal lower bound against a
// brute-force literal-optimal cover and a plain-bitset reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "benchmarks/corpus.hpp"
#include "benchmarks/generate.hpp"
#include "boolfn/cover.hpp"
#include "logic/synthesis.hpp"
#include "pipeline/pipeline.hpp"
#include "util/hash.hpp"

using namespace asynth;

namespace {

dyn_bitset point(std::size_t n, uint64_t bits) {
    dyn_bitset p(n);
    for (std::size_t i = 0; i < n; ++i)
        if (bits & (1ULL << i)) p.set(i);
    return p;
}

/// Random partial function over n vars: each minterm is ON / OFF / DC.
sop_spec random_spec(std::size_t n, uint64_t seed, double p_on = 0.3, double p_off = 0.4) {
    xorshift64 rng(seed);
    sop_spec s;
    s.nvars = n;
    for (uint64_t m = 0; m < (1ULL << n); ++m) {
        const double r = rng.next_unit();
        if (r < p_on) s.on.push_back(point(n, m));
        else if (r < p_on + p_off) s.off.push_back(point(n, m));
    }
    return s;
}

}  // namespace

TEST(cube, literal_and_cover_basics) {
    cube c(3);
    EXPECT_EQ(c.literal_count(), 0u);
    c.set_literal(0, true);
    c.set_literal(2, false);
    EXPECT_EQ(c.literal_count(), 2u);
    EXPECT_EQ(c.literal(0), 1);
    EXPECT_EQ(c.literal(1), 0);
    EXPECT_EQ(c.literal(2), -1);
    EXPECT_TRUE(c.covers(point(3, 0b001)));   // a=1, b=0, c=0
    EXPECT_TRUE(c.covers(point(3, 0b011)));   // a=1, b=1, c=0
    EXPECT_FALSE(c.covers(point(3, 0b101)));  // c=1 violates c'
    EXPECT_FALSE(c.covers(point(3, 0b000)));  // a=0 violates a
    EXPECT_EQ(c.to_string({"a", "b", "c"}), "a c'");
}

TEST(cube, containment_and_intersection) {
    cube wide(3);
    wide.set_literal(0, true);  // a
    cube narrow(3);
    narrow.set_literal(0, true);
    narrow.set_literal(1, false);  // a b'
    EXPECT_TRUE(wide.contains(narrow));
    EXPECT_FALSE(narrow.contains(wide));
    EXPECT_TRUE(wide.intersects(narrow));
    cube other(3);
    other.set_literal(0, false);  // a'
    EXPECT_FALSE(wide.intersects(other));
    EXPECT_TRUE(cube(3).contains(wide));  // universal cube contains all
}

TEST(minimize, single_cube_function) {
    // f = a (on: a=1 minterms; off: a=0 minterms) over 3 vars.
    sop_spec s;
    s.nvars = 3;
    for (uint64_t m = 0; m < 8; ++m)
        (m & 1 ? s.on : s.off).push_back(point(3, m));
    auto c = minimize_heuristic(s);
    ASSERT_EQ(c.cubes.size(), 1u);
    EXPECT_EQ(c.literal_count(), 1u);
    EXPECT_EQ(c.cubes[0].literal(0), 1);
    EXPECT_TRUE(verify_cover(c, s));
}

TEST(minimize, dont_cares_enable_merging) {
    // ON = {000}, OFF = {111}: everything else DC -> one 1-literal cube.
    sop_spec s;
    s.nvars = 3;
    s.on.push_back(point(3, 0b000));
    s.off.push_back(point(3, 0b111));
    auto c = minimize_heuristic(s);
    ASSERT_EQ(c.cubes.size(), 1u);
    EXPECT_EQ(c.literal_count(), 1u);
    EXPECT_TRUE(verify_cover(c, s));
}

TEST(minimize, xor_needs_two_cubes) {
    sop_spec s;
    s.nvars = 2;
    s.on = {point(2, 0b01), point(2, 0b10)};
    s.off = {point(2, 0b00), point(2, 0b11)};
    auto h = minimize_heuristic(s);
    EXPECT_EQ(h.cubes.size(), 2u);
    EXPECT_EQ(h.literal_count(), 4u);
    EXPECT_TRUE(verify_cover(h, s));
    bool exact = false;
    auto e = minimize_exact(s, exact_limits{}, &exact);
    EXPECT_TRUE(exact);
    EXPECT_EQ(e.cubes.size(), 2u);
}

TEST(minimize, empty_on_set_gives_constant_zero) {
    sop_spec s;
    s.nvars = 4;
    s.off.push_back(point(4, 3));
    EXPECT_TRUE(minimize_heuristic(s).cubes.empty());
    EXPECT_TRUE(minimize_exact(s).cubes.empty());
}

TEST(minimize, tautology_when_off_empty) {
    sop_spec s;
    s.nvars = 3;
    for (uint64_t m = 0; m < 8; ++m) s.on.push_back(point(3, m));
    auto c = minimize_heuristic(s);
    ASSERT_EQ(c.cubes.size(), 1u);
    EXPECT_EQ(c.literal_count(), 0u);  // the universal cube
}

class minimize_random : public ::testing::TestWithParam<uint64_t> {};

TEST_P(minimize_random, heuristic_and_exact_are_correct) {
    const uint64_t seed = GetParam();
    const std::size_t n = 3 + seed % 4;  // 3..6 variables
    auto spec = random_spec(n, seed * 77 + 13);
    auto h = minimize_heuristic(spec, 4);
    EXPECT_TRUE(verify_cover(h, spec)) << "heuristic broken, seed " << seed;
    bool exact = false;
    auto e = minimize_exact(spec, exact_limits{}, &exact);
    EXPECT_TRUE(verify_cover(e, spec)) << "exact broken, seed " << seed;
    // Exact never does worse than the heuristic (cube count first).
    if (exact) {
        EXPECT_LE(e.cubes.size(), h.cubes.size()) << "seed " << seed;
    }
    if (spec.on.empty()) {
        EXPECT_TRUE(h.cubes.empty());
    } else {
        EXPECT_GE(h.cubes.size(), 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, minimize_random, ::testing::Range<uint64_t>(0, 40));

// ---- exactness oracle for prime enumeration --------------------------------

namespace {

/// Every prime implicant of ON u DC that covers an ON minterm, by brute force
/// over all 3^n cubes: a cube avoiding the OFF-set none of whose literals can
/// be dropped without hitting it.
std::vector<cube> brute_force_primes(const sop_spec& spec) {
    auto avoids_off = [&](const cube& c) {
        for (const auto& o : spec.off)
            if (c.covers(o)) return false;
        return true;
    };
    std::vector<cube> primes;
    std::vector<int> digits(spec.nvars, 0);  // 0 = don't care, 1 = pos, 2 = neg
    for (;;) {
        cube c(spec.nvars);
        for (std::size_t v = 0; v < spec.nvars; ++v)
            if (digits[v] != 0) c.set_literal(v, digits[v] == 1);
        bool prime = avoids_off(c);
        for (std::size_t v = 0; prime && v < spec.nvars; ++v) {
            if (c.is_dc(v)) continue;
            cube wider = c;
            wider.set_dc(v);
            if (avoids_off(wider)) prime = false;
        }
        bool useful = false;
        for (const auto& m : spec.on) useful = useful || c.covers(m);
        if (prime && useful) primes.push_back(c);
        std::size_t v = 0;
        while (v < spec.nvars && digits[v] == 2) digits[v++] = 0;
        if (v == spec.nvars) break;
        ++digits[v];
    }
    return primes;
}

/// The minimum of cubes * 1000 + literals over every cover of the ON-set by
/// @p primes (exhaustive branch and bound below @p bound).
std::size_t optimal_prime_cover_cost(const sop_spec& spec, const std::vector<cube>& primes,
                                     std::size_t bound) {
    std::vector<std::vector<std::size_t>> covering(spec.on.size());
    for (std::size_t m = 0; m < spec.on.size(); ++m)
        for (std::size_t p = 0; p < primes.size(); ++p)
            if (primes[p].covers(spec.on[m])) covering[m].push_back(p);
    std::vector<int> covered(spec.on.size(), 0);
    std::size_t best = bound;
    auto dfs = [&](auto&& self, std::size_t cost) -> void {
        std::size_t pick = spec.on.size();
        for (std::size_t m = 0; m < spec.on.size(); ++m)
            if (covered[m] == 0 && (pick == spec.on.size() ||
                                    covering[m].size() < covering[pick].size()))
                pick = m;
        if (pick == spec.on.size()) {
            best = std::min(best, cost);
            return;
        }
        if (cost + 1000 >= best) return;  // one more cube cannot beat best
        for (std::size_t p : covering[pick]) {
            for (std::size_t m = 0; m < spec.on.size(); ++m)
                if (primes[p].covers(spec.on[m])) ++covered[m];
            self(self, cost + 1000 + primes[p].literal_count());
            for (std::size_t m = 0; m < spec.on.size(); ++m)
                if (primes[p].covers(spec.on[m])) --covered[m];
        }
    };
    dfs(dfs, 0);
    return best;
}

std::size_t cover_cost(const cover& c) { return c.cubes.size() * 1000 + c.literal_count(); }

/// The literals @p c cannot drop on its own: bit v is set iff some point of
/// @p off differs from the cube in literal v and nowhere else, so that the
/// cube with v dropped covers it.  When the cube already covers a point of
/// @p off, every bit is set.  One pass over @p off answers the drop test for
/// every literal at once.
dyn_bitset blocking_literals(const cube& c, const std::vector<dyn_bitset>& off) {
    dyn_bitset value(c.nvars()), care(c.nvars());
    for (std::size_t v = 0; v < c.nvars(); ++v)
        if (!c.is_dc(v)) {
            care.set(v);
            if (c.literal(v) > 0) value.set(v);
        }
    dyn_bitset blocked(c.nvars());
    for (const auto& o : off) {
        const dyn_bitset differing = (o ^ value) & care;
        const std::size_t n = differing.count();
        if (n == 0) return dyn_bitset(c.nvars(), true);  // covers o
        if (n == 1) blocked.set(differing.find_first());
    }
    return blocked;
}

/// The prime enumeration minimize_exact used before prime_implicants, kept as
/// its oracle: a DFS that widens @p work one literal at a time, in ascending
/// variable order, and pushes every cube it cannot widen.  @p seen holds every
/// cube visited so far, across all ON minterms, so each is expanded once.
void enumerate_primes_from(cube& work, const std::vector<dyn_bitset>& off,
                           std::vector<cube>& primes, std::unordered_set<cube>& seen,
                           std::size_t max_primes) {
    if (primes.size() >= max_primes) return;
    const dyn_bitset blocked = blocking_literals(work, off);
    bool maximal = true;
    for (std::size_t v = 0; v < work.nvars(); ++v) {
        if (work.is_dc(v) || blocked.test(v)) continue;
        maximal = false;
        const bool positive = work.literal(v) > 0;
        work.set_dc(v);
        if (seen.insert(work).second) enumerate_primes_from(work, off, primes, seen, max_primes);
        work.set_literal(v, positive);
        if (primes.size() >= max_primes) return;
    }
    if (maximal) primes.push_back(work);
}

/// prime_implicants() by the DFS, from every ON minterm in order.
std::optional<std::vector<cube>> dfs_primes(const sop_spec& spec, std::size_t max_primes) {
    std::vector<cube> primes;
    std::unordered_set<cube> seen;
    for (const auto& m : spec.on) {
        cube c = cube::minterm(m);
        if (seen.insert(c).second) enumerate_primes_from(c, spec.off, primes, seen, max_primes);
        if (primes.size() >= max_primes) break;
    }
    if (primes.size() >= max_primes) return std::nullopt;
    return primes;
}

}  // namespace

TEST(cube, blocking_literals_match_single_drops) {
    // The DFS oracle's one-pass drop test against dropping each literal and
    // scanning the OFF-set, on cubes of 7, 64 and 70 variables.
    for (std::size_t n : {7u, 64u, 70u}) {
        xorshift64 rng(n * 131 + 7);
        for (int trial = 0; trial < 20; ++trial) {
            dyn_bitset centre(n);
            for (std::size_t v = 0; v < n; ++v)
                if (rng.next_bool()) centre.set(v);
            cube c = cube::minterm(centre);
            for (std::size_t v = 0; v < n; ++v)
                if (rng.next_bool(0.6)) c.set_dc(v);
            // OFF points near the cube, so that single-literal blocks occur.
            std::vector<dyn_bitset> off;
            for (int k = 0; k < 12; ++k) {
                dyn_bitset o = centre;
                for (std::size_t f = rng.next_below(3); f > 0; --f) o.flip(rng.next_below(n));
                for (std::size_t v = 0; v < n; ++v)
                    if (c.is_dc(v) && rng.next_bool()) o.flip(v);
                off.push_back(std::move(o));
            }
            const dyn_bitset blocked = blocking_literals(c, off);
            for (std::size_t v = 0; v < n; ++v) {
                if (c.is_dc(v)) continue;
                cube wider = c;
                wider.set_dc(v);
                bool hits = false;
                for (const auto& o : off) hits = hits || wider.covers(o);
                EXPECT_EQ(blocked.test(v), hits) << n << " vars, trial " << trial << ", v " << v;
            }
        }
    }
}

class exact_oracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(exact_oracle, exact_cover_is_optimal_over_all_primes) {
    // Whenever minimize_exact claims exactness, no cover by any prime
    // implicant is cheaper than its answer -- so its prime enumeration missed
    // no prime the optimum needs.
    const uint64_t seed = GetParam();
    const std::size_t n = 3 + seed % 5;  // 3..7 variables
    const auto spec = random_spec(n, seed * 7919 + 101, 0.25, 0.35);
    bool exact = false;
    const auto e = minimize_exact(spec, exact_limits{}, &exact);
    ASSERT_TRUE(verify_cover(e, spec)) << "seed " << seed;
    if (exact) {
        const auto primes = brute_force_primes(spec);
        const std::size_t bound = cover_cost(minimize_heuristic(spec, 4)) + 1;
        EXPECT_EQ(cover_cost(e), optimal_prime_cover_cost(spec, primes, bound))
            << "seed " << seed << ", " << n << " vars";
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, exact_oracle, ::testing::Range<uint64_t>(0, 60));

// ---- prime_implicants against the literal-dropping DFS ---------------------

namespace {

/// Asserts that prime_implicants() returns the DFS's exact vector (or that
/// both hit @p max_primes), and that the vector is an antichain of distinct
/// cubes, each a prime implicant through some ON minterm -- or the minterm
/// cube of an ON minterm that is also an OFF minterm.
void expect_same_primes(const sop_spec& spec, const std::string& where,
                        std::size_t max_primes = exact_limits{}.max_primes) {
    const auto got = prime_implicants(spec, max_primes);
    const auto want = dfs_primes(spec, max_primes);
    ASSERT_EQ(got.has_value(), want.has_value()) << where;
    if (!got) return;
    ASSERT_EQ(*got, *want) << where;
    const auto& primes = *got;
    for (std::size_t p = 0; p < primes.size(); ++p) {
        for (std::size_t q = 0; q < primes.size(); ++q) {
            if (q == p) continue;
            ASSERT_FALSE(primes[p].contains(primes[q])) << where << ' ' << p << ' ' << q;
        }
        bool through_on = false;
        for (const auto& m : spec.on) through_on = through_on || primes[p].covers(m);
        EXPECT_TRUE(through_on) << where << " prime " << p;
        const dyn_bitset blocked = blocking_literals(primes[p], spec.off);
        for (std::size_t v = 0; v < spec.nvars; ++v)
            EXPECT_TRUE(primes[p].is_dc(v) || blocked.test(v)) << where << " prime " << p;
    }
}

/// A spec over @p n variables that looks like a next-state function of the
/// sweep -- a few ON minterms, OFF minterms around them, most literals forced
/// -- with its free variables spread over every word boundary.  Every ON
/// minterm has the OFF neighbour across each non-free variable, so only the
/// free variables can be dropped and the DFS stays small; OFF minterms two
/// steps away add superset rows.
sop_spec forced_spec(std::size_t n, uint64_t seed) {
    xorshift64 rng(seed);
    std::vector<std::size_t> free_vars = {0, n / 2, n - 1};
    for (std::size_t w = 64; w < n; w += 64) {
        free_vars.push_back(w - 1);
        free_vars.push_back(w);
    }
    while (free_vars.size() < 9) free_vars.push_back(rng.next_below(n));
    std::sort(free_vars.begin(), free_vars.end());
    free_vars.erase(std::unique(free_vars.begin(), free_vars.end()), free_vars.end());
    std::vector<bool> is_free(n, false);
    for (std::size_t v : free_vars) is_free[v] = true;

    dyn_bitset centre(n);
    for (std::size_t v = 0; v < n; ++v)
        if (rng.next_bool()) centre.set(v);
    auto near = [&](dyn_bitset p) {  // flip a random subset of the free variables
        for (std::size_t v : free_vars)
            if (rng.next_bool(0.4)) p.flip(v);
        return p;
    };
    sop_spec s;
    s.nvars = n;
    std::unordered_set<dyn_bitset> on, off;
    for (int k = 0; k < 5; ++k)
        if (dyn_bitset m = near(centre); on.insert(m).second) s.on.push_back(std::move(m));
    auto add_off = [&](dyn_bitset o) {
        if (!on.contains(o) && off.insert(o).second) s.off.push_back(std::move(o));
    };
    for (const auto& m : s.on)
        for (std::size_t v = 0; v < n; ++v)
            if (!is_free[v]) {
                dyn_bitset o = m;
                o.flip(v);
                add_off(std::move(o));
            }
    for (int k = 0; k < 12; ++k) add_off(near(centre));
    for (int k = 0; k < 6; ++k) {
        dyn_bitset o = near(centre);
        o.flip(rng.next_below(n));
        o.flip(rng.next_below(n));
        add_off(std::move(o));
    }
    return s;
}

}  // namespace

TEST(prime_implicants, match_the_dfs_on_every_logic_spec_of_the_corpus_and_generated_specs) {
    // The specs the logic stage minimises: every next-state function and
    // both gC networks of every implemented signal of each final circuit.
    auto specs = benchmarks::corpus_specs();
    for (auto& s : benchmarks::generate_workload(1000, 6, benchmarks::generator_options{}))
        specs.push_back(std::move(s));
    std::size_t checked = 0;
    for (const auto& [name, net] : specs) {
        const auto res = run_pipeline(net);
        if (!res.completed || !res.synth.ok) continue;
        const auto g = subgraph::full(res.csc.graph);
        for (const auto& impl : res.synth.ckt.impls) {
            const std::string where = name + " signal " + std::to_string(impl.signal);
            expect_same_primes(derive_nextstate(g, impl.signal).spec, where);
            expect_same_primes(gc_network_spec(g, impl.signal, edge::plus), where + " set");
            expect_same_primes(gc_network_spec(g, impl.signal, edge::minus), where + " reset");
            checked += 3;
        }
    }
    EXPECT_GT(checked, 100u);
}

TEST(prime_implicants, match_the_dfs_on_random_specs_across_word_boundaries) {
    for (std::size_t n : {63u, 64u, 65u, 130u})
        for (uint64_t seed = 1; seed <= 8; ++seed)
            expect_same_primes(forced_spec(n, seed * 977 + n),
                               std::to_string(n) + " vars, seed " + std::to_string(seed));
    for (uint64_t seed = 0; seed < 40; ++seed)  // dense small specs: many primes each
        expect_same_primes(random_spec(3 + seed % 6, seed * 31 + 5, 0.3, 0.2),
                           "small seed " + std::to_string(seed));
}

TEST(prime_implicants, edge_cases_match_the_dfs) {
    sop_spec s;
    s.nvars = 5;
    s.on = {point(5, 0b00011), point(5, 0b10100), point(5, 0b00011)};  // a repeat
    expect_same_primes(s, "empty OFF set");
    ASSERT_EQ(prime_implicants(s, 10)->size(), 1u);
    EXPECT_EQ((*prime_implicants(s, 10))[0], cube(5));  // the universal cube

    s.off = {point(5, 0b10100), point(5, 0b00111), point(5, 0b11111)};  // on[1] is OFF too
    expect_same_primes(s, "ON and OFF intersect, repeated ON minterm");
    const auto primes = *prime_implicants(s, 10);
    EXPECT_NE(std::find(primes.begin(), primes.end(), cube::minterm(point(5, 0b10100))),
              primes.end());

    sop_spec zero;  // no variables: the one point is ON, and then OFF too
    zero.on = {dyn_bitset(0)};
    expect_same_primes(zero, "0 vars, no OFF");
    EXPECT_EQ(prime_implicants(zero, 10)->size(), 1u);
    zero.off = {dyn_bitset(0)};
    expect_same_primes(zero, "0 vars, ON = OFF");
    EXPECT_EQ(prime_implicants(zero, 10)->size(), 1u);

    // The cap: at exactly as many primes as the spec has, both give up.
    const sop_spec dense = random_spec(7, 4242, 0.3, 0.2);
    const std::size_t count = prime_implicants(dense, SIZE_MAX)->size();
    ASSERT_GT(count, 10u);
    expect_same_primes(dense, "cap above the count", count + 1);
    expect_same_primes(dense, "cap at the count", count);
    EXPECT_FALSE(prime_implicants(dense, count).has_value());
    expect_same_primes(dense, "cap below the count", count / 2);
    EXPECT_FALSE(prime_implicants(dense, 0).has_value());
}

// ---- literal lower bound ---------------------------------------------------

namespace {

/// Minimum literal count over ALL valid covers of @p spec, by exhaustive
/// branch and bound over every cube of the (tiny) variable universe.  This is
/// the quantity literal_lower_bound floors -- note it can be *smaller* than
/// minimize_exact's literal count, which optimises cube count first.
std::size_t optimal_literal_count(const sop_spec& spec) {
    if (spec.on.empty()) return 0;
    // All 3^n cubes that avoid the OFF-set and cover at least one ON minterm.
    std::vector<cube> valid;
    std::vector<uint64_t> covers_on;  // bitmask over spec.on per valid cube
    std::vector<int> digits(spec.nvars, 0);
    for (;;) {
        cube c(spec.nvars);
        for (std::size_t v = 0; v < spec.nvars; ++v)
            if (digits[v] != 0) c.set_literal(v, digits[v] == 1);
        bool hits_off = false;
        for (const auto& o : spec.off)
            if (c.covers(o)) {
                hits_off = true;
                break;
            }
        if (!hits_off) {
            uint64_t mask = 0;
            for (std::size_t m = 0; m < spec.on.size(); ++m)
                if (c.covers(spec.on[m])) mask |= uint64_t{1} << m;
            if (mask != 0) {
                valid.push_back(c);
                covers_on.push_back(mask);
            }
        }
        std::size_t v = 0;
        while (v < spec.nvars && digits[v] == 2) digits[v++] = 0;
        if (v == spec.nvars) break;
        ++digits[v];
    }
    const uint64_t all = spec.on.size() >= 64 ? ~uint64_t{0}
                                              : (uint64_t{1} << spec.on.size()) - 1;
    std::size_t best = SIZE_MAX;
    // DFS on the first uncovered minterm, bounded by the best literal total.
    auto dfs = [&](auto&& self, uint64_t covered, std::size_t lits) -> void {
        if (lits >= best) return;
        if ((covered & all) == all) {
            best = lits;
            return;
        }
        const auto pick = static_cast<std::size_t>(
            std::countr_zero(~covered & all));
        for (std::size_t c = 0; c < valid.size(); ++c)
            if (covers_on[c] & (uint64_t{1} << pick))
                self(self, covered | covers_on[c], lits + valid[c].literal_count());
    };
    dfs(dfs, 0, 0);
    return best;
}

}  // namespace

TEST(bounds, empty_sides_cost_nothing) {
    sop_spec none;
    none.nvars = 4;
    none.off.push_back(point(4, 5));
    EXPECT_EQ(literal_lower_bound(none), 0u);  // constant 0
    sop_spec taut;
    taut.nvars = 4;
    taut.on.push_back(point(4, 5));
    EXPECT_EQ(literal_lower_bound(taut), 0u);  // the universal cube
}

TEST(bounds, forced_literals_are_detected) {
    // ON = {000}, OFF = {100, 010}: distance-1 OFF minterms force a' and b'
    // into every cube covering 000 -> lower >= 2.
    sop_spec s;
    s.nvars = 3;
    s.on.push_back(point(3, 0b000));
    s.off.push_back(point(3, 0b001));
    s.off.push_back(point(3, 0b010));
    EXPECT_EQ(literal_lower_bound(s), 2u);
    EXPECT_EQ(optimal_literal_count(s), 2u);
}

class bounds_random : public ::testing::TestWithParam<uint64_t> {};

TEST_P(bounds_random, floor_the_literal_optimum) {
    const uint64_t seed = GetParam();
    const std::size_t n = 3 + seed % 2;  // 3..4 variables (brute force stays tiny)
    auto spec = random_spec(n, seed * 1031 + 7);
    if (spec.on.empty()) return;
    const std::size_t lower = literal_lower_bound(spec);
    EXPECT_LE(lower, optimal_literal_count(spec)) << "seed " << seed;
    // Sound against every valid cover, in particular both minimisers'.
    EXPECT_LE(lower, minimize_heuristic(spec, 2).literal_count()) << "seed " << seed;
    EXPECT_LE(lower, minimize_exact(spec).literal_count()) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(seeds, bounds_random, ::testing::Range<uint64_t>(0, 30));

namespace {

/// The forced-literal clique bound written with plain bitset algebra
/// (distance = popcount of the XOR): the word-logic kernel must agree with it
/// exactly, on every word layout.
std::size_t reference_clique_bound(const sop_spec& spec) {
    const std::size_t non = spec.on.size();
    std::vector<dyn_bitset> forced(non, dyn_bitset(spec.nvars));
    std::vector<std::size_t> floor_lits(non);
    for (std::size_t i = 0; i < non; ++i) {
        for (const auto& o : spec.off) {
            const dyn_bitset d = spec.on[i] ^ o;
            if (d.count() == 1) forced[i] |= d;
        }
        floor_lits[i] = std::max<std::size_t>(1, forced[i].count());
    }
    std::vector<std::size_t> order(non);
    for (std::size_t i = 0; i < non; ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return floor_lits[a] > floor_lits[b]; });
    std::vector<std::size_t> clique;
    std::size_t lower = 0;
    for (std::size_t i : order) {
        bool incompatible_with_all = true;
        for (std::size_t j : clique)
            if (!(spec.on[i] ^ spec.on[j]).intersects(forced[i] | forced[j])) {
                incompatible_with_all = false;
                break;
            }
        if (incompatible_with_all) {
            clique.push_back(i);
            lower += floor_lits[i];
        }
    }
    return lower;
}

/// A sparse random spec over @p n variables (too many to enumerate): random
/// ON points, each with OFF neighbours at distance 1 (anywhere, at the top
/// variable, in word 1), at distance 2 inside word 0 and across words 0 and
/// 1, an ON neighbour, and a far OFF point.
sop_spec wide_spec(std::size_t n, uint64_t seed) {
    xorshift64 rng(seed);
    sop_spec s;
    s.nvars = n;
    std::unordered_set<dyn_bitset> seen;  // ON and OFF stay disjoint
    auto add = [&](std::vector<dyn_bitset>& side, const dyn_bitset& p) {
        if (seen.insert(p).second) side.push_back(p);
    };
    auto random_point = [&] {
        dyn_bitset p(n);
        for (std::size_t v = 0; v < n; ++v)
            if (rng.next_bool()) p.set(v);
        return p;
    };
    auto flipped = [](dyn_bitset p, std::initializer_list<std::size_t> vars) {
        for (std::size_t v : vars) p.flip(v);
        return p;
    };
    const std::size_t lo = std::min<std::size_t>(n, 64);
    for (int k = 0; k < 10; ++k) {
        const dyn_bitset m = random_point();
        add(s.on, m);
        add(s.off, flipped(m, {rng.next_below(n)}));
        add(s.off, flipped(m, {n - 1}));
        const std::size_t a = rng.next_below(lo), b = (a + 1 + rng.next_below(lo - 1)) % lo;
        add(s.off, flipped(m, {a, b}));
        if (n > 64) {
            const std::size_t hi = 64 + rng.next_below(n - 64);
            add(s.off, flipped(m, {hi}));
            add(s.off, flipped(m, {rng.next_below(64), hi}));
        }
        add(s.on, flipped(m, {rng.next_below(n)}));
        add(s.off, random_point());
    }
    return s;
}

}  // namespace

class bounds_wide : public ::testing::TestWithParam<uint64_t> {};

TEST_P(bounds_wide, clique_bound_matches_bitset_reference_across_words) {
    for (std::size_t n : {63, 64, 65, 130}) {
        const auto spec = wide_spec(n, GetParam() * 131 + n);
        SCOPED_TRACE(::testing::Message() << n << " vars, seed " << GetParam());
        const std::size_t lower = literal_lower_bound(spec);
        EXPECT_EQ(lower, reference_clique_bound(spec));
        EXPECT_GT(lower, 0u);
        EXPECT_LE(lower, minimize_heuristic(spec).literal_count());
    }
}

INSTANTIATE_TEST_SUITE_P(seeds, bounds_wide, ::testing::Range<uint64_t>(0, 12));

