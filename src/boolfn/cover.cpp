#include "boolfn/cover.hpp"

#include <algorithm>
#include <bit>
#include <unordered_set>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace asynth {

cube cube::minterm(const dyn_bitset& point) {
    cube c(point.size());
    for (std::size_t v = 0; v < point.size(); ++v) c.set_literal(v, point.test(v));
    return c;
}

// The three cube predicates below are word-parallel: they run once per 64
// variables instead of once per variable.  expand_against_off() calls
// covers() for every (cube, variable, OFF-minterm) triple, which makes these
// kernels the hottest code of the whole Fig. 9 search -- the reshuffling
// cost function is minimisation-bound (see bench/reduce_search.cpp).

std::size_t cube::literal_count() const {
    // A variable is a literal iff it is not don't-care, i.e. not pos & neg.
    std::size_t dc = 0;
    const auto& p = pos_.words();
    const auto& n = neg_.words();
    for (std::size_t w = 0; w < p.size(); ++w)
        dc += static_cast<std::size_t>(std::popcount(p[w] & n[w]));
    return nvars() - dc;
}

bool cube::covers(const dyn_bitset& point) const {
    // Violation at v: point(v)=1 without pos(v), or point(v)=0 without neg(v).
    const auto& p = pos_.words();
    const auto& n = neg_.words();
    const auto& x = point.words();
    for (std::size_t w = 0; w < p.size(); ++w) {
        const uint64_t bad = (x[w] & ~p[w]) | (~(x[w] | n[w]) & pos_.word_mask(w));
        if (bad != 0) return false;
    }
    return true;
}

bool cube::contains(const cube& o) const {
    return o.pos_.is_subset_of(pos_) && o.neg_.is_subset_of(neg_);
}

bool cube::intersects(const cube& o) const {
    // Disjoint iff some variable admits no common value.
    const auto& p = pos_.words();
    const auto& n = neg_.words();
    const auto& op = o.pos_.words();
    const auto& on = o.neg_.words();
    for (std::size_t w = 0; w < p.size(); ++w) {
        const uint64_t common = (p[w] & op[w]) | (n[w] & on[w]);
        if ((~common & pos_.word_mask(w)) != 0) return false;
    }
    return true;
}

dyn_bitset cube::blocking_literals(const std::vector<dyn_bitset>& off) const {
    // diff(o) = the literals o violates: o(v) != pos(v) where v is no
    // don't-care (padding bits are zero in pos, neg and o alike).
    const auto& p = pos_.words();
    const auto& n = neg_.words();
    dyn_bitset blocked(nvars());
    for (const auto& o : off) {
        const auto& x = o.words();
        std::size_t bit = dyn_bitset::npos;
        bool several = false;
        for (std::size_t w = 0; w < p.size() && !several; ++w) {
            const uint64_t d = (x[w] ^ p[w]) & ~(p[w] & n[w]);
            if (d == 0) continue;
            if (bit != dyn_bitset::npos || (d & (d - 1)) != 0)
                several = true;
            else
                bit = w * 64 + static_cast<std::size_t>(std::countr_zero(d));
        }
        if (several) continue;
        if (bit == dyn_bitset::npos) return dyn_bitset(nvars(), true);  // covers o
        blocked.set(bit);
    }
    return blocked;
}

std::size_t cube::hash() const noexcept {
    std::size_t h = pos_.hash();
    hash_combine(h, neg_.hash());
    return h;
}

std::string cube::to_string(const std::vector<std::string>& names) const {
    std::string out;
    for (std::size_t v = 0; v < nvars(); ++v) {
        const int l = literal(v);
        if (l == 0) continue;
        if (!out.empty()) out += " ";
        out += names.at(v);
        if (l < 0) out += "'";
    }
    return out.empty() ? "1" : out;
}

bool cover::covers(const dyn_bitset& point) const {
    for (const auto& c : cubes)
        if (c.covers(point)) return true;
    return false;
}

std::size_t cover::literal_count() const {
    std::size_t n = 0;
    for (const auto& c : cubes) n += c.literal_count();
    return n;
}

std::string cover::to_string(const std::vector<std::string>& names) const {
    if (cubes.empty()) return "0";
    std::string out;
    for (const auto& c : cubes) {
        if (!out.empty()) out += " + ";
        out += c.to_string(names);
    }
    return out;
}

namespace detail {

cube expand_against_off(cube c, const std::vector<dyn_bitset>& off,
                        const std::vector<std::size_t>& order) {
    for (std::size_t v : order) {
        if (c.is_dc(v)) continue;
        const int saved = c.literal(v);
        c.set_dc(v);
        bool hits_off = false;
        for (const auto& m : off) {
            if (c.covers(m)) {
                hits_off = true;
                break;
            }
        }
        if (hits_off) c.set_literal(v, saved > 0);
    }
    return c;
}

}  // namespace detail

namespace {

/// Precomputed OFF-set geometry for the <= 64-variable fast path of minterm
/// expansion.  Shared across every ON minterm of one minimisation.
struct off_index {
    std::vector<uint64_t> words;             ///< OFF minterms as single words
    std::vector<std::vector<uint32_t>> col;  ///< [2 * v + bit]: OFF indices with o[v] == bit
    // Per-minterm scratch, reused to avoid reallocation.
    std::vector<uint64_t> diff;
    std::vector<uint8_t> cnt;
    std::vector<uint32_t> ones;

    explicit off_index(const std::vector<dyn_bitset>& off, std::size_t nvars) {
        words.reserve(off.size());
        for (const auto& o : off) words.push_back(o.words().empty() ? 0 : o.words()[0]);
        col.resize(2 * nvars);
        for (uint32_t o = 0; o < words.size(); ++o)
            for (std::size_t v = 0; v < nvars; ++v)
                col[2 * v + ((words[o] >> v) & 1U)].push_back(o);
    }
};

/// Exact fast-path equivalent of expand_against_off(minterm(m), off, order)
/// for nvars <= 64, by a counting argument: the cube `m raised on R` covers
/// OFF minterm o iff diff(o) = m XOR o is a subset of R.  Raising v is
/// therefore blocked iff some o has |diff(o) \ R| == 0 (`zeros`; ON and OFF
/// intersect) or == 1 with v as the remaining bit (`ones[v]`).  Per variable
/// the test is O(1); only *accepted* raises walk their OFF column to update
/// the counters.  This turns the minimiser's hottest loop from
/// O(vars * |off|) per minterm into roughly O(|off|) + the accepted columns.
cube expand_against_off_small(const dyn_bitset& m, std::size_t nvars, off_index& ix,
                              const std::vector<std::size_t>& order) {
    const uint64_t m_word = m.words().empty() ? 0 : m.words()[0];
    const std::size_t noff = ix.words.size();
    ix.diff.resize(noff);
    ix.cnt.resize(noff);
    ix.ones.assign(nvars, 0);
    std::size_t zeros = 0;
    for (std::size_t o = 0; o < noff; ++o) {
        const uint64_t d = m_word ^ ix.words[o];
        ix.diff[o] = d;
        const auto c = static_cast<uint8_t>(std::popcount(d));
        ix.cnt[o] = c;
        if (c == 0)
            ++zeros;
        else if (c == 1)
            ++ix.ones[static_cast<std::size_t>(std::countr_zero(d))];
    }

    uint64_t raised = 0;
    if (zeros == 0) {
        for (std::size_t v : order) {
            if (ix.ones[v] != 0) continue;
            raised |= uint64_t{1} << v;
            // o loses its diff bit v from the outside set iff o[v] != m[v].
            const auto& column = ix.col[2 * v + (((m_word >> v) & 1U) ^ 1U)];
            for (uint32_t o : column) {
                // Every o here had >= 2 outside bits: a single-bit o would
                // have put its bit v into ones[v], vetoing the raise.
                const auto c = static_cast<uint8_t>(ix.cnt[o] - 1);
                ix.cnt[o] = c;
                if (c == 1) {
                    const uint64_t rem = ix.diff[o] & ~raised;
                    ++ix.ones[static_cast<std::size_t>(std::countr_zero(rem))];
                }
            }
        }
    }

    cube out(nvars);  // universal; narrow the kept literals
    for (std::size_t v = 0; v < nvars; ++v)
        if (((raised >> v) & 1U) == 0) out.set_literal(v, (m_word >> v) & 1U);
    return out;
}

}  // namespace

namespace detail {

// Coverage is precomputed as one bitset of minterm indices per candidate, so
// every greedy round is a popcount sweep instead of re-evaluating covers();
// the selection (gains, literal tie-breaks, index tie-breaks) is unchanged.
std::vector<cube> greedy_cover(const std::vector<cube>& candidates,
                               const std::vector<dyn_bitset>& on) {
    std::vector<dyn_bitset> cand_bits(candidates.size());
    std::vector<std::size_t> cand_lits(candidates.size());
    for (std::size_t c = 0; c < candidates.size(); ++c) {
        cand_bits[c] = dyn_bitset(on.size());
        cand_lits[c] = candidates[c].literal_count();
        for (std::size_t m = 0; m < on.size(); ++m)
            if (candidates[c].covers(on[m])) cand_bits[c].set(m);
    }

    std::vector<bool> selected(candidates.size(), false);
    // Essential candidates: sole cover of some minterm.
    std::vector<uint32_t> cover_count(on.size(), 0), sole(on.size(), 0);
    for (std::size_t c = 0; c < candidates.size(); ++c)
        for (auto m : cand_bits[c].ones()) {
            ++cover_count[m];
            sole[m] = static_cast<uint32_t>(c);
        }
    for (std::size_t m = 0; m < on.size(); ++m)
        if (cover_count[m] == 1) selected[sole[m]] = true;

    dyn_bitset covered(on.size());
    for (std::size_t c = 0; c < candidates.size(); ++c)
        if (selected[c]) covered |= cand_bits[c];

    while (true) {
        // Pick the candidate covering the most uncovered minterms; break
        // ties toward fewer literals.
        std::size_t best = candidates.size(), best_gain = 0, best_lits = SIZE_MAX;
        for (std::size_t c = 0; c < candidates.size(); ++c) {
            if (selected[c]) continue;
            const std::size_t gain = cand_bits[c].count_and_not(covered);
            if (gain == 0) continue;
            if (gain > best_gain || (gain == best_gain && cand_lits[c] < best_lits)) {
                best = c;
                best_gain = gain;
                best_lits = cand_lits[c];
            }
        }
        if (best == candidates.size()) break;
        selected[best] = true;
        covered |= cand_bits[best];
    }

    std::vector<cube> out;
    for (std::size_t c = 0; c < candidates.size(); ++c)
        if (selected[c]) out.push_back(candidates[c]);
    return out;
}

}  // namespace detail

cover minimize_heuristic(const sop_spec& spec, unsigned passes) {
    cover best;
    best.nvars = spec.nvars;
    if (spec.on.empty()) return best;

    const bool small = spec.nvars >= 1 && spec.nvars <= 64;
    std::optional<off_index> ix;
    if (small) ix.emplace(spec.off, spec.nvars);

    std::size_t best_cost = SIZE_MAX;
    for (unsigned pass = 0; pass < std::max(1u, passes); ++pass) {
        // Literal drop order: pass 0 = ascending, pass 1 = descending, then
        // pseudo-random shuffles.
        std::vector<std::size_t> order(spec.nvars);
        for (std::size_t v = 0; v < spec.nvars; ++v) order[v] = v;
        if (pass == 1) std::reverse(order.begin(), order.end());
        if (pass >= 2) {
            xorshift64 rng(pass * 0x9e3779b97f4a7c15ULL);
            for (std::size_t i = order.size(); i > 1; --i)
                std::swap(order[i - 1], order[rng.next_below(i)]);
        }
        std::vector<cube> expanded;
        std::unordered_set<std::size_t> seen;
        for (const auto& m : spec.on) {
            cube c = small ? expand_against_off_small(m, spec.nvars, *ix, order)
                           : detail::expand_against_off(cube::minterm(m), spec.off, order);
            if (seen.insert(c.hash()).second) expanded.push_back(std::move(c));
        }
        cover candidate;
        candidate.nvars = spec.nvars;
        candidate.cubes = detail::greedy_cover(expanded, spec.on);
        const std::size_t cost = candidate.cubes.size() * 1000 + candidate.literal_count();
        if (cost < best_cost) {
            best_cost = cost;
            best = std::move(candidate);
        }
    }
    return best;
}

namespace {

/// Enumerates all maximal cubes (primes of ON u DC) reachable by expanding
/// @p work, capped at @p max_primes overall.  @p work is widened in place and
/// each literal restored after its subtree, so @p work is unchanged on return;
/// only a pushed prime is copied.
void enumerate_primes_from(cube& work, const std::vector<dyn_bitset>& off,
                           std::vector<cube>& primes, std::unordered_set<std::size_t>& seen,
                           std::size_t max_primes) {
    if (primes.size() >= max_primes) return;
    // Dropping literal v alone hits OFF exactly when v is blocking; the set
    // depends on this node's cube only, which every subtree restores.
    const dyn_bitset blocked = work.blocking_literals(off);
    bool maximal = true;
    for (std::size_t v = 0; v < work.nvars(); ++v) {
        if (work.is_dc(v) || blocked.test(v)) continue;
        maximal = false;
        const bool positive = work.literal(v) > 0;
        work.set_dc(v);
        if (seen.insert(work.hash()).second)
            enumerate_primes_from(work, off, primes, seen, max_primes);
        work.set_literal(v, positive);
        if (primes.size() >= max_primes) return;
    }
    if (maximal) primes.push_back(work);
}

struct bnb_state {
    const std::vector<cube>* primes;
    const std::vector<dyn_bitset>* on;
    std::vector<std::vector<std::size_t>> covers_of;  // minterm -> prime ids
    std::vector<std::size_t> best;
    std::size_t best_cost = SIZE_MAX;
    std::size_t nodes = 0, max_nodes = 0;
    bool aborted = false;

    static std::size_t cost_of(const std::vector<cube>& primes,
                               const std::vector<std::size_t>& sel) {
        std::size_t lits = 0;
        for (std::size_t p : sel) lits += primes[p].literal_count();
        return sel.size() * 1000 + lits;
    }

    void search(std::vector<std::size_t>& chosen, std::vector<int>& covered_count,
                std::size_t uncovered) {
        if (++nodes > max_nodes) {
            aborted = true;
            return;
        }
        if (cost_of(*primes, chosen) >= best_cost) return;
        if (uncovered == 0) {
            best = chosen;
            best_cost = cost_of(*primes, chosen);
            return;
        }
        // Branch on the uncovered minterm with the fewest covering primes.
        std::size_t pick = on->size(), fewest = SIZE_MAX;
        for (std::size_t m = 0; m < on->size(); ++m) {
            if (covered_count[m] > 0) continue;
            if (covers_of[m].size() < fewest) {
                fewest = covers_of[m].size();
                pick = m;
            }
        }
        if (pick == on->size() || fewest == 0) return;  // uncoverable
        for (std::size_t p : covers_of[pick]) {
            if (aborted) return;
            chosen.push_back(p);
            std::size_t newly = 0;
            for (std::size_t m = 0; m < on->size(); ++m) {
                if ((*primes)[p].covers((*on)[m])) {
                    if (covered_count[m]++ == 0) ++newly;
                }
            }
            search(chosen, covered_count, uncovered - newly);
            for (std::size_t m = 0; m < on->size(); ++m) {
                if ((*primes)[p].covers((*on)[m])) {
                    if (--covered_count[m] == 0) {
                        // became uncovered again
                    }
                }
            }
            chosen.pop_back();
        }
    }
};

}  // namespace

cover minimize_exact(const sop_spec& spec, const exact_limits& lim, bool* was_exact,
                     const cover* heuristic_seed) {
    if (was_exact) *was_exact = true;
    cover out;
    out.nvars = spec.nvars;
    if (spec.on.empty()) return out;

    std::vector<cube> primes;
    std::unordered_set<std::size_t> seen;
    for (const auto& m : spec.on) {
        cube c = cube::minterm(m);
        if (seen.insert(c.hash()).second)
            enumerate_primes_from(c, spec.off, primes, seen, lim.max_primes);
        if (primes.size() >= lim.max_primes) break;
    }
    if (primes.size() >= lim.max_primes) {
        if (was_exact) *was_exact = false;
        return minimize_heuristic(spec);
    }
    // Deduplicate and drop contained primes.
    std::vector<cube> unique;
    for (const auto& p : primes) {
        bool dominated = false;
        for (const auto& q : primes)
            if (!(q == p) && q.contains(p)) {
                dominated = true;
                break;
            }
        if (!dominated && std::find(unique.begin(), unique.end(), p) == unique.end())
            unique.push_back(p);
    }

    bnb_state bnb;
    bnb.primes = &unique;
    bnb.on = &spec.on;
    bnb.max_nodes = lim.max_branch_nodes;
    bnb.covers_of.resize(spec.on.size());
    for (std::size_t m = 0; m < spec.on.size(); ++m)
        for (std::size_t p = 0; p < unique.size(); ++p)
            if (unique[p].covers(spec.on[m])) bnb.covers_of[m].push_back(p);

    // Seed the bound with the heuristic solution -- or with the caller's
    // warm-start cover, skipping the re-minimisation.  The bound only prunes
    // partial selections already at least as costly as the incumbent, and the
    // incumbent update is strict (<), so the first depth-first solution of
    // minimal cost wins under *any* valid seed: a completed search returns
    // the identical cover warm or cold.
    const bool seeded = heuristic_seed && verify_cover(*heuristic_seed, spec);
    cover heur = seeded ? *heuristic_seed : minimize_heuristic(spec);
    bnb.best_cost = heur.cubes.size() * 1000 + heur.literal_count() + 1;

    std::vector<std::size_t> chosen;
    std::vector<int> covered(spec.on.size(), 0);
    bnb.search(chosen, covered, spec.on.size());
    // The bound-independence argument above only holds for a *completed*
    // search: an aborted one returns whatever the node budget reached, which
    // the seed's (possibly different) bound can shift, and the abort
    // fallbacks below would hand back the seed itself instead of the cold
    // path's own heuristic.  Re-running cold on this rare path keeps
    // minimize_exact bit-identical with and without a seed on every input.
    if (seeded && bnb.aborted) return minimize_exact(spec, lim, was_exact, nullptr);
    if (bnb.aborted && bnb.best.empty()) {
        if (was_exact) *was_exact = false;
        return heur;
    }
    if (bnb.best.empty()) return heur;  // heuristic was already optimal
    if (was_exact) *was_exact = !bnb.aborted;
    for (std::size_t p : bnb.best) out.cubes.push_back(unique[p]);
    const std::size_t exact_cost = out.cubes.size() * 1000 + out.literal_count();
    const std::size_t heur_cost = heur.cubes.size() * 1000 + heur.literal_count();
    return exact_cost <= heur_cost ? out : heur;
}

bool verify_cover(const cover& c, const sop_spec& spec) {
    for (const auto& m : spec.on)
        if (!c.covers(m)) return false;
    for (const auto& m : spec.off)
        if (c.covers(m)) return false;
    return true;
}

}  // namespace asynth
