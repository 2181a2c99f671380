#include "boolfn/incremental_cover.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <unordered_set>

namespace asynth {

repair_stats incremental_cover::rebase(const sop_spec& spec) {
    repair_stats st;
    std::vector<cube> candidates;
    candidates.reserve(c_.cubes.size());

    for (const auto& q : c_.cubes) {
        if (q.nvars() != spec.nvars) {
            ++st.dropped;  // seed from a different universe: unusable
            continue;
        }
        bool hits = false;
        for (const auto& o : spec.off)
            if (q.covers(o)) {
                hits = true;
                break;
            }
        if (!hits) {
            ++st.kept;
            candidates.push_back(q);
            continue;
        }
        // Narrow-repair: for each OFF minterm still covered, set one
        // don't-care variable to the literal every covered ON minterm agrees
        // on (binary values: they agree iff none matches the OFF value).
        std::vector<const dyn_bitset*> covered_on;
        for (const auto& m : spec.on)
            if (q.covers(m)) covered_on.push_back(&m);
        if (covered_on.empty()) {
            ++st.dropped;  // covers no ON minterm: repairing is pointless
            continue;
        }
        cube r = q;
        bool ok = true;
        for (const auto& o : spec.off) {
            if (!r.covers(o)) continue;
            std::size_t fix = spec.nvars;
            for (std::size_t v = 0; v < spec.nvars && fix == spec.nvars; ++v) {
                if (!r.is_dc(v)) continue;
                const bool ov = o.test(v);
                bool agree = true;
                for (const auto* m : covered_on)
                    if (m->test(v) == ov) {
                        agree = false;
                        break;
                    }
                if (agree) fix = v;
            }
            if (fix == spec.nvars) {
                ok = false;  // no narrowing excludes o without losing an ON
                break;
            }
            r.set_literal(fix, !o.test(fix));
        }
        if (!ok) {
            ++st.dropped;
            continue;
        }
        ++st.repaired;
        candidates.push_back(std::move(r));
    }

    // Fresh expansions for ON minterms the surviving cubes no longer cover.
    std::vector<std::size_t> order(spec.nvars);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::unordered_set<cube> seen(candidates.begin(), candidates.end());
    for (const auto& m : spec.on) {
        bool covered = false;
        for (const auto& q : candidates)
            if (q.covers(m)) {
                covered = true;
                break;
            }
        if (covered) continue;
        cube c = detail::expand_against_off(cube::minterm(m), spec.off, order);
        if (seen.insert(c).second) {
            ++st.added;
            candidates.push_back(std::move(c));
        }
    }

    cover next;
    next.nvars = spec.nvars;
    next.cubes = detail::greedy_cover(candidates, spec.on);
    c_ = std::move(next);
    return st;
}

namespace {

/// Forced-literal clique lower bound on the literal count of any cover.
///
/// For an ON minterm m, an OFF minterm o at Hamming distance 1 (differing
/// only in v) forces the literal v = m[v] into every cube covering m: a cube
/// that is don't-care at v and covers m also covers o.  Collecting those
/// variables gives a forced mask F(m), and a per-cube floor of
/// max(1, |F(m)|) literals (1 because a literal-free cube is the universal
/// cube, which hits the non-empty OFF-set).  Two ON minterms whose codes
/// differ inside F(m1) | F(m2) can never share a cube, so a greedy clique of
/// pairwise-incompatible minterms needs one distinct cube each and the sum
/// of their floors is a sound lower bound.
///
/// Cost: the ON x OFF distance scan dominates.  Codes are copied once into
/// flat word arrays, and "distance exactly 1" is pure word logic -- the first
/// differing word must be a single bit (d & (d - 1) == 0) and a second
/// differing word means "far" -- so the scan needs no popcount (the build has
/// no -mpopcnt) and the bound allocates nothing once the per-thread scratch
/// has grown.
std::size_t clique_lower_bound(const sop_spec& spec) {
    const std::size_t non = spec.on.size();
    const std::size_t noff = spec.off.size();
    const std::size_t nw = spec.on[0].words().size();

    struct scratch {
        std::vector<uint64_t> on, off, forced;  // non x nw, noff x nw, non x nw
        std::vector<std::size_t> floor_lits, order, clique;
    };
    thread_local scratch s;
    s.on.resize(non * nw);
    s.off.resize(noff * nw);
    s.forced.assign(non * nw, 0);
    for (std::size_t i = 0; i < non; ++i)
        std::copy_n(spec.on[i].words().data(), nw, s.on.data() + i * nw);
    for (std::size_t j = 0; j < noff; ++j)
        std::copy_n(spec.off[j].words().data(), nw, s.off.data() + j * nw);

    s.floor_lits.assign(non, 1);
    for (std::size_t i = 0; i < non; ++i) {
        const uint64_t* mw = s.on.data() + i * nw;
        uint64_t* fw = s.forced.data() + i * nw;
        for (std::size_t j = 0; j < noff; ++j) {
            const uint64_t* ow = s.off.data() + j * nw;
            std::size_t lw = nw;  // the one differing word, if any
            uint64_t lbits = 0;
            for (std::size_t w = 0; w < nw; ++w) {
                const uint64_t d = mw[w] ^ ow[w];
                if (d == 0) continue;
                if (lbits != 0 || (d & (d - 1)) != 0) {
                    lw = nw;  // distance >= 2
                    break;
                }
                lw = w;
                lbits = d;
            }
            if (lw != nw) fw[lw] |= lbits;
        }
        std::size_t f = 0;
        for (std::size_t w = 0; w < nw; ++w) f += static_cast<std::size_t>(std::popcount(fw[w]));
        s.floor_lits[i] = std::max<std::size_t>(1, f);
    }

    // Greedy clique, visiting minterms by descending floor (deterministic:
    // stable sort, index tie-break) so the most constrained cubes count.
    s.order.resize(non);
    std::iota(s.order.begin(), s.order.end(), std::size_t{0});
    std::stable_sort(s.order.begin(), s.order.end(), [&](std::size_t a, std::size_t b) {
        return s.floor_lits[a] > s.floor_lits[b];
    });
    s.clique.clear();
    std::size_t lower = 0;
    for (std::size_t i : s.order) {
        const uint64_t* mi = s.on.data() + i * nw;
        const uint64_t* fi = s.forced.data() + i * nw;
        bool incompatible_with_all = true;
        for (std::size_t j : s.clique) {
            const uint64_t* mj = s.on.data() + j * nw;
            const uint64_t* fj = s.forced.data() + j * nw;
            bool conflict = false;
            for (std::size_t w = 0; w < nw; ++w)
                if (((mi[w] ^ mj[w]) & (fi[w] | fj[w])) != 0) {
                    conflict = true;
                    break;
                }
            if (!conflict) {
                incompatible_with_all = false;
                break;
            }
        }
        if (incompatible_with_all) {
            s.clique.push_back(i);
            lower += s.floor_lits[i];
        }
    }
    return lower;
}

}  // namespace

literal_bounds bound_literals(const sop_spec& spec) {
    literal_bounds b;
    // ON empty: constant 0 (empty cover).  OFF empty: the universal cube.
    // Both cost zero literals exactly.
    if (spec.on.empty() || spec.off.empty()) return b;
    b.lower = clique_lower_bound(spec);
    // Trivial valid cover: every ON minterm as its own full cube.
    b.upper = spec.on.size() * spec.nvars;
    return b;
}

literal_bounds bound_literals(const sop_spec& spec, const cover& warm) {
    literal_bounds b = bound_literals(spec);
    if (spec.on.empty() || spec.off.empty()) return b;
    incremental_cover ic(warm);
    ic.rebase(spec);
    b.upper = std::min(b.upper, ic.literal_count());
    return b;
}

}  // namespace asynth
