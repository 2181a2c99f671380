// dyn_bitset and PRNG substrate tests, including brute-force cross-checks
// against std::vector<bool> reference implementations, plus the JSON string
// escaper and the nearest-rank percentile.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/dyn_bitset.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/json_escape.hpp"
#include "util/percentile.hpp"

using namespace asynth;

TEST(dyn_bitset, construction_and_size) {
    dyn_bitset empty;
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_TRUE(empty.none());
    dyn_bitset zeros(100);
    EXPECT_EQ(zeros.size(), 100u);
    EXPECT_TRUE(zeros.none());
    EXPECT_EQ(zeros.count(), 0u);
    dyn_bitset ones(100, true);
    EXPECT_EQ(ones.count(), 100u);
}

TEST(dyn_bitset, set_reset_flip) {
    dyn_bitset b(130);
    b.set(0);
    b.set(64);
    b.set(129);
    EXPECT_TRUE(b.test(0));
    EXPECT_TRUE(b.test(64));
    EXPECT_TRUE(b.test(129));
    EXPECT_EQ(b.count(), 3u);
    b.reset(64);
    EXPECT_FALSE(b.test(64));
    b.flip(64);
    EXPECT_TRUE(b.test(64));
    b.assign(0, false);
    EXPECT_FALSE(b.test(0));
}

TEST(dyn_bitset, padding_bits_stay_clear) {
    dyn_bitset b(65, true);
    EXPECT_EQ(b.count(), 65u);
    b.set_all();
    EXPECT_EQ(b.count(), 65u);
    dyn_bitset c(65);
    c.set(64);
    EXPECT_EQ((b & c).count(), 1u);
}

TEST(dyn_bitset, find_first_and_next) {
    dyn_bitset b(200);
    EXPECT_EQ(b.find_first(), dyn_bitset::npos);
    b.set(3);
    b.set(77);
    b.set(199);
    EXPECT_EQ(b.find_first(), 3u);
    EXPECT_EQ(b.find_next(3), 77u);
    EXPECT_EQ(b.find_next(77), 199u);
    EXPECT_EQ(b.find_next(199), dyn_bitset::npos);
}

TEST(dyn_bitset, ones_iteration) {
    dyn_bitset b(150);
    std::vector<std::size_t> expect = {0, 63, 64, 65, 149};
    for (auto i : expect) b.set(i);
    std::vector<std::size_t> got;
    for (auto i : b.ones()) got.push_back(i);
    EXPECT_EQ(got, expect);
}

TEST(dyn_bitset, boolean_operations) {
    dyn_bitset a(70), b(70);
    a.set(1);
    a.set(65);
    b.set(65);
    b.set(2);
    EXPECT_EQ((a | b).count(), 3u);
    EXPECT_EQ((a & b).count(), 1u);
    EXPECT_EQ((a ^ b).count(), 2u);
    dyn_bitset c = a;
    c.and_not(b);
    EXPECT_TRUE(c.test(1));
    EXPECT_FALSE(c.test(65));
}

TEST(dyn_bitset, subset_and_intersection) {
    dyn_bitset a(100), b(100);
    a.set(10);
    b.set(10);
    b.set(20);
    EXPECT_TRUE(a.is_subset_of(b));
    EXPECT_FALSE(b.is_subset_of(a));
    EXPECT_TRUE(a.intersects(b));
    dyn_bitset c(100);
    c.set(30);
    EXPECT_FALSE(a.intersects(c));
    EXPECT_TRUE(dyn_bitset(100).is_subset_of(a));  // empty set
}

TEST(dyn_bitset, equality_and_hash) {
    dyn_bitset a(90), b(90);
    a.set(42);
    b.set(42);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.hash(), b.hash());
    b.set(43);
    EXPECT_NE(a, b);
}

TEST(dyn_bitset, to_string) {
    dyn_bitset b(4);
    b.set(1);
    b.set(3);
    EXPECT_EQ(b.to_string(), "0101");
}

namespace {

// Sizes on both sides of every storage boundary: empty, the inline limit (one
// word, 64 bits), the first spilled size, and word edges of spilled sets.
constexpr std::size_t kBoundarySizes[] = {0, 1, 63, 64, 65, 127, 128, 129, 200};

/// Padding bits beyond size() are zero and words() has exactly one word per
/// started 64 bits.
void expect_canonical(const dyn_bitset& b) {
    const auto w = b.words();
    ASSERT_EQ(w.size(), (b.size() + 63) / 64);
    for (std::size_t i = 0; i < w.size(); ++i) EXPECT_EQ(w[i] & ~b.word_mask(i), 0u) << i;
}

dyn_bitset pattern(std::size_t n, uint64_t seed) {
    xorshift64 rng(seed);
    dyn_bitset b(n);
    for (std::size_t i = 0; i < n; ++i)
        if (rng.next_bool()) b.set(i);
    return b;
}

/// The FNV-1a formula memo keys, code hashes and store keys were built on:
/// the storage layout must not move it.
uint64_t reference_hash(const dyn_bitset& b, uint64_t seed) {
    uint64_t h = seed ^ 1469598103934665603ULL;
    for (auto w : b.words()) {
        h ^= w;
        h *= 1099511628211ULL;
    }
    return h ^ b.size();
}

}  // namespace

TEST(dyn_bitset, boundary_sizes_construct_canonically) {
    for (std::size_t n : kBoundarySizes) {
        SCOPED_TRACE(n);
        const dyn_bitset zeros(n), ones(n, true);
        expect_canonical(zeros);
        expect_canonical(ones);
        EXPECT_EQ(zeros.count(), 0u);
        EXPECT_EQ(ones.count(), n);
        EXPECT_EQ(ones.find_first(), n == 0 ? dyn_bitset::npos : 0);
        dyn_bitset all(n);
        all.set_all();
        EXPECT_EQ(all, ones);
        all.reset_all();
        EXPECT_EQ(all, zeros);
        const dyn_bitset p = pattern(n, n + 1);
        EXPECT_EQ(p.hash(), static_cast<std::size_t>(reference_hash(p, 0)));
        EXPECT_EQ(p.hash_seeded(0x9e3779b97f4a7c15ULL),
                  reference_hash(p, 0x9e3779b97f4a7c15ULL));
    }
}

TEST(dyn_bitset, resize_across_the_inline_limit_keeps_bits_and_clears_padding) {
    for (std::size_t from : kBoundarySizes)
        for (std::size_t to : kBoundarySizes)
            for (bool value : {false, true}) {
                SCOPED_TRACE(::testing::Message() << from << " -> " << to << " value " << value);
                const dyn_bitset before = pattern(from, from * 31 + to);
                dyn_bitset b = before;
                b.resize(to, value);
                ASSERT_EQ(b.size(), to);
                expect_canonical(b);
                dyn_bitset want(to);
                for (std::size_t i = 0; i < to; ++i) {
                    EXPECT_EQ(b.test(i), i < from ? before.test(i) : value) << i;
                    want.assign(i, i < from ? before.test(i) : value);
                }
                // Equal to the same bits built at the final size: no stale
                // words survive in the storage not in use.
                EXPECT_EQ(b, want);
                EXPECT_EQ(b.hash(), want.hash());
                // Growing keeps every bit, so shrinking back restores the
                // original, whichever storage it passed through.
                if (to >= from) {
                    b.resize(from);
                    EXPECT_EQ(b, before);
                    EXPECT_EQ(b.hash(), before.hash());
                }
            }
}

TEST(dyn_bitset, copy_and_move_between_inline_and_spilled) {
    for (std::size_t a : kBoundarySizes)
        for (std::size_t b : kBoundarySizes) {
            SCOPED_TRACE(::testing::Message() << a << " <- " << b);
            const dyn_bitset src = pattern(b, b + 7);
            dyn_bitset dst = pattern(a, a + 3);
            dst = src;  // copy-assign over the other storage
            EXPECT_EQ(dst, src);
            expect_canonical(dst);
            if (b > 0) {
                dst.flip(b - 1);  // the copy is independent
                EXPECT_NE(dst, src);
                dst.flip(b - 1);
            }
            dyn_bitset moved = pattern(a, a + 5);
            moved = std::move(dst);  // move-assign over the other storage
            EXPECT_EQ(moved, src);
            EXPECT_EQ(dst.size(), 0u);  // moved-from is specified empty
            expect_canonical(dst);
            dst.resize(b);  // a moved-from bitset is reusable
            EXPECT_TRUE(dst.none());
            dyn_bitset constructed(std::move(moved));
            EXPECT_EQ(constructed, src);
            EXPECT_EQ(moved, dyn_bitset());
        }
}

TEST(dyn_bitset, equal_content_is_equal_whatever_the_history) {
    for (std::size_t n : kBoundarySizes) {
        SCOPED_TRACE(n);
        const dyn_bitset direct = pattern(n, 99);
        // Grown from empty, shrunk from a spilled superset, and round-tripped
        // through the other storage with bits set beyond n in between.
        dyn_bitset grown;
        grown.resize(n);
        for (auto i : direct.ones()) grown.set(i);
        dyn_bitset shrunk = direct;
        shrunk.resize(300, true);
        shrunk.resize(n);
        dyn_bitset round(n, true);
        round.resize(1);
        round.resize(n);
        round.reset_all();
        round |= direct;
        for (const dyn_bitset* other : {&grown, &shrunk, &round}) {
            EXPECT_EQ(*other, direct);
            EXPECT_EQ(other->hash(), direct.hash());
            EXPECT_EQ(other->hash_seeded(17), direct.hash_seeded(17));
            expect_canonical(*other);
        }
    }
}

class dyn_bitset_random : public ::testing::TestWithParam<uint64_t> {};

TEST_P(dyn_bitset_random, matches_reference_implementation) {
    xorshift64 rng(GetParam() * 1234567 + 1);
    const std::size_t n = 1 + rng.next_below(300);
    dyn_bitset a(n), b(n);
    std::vector<bool> ra(n), rb(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (rng.next_bool()) a.set(i), ra[i] = true;
        if (rng.next_bool()) b.set(i), rb[i] = true;
    }
    // count
    std::size_t expect_count = 0;
    for (bool v : ra) expect_count += v;
    EXPECT_EQ(a.count(), expect_count);
    // or / and / xor / andnot
    auto check = [&](const dyn_bitset& got, auto op) {
        for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(got.test(i), op(ra[i], rb[i]));
    };
    check(a | b, [](bool x, bool y) { return x || y; });
    check(a & b, [](bool x, bool y) { return x && y; });
    check(a ^ b, [](bool x, bool y) { return x != y; });
    dyn_bitset d = a;
    d.and_not(b);
    check(d, [](bool x, bool y) { return x && !y; });
    // subset / intersects
    bool exp_inter = false, exp_sub = true;
    for (std::size_t i = 0; i < n; ++i) {
        exp_inter = exp_inter || (ra[i] && rb[i]);
        exp_sub = exp_sub && (!ra[i] || rb[i]);
    }
    EXPECT_EQ(a.intersects(b), exp_inter);
    EXPECT_EQ(a.is_subset_of(b), exp_sub);
    // iteration
    std::size_t seen = 0;
    for (auto i : a.ones()) {
        EXPECT_TRUE(ra[i]);
        ++seen;
    }
    EXPECT_EQ(seen, a.count());
}

INSTANTIATE_TEST_SUITE_P(seeds, dyn_bitset_random, ::testing::Range<uint64_t>(0, 20));

TEST(xorshift, deterministic_and_bounded) {
    xorshift64 a(42), b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
    xorshift64 c(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(c.next_below(13), 13u);
        const double u = c.next_unit();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
    xorshift64 zero_seed(0);  // must not get stuck at 0
    EXPECT_NE(zero_seed.next(), 0u);
}

TEST(errors, require_throws_with_message) {
    EXPECT_NO_THROW(require(true, "fine"));
    try {
        require(false, "broken invariant");
        FAIL() << "expected throw";
    } catch (const error& e) {
        EXPECT_STREQ(e.what(), "broken invariant");
    }
    parse_error pe(17, "bad token");
    EXPECT_EQ(pe.line(), 17u);
    EXPECT_NE(std::string(pe.what()).find("17"), std::string::npos);
}

TEST(hashing, hash_combine_mixes) {
    std::size_t h1 = 0, h2 = 0;
    hash_combine(h1, 1);
    hash_combine(h2, 2);
    EXPECT_NE(h1, h2);
    std::size_t h3 = h1;
    hash_combine(h3, 2);
    EXPECT_NE(h3, h1);
}

TEST(json_escape, escapes_exactly_what_json_requires) {
    const struct {
        std::string in, out;
    } cases[] = {
        {"", R"("")"},
        {"plain text", R"("plain text")"},
        {"say \"hi\"", R"("say \"hi\"")"},
        {"a\\b", R"("a\\b")"},
        {"\n\r\t", R"("\n\r\t")"},
        {std::string("\0\x01\x08\x0b\x0c\x1f", 6), R"("\u0000\u0001\u0008\u000b\u000c\u001f")"},
        {"\x20\x7f", "\" \x7f\""},                                 // space, DEL: verbatim
        {"h\xc3\xa9 \xe2\x82\xac", "\"h\xc3\xa9 \xe2\x82\xac\""},  // UTF-8 passes through
    };
    for (const auto& c : cases) {
        std::string out = "prefix:";
        json_append_escaped(out, c.in);
        EXPECT_EQ(out, "prefix:" + c.out) << c.in;
    }
}

TEST(percentile, nearest_rank_rounds_to_the_closest_sample) {
    EXPECT_EQ(nearest_rank({}, 0.5), 0.0);
    EXPECT_EQ(nearest_rank({7.0}, 0.9), 7.0);
    const std::vector<double> sorted = {1, 2, 3, 4, 5};
    EXPECT_EQ(nearest_rank(sorted, 0.0), 1.0);
    EXPECT_EQ(nearest_rank(sorted, 0.5), 3.0);
    EXPECT_EQ(nearest_rank(sorted, 0.9), 5.0);  // rank round(3.6) = 4
    EXPECT_EQ(nearest_rank(sorted, 1.0), 5.0);
    EXPECT_EQ(nearest_rank({1, 2, 3, 4}, 0.5), 3.0);  // rank round(1.5) = 2
}
