// Dynamic bitset tuned for the small dense universes used throughout the
// library: Petri-net markings, state-graph state/arc sets, signal codes.
//
// Storage: up to kInlineWords words (64 bits) live inside the object, so the
// signal codes, spec minterms and cube halves of specs with up to 64 signals
// never touch the heap; larger universes (wider codes, state and arc sets)
// spill to a vector.  Exactly one of the two holds the words at any time,
// decided by size() alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

namespace asynth {

/// Fixed-universe dynamic bitset.  All binary operations require operands of
/// equal size (checked in debug builds via assertions in the .cpp helpers).
class dyn_bitset {
public:
    dyn_bitset() = default;
    explicit dyn_bitset(std::size_t nbits, bool value = false);
    dyn_bitset(const dyn_bitset&) = default;
    dyn_bitset& operator=(const dyn_bitset&) = default;
    /// A moved-from bitset is empty (size 0), whichever storage it used.
    dyn_bitset(dyn_bitset&& o) noexcept;
    dyn_bitset& operator=(dyn_bitset&& o) noexcept;

    [[nodiscard]] std::size_t size() const noexcept { return nbits_; }
    [[nodiscard]] bool empty_universe() const noexcept { return nbits_ == 0; }

    void resize(std::size_t nbits, bool value = false);

    [[nodiscard]] bool test(std::size_t i) const noexcept {
        return (data()[i >> 6] >> (i & 63U)) & 1U;
    }
    void set(std::size_t i) noexcept { data()[i >> 6] |= (uint64_t{1} << (i & 63U)); }
    void reset(std::size_t i) noexcept { data()[i >> 6] &= ~(uint64_t{1} << (i & 63U)); }
    void assign(std::size_t i, bool v) noexcept { v ? set(i) : reset(i); }
    void flip(std::size_t i) noexcept { data()[i >> 6] ^= (uint64_t{1} << (i & 63U)); }

    void set_all() noexcept;
    void reset_all() noexcept;

    /// Number of set bits.
    [[nodiscard]] std::size_t count() const noexcept;
    /// |this & ~o| without materialising the intersection.
    [[nodiscard]] std::size_t count_and_not(const dyn_bitset& o) const noexcept;
    /// True if no bit is set.
    [[nodiscard]] bool none() const noexcept;
    [[nodiscard]] bool any() const noexcept { return !none(); }

    /// Index of first set bit, or npos when none.
    [[nodiscard]] std::size_t find_first() const noexcept;
    /// Index of first set bit strictly after @p i, or npos.
    [[nodiscard]] std::size_t find_next(std::size_t i) const noexcept;

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    dyn_bitset& operator|=(const dyn_bitset& o) noexcept;
    dyn_bitset& operator&=(const dyn_bitset& o) noexcept;
    dyn_bitset& operator^=(const dyn_bitset& o) noexcept;
    /// this := this & ~o
    dyn_bitset& and_not(const dyn_bitset& o) noexcept;

    [[nodiscard]] friend dyn_bitset operator|(dyn_bitset a, const dyn_bitset& b) { return a |= b; }
    [[nodiscard]] friend dyn_bitset operator&(dyn_bitset a, const dyn_bitset& b) { return a &= b; }
    [[nodiscard]] friend dyn_bitset operator^(dyn_bitset a, const dyn_bitset& b) { return a ^= b; }

    /// Content equality: member-wise is exact because the storage not in use
    /// (inline words of a spilled set, the vector of an inline one) is always
    /// zero / empty, and padding bits beyond size() are always zero.
    [[nodiscard]] bool operator==(const dyn_bitset& o) const noexcept = default;

    /// True iff this and @p o share at least one set bit.
    [[nodiscard]] bool intersects(const dyn_bitset& o) const noexcept;
    /// True iff every set bit of this is also set in @p o.
    [[nodiscard]] bool is_subset_of(const dyn_bitset& o) const noexcept;

    [[nodiscard]] std::size_t hash() const noexcept;
    /// FNV-1a over the words starting from @p seed; two different seeds give
    /// two (practically) independent hashes of the same content, which is how
    /// 128-bit signatures are assembled without exposing the word array.
    [[nodiscard]] uint64_t hash_seeded(uint64_t seed) const noexcept;

    /// "10110..." most-significant index last (index 0 printed first).
    [[nodiscard]] std::string to_string() const;

    /// Raw 64-bit words ((size() + 63) / 64 of them), little-endian bit
    /// order; padding bits beyond size() are always zero.  Exposed for
    /// word-parallel kernels (boolfn cubes).
    [[nodiscard]] std::span<const uint64_t> words() const noexcept { return {data(), nwords()}; }
    /// Valid-bit mask of word @p w (all-ones except possibly the last word).
    [[nodiscard]] uint64_t word_mask(std::size_t w) const noexcept {
        if (w + 1 == nwords() && (nbits_ & 63U) != 0)
            return (~uint64_t{0}) >> (64 - (nbits_ & 63U));
        return ~uint64_t{0};
    }

    /// Iterate set bits: for (auto i : bits.ones()) ...
    class ones_range {
    public:
        explicit ones_range(const dyn_bitset& b) noexcept : b_(&b) {}
        class iterator {
        public:
            iterator(const dyn_bitset* b, std::size_t pos) noexcept : b_(b), pos_(pos) {}
            std::size_t operator*() const noexcept { return pos_; }
            iterator& operator++() noexcept { pos_ = b_->find_next(pos_); return *this; }
            bool operator!=(const iterator& o) const noexcept { return pos_ != o.pos_; }
        private:
            const dyn_bitset* b_;
            std::size_t pos_;
        };
        [[nodiscard]] iterator begin() const noexcept { return {b_, b_->find_first()}; }
        [[nodiscard]] iterator end() const noexcept { return {b_, npos}; }
    private:
        const dyn_bitset* b_;
    };
    [[nodiscard]] ones_range ones() const noexcept { return ones_range(*this); }

private:
    static constexpr std::size_t kInlineWords = 1;

    [[nodiscard]] std::size_t nwords() const noexcept { return (nbits_ + 63) / 64; }
    [[nodiscard]] bool spilled() const noexcept { return nbits_ > kInlineWords * 64; }
    [[nodiscard]] uint64_t* data() noexcept { return spilled() ? heap_.data() : inline_; }
    [[nodiscard]] const uint64_t* data() const noexcept {
        return spilled() ? heap_.data() : inline_;
    }
    void clear_padding() noexcept;

    std::size_t nbits_ = 0;
    uint64_t inline_[kInlineWords] = {};  ///< the words while !spilled(); all zero otherwise
    std::vector<uint64_t> heap_;          ///< the words while spilled(); empty otherwise
};

}  // namespace asynth

template <>
struct std::hash<asynth::dyn_bitset> {
    std::size_t operator()(const asynth::dyn_bitset& b) const noexcept { return b.hash(); }
};
