#include "util/dyn_bitset.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace asynth {

dyn_bitset::dyn_bitset(std::size_t nbits, bool value) : nbits_(nbits) {
    const uint64_t fill = value ? ~uint64_t{0} : 0;
    if (spilled())
        heap_.assign(nwords(), fill);
    else
        std::fill_n(inline_, nwords(), fill);
    clear_padding();
}

dyn_bitset::dyn_bitset(dyn_bitset&& o) noexcept
    : nbits_(std::exchange(o.nbits_, 0)), heap_(std::move(o.heap_)) {
    std::copy_n(o.inline_, kInlineWords, inline_);
    std::fill_n(o.inline_, kInlineWords, 0);
    o.heap_.clear();
}

dyn_bitset& dyn_bitset::operator=(dyn_bitset&& o) noexcept {
    if (this == &o) return *this;
    nbits_ = std::exchange(o.nbits_, 0);
    std::copy_n(o.inline_, kInlineWords, inline_);
    std::fill_n(o.inline_, kInlineWords, 0);
    heap_ = std::move(o.heap_);
    o.heap_.clear();
    return *this;
}

void dyn_bitset::resize(std::size_t nbits, bool value) {
    const std::size_t old_bits = nbits_;
    const std::size_t old_nw = nwords();
    const bool was_spilled = spilled();
    const uint64_t fill = value ? ~uint64_t{0} : 0;
    nbits_ = nbits;
    const std::size_t nw = nwords();
    if (spilled()) {
        if (!was_spilled) {  // spill: the inline words move to the heap
            heap_.assign(inline_, inline_ + old_nw);
            std::fill_n(inline_, kInlineWords, 0);
        }
        heap_.resize(nw, fill);
    } else {
        if (was_spilled) {  // back inline: keep the low words, free the heap
            std::copy_n(heap_.begin(), nw, inline_);
            heap_ = std::vector<uint64_t>();
        } else if (nw > old_nw) {
            std::fill(inline_ + old_nw, inline_ + nw, fill);
        }
        std::fill(inline_ + nw, inline_ + kInlineWords, 0);
    }
    // Bits of the last pre-existing word beyond old_bits must be set too.
    if (value && nbits > old_bits && (old_bits & 63U) != 0)
        data()[old_bits >> 6] |= ~uint64_t{0} << (old_bits & 63U);
    clear_padding();
}

void dyn_bitset::set_all() noexcept {
    std::fill_n(data(), nwords(), ~uint64_t{0});
    clear_padding();
}

void dyn_bitset::reset_all() noexcept { std::fill_n(data(), nwords(), 0); }

std::size_t dyn_bitset::count() const noexcept {
    std::size_t n = 0;
    for (auto w : words()) n += static_cast<std::size_t>(std::popcount(w));
    return n;
}

std::size_t dyn_bitset::count_and_not(const dyn_bitset& o) const noexcept {
    assert(nbits_ == o.nbits_);
    const uint64_t* a = data();
    const uint64_t* b = o.data();
    std::size_t n = 0;
    for (std::size_t i = 0, nw = nwords(); i < nw; ++i)
        n += static_cast<std::size_t>(std::popcount(a[i] & ~b[i]));
    return n;
}

bool dyn_bitset::none() const noexcept {
    for (auto w : words())
        if (w != 0) return false;
    return true;
}

std::size_t dyn_bitset::find_first() const noexcept {
    const uint64_t* a = data();
    for (std::size_t wi = 0, nw = nwords(); wi < nw; ++wi)
        if (a[wi] != 0) return wi * 64 + static_cast<std::size_t>(std::countr_zero(a[wi]));
    return npos;
}

std::size_t dyn_bitset::find_next(std::size_t i) const noexcept {
    ++i;
    if (i >= nbits_) return npos;
    const uint64_t* a = data();
    const std::size_t nw = nwords();
    std::size_t wi = i >> 6;
    uint64_t w = a[wi] & (~uint64_t{0} << (i & 63U));
    while (true) {
        if (w != 0) return wi * 64 + static_cast<std::size_t>(std::countr_zero(w));
        if (++wi >= nw) return npos;
        w = a[wi];
    }
}

dyn_bitset& dyn_bitset::operator|=(const dyn_bitset& o) noexcept {
    assert(nbits_ == o.nbits_);
    uint64_t* a = data();
    const uint64_t* b = o.data();
    for (std::size_t i = 0, nw = nwords(); i < nw; ++i) a[i] |= b[i];
    return *this;
}

dyn_bitset& dyn_bitset::operator&=(const dyn_bitset& o) noexcept {
    assert(nbits_ == o.nbits_);
    uint64_t* a = data();
    const uint64_t* b = o.data();
    for (std::size_t i = 0, nw = nwords(); i < nw; ++i) a[i] &= b[i];
    return *this;
}

dyn_bitset& dyn_bitset::operator^=(const dyn_bitset& o) noexcept {
    assert(nbits_ == o.nbits_);
    uint64_t* a = data();
    const uint64_t* b = o.data();
    for (std::size_t i = 0, nw = nwords(); i < nw; ++i) a[i] ^= b[i];
    return *this;
}

dyn_bitset& dyn_bitset::and_not(const dyn_bitset& o) noexcept {
    assert(nbits_ == o.nbits_);
    uint64_t* a = data();
    const uint64_t* b = o.data();
    for (std::size_t i = 0, nw = nwords(); i < nw; ++i) a[i] &= ~b[i];
    return *this;
}

bool dyn_bitset::intersects(const dyn_bitset& o) const noexcept {
    assert(nbits_ == o.nbits_);
    const uint64_t* a = data();
    const uint64_t* b = o.data();
    for (std::size_t i = 0, nw = nwords(); i < nw; ++i)
        if (a[i] & b[i]) return true;
    return false;
}

bool dyn_bitset::is_subset_of(const dyn_bitset& o) const noexcept {
    assert(nbits_ == o.nbits_);
    const uint64_t* a = data();
    const uint64_t* b = o.data();
    for (std::size_t i = 0, nw = nwords(); i < nw; ++i)
        if (a[i] & ~b[i]) return false;
    return true;
}

std::size_t dyn_bitset::hash() const noexcept {
    // FNV-1a over words; good enough for hash-map keys on markings.
    uint64_t h = 1469598103934665603ULL;
    for (auto w : words()) {
        h ^= w;
        h *= 1099511628211ULL;
    }
    h ^= nbits_;
    return static_cast<std::size_t>(h);
}

uint64_t dyn_bitset::hash_seeded(uint64_t seed) const noexcept {
    uint64_t h = seed ^ 1469598103934665603ULL;
    for (auto w : words()) {
        h ^= w;
        h *= 1099511628211ULL;
    }
    h ^= nbits_;
    return h;
}

std::string dyn_bitset::to_string() const {
    std::string s(nbits_, '0');
    for (std::size_t i = 0; i < nbits_; ++i)
        if (test(i)) s[i] = '1';
    return s;
}

void dyn_bitset::clear_padding() noexcept {
    if (nbits_ & 63U) data()[nwords() - 1] &= (~uint64_t{0}) >> (64 - (nbits_ & 63U));
}

}  // namespace asynth
