// Set of small non-negative indices, visited in ascending order.
//
// The event-driven components (the D-NUCA mesh and its banks) keep one of
// these to remember which of their elements hold work, so a cycle visits
// only those elements - in the same ascending order a full scan would, which
// keeps results independent of how the work set is represented.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lnuca {

class index_set {
public:
    explicit index_set(std::size_t capacity = 0)
        : words_((capacity + 63) / 64, 0)
    {
    }

    void insert(std::size_t i) { words_[i / 64] |= bit(i); }
    void erase(std::size_t i) { words_[i / 64] &= ~bit(i); }

    /// Call `fn(i)` for each member in ascending order. Each 64-index word
    /// is read once, just before its members are visited, so `fn` may erase
    /// or insert freely: an index inserted into the word being visited or an
    /// earlier one waits for the next pass; one in a later word is visited.
    template <class Fn> void for_each(Fn&& fn) const
    {
        for (std::size_t w = 0; w < words_.size(); ++w)
            for (std::uint64_t bits = words_[w]; bits != 0; bits &= bits - 1)
                fn(w * 64 + std::size_t(__builtin_ctzll(bits)));
    }

private:
    static std::uint64_t bit(std::size_t i)
    {
        return std::uint64_t{1} << (i % 64);
    }

    std::vector<std::uint64_t> words_;
};

} // namespace lnuca
