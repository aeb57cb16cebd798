// Set of small non-negative indices, visited in ascending order.
//
// The event-driven components (the D-NUCA mesh and its banks, the core's
// issue scheduler, the L-NUCA fabric's tiles) keep one of these to remember
// which of their elements hold work, so a cycle visits only those elements -
// in the same order a full scan would, which keeps results independent of
// how the work set is represented.
#pragma once

#include <algorithm>
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
    void clear() { std::fill(words_.begin(), words_.end(), 0); }

    bool empty() const
    {
        return std::all_of(words_.begin(), words_.end(),
                           [](std::uint64_t w) { return w == 0; });
    }

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

    /// Call `fn(i)` for each member in rotated order - ascending over
    /// [start, capacity), then ascending over [0, start) - until `fn`
    /// returns false. `start` must be below a nonzero capacity. Words are read
    /// as in for_each(), except that the word holding `start` is read twice:
    /// for its members from `start` up at the beginning of the pass and for
    /// those below `start` at its end. Erasing the visited member is safe.
    template <class Fn> void for_each_from(std::size_t start, Fn&& fn) const
    {
        const std::size_t n = words_.size();
        if (n == 0)
            return;
        const std::size_t first = start / 64;
        const std::uint64_t upper = ~std::uint64_t{0} << (start % 64);
        for (std::size_t k = 0; k <= n; ++k) {
            std::size_t w = first + k;
            if (w >= n)
                w -= n;
            std::uint64_t bits = words_[w];
            if (k == 0)
                bits &= upper;
            else if (k == n)
                bits &= ~upper;
            for (; bits != 0; bits &= bits - 1)
                if (!fn(w * 64 + std::size_t(__builtin_ctzll(bits))))
                    return;
        }
    }

private:
    static std::uint64_t bit(std::size_t i)
    {
        return std::uint64_t{1} << (i % 64);
    }

    std::vector<std::uint64_t> words_;
};

} // namespace lnuca
