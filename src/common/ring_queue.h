// Growable ring-buffer FIFO: the zero-allocation replacement for the
// std::deque queues on the simulator's executed-cycle hot path.
//
// std::deque allocates and frees 512-byte chunks as its size oscillates
// across a chunk boundary, which shows up as steady-state heap churn in
// saturated runs. ring_queue keeps one power-of-two backing store that only
// grows (reserve() at construction sizes it for the component's bound), so
// push/pop in steady state never touch the allocator.
//
// Semantics match the deque subset the simulator uses: FIFO push_back /
// front / pop_front, random access by queue position, ordered mid-queue
// erase (rare paths only), and forward iteration in queue order.
#pragma once

#include <cstddef>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

namespace lnuca {

/// Smallest power of two >= n (floor 8): the shared growth/sizing policy
/// for ring queues and open-addressed index tables.
inline std::size_t pow2_at_least(std::size_t n)
{
    std::size_t p = 8;
    while (p < n)
        p *= 2;
    return p;
}

template <typename T>
class ring_queue {
public:
    ring_queue() = default;
    explicit ring_queue(std::size_t initial_capacity)
    {
        reserve(initial_capacity);
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return store_.size(); }

    /// Grow the backing store to hold at least `n` items (never shrinks).
    void reserve(std::size_t n)
    {
        if (n > store_.size())
            regrow(pow2_at_least(n));
    }

    void push_back(const T& value)
    {
        T copy(value);
        push_back(std::move(copy));
    }

    void push_back(T&& value)
    {
        if (size_ == store_.size())
            regrow(pow2_at_least(size_ == 0 ? 8 : size_ * 2));
        store_[wrap(head_ + size_)] = std::move(value);
        ++size_;
    }

    template <typename... Args>
    void emplace_back(Args&&... args)
    {
        push_back(T(std::forward<Args>(args)...));
    }

    T& front() { return store_[head_]; }
    const T& front() const { return store_[head_]; }
    T& back() { return store_[wrap(head_ + size_ - 1)]; }
    const T& back() const { return store_[wrap(head_ + size_ - 1)]; }

    /// Element `i` positions behind the front (0 = front).
    T& operator[](std::size_t i) { return store_[wrap(head_ + i)]; }
    const T& operator[](std::size_t i) const { return store_[wrap(head_ + i)]; }

    void pop_front()
    {
        // Drop an owning payload eagerly (parity with deque pop); a trivially
        // destructible one owns nothing, so its slot is left as it is.
        if constexpr (!std::is_trivially_destructible_v<T>)
            store_[head_] = T{};
        head_ = wrap(head_ + 1);
        --size_;
    }

    /// Take the front by value and pop it.
    T take_front()
    {
        T out = std::move(store_[head_]);
        pop_front();
        return out;
    }

    /// Ordered erase of element `i` (shifts the tail forward one slot).
    void erase_at(std::size_t i)
    {
        for (std::size_t k = i + 1; k < size_; ++k)
            store_[wrap(head_ + k - 1)] = std::move(store_[wrap(head_ + k)]);
        store_[wrap(head_ + size_ - 1)] = T{};
        --size_;
    }

    void clear()
    {
        while (size_ > 0)
            pop_front();
        head_ = 0;
    }

    template <typename Q, typename V>
    class iter {
    public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = V;
        using difference_type = std::ptrdiff_t;
        using pointer = V*;
        using reference = V&;

        iter(Q* q, std::size_t i) : q_(q), i_(i) {}
        reference operator*() const { return (*q_)[i_]; }
        pointer operator->() const { return &(*q_)[i_]; }
        iter& operator++()
        {
            ++i_;
            return *this;
        }
        bool operator==(const iter& o) const { return i_ == o.i_; }
        bool operator!=(const iter& o) const { return i_ != o.i_; }
        std::size_t position() const { return i_; }

    private:
        Q* q_;
        std::size_t i_;
    };

    using iterator = iter<ring_queue, T>;
    using const_iterator = iter<const ring_queue, const T>;

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, size_}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

private:
    std::size_t wrap(std::size_t i) const { return i & (store_.size() - 1); }

    void regrow(std::size_t new_capacity)
    {
        std::vector<T> next(new_capacity);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = std::move(store_[wrap(head_ + i)]);
        store_ = std::move(next);
        head_ = 0;
    }

    std::vector<T> store_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace lnuca
