// Priority queue of items that become visible at a future cycle.
//
// This is the standard hand-off primitive between ticked components: the
// producer pushes with an explicit ready cycle, the consumer pops everything
// whose time has come during its own tick. Ties preserve push order so the
// simulation stays deterministic.
//
// Most producers push in ready order (a constant-latency pipeline, a
// response due now), so the queue is two sorted sources: a ring-buffer FIFO
// that takes every push whose ready cycle is not below the FIFO's last one,
// and an owned binary min-heap for the rest. Both hold (ready_at, seq)
// entries in (ready_at, seq) order, the FIFO because its ready cycles never
// fall and seq always rises, so popping the smaller of the two fronts pops
// exactly the sequence one heap of every item would. An in-order push and
// its pop are O(1) and move nothing else. The heap is owned rather than a
// std::priority_queue so popping can move the item out (its top() is const)
// and reserve() can pre-size it.
#pragma once

#include "src/common/ring_queue.h"
#include "src/common/types.h"

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace lnuca::sim {

template <typename T>
class timed_queue {
public:
    void push(cycle_t ready_at, T item)
    {
        if (fifo_.empty()) {
            fifo_.reserve(fifo_capacity_); // allocates on the first push only
        } else if (ready_at < fifo_.back().ready_at) {
            heap_.push_back(entry{ready_at, seq_++, std::move(item)});
            sift_up(heap_.size() - 1);
            return;
        }
        fifo_.push_back(entry{ready_at, seq_++, std::move(item)});
    }

    /// Pop the oldest item with ready_at <= now, if any.
    std::optional<T> pop_ready(cycle_t now)
    {
        if (fifo_first()) {
            if (fifo_.front().ready_at > now)
                return std::nullopt;
            T item = std::move(fifo_.front().item);
            fifo_.pop_front();
            return item;
        }
        if (heap_.empty() || heap_.front().ready_at > now)
            return std::nullopt;
        T item = std::move(heap_.front().item);
        if (heap_.size() > 1) {
            heap_.front() = std::move(heap_.back());
            heap_.pop_back();
            sift_down(0);
        } else {
            heap_.pop_back();
        }
        return item;
    }

    /// Cycle of the earliest pending item (no_cycle when empty).
    cycle_t next_ready() const
    {
        if (fifo_first())
            return fifo_.front().ready_at;
        return heap_.empty() ? no_cycle : heap_.front().ready_at;
    }

    bool empty() const { return fifo_.empty() && heap_.empty(); }
    std::size_t size() const { return fifo_.size() + heap_.size(); }
    /// Pre-size both sources for `n` items. The heap's store is reserved
    /// at once; the FIFO's on its first push, because a ring's store is
    /// value-initialised and would otherwise be written in full while its
    /// owner is still being built.
    void reserve(std::size_t n)
    {
        fifo_capacity_ = n;
        heap_.reserve(n);
    }

private:
    struct entry {
        cycle_t ready_at;
        std::uint64_t seq;
        T item;
    };

    /// Strict weak order: earlier ready cycle first, push order on ties.
    static bool before(const entry& a, const entry& b)
    {
        if (a.ready_at != b.ready_at)
            return a.ready_at < b.ready_at;
        return a.seq < b.seq;
    }

    /// The next item to pop sits at the FIFO's front.
    bool fifo_first() const
    {
        return !fifo_.empty() &&
               (heap_.empty() || before(fifo_.front(), heap_.front()));
    }

    void sift_up(std::size_t i)
    {
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!before(heap_[i], heap_[parent]))
                return;
            std::swap(heap_[i], heap_[parent]);
            i = parent;
        }
    }

    void sift_down(std::size_t i)
    {
        const std::size_t n = heap_.size();
        for (;;) {
            std::size_t best = i;
            const std::size_t left = 2 * i + 1;
            const std::size_t right = 2 * i + 2;
            if (left < n && before(heap_[left], heap_[best]))
                best = left;
            if (right < n && before(heap_[right], heap_[best]))
                best = right;
            if (best == i)
                return;
            std::swap(heap_[i], heap_[best]);
            i = best;
        }
    }

    ring_queue<entry> fifo_;
    std::size_t fifo_capacity_ = 0; ///< reserve()d, allocated at first push
    std::vector<entry> heap_;
    std::uint64_t seq_ = 0;
};

} // namespace lnuca::sim
