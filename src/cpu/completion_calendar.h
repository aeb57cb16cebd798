// Calendar of ROB-slot completions: the core's O(1) replacement for a
// timed_queue of slots.
//
// Every completion the core schedules is due a bounded number of cycles
// ahead: push(ready_at, slot) is only legal with
// drained < ready_at <= drained + horizon, where `drained` is the cycle of
// the last drain(). The calendar has a power-of-two number of buckets
// greater than `horizon`, and bucket `c & mask` holds the slots due at cycle
// c in push order, as an intrusive list through a slot-indexed `next` array
// (a slot has at most one completion pending). Pending cycles therefore lie
// in (drained, drained + horizon], a window shorter than the ring, so no
// bucket ever mixes two cycles. drain(now) empties the buckets of
// (drained, now] in ascending cycle order, which is exactly the
// (ready_at, push order) sequence a heap pops, whatever cycles the owner is
// ticked at. A set of non-empty buckets finds the next pending cycle and
// lets a drain after a gap skip empty buckets, so `horizon` may exceed one
// 64-bucket word.
#pragma once

#include "src/common/index_set.h"
#include "src/common/ring_queue.h"
#include "src/common/types.h"

#include <cstdint>
#include <vector>

namespace lnuca::cpu {

class completion_calendar {
public:
    completion_calendar(std::size_t slots, cycle_t horizon)
        : mask_(pow2_at_least(std::size_t(horizon) + 1) - 1),
          head_(mask_ + 1, none),
          tail_(mask_ + 1, none),
          next_(slots, none),
          nonempty_(mask_ + 1)
    {
    }

    /// Schedule `slot` to complete at `ready_at` (see the window above).
    void push(cycle_t ready_at, std::uint32_t slot)
    {
        const std::size_t b = std::size_t(ready_at) & mask_;
        next_[slot] = none;
        if (head_[b] == none) {
            head_[b] = slot;
            nonempty_.insert(b);
        } else {
            next_[tail_[b]] = slot;
        }
        tail_[b] = slot;
        ++size_;
    }

    /// Call `fn(slot)` for every completion due in (drained, now], in
    /// (cycle, push) order; `now` becomes the drained cycle. `fn` must not
    /// push.
    template <class Fn> void drain(cycle_t now, Fn&& fn)
    {
        if (size_ > 0) {
            const cycle_t first = drained_ + 1;
            if (now == first) { // consecutive ticks: only `now` can be due
                drain_bucket(std::size_t(now) & mask_, fn);
            } else {
                nonempty_.for_each_from(
                    std::size_t(first) & mask_, [&](std::size_t b) {
                        if (cycle_of(b) > now)
                            return false;
                        drain_bucket(b, fn);
                        return true;
                    });
            }
        }
        drained_ = now;
    }

    /// Cycle of the earliest pending completion (no_cycle when empty).
    cycle_t next_ready() const
    {
        cycle_t next = no_cycle;
        if (size_ > 0)
            nonempty_.for_each_from(
                std::size_t(drained_ + 1) & mask_, [&](std::size_t b) {
                    next = cycle_of(b);
                    return false;
                });
        return next;
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

private:
    static constexpr std::uint32_t none = ~std::uint32_t{0};

    /// The pending cycle bucket `b` holds.
    cycle_t cycle_of(std::size_t b) const
    {
        const cycle_t first = drained_ + 1;
        return first + ((cycle_t(b) - first) & mask_);
    }

    template <class Fn> void drain_bucket(std::size_t b, Fn& fn)
    {
        std::uint32_t slot = head_[b];
        if (slot == none)
            return;
        head_[b] = none;
        nonempty_.erase(b);
        while (slot != none) {
            const std::uint32_t next = next_[slot];
            --size_;
            fn(slot);
            slot = next;
        }
    }

    std::size_t mask_;
    std::vector<std::uint32_t> head_; ///< first slot due per bucket
    std::vector<std::uint32_t> tail_; ///< last slot due per bucket
    std::vector<std::uint32_t> next_; ///< per slot: next in its bucket
    index_set nonempty_;              ///< buckets with a slot due
    std::size_t size_ = 0;
    cycle_t drained_ = 0;
};

} // namespace lnuca::cpu
