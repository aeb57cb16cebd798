// Engine and timed-queue semantics: the timing contract everything else
// builds on, including the idle-skip scheduler (next_event lower bounds,
// event-boundary predicate evaluation, paranoid cross-checking).
#include "src/sim/engine.h"
#include "src/sim/timed_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace lnuca::sim {
namespace {

TEST(timed_queue, pops_only_when_ready)
{
    timed_queue<int> q;
    q.push(5, 1);
    EXPECT_FALSE(q.pop_ready(4).has_value());
    auto v = q.pop_ready(5);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 1);
}

TEST(timed_queue, orders_by_time_then_push_order)
{
    timed_queue<int> q;
    q.push(10, 1);
    q.push(5, 2);
    q.push(10, 3);
    EXPECT_EQ(*q.pop_ready(20), 2);
    EXPECT_EQ(*q.pop_ready(20), 1); // tie broken by push order
    EXPECT_EQ(*q.pop_ready(20), 3);
    EXPECT_FALSE(q.pop_ready(20).has_value());
}

TEST(timed_queue, next_ready_and_empty)
{
    timed_queue<int> q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.next_ready(), no_cycle);
    q.push(7, 0);
    EXPECT_EQ(q.next_ready(), 7u);
    EXPECT_EQ(q.size(), 1u);
}

TEST(timed_queue, next_ready_tracks_pops_and_reinsertion)
{
    timed_queue<int> q;
    q.push(9, 1);
    q.push(4, 2);
    EXPECT_EQ(q.next_ready(), 4u);
    EXPECT_EQ(*q.pop_ready(4), 2);
    EXPECT_EQ(q.next_ready(), 9u);
    EXPECT_FALSE(q.pop_ready(8).has_value());
    q.push(0, 3); // overdue entries surface immediately
    EXPECT_EQ(q.next_ready(), 0u);
    EXPECT_EQ(*q.pop_ready(8), 3);
    EXPECT_EQ(*q.pop_ready(9), 1);
    EXPECT_EQ(q.next_ready(), no_cycle);
}

TEST(timed_queue, same_cycle_push_is_visible_and_zero_works)
{
    timed_queue<int> q;
    q.push(0, 1);
    EXPECT_EQ(q.next_ready(), 0u);
    EXPECT_EQ(*q.pop_ready(0), 1);
    EXPECT_TRUE(q.empty());
}

TEST(timed_queue, heap_preserves_push_order_under_interleaving)
{
    // Stress the owned binary heap against a reference sort: random ready
    // cycles with heavy ties, popped in stages, must come out in
    // (ready_at, push order). A deterministic LCG keeps the test stable.
    timed_queue<int> q;
    q.reserve(256);
    std::vector<std::pair<cycle_t, int>> reference;
    std::uint64_t lcg = 12345;
    int id = 0;
    auto push_some = [&](int n) {
        for (int i = 0; i < n; ++i) {
            lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
            const cycle_t at = (lcg >> 33) % 8; // few buckets -> many ties
            q.push(at, id);
            reference.emplace_back(at, id);
            ++id;
        }
    };
    auto drain_until = [&](cycle_t now, std::vector<int>& out) {
        while (auto v = q.pop_ready(now))
            out.push_back(*v);
    };

    std::vector<int> popped;
    push_some(100);
    drain_until(3, popped);
    push_some(100);
    drain_until(no_cycle, popped);

    // Expected order: stable sort by ready cycle within each drain phase.
    std::vector<int> expected;
    auto take = [&](std::size_t begin, std::size_t end, cycle_t now) {
        std::vector<std::pair<cycle_t, int>> phase(
            reference.begin() + std::ptrdiff_t(begin),
            reference.begin() + std::ptrdiff_t(end));
        std::stable_sort(phase.begin(), phase.end(),
                         [](const auto& a, const auto& b) {
                             return a.first < b.first;
                         });
        std::vector<std::pair<cycle_t, int>> left;
        for (const auto& [at, v] : phase) {
            if (at <= now)
                expected.push_back(v);
            else
                left.push_back({at, v});
        }
        return left;
    };
    auto leftover = take(0, 100, 3);
    std::vector<std::pair<cycle_t, int>> phase2(reference.begin() + 100,
                                                reference.end());
    leftover.insert(leftover.end(), phase2.begin(), phase2.end());
    std::stable_sort(leftover.begin(), leftover.end(),
                     [](const auto& a, const auto& b) {
                         return a.first < b.first;
                     });
    for (const auto& [at, v] : leftover)
        expected.push_back(v);

    EXPECT_EQ(popped, expected);
}

/// Differential check of timed_queue against a stable-sorted reference,
/// for any payload `make(id)` builds. A seeded LCG mixes monotone runs
/// (the FIFO path), out-of-order pushes (the heap path), heavy ties, pushes
/// below the last popped cycle, far-future pushes and pops at an advancing
/// `now`; after every operation the pop sequence, next_ready() and size()
/// must match.
template <class T, class Make> void check_against_reference(Make make)
{
    timed_queue<T> q;
    // (ready_at, id) in pop order: ascending ready_at, push order on ties.
    std::vector<std::pair<cycle_t, int>> reference;
    std::uint64_t lcg = 0x7157;
    const auto draw = [&](std::uint64_t n) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return (lcg >> 33) % n;
    };
    cycle_t now = 100;
    cycle_t last_pushed = now;
    cycle_t last_popped = 0;
    int id = 0;
    std::size_t heap_pushes = 0; // pushes that went below the FIFO's tail
    const auto push = [&](cycle_t at) {
        if (at < last_pushed)
            ++heap_pushes;
        last_pushed = std::max(last_pushed, at);
        q.push(at, make(id));
        const auto pos = std::upper_bound(
            reference.begin(), reference.end(), at,
            [](cycle_t t, const auto& e) { return t < e.first; });
        reference.insert(pos, {at, id});
        ++id;
    };
    const auto check = [&] {
        ASSERT_EQ(q.size(), reference.size());
        ASSERT_EQ(q.next_ready(),
                  reference.empty() ? no_cycle : reference.front().first);
    };
    for (int op = 0; op < 20000; ++op) {
        switch (draw(8)) {
        case 0: // monotone run at a constant latency
            for (std::uint64_t n = 1 + draw(6); n > 0; --n) {
                push(now + 4);
                check();
            }
            break;
        case 1: // out of order, near future
            push(now + draw(30));
            break;
        case 2: // heavy ties: the same cycle as the last push
            push(last_pushed);
            break;
        case 3: // already overdue: below the last popped cycle
            push(last_popped - std::min<cycle_t>(last_popped, draw(5)));
            break;
        case 4: // far future
            push(now + 100000 + draw(1000));
            break;
        default: { // pop everything due, then advance time
            while (auto v = q.pop_ready(now)) {
                ASSERT_FALSE(reference.empty());
                ASSERT_LE(reference.front().first, now);
                ASSERT_EQ(*v, make(reference.front().second));
                last_popped = reference.front().first;
                reference.erase(reference.begin());
                check();
            }
            ASSERT_TRUE(reference.empty() || reference.front().first > now);
            now += draw(4);
            break;
        }
        }
        check();
    }
    EXPECT_GT(heap_pushes, 1000u);
    // Drain the far-future rest.
    while (auto v = q.pop_ready(no_cycle - 1)) {
        ASSERT_EQ(*v, make(reference.front().second));
        reference.erase(reference.begin());
    }
    EXPECT_TRUE(reference.empty());
    EXPECT_TRUE(q.empty());
}

TEST(timed_queue, fifo_and_heap_match_a_sorted_reference)
{
    check_against_reference<int>([](int id) { return id; });
    // A payload that owns memory (pop resets the FIFO slot).
    check_against_reference<std::string>(
        [](int id) { return "item-" + std::to_string(id); });
}

struct counter_component final : ticked {
    cycle_t last = no_cycle;
    int ticks = 0;
    void tick(cycle_t now) override
    {
        last = now;
        ++ticks;
    }
};

TEST(engine, run_advances_cycles)
{
    engine e;
    counter_component c;
    e.add(c);
    e.run(10);
    EXPECT_EQ(e.now(), 10u);
    EXPECT_EQ(c.ticks, 10);
    EXPECT_EQ(c.last, 9u); // last executed cycle
}

TEST(engine, registration_order_is_tick_order)
{
    engine e;
    std::vector<int> order;
    struct probe final : ticked {
        std::vector<int>* order;
        int id;
        probe(std::vector<int>* o, int i) : order(o), id(i) {}
        void tick(cycle_t) override { order->push_back(id); }
    };
    probe a(&order, 1), b(&order, 2);
    e.add(a);
    e.add(b);
    e.run(2);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
    EXPECT_EQ(order[2], 1);
}

TEST(engine, run_until_predicate)
{
    engine e;
    counter_component c;
    e.add(c);
    const bool done = e.run_until([&] { return c.ticks >= 5; }, 100);
    EXPECT_TRUE(done);
    EXPECT_EQ(c.ticks, 5);
    EXPECT_EQ(e.now(), 5u);
}

TEST(engine, run_until_budget_exhausted)
{
    engine e;
    counter_component c;
    e.add(c);
    const bool done = e.run_until([] { return false; }, 25);
    EXPECT_FALSE(done);
    EXPECT_EQ(e.now(), 25u);
}

// ---------------------------------------------------------------------------
// Idle-skip scheduling.
// ---------------------------------------------------------------------------

/// Acts (mutates observable state) exactly at the scheduled cycles and
/// reports an honest next_event lower bound.
struct scripted_component final : ticked {
    std::vector<cycle_t> schedule; ///< sorted
    std::vector<cycle_t> acted;
    int ticks = 0;

    explicit scripted_component(std::vector<cycle_t> s) : schedule(std::move(s)) {}

    void tick(cycle_t now) override
    {
        ++ticks;
        if (std::binary_search(schedule.begin(), schedule.end(), now))
            acted.push_back(now);
    }

    cycle_t next_event(cycle_t now) const override
    {
        const auto it =
            std::lower_bound(schedule.begin(), schedule.end(), now);
        return it == schedule.end() ? no_cycle : *it;
    }

    std::uint64_t state_digest() const override { return acted.size(); }
};

TEST(engine_idle_skip, ticks_exactly_the_event_cycles)
{
    engine e;
    e.set_mode(schedule_mode::idle_skip);
    scripted_component c({3, 7, 20});
    e.add(c);
    e.run(25);
    EXPECT_EQ(e.now(), 25u);
    // Never skipped past a cycle where the component would have acted...
    EXPECT_EQ(c.acted, (std::vector<cycle_t>{3, 7, 20}));
    // ...and never woken in between.
    EXPECT_EQ(c.ticks, 3);
    EXPECT_EQ(e.cycles_executed(), 3u);
    EXPECT_EQ(e.cycles_skipped(), 22u);
}

TEST(engine_idle_skip, run_lands_exactly_on_the_target_cycle)
{
    engine e;
    e.set_mode(schedule_mode::idle_skip);
    scripted_component c({100});
    e.add(c);
    e.run(10);
    EXPECT_EQ(e.now(), 10u);
    EXPECT_EQ(c.ticks, 0);
    e.run(100);
    EXPECT_EQ(e.now(), 110u);
    EXPECT_EQ(c.acted, (std::vector<cycle_t>{100}));
}

TEST(engine_idle_skip, default_next_event_keeps_dense_behaviour)
{
    engine e;
    e.set_mode(schedule_mode::idle_skip);
    counter_component c; // no next_event override -> never skippable
    e.add(c);
    e.run(10);
    EXPECT_EQ(c.ticks, 10);
    EXPECT_EQ(e.cycles_skipped(), 0u);
}

TEST(engine_idle_skip, run_until_fires_at_event_boundaries_like_dense)
{
    for (const auto mode : {schedule_mode::dense, schedule_mode::idle_skip,
                            schedule_mode::paranoid}) {
        engine e;
        e.set_mode(mode);
        scripted_component c({3, 7, 20});
        e.add(c);
        const bool done =
            e.run_until([&] { return c.acted.size() >= 2; }, 1000);
        EXPECT_TRUE(done);
        // The predicate became true during cycle 7; every mode must stop
        // with now() == 8, exactly as dense per-cycle evaluation does.
        EXPECT_EQ(e.now(), 8u) << "mode " << int(mode);
    }
}

TEST(engine_idle_skip, no_future_event_jumps_to_the_budget)
{
    engine e;
    e.set_mode(schedule_mode::idle_skip);
    scripted_component c({}); // never acts
    e.add(c);
    const bool done = e.run_until([] { return false; }, 5000);
    EXPECT_FALSE(done);
    EXPECT_EQ(e.now(), 5000u);
    EXPECT_EQ(e.cycles_executed(), 0u);
    EXPECT_EQ(e.cycles_skipped(), 5000u);
}

TEST(engine_idle_skip, overdue_events_clamp_to_now)
{
    // A component whose bound lies in the past must run immediately, not
    // wind the engine backwards.
    struct overdue final : ticked {
        int ticks = 0;
        void tick(cycle_t) override { ++ticks; }
        cycle_t next_event(cycle_t) const override { return 0; }
    };
    engine e;
    e.set_mode(schedule_mode::idle_skip);
    overdue c;
    e.add(c);
    e.run(5);
    EXPECT_EQ(c.ticks, 5);
    EXPECT_EQ(e.now(), 5u);
}

TEST(engine_paranoid, honest_components_pass)
{
    engine e;
    e.set_mode(schedule_mode::paranoid);
    scripted_component c({2, 9});
    e.add(c);
    EXPECT_NO_THROW(e.run(20));
    EXPECT_EQ(c.acted, (std::vector<cycle_t>{2, 9}));
    EXPECT_EQ(c.ticks, 20); // paranoid steps densely
    EXPECT_EQ(e.cycles_skipped(), 18u);
}

TEST(engine_paranoid, catches_a_dishonest_next_event)
{
    // Claims to be idle forever but mutates observable state every tick.
    struct liar final : ticked {
        std::uint64_t state = 0;
        void tick(cycle_t) override { ++state; }
        cycle_t next_event(cycle_t) const override { return no_cycle; }
        std::uint64_t state_digest() const override { return state; }
    };
    engine e;
    e.set_mode(schedule_mode::paranoid);
    liar c;
    e.add(c);
    EXPECT_THROW(e.run(5), engine_paranoia_error);
}

TEST(engine_idle_skip, producer_consumer_matches_dense_bit_for_bit)
{
    // A two-stage pipeline over timed_queue: the producer emits a value
    // every 10 cycles, the consumer sees it 3 cycles later. Dense and
    // idle-skip must agree on every observation timestamp.
    struct producer final : ticked {
        timed_queue<cycle_t>* out = nullptr;
        cycle_t next_emit = 5;
        void tick(cycle_t now) override
        {
            if (now == next_emit) {
                out->push(now + 3, now);
                next_emit += 10;
            }
        }
        cycle_t next_event(cycle_t now) const override
        {
            return std::max(now, next_emit);
        }
        std::uint64_t state_digest() const override { return next_emit; }
    };
    struct consumer final : ticked {
        timed_queue<cycle_t> in;
        std::vector<std::pair<cycle_t, cycle_t>> seen; ///< (cycle, payload)
        void tick(cycle_t now) override
        {
            while (auto v = in.pop_ready(now))
                seen.emplace_back(now, *v);
        }
        cycle_t next_event(cycle_t) const override { return in.next_ready(); }
        std::uint64_t state_digest() const override
        {
            return seen.size() * 131 + in.size();
        }
    };

    auto run = [](schedule_mode mode) {
        engine e;
        e.set_mode(mode);
        producer p;
        consumer c;
        p.out = &c.in;
        e.add(p);
        e.add(c);
        e.run(64);
        return c.seen;
    };
    const auto dense = run(schedule_mode::dense);
    const auto skip = run(schedule_mode::idle_skip);
    const auto paranoid = run(schedule_mode::paranoid);
    ASSERT_EQ(dense.size(), 6u);
    EXPECT_EQ(dense, skip);
    EXPECT_EQ(dense, paranoid);
}

} // namespace
} // namespace lnuca::sim
