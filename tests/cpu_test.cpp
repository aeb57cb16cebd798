// Out-of-order core model: predictors, TLB, pipeline throughput,
// dependencies, memory path, store buffer and mispredict handling.
#include "src/common/rng.h"
#include "src/cpu/branch_predictor.h"
#include "src/cpu/ooo_core.h"
#include "src/cpu/tlb.h"
#include "src/sim/engine.h"
#include "tests/core_stubs.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <stdexcept>
#include <vector>

namespace lnuca::cpu {
namespace {

TEST(predictors, bimodal_learns_bias)
{
    bimodal_predictor p(1024);
    const addr_t pc = 0x400100;
    for (int i = 0; i < 8; ++i)
        p.update(pc, true);
    EXPECT_TRUE(p.predict(pc));
    for (int i = 0; i < 8; ++i)
        p.update(pc, false);
    EXPECT_FALSE(p.predict(pc));
}

TEST(predictors, gshare_learns_alternation)
{
    gshare_predictor p(10);
    const addr_t pc = 0x400200;
    // Alternating pattern is history-predictable.
    bool taken = false;
    int correct = 0;
    for (int i = 0; i < 400; ++i) {
        taken = !taken;
        if (i > 200)
            correct += p.predict(pc) == taken ? 1 : 0;
        p.update(pc, taken);
    }
    EXPECT_GT(correct, 180); // near-perfect after warm-up
}

TEST(predictors, combined_beats_components_on_mixed_behaviour)
{
    combined_predictor combined;
    bimodal_predictor bimodal;
    const addr_t biased = 0x400300, alternating = 0x400304;
    int combined_ok = 0, bimodal_ok = 0, total = 0;
    bool alt = false;
    for (int i = 0; i < 2000; ++i) {
        alt = !alt;
        const bool t1 = true; // fully biased site keeps global history clean
        const bool c1 = combined.predict(biased);
        combined.update(biased, t1);
        const bool c2 = combined.predict(alternating);
        combined.update(alternating, alt);
        const bool b1 = bimodal.predict(biased);
        bimodal.update(biased, t1);
        const bool b2 = bimodal.predict(alternating);
        bimodal.update(alternating, alt);
        if (i > 1000) {
            total += 2;
            combined_ok += (c1 == t1) + (c2 == alt);
            bimodal_ok += (b1 == t1) + (b2 == alt);
        }
    }
    EXPECT_GT(combined_ok, bimodal_ok);
    EXPECT_GT(double(combined_ok) / total, 0.9);
}

TEST(tlb, hits_after_fill_and_lru_eviction)
{
    tlb t(2, 8192);
    EXPECT_FALSE(t.access(0x0));     // miss, fill
    EXPECT_TRUE(t.access(0x100));    // same page
    EXPECT_FALSE(t.access(0x4000));  // second page
    EXPECT_TRUE(t.access(0x0));      // still resident
    EXPECT_FALSE(t.access(0x8000));  // evicts LRU (0x4000's page)
    EXPECT_FALSE(t.access(0x4000));
    EXPECT_EQ(t.misses(), 4u);
    EXPECT_EQ(t.hits(), 2u);
}

// ---- Core harness --------------------------------------------------------

/// Scripted instruction stream cycling over a fixed pattern.
struct pattern_stream final : instruction_stream {
    std::vector<instruction> pattern;
    std::size_t next_index = 0;

    instruction next() override
    {
        instruction i = pattern[next_index];
        next_index = (next_index + 1) % pattern.size();
        return i;
    }
};

struct core_harness {
    double run_ipc(pattern_stream& stream, std::uint64_t instructions,
                   cycle_t l1_latency = 2)
    {
        core = std::make_unique<ooo_core>(config, stream, ids);
        dcache = std::make_unique<instant_cache>(l1_latency);
        core->set_dcache(dcache.get());
        dcache->client = core.get();
        engine.add(*core);
        engine.add(*dcache);
        core->set_instruction_limit(instructions);
        engine.run_until([&] { return core->done(); },
                         400 * instructions + 10000);
        EXPECT_TRUE(core->done());
        return core->ipc();
    }

    core_config config;
    mem::txn_id_source ids;
    std::unique_ptr<ooo_core> core;
    std::unique_ptr<instant_cache> dcache;
    sim::engine engine;
};

struct core_fixture : ::testing::Test, core_harness {};

instruction alu(std::uint32_t dep = 0)
{
    instruction i;
    i.op = op_class::int_alu;
    i.dep[0] = dep;
    return i;
}

TEST_F(core_fixture, independent_alus_reach_issue_width)
{
    pattern_stream s;
    s.pattern = {alu(), alu(), alu(), alu()};
    const double ipc = run_ipc(s, 20000);
    // 4-wide INT issue and no dependences: IPC close to 4.
    EXPECT_GT(ipc, 3.4);
}

TEST_F(core_fixture, dependency_chain_serialises)
{
    pattern_stream s;
    s.pattern = {alu(1)}; // every op depends on the previous one
    const double ipc = run_ipc(s, 20000);
    EXPECT_NEAR(ipc, 1.0, 0.1);
}

TEST_F(core_fixture, fp_and_int_issue_in_parallel)
{
    pattern_stream s;
    instruction fp;
    fp.op = op_class::fp_add;
    s.pattern = {alu(), alu(), fp, fp};
    const double ipc_mixed = run_ipc(s, 20000);
    EXPECT_GT(ipc_mixed, 3.4); // 2 INT + 2 FP per cycle fits 4+4 widths
}

TEST_F(core_fixture, fp_div_latency_bounds_throughput)
{
    pattern_stream s;
    instruction divi;
    divi.op = op_class::fp_div;
    divi.dep[0] = 1; // serial divides
    s.pattern = {divi};
    const double ipc = run_ipc(s, 3000);
    EXPECT_LT(ipc, 1.0 / (config.lat_fp_div - 2));
}

TEST_F(core_fixture, load_latency_gates_dependents)
{
    pattern_stream s;
    instruction ld;
    ld.op = op_class::load;
    ld.addr = 0x1000;
    ld.size = 8;
    instruction chained_ld = ld;
    chained_ld.dep[0] = 2; // each load's address comes from the previous one
    s.pattern = {chained_ld, alu(1)};
    const double ipc_fast = run_ipc(s, 10000, 2);

    pattern_stream s2;
    s2.pattern = s.pattern;
    core_harness other;
    pattern_stream s3;
    s3.pattern = s.pattern;
    const double ipc_slow = other.run_ipc(s3, 10000, 12);
    EXPECT_GT(ipc_fast, ipc_slow * 1.5);
}

TEST_F(core_fixture, stores_drain_through_store_buffer)
{
    pattern_stream s;
    instruction st;
    st.op = op_class::store;
    st.addr = 0x2000;
    st.size = 8;
    s.pattern = {st, alu(), alu(), alu()};
    run_ipc(s, 8000);
    EXPECT_EQ(core->counters().get("stores_issued"),
              core->counters().get("stores"));
}

TEST_F(core_fixture, store_forwarding_serves_loads_locally)
{
    pattern_stream s;
    instruction st;
    st.op = op_class::store;
    st.addr = 0x3000;
    st.size = 8;
    instruction ld;
    ld.op = op_class::load;
    ld.addr = 0x3000;
    ld.size = 8;
    s.pattern = {st, ld, alu(), alu()};
    run_ipc(s, 8000);
    EXPECT_GT(core->counters().get("store_forwards"), 0u);
}

TEST_F(core_fixture, mispredicts_cost_throughput)
{
    pattern_stream predictable;
    instruction br;
    br.op = op_class::branch;
    br.pc = 0x400400;
    br.taken = true; // always taken: learned quickly
    predictable.pattern = {alu(), alu(), alu(), br};
    const double ipc_good = run_ipc(predictable, 20000);

    core_harness other;
    // Genuinely random outcomes defeat any predictor.
    struct random_branch_stream final : instruction_stream {
        rng random{17};
        int phase = 0;
        instruction next() override
        {
            if (phase++ % 4 != 3)
                return alu();
            instruction br;
            br.op = op_class::branch;
            br.pc = 0x400400;
            br.taken = random.chance(0.5);
            return br;
        }
    } random_branches;
    other.core = std::make_unique<ooo_core>(other.config, random_branches,
                                            other.ids);
    other.dcache = std::make_unique<instant_cache>(2);
    other.core->set_dcache(other.dcache.get());
    other.dcache->client = other.core.get();
    other.engine.add(*other.core);
    other.engine.add(*other.dcache);
    other.core->set_instruction_limit(20000);
    other.engine.run_until([&] { return other.core->done(); }, 2'000'000);
    const double ipc_bad = other.core->ipc();
    EXPECT_GT(ipc_good, ipc_bad * 1.3);
    EXPECT_GT(other.core->counters().get("branch_mispredicts"), 1000u);
}

TEST_F(core_fixture, tlb_misses_are_counted_and_penalised)
{
    pattern_stream s;
    instruction ld;
    ld.op = op_class::load;
    ld.size = 8;
    s.pattern.clear();
    // Loads striding over many pages blow the 64-entry TLB.
    for (int i = 0; i < 128; ++i) {
        instruction x = ld;
        x.addr = addr_t(i) * 8192 * 3;
        s.pattern.push_back(x);
    }
    run_ipc(s, 20000);
    EXPECT_GT(core->counters().get("dtlb_misses"), 100u);
}

TEST_F(core_fixture, rob_wraps_correctly_over_long_runs)
{
    pattern_stream s;
    s.pattern = {alu(), alu(3), alu(1), alu(2)};
    const double ipc = run_ipc(s, 50000);
    EXPECT_EQ(core->committed(), 50000u);
    EXPECT_GT(ipc, 0.5);
}

TEST_F(core_fixture, reset_stats_clears_counts)
{
    pattern_stream s;
    s.pattern = {alu()};
    run_ipc(s, 5000);
    core->reset_stats();
    EXPECT_EQ(core->committed(), 0u);
    EXPECT_EQ(core->cycles(), 0u);
    EXPECT_EQ(core->counters().get("loads"), 0u);
}

TEST_F(core_fixture, loads_served_accounting)
{
    pattern_stream s;
    instruction ld;
    ld.op = op_class::load;
    ld.addr = 0x9000;
    ld.size = 8;
    s.pattern = {ld, alu(), alu(), alu()};
    run_ipc(s, 8000);
    EXPECT_GT(core->loads_served_by(mem::service_level::l1), 0u);
}

// ---- Issue scheduler ------------------------------------------------------

TEST(issue_scheduler, golden_issue_order_and_ready_set)
{
    // Dense stepping, one cycle at a time: the core's state digest after
    // every tick, the order of every request it sends to the L1 (txn ids
    // follow issue order) and the final counters, for a full 128-entry ROB,
    // one whose last ready-set word is partial (100) and a one-word one
    // (64). The values were captured with the full oldest-first ROB walk
    // the ready set replaced. After every tick the ready set must also
    // equal a full ROB scan for ready entries, in the same order.
    const std::initializer_list<std::pair<unsigned, std::uint64_t>> golden = {
        {128, 0x735c36609fd6b83cull},
        {100, 0x4bfd9679e4ac0af1ull},
        {64, 0x725191ce9786a7c1ull}};
    for (const auto& [rob_size, expected] : golden) {
        SCOPED_TRACE(rob_size);
        core_config config;
        config.rob_size = rob_size;
        mixed_stream stream(0x5eed + rob_size, 0.4, 0.15);
        mem::txn_id_source ids;
        ooo_core core(config, stream, ids);
        instant_cache dcache(12);
        dcache.capacity = 6;
        core.set_dcache(&dcache);
        dcache.client = &core;
        sim::engine engine;
        engine.add(core);
        engine.add(dcache);
        const std::uint64_t instructions = 30000;
        core.set_instruction_limit(instructions);

        sim::state_hash h;
        std::uint64_t saturated_cycles = 0; // both classes past their width
        std::uint64_t mismatched_cycles = 0;
        while (!core.done() && engine.now() < 400 * instructions) {
            engine.run(1);
            h.mix(core.state_digest());
            const auto ready = core.ready_seqs();
            if (ready != core.scan_ready_seqs())
                ++mismatched_cycles;
            unsigned fp_ready = 0;
            for (const std::uint64_t seq : ready)
                fp_ready += is_fp(stream.ops[seq - 1]) ? 1 : 0;
            if (fp_ready > config.fp_issue_width &&
                ready.size() - fp_ready > config.int_mem_issue_width)
                ++saturated_cycles;
        }
        ASSERT_TRUE(core.done());
        EXPECT_EQ(mismatched_cycles, 0u);
        h.mix(core.committed());
        h.mix(core.cycles());
        h.mix(core.counters().digest());
        h.mix(core.dtlb().misses());
        h.mix(core.loads_served_by(mem::service_level::l1));
        h.mix(dcache.accepted_digest.value());

        // The stream exercises what it is meant to.
        EXPECT_GT(saturated_cycles, 20u);
        EXPECT_GT(core.counters().get("dtlb_misses"), 100u);
        EXPECT_GT(core.counters().get("l1_port_retry"), 0u);
        EXPECT_GT(core.counters().get("store_forwards"), 20u);
        EXPECT_GT(core.counters().get("branch_mispredicts"), 100u);
        EXPECT_GT(core.committed() / rob_size, 200u); // ROB wraps
        EXPECT_EQ(h.value(), expected) << std::hex << h.value();
    }
}

TEST(issue_scheduler, paranoid_engine_holds_on_bare_core)
{
    // Paranoid stepping throws if a cycle the core's (or the stub L1's)
    // next_event() declared idle changes its state. The ready count is the
    // scheduler's next_event() probe, so it must track the ready set. An
    // FP-heavy stream and an INT/MEM-only one.
    for (const double fp_share : {0.6, 0.0}) {
        SCOPED_TRACE(fp_share);
        core_config config;
        config.rob_size = 100;
        mixed_stream stream(23, fp_share, 0.2);
        mem::txn_id_source ids;
        ooo_core core(config, stream, ids);
        instant_cache dcache(4);
        core.set_dcache(&dcache);
        dcache.client = &core;
        sim::engine engine;
        engine.set_mode(sim::schedule_mode::paranoid);
        engine.add(core);
        engine.add(dcache);
        core.set_instruction_limit(20000);
        bool done = false;
        EXPECT_NO_THROW(done = engine.run_until([&] { return core.done(); },
                                                8'000'000));
        EXPECT_TRUE(done);
        EXPECT_GT(engine.cycles_skipped(), 0u);
        EXPECT_EQ(core.ready_seqs(), core.scan_ready_seqs());
    }
}

// ---- Completion calendar --------------------------------------------------

/// The issue-order golden's core, stub L1 and mixed stream, ticked by hand
/// with `1 + below(max_gap)` cycles from one tick to the next (the core
/// must not care which cycles it is ticked at). Digests the core's state
/// after every tick, the request stream it sends to the L1 and its final
/// counters.
std::uint64_t stepped_core_digest(const core_config& config,
                                  std::uint64_t seed, std::uint64_t max_gap)
{
    mixed_stream stream(seed, 0.4, 0.15);
    mem::txn_id_source ids;
    ooo_core core(config, stream, ids);
    instant_cache dcache(12);
    dcache.capacity = 6;
    core.set_dcache(&dcache);
    dcache.client = &core;
    const std::uint64_t instructions = 20000;
    core.set_instruction_limit(instructions);
    rng gaps(seed * 31 + 7);
    sim::state_hash h;
    for (cycle_t now = 0; !core.done() && now < 400 * instructions;
         now += 1 + gaps.below(max_gap)) {
        core.tick(now);
        dcache.tick(now);
        h.mix(core.state_digest());
    }
    EXPECT_TRUE(core.done());
    EXPECT_GT(core.counters().get("dtlb_misses"), 100u);
    EXPECT_GT(core.counters().get("store_forwards"), 5u);
    h.mix(core.committed());
    h.mix(core.cycles());
    h.mix(core.counters().digest());
    h.mix(dcache.accepted_digest.value());
    return h.value();
}

TEST(completion_calendar, golden_long_tlb_miss_latency)
{
    // A 100-cycle DTLB miss puts store completions up to 101 cycles out,
    // more than one 64-bit word of completion buckets. Dense stepping. The
    // value was captured with the completion heap the calendar replaced.
    core_config config;
    config.tlb_miss_latency = 100;
    const std::uint64_t digest = stepped_core_digest(config, 0xca1e, 1);
    EXPECT_EQ(digest, 0xd0ab5e00fad609bfull) << std::hex << digest;
}

TEST(completion_calendar, golden_irregular_tick_gaps)
{
    // Ticks 1 to 70 cycles apart: one writeback then retires completions
    // due at several past cycles, which must leave in (cycle, push) order.
    // The value was captured with the completion heap the calendar
    // replaced.
    const std::uint64_t digest = stepped_core_digest(core_config{}, 0x9a95, 70);
    EXPECT_EQ(digest, 0x83211b12a9d53c73ull) << std::hex << digest;
}

TEST(completion_calendar, matches_timed_queue_order)
{
    // Differential: random pushes 1..horizon cycles past the last drain,
    // drains after random gaps (several buckets at once), against the
    // timed_queue the core used before. Horizons below, at and above one
    // 64-bucket word.
    for (const cycle_t horizon : {cycle_t(7), cycle_t(63), cycle_t(150)}) {
        SCOPED_TRACE(horizon);
        const std::uint32_t slots = 96;
        completion_calendar calendar(slots, horizon);
        sim::timed_queue<std::uint32_t> reference;
        std::vector<std::uint32_t> free_slots;
        for (std::uint32_t s = 0; s < slots; ++s)
            free_slots.push_back(s);
        rng random(horizon);
        cycle_t now = 5;
        for (int step = 0; step < 20000; ++step) {
            std::vector<std::uint32_t> got;
            calendar.drain(now, [&](std::uint32_t s) { got.push_back(s); });
            std::vector<std::uint32_t> want;
            while (auto s = reference.pop_ready(now))
                want.push_back(*s);
            ASSERT_EQ(got, want) << "cycle " << now;
            free_slots.insert(free_slots.end(), got.begin(), got.end());
            for (std::uint64_t n = random.below(6);
                 n > 0 && !free_slots.empty(); --n) {
                const std::size_t pick = random.below(free_slots.size());
                const std::uint32_t s = free_slots[pick];
                free_slots[pick] = free_slots.back();
                free_slots.pop_back();
                // Mostly short latencies (ties), sometimes the horizon.
                const cycle_t d = random.chance(0.1) ? horizon
                                                     : 1 + random.below(4);
                calendar.push(now + d, s);
                reference.push(now + d, s);
            }
            ASSERT_EQ(calendar.size(), reference.size());
            ASSERT_EQ(calendar.next_ready(), reference.next_ready());
            now += random.chance(0.7) ? 1 : 1 + random.below(2 * horizon);
        }
    }
}

TEST(completion_calendar, zero_latencies_are_rejected)
{
    // A zero latency would schedule a completion in the cycle whose
    // completions were just retired.
    const auto build = [](void (*edit)(core_config&)) {
        core_config config;
        edit(config);
        pattern_stream stream;
        stream.pattern = {alu()};
        mem::txn_id_source ids;
        ooo_core core(config, stream, ids);
    };
    EXPECT_THROW(build([](core_config& c) { c.lat_int_alu = 0; }),
                 std::invalid_argument);
    EXPECT_THROW(build([](core_config& c) { c.lat_int_mul = 0; }),
                 std::invalid_argument);
    EXPECT_THROW(build([](core_config& c) { c.lat_fp_add = 0; }),
                 std::invalid_argument);
    EXPECT_THROW(build([](core_config& c) { c.lat_fp_mul = 0; }),
                 std::invalid_argument);
    EXPECT_THROW(build([](core_config& c) { c.lat_fp_div = 0; }),
                 std::invalid_argument);
    EXPECT_THROW(build([](core_config& c) { c.lat_store_forward = 0; }),
                 std::invalid_argument);
    EXPECT_NO_THROW(build([](core_config& c) { c.tlb_miss_latency = 0; }));
}

} // namespace
} // namespace lnuca::cpu
