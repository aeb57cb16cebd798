// Trace subsystem: binary format round trips, open-time validation,
// capture -> replay bit-identity (single-core, CMP, and sampled), trace
// stream warm/next positioning, the scenario library's determinism and
// sharing structure, workload-spec parsing, and - the coherence payoff -
// a hand-built store ping-pong trace whose MESI hub counters are exactly
// predictable.
#include "src/hier/presets.h"
#include "src/hier/system.h"
#include "src/trace/scenarios.h"
#include "src/trace/trace_data.h"
#include "src/trace/trace_stream.h"
#include "src/trace/trace_writer.h"
#include "src/trace/workload_spec.h"
#include "src/workloads/spec2006.h"
#include "tests/run_result_compare.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace lnuca {
namespace {

std::string temp_path(const std::string& name)
{
    return ::testing::TempDir() + "lnuca_" + name;
}

cpu::instruction make_inst(cpu::op_class op, addr_t pc, addr_t addr = 0,
                           std::uint32_t dep0 = 0, bool taken = false)
{
    cpu::instruction inst;
    inst.op = op;
    inst.pc = pc;
    inst.addr = addr;
    inst.taken = taken;
    inst.dep[0] = dep0;
    return inst;
}

bool same_record(const trace::trace_record& a, const trace::trace_record& b)
{
    return a.pc == b.pc && a.addr == b.addr && a.dep0 == b.dep0 &&
           a.dep1 == b.dep1 && a.op == b.op && a.size == b.size &&
           a.taken == b.taken;
}

TEST(trace_format, encode_decode_round_trip)
{
    cpu::instruction inst = make_inst(cpu::op_class::load, 0x400123,
                                      0x7000'0040, 3, false);
    inst.dep[1] = 7;
    inst.size = 4;
    const cpu::instruction back = trace::decode(trace::encode(inst));
    EXPECT_EQ(back.op, inst.op);
    EXPECT_EQ(back.pc, inst.pc);
    EXPECT_EQ(back.addr, inst.addr);
    EXPECT_EQ(back.size, inst.size);
    EXPECT_EQ(back.taken, inst.taken);
    EXPECT_EQ(back.dep[0], inst.dep[0]);
    EXPECT_EQ(back.dep[1], inst.dep[1]);
}

TEST(trace_format, writer_reader_round_trip)
{
    const std::string path = temp_path("round_trip.trace");
    trace::trace_writer writer(path, "unit-mix", true, 2);
    std::vector<trace::trace_record> lane0, lane1;
    for (unsigned i = 0; i < 100; ++i) {
        const auto op = i % 3 == 0 ? cpu::op_class::load
                                   : i % 3 == 1 ? cpu::op_class::store
                                                : cpu::op_class::int_alu;
        const cpu::instruction inst =
            make_inst(op, 0x1000 + 4 * i, 0x2000 + 32 * i, i % 5);
        writer.append(0, inst);
        lane0.push_back(trace::encode(inst));
    }
    const cpu::instruction one =
        make_inst(cpu::op_class::branch, 0x9000, 0, 0, true);
    writer.append(1, one);
    lane1.push_back(trace::encode(one));
    writer.set_warm_table(0, {0x2000, 0x2020, 0x2040});
    ASSERT_TRUE(writer.write());

    const auto data = trace::trace_data::open(path);
    EXPECT_EQ(data->name(), "unit-mix");
    EXPECT_TRUE(data->floating_point());
    ASSERT_EQ(data->lane_count(), 2u);
    EXPECT_EQ(data->total_records(), 101u);

    ASSERT_EQ(data->lane(0).record_count, lane0.size());
    for (std::size_t i = 0; i < lane0.size(); ++i)
        EXPECT_TRUE(same_record(data->lane(0).records[i], lane0[i])) << i;
    ASSERT_EQ(data->lane(0).warm_count, 3u);
    EXPECT_EQ(data->lane(0).warm[0], 0x2000u);
    EXPECT_EQ(data->lane(0).warm[2], 0x2040u);
    ASSERT_EQ(data->lane(1).record_count, 1u);
    EXPECT_TRUE(same_record(data->lane(1).records[0], lane1[0]));
    EXPECT_EQ(data->lane(1).warm_count, 0u);
    std::remove(path.c_str());
}

TEST(trace_format, open_rejects_corruption)
{
    const std::string path = temp_path("corrupt.trace");
    trace::trace_writer writer(path, "corrupt", false, 1);
    writer.append(0, make_inst(cpu::op_class::int_alu, 0x10));
    ASSERT_TRUE(writer.write());

    // Out-of-range op code in the first record. Lane payloads start after
    // header (64) + lane table (1 x 32), 8-aligned -> offset 96; the op
    // byte sits 20 bytes into the record.
    {
        std::FILE* f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, 96 + 20, SEEK_SET);
        std::fputc(0xff, f);
        std::fclose(f);
        EXPECT_THROW(trace::trace_data::open(path), std::runtime_error);
    }
    // Bad magic.
    {
        std::FILE* f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fputc('X', f);
        std::fclose(f);
        EXPECT_THROW(trace::trace_data::open(path), std::runtime_error);
    }
    EXPECT_THROW(trace::trace_data::open(path + ".missing"),
                 std::runtime_error);
    std::remove(path.c_str());
}

TEST(trace_stream, warm_next_positioning_matches_next)
{
    trace::scenario_params params;
    params.cores = 2;
    params.rounds = 16;
    const auto data = trace::make_scenario("migratory", params);
    trace::trace_stream a(data, 0);
    trace::trace_stream b(data, 0);
    for (unsigned i = 0; i < 500; ++i)
        (void)a.next();
    for (unsigned i = 0; i < 300; ++i)
        (void)b.warm_next();
    for (unsigned i = 0; i < 200; ++i)
        (void)b.next();
    // Mixed warm/detailed consumption must land on the same position with
    // the same upcoming content - the sampled driver's fast-forward
    // depends on it.
    EXPECT_EQ(a.position(), b.position());
    for (unsigned i = 0; i < 100; ++i) {
        const cpu::instruction x = a.next();
        const cpu::instruction y = b.next();
        EXPECT_EQ(x.pc, y.pc);
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.op, y.op);
    }
}

TEST(trace_capture, replay_is_bit_identical_single_core)
{
    const std::string path = temp_path("cap_single.trace");
    hier::system_config config = hier::presets::lnuca_l3(3);
    config.capture_path = path;
    const wl::workload_profile live_profile = *wl::find_spec2006("429.mcf");
    const hier::run_result live =
        hier::run_one(config, live_profile, 30'000, 5'000, 7);

    config.capture_path.clear();
    const auto replay_profile = trace::parse_workload_spec("trace:" + path);
    ASSERT_TRUE(replay_profile.has_value());
    const hier::run_result replay =
        hier::run_one(config, *replay_profile, 30'000, 5'000, 7);
    expect_sim_fields_identical(live, replay);
    std::remove(path.c_str());
}

TEST(trace_capture, replay_is_bit_identical_cmp)
{
    const std::string path = temp_path("cap_cmp.trace");
    hier::system_config config =
        hier::presets::cmp(hier::presets::l2_256kb(), 2);
    config.capture_path = path;
    const wl::workload_profile live_profile = *wl::find_spec2006("456.hmmer");
    const hier::run_result live =
        hier::run_one(config, live_profile, 20'000, 4'000, 3);

    config.capture_path.clear();
    const auto replay_profile = trace::parse_workload_spec("trace:" + path);
    ASSERT_TRUE(replay_profile.has_value());
    const hier::run_result replay =
        hier::run_one(config, *replay_profile, 20'000, 4'000, 3);
    expect_sim_fields_identical(live, replay);
    std::remove(path.c_str());
}

TEST(trace_capture, replay_is_bit_identical_under_sampling)
{
    const std::string path = temp_path("cap_sampled.trace");
    hier::system_config config = hier::presets::l2_256kb();
    const auto sampling = hier::parse_sampling_spec("periodic:2000:20000:1000");
    ASSERT_TRUE(sampling.has_value());
    config.sampling = *sampling;
    config.capture_path = path;
    const wl::workload_profile live_profile = *wl::find_spec2006("470.lbm");
    const hier::run_result live =
        hier::run_one(config, live_profile, 60'000, 5'000, 11);
    ASSERT_TRUE(live.sampled);

    // The capture wrapped warm_next() too, so the serialised sequence is
    // exactly what the fast-forward + windows consumed; replaying under
    // the same sampling plan must reproduce every estimate bit-for-bit.
    config.capture_path.clear();
    const auto replay_profile = trace::parse_workload_spec("trace:" + path);
    ASSERT_TRUE(replay_profile.has_value());
    const hier::run_result replay =
        hier::run_one(config, *replay_profile, 60'000, 5'000, 11);
    expect_sim_fields_identical(live, replay);
    std::remove(path.c_str());
}

TEST(trace_capture, replay_is_bit_identical_under_cmp_sampling)
{
    const std::string path = temp_path("cap_cmp_sampled.trace");
    hier::system_config config =
        hier::presets::cmp(hier::presets::lnuca_l3(3), 2);
    const auto sampling = hier::parse_sampling_spec("periodic:1000:8000:400");
    ASSERT_TRUE(sampling.has_value());
    config.sampling = *sampling;
    config.capture_path = path;
    const auto live_profile =
        trace::parse_workload_spec("scenario:producer_consumer");
    ASSERT_TRUE(live_profile.has_value());
    const hier::run_result live =
        hier::run_one(config, *live_profile, 32'000, 4'000, 13);
    ASSERT_TRUE(live.sampled);
    ASSERT_EQ(live.cores, 2u);

    // Every lane's capture wrapped warm_next() too, so the serialised
    // lanes are exactly what the rate-matched fast-forward and the
    // detailed windows consumed (including the lanes' unequal warm
    // retirement); replaying under the same sampling plan must reproduce
    // the estimates and the per-core IPCs bit-for-bit.
    config.capture_path.clear();
    const auto replay_profile = trace::parse_workload_spec("trace:" + path);
    ASSERT_TRUE(replay_profile.has_value());
    const hier::run_result replay =
        hier::run_one(config, *replay_profile, 32'000, 4'000, 13);
    expect_sim_fields_identical(live, replay);
    std::remove(path.c_str());
}

// Two cores alternate stores to one shared block, G serialised ALU fillers
// apart (G dwarfs every coherence and memory latency, so ownership strictly
// alternates); lane 1 starts G/2 fillers later to fix the interleave. Every
// store then misses (the peer invalidated the line), the first fetches from
// below, and each of the remaining 2R-1 invalidates the peer and forwards
// its dirty line cache-to-cache - the hub counters are exactly predictable.
TEST(trace_scenarios, hand_built_ping_pong_has_exact_hub_counters)
{
    constexpr unsigned k_gap = 4000;
    constexpr unsigned k_rounds = 8;
    const addr_t shared = 0x7000'0000;

    const trace::trace_record filler =
        trace::encode(make_inst(cpu::op_class::int_alu, 0x400, 0, 1));
    const trace::trace_record store =
        trace::encode(make_inst(cpu::op_class::store, 0x500, shared));
    std::vector<std::vector<trace::trace_record>> lanes(2);
    lanes[1].insert(lanes[1].end(), k_gap / 2, filler);
    for (auto& lane : lanes)
        for (unsigned r = 0; r < k_rounds; ++r) {
            lane.push_back(store);
            lane.insert(lane.end(), k_gap, filler);
        }
    // Slack past the commit budget so speculative fetch-ahead never wraps
    // into the lane's leading store.
    for (auto& lane : lanes)
        lane.insert(lane.end(), 512, filler);

    const std::string path = temp_path("ping_pong_exact.trace");
    trace::trace_writer writer(path, "hand-ping-pong", false, 2);
    for (unsigned lane = 0; lane < 2; ++lane)
        for (const trace::trace_record& record : lanes[lane])
            writer.append_raw(lane, record);
    ASSERT_TRUE(writer.write());

    const auto profile = trace::parse_workload_spec("trace:" + path);
    ASSERT_TRUE(profile.has_value());
    hier::system sys(hier::presets::cmp(hier::presets::l2_256kb(), 2),
                     std::vector<wl::workload_profile>{*profile}, 1);
    const hier::run_result r =
        sys.run(std::uint64_t(k_rounds) * (k_gap + 1), 0);
    EXPECT_EQ(r.cores, 2u);

    ASSERT_NE(sys.hub(), nullptr);
    const counter_set& hub = sys.hub()->counters();
    EXPECT_EQ(hub.get("reads"), 0u);
    EXPECT_EQ(hub.get("rfos"), 2u * k_rounds);
    EXPECT_EQ(hub.get("upgrades"), 0u);
    EXPECT_EQ(hub.get("invalidations_sent"), 2u * k_rounds - 1);
    EXPECT_EQ(hub.get("downgrades_sent"), 0u);
    EXPECT_EQ(hub.get("c2c_transfers"), 2u * k_rounds - 1);
    EXPECT_EQ(hub.get("c2c_dirty"), 2u * k_rounds - 1);
    // Stores are not loads: the peer forwards count in the hub, not in the
    // core's load service distribution.
    EXPECT_EQ(r.loads_peer, 0u);
    std::remove(path.c_str());
}

TEST(trace_scenarios, library_is_deterministic_and_shares_blocks)
{
    trace::scenario_params params;
    params.cores = 3;
    params.rounds = 8;
    EXPECT_EQ(trace::scenario_names().size(), 5u);
    for (const std::string& name : trace::scenario_names()) {
        EXPECT_TRUE(trace::is_scenario(name));
        const auto a = trace::make_scenario(name, params);
        const auto b = trace::make_scenario(name, params);
        ASSERT_EQ(a->lane_count(), 3u) << name;
        ASSERT_EQ(b->lane_count(), 3u) << name;
        bool shared_touch = false;
        for (unsigned lane = 0; lane < 3; ++lane) {
            ASSERT_EQ(a->lane(lane).record_count, b->lane(lane).record_count)
                << name;
            // Equalised: every lane of one scenario has the same length, so
            // the relative interleave is stable across wrap.
            EXPECT_EQ(a->lane(lane).record_count, a->lane(0).record_count)
                << name;
            for (std::uint64_t i = 0; i < a->lane(lane).record_count; ++i) {
                const trace::trace_record& x = a->lane(lane).records[i];
                ASSERT_TRUE(same_record(x, b->lane(lane).records[i]))
                    << name << " lane " << lane << " record " << i;
                if (lane > 0 && x.addr >= params.shared_base &&
                    x.addr < params.shared_base + 32 * params.shared_blocks &&
                    cpu::is_mem(cpu::op_class(x.op)))
                    shared_touch = true;
            }
        }
        EXPECT_TRUE(shared_touch)
            << name << ": no lane beyond 0 touches the shared region";
    }
    EXPECT_FALSE(trace::is_scenario("nope"));
    EXPECT_THROW(trace::make_scenario("nope", params), std::invalid_argument);
    params.phase_len = 0;
    EXPECT_THROW(trace::make_scenario("ping_pong", params),
                 std::invalid_argument);
}

TEST(trace_scenarios, producer_consumer_moves_data_between_l1s)
{
    const auto profile =
        trace::parse_workload_spec("scenario:producer_consumer");
    ASSERT_TRUE(profile.has_value());
    const hier::run_result r =
        hier::run_one(hier::presets::cmp(hier::presets::l2_256kb(), 2),
                      *profile, 30'000, 2'000, 1);
    EXPECT_EQ(r.cores, 2u);
    EXPECT_GT(r.loads_peer, 0u);
}

TEST(lane_specs, overlapping_regions_enable_sharing)
{
    const hier::system_config config =
        hier::presets::cmp(hier::presets::l2_256kb(), 2);
    const wl::workload_profile p = *wl::find_spec2006("456.hmmer");

    // Default disjoint slots: a multiprogrammed mix never shares a line.
    hier::system disjoint(config, std::vector<hier::lane_spec>{{p, 0}, {p, 0}},
                          5);
    const hier::run_result rd = disjoint.run(20'000, 4'000);
    EXPECT_EQ(rd.loads_peer, 0u);
    EXPECT_EQ(disjoint.hub()->counters().get("c2c_transfers"), 0u);

    // Same base for both lanes: the footprints coincide and coherence
    // traffic appears - the overlap the default disjoint layout cannot
    // express without lane_spec.
    hier::system overlapping(
        config,
        std::vector<hier::lane_spec>{{p, 0x1000'0000}, {p, 0x1000'0000}}, 5);
    const hier::run_result ro = overlapping.run(20'000, 4'000);
    EXPECT_GT(ro.loads_peer, 0u);
    EXPECT_GT(overlapping.hub()->counters().get("invalidations_sent"), 0u);
}

TEST(lane_specs, default_layout_matches_profile_constructor)
{
    const hier::system_config config =
        hier::presets::cmp(hier::presets::lnuca_l3(2), 2);
    const wl::workload_profile p = *wl::find_spec2006("433.milc");

    hier::system by_profiles(
        config, std::vector<wl::workload_profile>{p, p}, 9);
    hier::system by_lanes(config,
                          std::vector<hier::lane_spec>{{p, 0}, {p, 0}}, 9);
    expect_sim_fields_identical(by_profiles.run(15'000, 3'000),
                                by_lanes.run(15'000, 3'000));
}

TEST(workload_spec, parses_every_source_kind)
{
    const auto proxy = trace::parse_workload_spec("429.mcf");
    ASSERT_TRUE(proxy.has_value());
    EXPECT_EQ(proxy->name, "429.mcf");
    EXPECT_TRUE(proxy->trace_path.empty());
    EXPECT_TRUE(proxy->scenario.empty());

    const auto scenario = trace::parse_workload_spec("scenario:false_sharing");
    ASSERT_TRUE(scenario.has_value());
    EXPECT_EQ(scenario->scenario, "false_sharing");
    EXPECT_EQ(scenario->name, "scenario:false_sharing");

    const auto traced = trace::parse_workload_spec("trace:/tmp/x.trace");
    ASSERT_TRUE(traced.has_value());
    EXPECT_EQ(traced->trace_path, "/tmp/x.trace");

    EXPECT_FALSE(trace::parse_workload_spec("trace:").has_value());
    EXPECT_FALSE(trace::parse_workload_spec("scenario:nope").has_value());
    EXPECT_FALSE(trace::parse_workload_spec("not_a_proxy").has_value());

    std::string bad;
    const auto list =
        trace::parse_workload_list("429.mcf,scenario:migratory", &bad);
    ASSERT_EQ(list.size(), 2u);
    EXPECT_EQ(list[1].scenario, "migratory");
    EXPECT_TRUE(
        trace::parse_workload_list("429.mcf,junk,470.lbm", &bad).empty());
    EXPECT_EQ(bad, "junk");
}

} // namespace
} // namespace lnuca
