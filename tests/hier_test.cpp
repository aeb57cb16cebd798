// Hierarchy presets and whole-system assembly.
#include "src/hier/presets.h"
#include "src/hier/system.h"
#include "src/workloads/spec2006.h"
#include "tests/run_result_compare.h"

#include <gtest/gtest.h>

namespace lnuca::hier {
namespace {

TEST(presets, names_follow_paper)
{
    EXPECT_EQ(presets::l2_256kb().name, "L2-256KB");
    EXPECT_EQ(presets::lnuca_l3(2).name, "LN2-72KB");
    EXPECT_EQ(presets::lnuca_l3(3).name, "LN3-144KB");
    EXPECT_EQ(presets::lnuca_l3(4).name, "LN4-248KB");
    EXPECT_EQ(presets::dnuca_4x8().name, "DN-4x8");
    EXPECT_EQ(presets::lnuca_dnuca(2).name, "LN2 + DN-4x8");
}

TEST(presets, table1_parameters)
{
    const auto c = presets::l2_256kb();
    EXPECT_EQ(c.l1.size_bytes, 32_KiB);
    EXPECT_EQ(c.l1.ways, 4u);
    EXPECT_EQ(c.l1.block_bytes, 32u);
    EXPECT_EQ(c.l1.completion_latency, 2u);
    EXPECT_EQ(c.l1.ports, 2u);
    EXPECT_TRUE(c.l1.write_through);
    EXPECT_EQ(c.l2.size_bytes, 256_KiB);
    EXPECT_EQ(c.l2.ways, 8u);
    EXPECT_EQ(c.l2.block_bytes, 64u);
    EXPECT_EQ(c.l2.completion_latency, 4u);
    EXPECT_EQ(c.l2.initiation_interval, 2u);
    EXPECT_TRUE(c.l2.serial_access);
    EXPECT_EQ(c.l3.size_bytes, 8_MiB);
    EXPECT_EQ(c.l3.ways, 16u);
    EXPECT_EQ(c.l3.block_bytes, 128u);
    EXPECT_EQ(c.l3.completion_latency, 20u);
    EXPECT_EQ(c.l3.initiation_interval, 15u);
    EXPECT_EQ(c.memory.first_chunk_latency, 200u);
    EXPECT_EQ(c.memory.inter_chunk_latency, 4u);
    EXPECT_EQ(c.memory.wire_bytes, 16u);
    EXPECT_EQ(c.core.rob_size, 128u);
    EXPECT_EQ(c.core.lsq_size, 64u);
    EXPECT_EQ(c.core.store_buffer_size, 48u);
    EXPECT_EQ(c.core.mispredict_penalty, 8u);
    EXPECT_EQ(c.core.tlb_miss_latency, 30u);
}

TEST(presets, r_tile_differs_from_write_through_l1)
{
    const auto ln = presets::lnuca_l3(3);
    EXPECT_FALSE(ln.l1.write_through);
    EXPECT_FALSE(ln.l1.write_allocate);
    EXPECT_TRUE(ln.l1.writeback_clean);
    EXPECT_EQ(ln.fabric.levels, 3u);
    EXPECT_EQ(ln.fabric.tile.size_bytes, 8_KiB);
    EXPECT_EQ(ln.fabric.tile.ways, 2u);
    EXPECT_EQ(ln.fabric.tile.block_bytes, 32u);
}

TEST(presets, dnuca_table1_parameters)
{
    const auto c = presets::dnuca_4x8();
    EXPECT_EQ(c.dnuca.bank_sets, 8u);
    EXPECT_EQ(c.dnuca.rows, 4u);
    EXPECT_EQ(c.dnuca.bank_bytes, 256_KiB);
    EXPECT_EQ(c.dnuca.bank_ways, 2u);
    EXPECT_EQ(c.dnuca.block_bytes, 128u);
    EXPECT_EQ(c.dnuca.router.virtual_channels, 4u);
}

TEST(presets, config_name_sizes)
{
    EXPECT_EQ(lnuca_config_name(2), "LN2-72KB");
    EXPECT_EQ(lnuca_config_name(3), "LN3-144KB");
    EXPECT_EQ(lnuca_config_name(4), "LN4-248KB");
}

struct run_case {
    const char* preset;
    const char* workload;
};

class system_smoke : public ::testing::TestWithParam<run_case> {};

system_config config_by_name(const std::string& name)
{
    if (name == "L2")
        return presets::l2_256kb();
    if (name == "LN2")
        return presets::lnuca_l3(2);
    if (name == "LN3")
        return presets::lnuca_l3(3);
    if (name == "DN")
        return presets::dnuca_4x8();
    return presets::lnuca_dnuca(2);
}

TEST_P(system_smoke, runs_and_reports)
{
    const auto param = GetParam();
    const auto workload = *wl::find_spec2006(param.workload);
    const auto result =
        run_one(config_by_name(param.preset), workload, 12000, 2000);
    EXPECT_GE(result.instructions, 12000u);
    EXPECT_LE(result.instructions, 12000u + 8);
    EXPECT_GT(result.ipc, 0.05);
    EXPECT_LT(result.ipc, 4.0);
    EXPECT_GT(result.cycles, 3000u);
    EXPECT_GT(result.energy.total(), 0.0);
    EXPECT_EQ(result.workload_name, param.workload);
}

INSTANTIATE_TEST_SUITE_P(
    matrix, system_smoke,
    ::testing::Values(run_case{"L2", "456.hmmer"}, run_case{"L2", "429.mcf"},
                      run_case{"LN2", "456.hmmer"}, run_case{"LN3", "429.mcf"},
                      run_case{"LN3", "470.lbm"}, run_case{"DN", "401.bzip2"},
                      run_case{"LN2+DN", "429.mcf"},
                      run_case{"LN2+DN", "433.milc"}));

TEST(system, deterministic_across_runs)
{
    const auto workload = *wl::find_spec2006("401.bzip2");
    const auto a = run_one(presets::lnuca_l3(3), workload, 8000, 1000, 42);
    const auto b = run_one(presets::lnuca_l3(3), workload, 8000, 1000, 42);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.fabric_read_hits, b.fabric_read_hits);
}

TEST(system, seed_changes_results)
{
    const auto workload = *wl::find_spec2006("401.bzip2");
    const auto a = run_one(presets::lnuca_l3(3), workload, 8000, 1000, 1);
    const auto b = run_one(presets::lnuca_l3(3), workload, 8000, 1000, 2);
    EXPECT_NE(a.cycles, b.cycles);
}

TEST(system, lnuca_reports_level_hits)
{
    const auto workload = *wl::find_spec2006("429.mcf");
    const auto r = run_one(presets::lnuca_l3(3), workload, 25000, 5000);
    ASSERT_EQ(r.fabric_read_hits.size(), 4u);
    EXPECT_GT(r.fabric_read_hits[2] + r.fabric_read_hits[3], 0u);
    EXPECT_GT(r.transport_min, 0u);
    EXPECT_GE(r.transport_actual, r.transport_min);
}

TEST(system, conventional_reports_l2_hits)
{
    const auto workload = *wl::find_spec2006("429.mcf");
    const auto r = run_one(presets::l2_256kb(), workload, 25000, 5000);
    EXPECT_GT(r.l2_read_hits, 0u);
    EXPECT_TRUE(r.fabric_read_hits.empty());
}

TEST(system, loads_distribute_across_levels)
{
    const auto workload = *wl::find_spec2006("429.mcf");
    const auto r = run_one(presets::lnuca_l3(3), workload, 25000, 5000);
    EXPECT_GT(r.loads_l1, 0u);
    EXPECT_GT(r.loads_fabric, 0u);
    EXPECT_GT(r.loads_l3 + r.loads_memory, 0u);
    EXPECT_EQ(r.loads_l2, 0u); // no L2 in this hierarchy
}

// ---------------------------------------------------------------------------
// Idle-skip engine: bit-identity with dense stepping (the refactor's core
// guarantee) across every preset hierarchy x a representative workload mix.
// ---------------------------------------------------------------------------

std::vector<system_config> all_presets()
{
    return {presets::l2_256kb(),     presets::lnuca_l3(2),
            presets::lnuca_l3(3),    presets::lnuca_l3(4),
            presets::dnuca_4x8(),    presets::lnuca_dnuca(2),
            presets::lnuca_dnuca(3), presets::lnuca_dnuca(4)};
}

struct engine_case {
    std::size_t config;
    const char* workload;
};

class engine_bit_identity : public ::testing::TestWithParam<engine_case> {};

TEST_P(engine_bit_identity, dense_and_idle_skip_agree_on_every_field)
{
    const auto param = GetParam();
    system_config config = all_presets()[param.config];
    const auto workload = *wl::find_spec2006(param.workload);

    config.engine_mode = sim::schedule_mode::dense;
    const auto dense = run_one(config, workload, 2500, 500, 7);
    config.engine_mode = sim::schedule_mode::idle_skip;
    const auto skip = run_one(config, workload, 2500, 500, 7);
    // Every simulation field, including the energy breakdown; only the
    // host-timing trio is excluded (nondeterministic by design).
    expect_sim_fields_identical(dense, skip);
    EXPECT_GT(skip.cycles, 0u);
}

// The full preset list crossed with an INT/FP, cache-friendly/memory-bound
// workload mix: the idle-heavy configs (conventional, D-NUCA) are where
// skipping is aggressive, the L-NUCA fabrics are where it is subtle.
INSTANTIATE_TEST_SUITE_P(
    presets_x_workloads, engine_bit_identity,
    ::testing::Values(
        engine_case{0, "456.hmmer"}, engine_case{0, "429.mcf"},
        engine_case{0, "470.lbm"}, engine_case{0, "433.milc"},
        engine_case{1, "456.hmmer"}, engine_case{1, "429.mcf"},
        engine_case{1, "470.lbm"}, engine_case{1, "433.milc"},
        engine_case{2, "456.hmmer"}, engine_case{2, "429.mcf"},
        engine_case{2, "470.lbm"}, engine_case{2, "433.milc"},
        engine_case{3, "456.hmmer"}, engine_case{3, "429.mcf"},
        engine_case{3, "470.lbm"}, engine_case{3, "433.milc"},
        engine_case{4, "456.hmmer"}, engine_case{4, "429.mcf"},
        engine_case{4, "470.lbm"}, engine_case{4, "433.milc"},
        engine_case{5, "456.hmmer"}, engine_case{5, "429.mcf"},
        engine_case{5, "470.lbm"}, engine_case{5, "433.milc"},
        engine_case{6, "456.hmmer"}, engine_case{6, "429.mcf"},
        engine_case{6, "470.lbm"}, engine_case{6, "433.milc"},
        engine_case{7, "456.hmmer"}, engine_case{7, "429.mcf"},
        engine_case{7, "470.lbm"}, engine_case{7, "433.milc"}));

TEST(engine_modes, paranoid_cross_check_passes_on_every_hierarchy_kind)
{
    // Dense stepping that digests component state across every cycle the
    // skip schedule would have jumped: a dishonest next_event() in any
    // component throws engine_paranoia_error.
    const auto workload = *wl::find_spec2006("429.mcf");
    for (std::size_t c : {std::size_t(0), std::size_t(2), std::size_t(3),
                          std::size_t(4), std::size_t(5)}) {
        system_config config = all_presets()[c];
        config.engine_mode = sim::schedule_mode::paranoid;
        EXPECT_NO_THROW(run_one(config, workload, 1500, 300, 11))
            << config.name;
    }
}

TEST(engine_modes, paranoid_holds_the_dnuca_bank_and_ejection_bounds)
{
    // The D-NUCA's next_event() reads only its busy-bank set and the mesh's
    // O(1) flit and ejection counts. Paranoid stepping ticks every cycle and
    // throws if one that bound would have let the engine skip changes any
    // component's state, so a bank or ejection queue the bound overlooks
    // fails here. Memory-bound and cache-friendly proxies cover both long
    // quiet stretches and busy promotion traffic.
    for (const system_config& base :
         {presets::dnuca_4x8(), presets::lnuca_dnuca(3)}) {
        for (const char* name : {"429.mcf", "456.hmmer"}) {
            system_config config = base;
            config.engine_mode = sim::schedule_mode::paranoid;
            system sys(config, *wl::find_spec2006(name), 5);
            EXPECT_NO_THROW(sys.run(3000, 600)) << config.name << " " << name;
            EXPECT_GT(sys.engine().now(), 3000u) << config.name << " " << name;
            EXPECT_GT(sys.engine().cycles_skipped(), 0u)
                << config.name << " " << name;
        }
    }
}

TEST(engine_modes, idle_skip_actually_skips_on_a_conventional_hierarchy)
{
    // The refactor's point: a memory-bound run on the conventional
    // hierarchy spends most cycles with every component idle.
    system_config config = presets::l2_256kb();
    config.engine_mode = sim::schedule_mode::idle_skip;
    system sys(config, *wl::find_spec2006("429.mcf"), 3);
    sys.run(4000, 800);
    EXPECT_GT(sys.engine().cycles_skipped(), 0u);
    EXPECT_EQ(sys.engine().cycles_executed() + sys.engine().cycles_skipped(),
              sys.engine().now());
}

TEST(engine_modes, host_throughput_fields_are_populated)
{
    const auto r = run_one(presets::l2_256kb(), *wl::find_spec2006("429.mcf"),
                           4000, 800, 3);
    EXPECT_GT(r.host_seconds, 0.0);
    EXPECT_GT(r.sim_cycles_per_second, 0.0);
    EXPECT_GT(r.sim_instructions_per_second, 0.0);
}

TEST(run_matrix, parallel_matches_serial)
{
    const std::vector<system_config> configs{presets::l2_256kb(),
                                             presets::lnuca_l3(2)};
    std::vector<wl::workload_profile> workloads{*wl::find_spec2006("456.hmmer"),
                                                *wl::find_spec2006("401.bzip2")};
    const auto matrix = run_matrix(configs, workloads, 6000, 1000, 9);
    ASSERT_EQ(matrix.size(), 2u);
    ASSERT_EQ(matrix[0].size(), 2u);
    // Each cell's seed derives from rng::split(base, config, workload, 0),
    // so the serial reproduction of cell (1, 0) uses that same lane.
    const auto serial =
        run_one(configs[1], workloads[0], 6000, 1000, rng::split(9, 1, 0, 0));
    EXPECT_EQ(matrix[1][0].cycles, serial.cycles);
    EXPECT_EQ(matrix[1][0].ipc, serial.ipc);
}

// ---------------------------------------------------------------------------
// Run-driver goldens: one pinned row per driver shape - exact and sampled,
// one core and two, chunked by checkpoints, and the zero-instruction edge.
// Each value is sim_fields_digest() of the row (its JSONL encoding with the
// host-timing trio zeroed); a mismatch prints the label and the full line.
// ---------------------------------------------------------------------------

struct driver_golden {
    const char* label;
    system_config config;
    /// 1: 429.mcf alone; 2: the 429.mcf + 456.hmmer mix.
    unsigned cores;
    std::uint64_t instructions;
    /// checkpoint.every; 0 measures one segment.
    std::uint64_t ckpt_every;
    std::uint64_t digest;
};

run_result run_golden(const driver_golden& g)
{
    system_config config = g.cores > 1 ? presets::cmp(g.config, g.cores)
                                       : g.config;
    if (g.ckpt_every != 0) {
        config.checkpoint.path =
            ::testing::TempDir() + "lnuca_driver_golden.ckpt";
        config.checkpoint.every = g.ckpt_every;
    }
    std::vector<wl::workload_profile> mix{*wl::find_spec2006("429.mcf")};
    if (g.cores > 1)
        mix.push_back(*wl::find_spec2006("456.hmmer"));
    system sys(config, mix, 5);
    return sys.run(g.instructions, 600);
}

system_config sampled(system_config config)
{
    config.sampling = *parse_sampling_spec("periodic:500:2000:200");
    return config;
}

TEST(run_driver, rows_match_the_pinned_goldens)
{
    const system_config l2 = presets::l2_256kb();
    const system_config ln3 = presets::lnuca_l3(3);
    const system_config dn = presets::dnuca_4x8();
    const system_config ln3dn = presets::lnuca_dnuca(3);
    const driver_golden goldens[] = {
        {"exact L2", l2, 1, 3000, 0, 0xe85337e721b2b482},
        {"exact LN3", ln3, 1, 3000, 0, 0xf4351c77f4b40956},
        {"exact DN", dn, 1, 3000, 0, 0xd9675feff9a2327f},
        {"exact LN3+DN", ln3dn, 1, 3000, 0, 0x1cd6a33a3b72b26e},
        {"exact cmp L2", l2, 2, 3000, 0, 0xf00f8d019c03168a},
        {"exact cmp LN3", ln3, 2, 3000, 0, 0x457f1c9e4934cf9c},
        {"chunked L2", l2, 1, 3000, 1000, 0xac31153158827c04},
        {"chunked LN3", ln3, 1, 3000, 1000, 0x58feb7e92c6c9b31},
        {"chunked DN", dn, 1, 3000, 1000, 0x1e1a21d595e3ebe9},
        {"chunked LN3+DN", ln3dn, 1, 3000, 1000, 0x496ec7dce22eed5d},
        {"chunked cmp L2", l2, 2, 3000, 1000, 0xc5c21641611c94c7},
        {"chunked cmp LN3", ln3, 2, 3000, 1000, 0x76d6edc53fc2efe5},
        {"sampled LN3", sampled(ln3), 1, 8000, 0, 0xee5f0c2cf0bf998e},
        {"sampled cmp L2", sampled(l2), 2, 8000, 0, 0x7cc7e14168b09711},
        {"sampled chunked LN3", sampled(ln3), 1, 8000, 2000,
         0xee5f0c2cf0bf998e},
        {"zero L2", l2, 1, 0, 0, 0x1292d93ec2eec329},
        // Wall cycles are the engine's measured span for every core count:
        // an empty CMP run reports 0 cycles and 0 J, as single-core always
        // did (the per-mode driver reported 1 cycle, 0x7373f49b55669291).
        {"zero cmp L2", l2, 2, 0, 0, 0x14f075d83f4f1dff},
    };
    for (const driver_golden& g : goldens) {
        const run_result r = run_golden(g);
        EXPECT_EQ(sim_fields_digest(r), g.digest)
            << g.label << std::hex << ": 0x" << sim_fields_digest(r)
            << std::dec << "\n" << sim_fields_line(r);
    }
}

} // namespace
} // namespace lnuca::hier
