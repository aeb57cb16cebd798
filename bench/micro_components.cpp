// google-benchmark microbenchmarks: raw throughput of the simulator's
// building blocks (tag array, MSHR file, fabric cycle, mesh cycle, core
// issue and mixed-class core cycle, branch predictor, workload generation)
// and of whole-system simulation.
#include "src/lnuca.h"
#include "tests/core_stubs.h"

#include <benchmark/benchmark.h>

using namespace lnuca;

namespace {

void bm_tag_array_lookup(benchmark::State& state)
{
    mem::tag_array tags({32_KiB, 4, 32, "lru", 1});
    rng rng(7);
    for (addr_t a = 0; a < 32_KiB; a += 32)
        tags.install(a, false);
    for (auto _ : state) {
        const addr_t addr = rng.below(64_KiB);
        benchmark::DoNotOptimize(tags.lookup(addr));
    }
}
BENCHMARK(bm_tag_array_lookup);

void bm_mshr_allocate_release(benchmark::State& state)
{
    mem::mshr_file mshrs(16, 4);
    addr_t a = 0;
    for (auto _ : state) {
        mshrs.allocate(a, 0);
        benchmark::DoNotOptimize(mshrs.release(a));
        a += 64;
    }
}
BENCHMARK(bm_mshr_allocate_release);

void bm_branch_predictor(benchmark::State& state)
{
    cpu::combined_predictor predictor;
    rng rng(3);
    for (auto _ : state) {
        const addr_t pc = 0x400000 + 4 * rng.below(4096);
        const bool taken = rng.chance(0.6);
        benchmark::DoNotOptimize(predictor.predict(pc));
        predictor.update(pc, taken);
    }
}
BENCHMARK(bm_branch_predictor);

void bm_workload_generation(benchmark::State& state)
{
    auto stream = wl::make_stream(*wl::find_spec2006("429.mcf"), 11);
    for (auto _ : state)
        benchmark::DoNotOptimize(stream->next());
}
BENCHMARK(bm_workload_generation);

void bm_fabric_idle_cycle(benchmark::State& state)
{
    mem::txn_id_source ids;
    fabric::fabric_config config;
    config.levels = unsigned(state.range(0));
    fabric::lnuca_cache fabric(config, ids);
    cycle_t now = 0;
    for (auto _ : state)
        fabric.tick(now++);
}
BENCHMARK(bm_fabric_idle_cycle)->Arg(2)->Arg(3)->Arg(4);

void bm_fabric_busy_cycle(benchmark::State& state)
{
    // One tick of an LN3 fabric under a steady trickle of traffic: every
    // fourth cycle the r-tile evicts the next of 2048 blocks (16 per tile
    // set, so replacement dominoes run) and reads back one it evicted at
    // least 256 evictions earlier (a tile or U-buffer hit that is
    // transported home). The r-tile owns a block from its read until its
    // next eviction, as an L1 does. A next level answering reads after 20
    // cycles catches any block that left through a corner exit.
    struct next_level final : mem::mem_port {
        bool can_accept(const mem::mem_request&) const override { return true; }
        void accept(const mem::mem_request& r) override
        {
            if (r.kind != mem::access_kind::read)
                return;
            mem::mem_response response;
            response.id = r.id;
            response.addr = r.addr;
            response.ready_at = r.created_at + 20;
            response.served_by = mem::service_level::l3;
            client->respond(response);
        }
        mem::mem_client* client = nullptr;
    } next;
    mem::txn_id_source ids;
    fabric::fabric_config config;
    fabric::lnuca_cache fabric(config, ids);
    next.client = &fabric;
    fabric.set_downstream(&next);

    constexpr std::uint64_t blocks = 2048;
    std::uint64_t evicted = 0;
    std::uint64_t read = 0;
    cycle_t now = 0;
    const auto offer = [&](std::uint64_t n, mem::access_kind kind) {
        mem::mem_request r;
        r.id = ids.next();
        r.addr = 0x100000 + (n % blocks) * 32;
        r.size = 32;
        r.kind = kind;
        r.needs_response = kind == mem::access_kind::read;
        r.dirty = n % 3 == 0;
        r.created_at = now;
        if (!fabric.can_accept(r))
            return false;
        fabric.accept(r);
        return true;
    };
    const auto cycle = [&] {
        if (now % 4 == 0) {
            if (evicted - read < 512 &&
                offer(evicted, mem::access_kind::writeback))
                ++evicted;
            if (evicted - read > 256 && offer(read, mem::access_kind::read))
                ++read;
        }
        fabric.tick(now++);
    };
    while (now < 40000)
        cycle();
    const std::uint64_t warm = read;
    for (auto _ : state)
        cycle();
    state.SetItemsProcessed(std::int64_t(read - warm));
}
BENCHMARK(bm_fabric_busy_cycle);

void bm_mesh_cycle(benchmark::State& state)
{
    noc::mesh_network mesh({4, 4}, 8, 5);
    // Keep a steady trickle of traffic in flight.
    std::uint64_t packet = 1;
    cycle_t now = 0;
    for (auto _ : state) {
        auto& router = mesh.at({0, 0});
        if (router.local_can_accept(0)) {
            noc::flit f;
            f.packet_id = packet++;
            f.dst = {int(packet % 8), int(1 + packet % 4)};
            router.local_inject(0, f);
        }
        for (int x = 0; x < 8; ++x)
            for (int y = 0; y < 5; ++y)
                while (mesh.at({x, y}).local_eject())
                    ;
        mesh.step(now++);
    }
}
BENCHMARK(bm_mesh_cycle);

void bm_mesh_idle_cycle(benchmark::State& state)
{
    // The same mesh with nothing in flight: what a step costs on the many
    // executed D-NUCA cycles whose traffic is elsewhere (banks, memory).
    noc::mesh_network mesh({4, 4}, 8, 5);
    cycle_t now = 0;
    for (auto _ : state) {
        mesh.step(now++);
        benchmark::DoNotOptimize(mesh.quiescent());
    }
}
BENCHMARK(bm_mesh_idle_cycle);

void bm_core_issue(benchmark::State& state)
{
    // One tick of an INT-saturated core: a full 128-entry ROB of mostly
    // ready, independent INT ops, more than the 4 INT/MEM slots can take,
    // and no FP op, so the FP slots never fill. An 8-wide front end and an
    // INT window as large as the ROB keep it there in steady state; the
    // issue widths are the paper's.
    struct alu_stream final : cpu::instruction_stream {
        cpu::instruction next() override { return {}; }
    } stream;
    cpu::core_config config;
    config.fetch_width = 8;
    config.dispatch_width = 8;
    config.int_window = config.rob_size;
    mem::txn_id_source ids;
    cpu::ooo_core core(config, stream, ids);
    cycle_t now = 0;
    while (now < 1000)
        core.tick(now++);
    const std::uint64_t warm = core.committed();
    for (auto _ : state)
        core.tick(now++);
    state.SetItemsProcessed(std::int64_t(core.committed() - warm));
}
BENCHMARK(bm_core_issue);

void bm_core_mixed(benchmark::State& state)
{
    // One tick of a core on the seeded INT/FP/load/store/branch mix of the
    // core's golden tests, against a 12-cycle L1 that holds six accesses in
    // flight: completions due 1 to 31 cycles out, pushed out of order, DTLB
    // misses, store forwards, port retries and mispredicts - the
    // per-instruction hand-offs bm_core_issue's latency-1 INT stream never
    // reaches.
    cpu::mixed_stream stream(0x5eed, 0.4, 0.15, false);
    mem::txn_id_source ids;
    cpu::ooo_core core({}, stream, ids);
    cpu::instant_cache dcache(12);
    dcache.capacity = 6;
    core.set_dcache(&dcache);
    dcache.client = &core;
    cycle_t now = 0;
    const auto cycle = [&] {
        core.tick(now);
        dcache.tick(now);
        ++now;
    };
    while (now < 10000)
        cycle();
    const std::uint64_t warm = core.committed();
    for (auto _ : state)
        cycle();
    state.SetItemsProcessed(std::int64_t(core.committed() - warm));
}
BENCHMARK(bm_core_mixed);

void bm_system_simulation(benchmark::State& state)
{
    // Whole-system throughput in simulated instructions per wall second.
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        state.PauseTiming();
        hier::system sys(hier::presets::lnuca_l3(3),
                         *wl::find_spec2006("401.bzip2"), 1);
        state.ResumeTiming();
        const auto r = sys.run(20000, 2000);
        instructions += r.instructions;
    }
    state.SetItemsProcessed(std::int64_t(instructions));
}
BENCHMARK(bm_system_simulation)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
