#include "src/hier/system.h"

#include "src/ckpt/archive.h"
#include "src/ckpt/signal.h"
#include "src/common/log.h"
#include "src/trace/scenarios.h"
#include "src/trace/trace_stream.h"
#include "src/trace/trace_writer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include <unistd.h>

namespace lnuca::hier {

namespace {

std::vector<lane_spec>
to_lane_specs(const std::vector<wl::workload_profile>& workloads)
{
    std::vector<lane_spec> lanes;
    lanes.reserve(workloads.size());
    for (const auto& profile : workloads)
        lanes.push_back({profile, 0});
    return lanes;
}

} // namespace

system::system(const system_config& config, const wl::workload_profile& workload,
               std::uint64_t seed)
    : system(config, std::vector<lane_spec>{{workload, 0}}, seed)
{
}

system::system(const system_config& config,
               const std::vector<wl::workload_profile>& workloads,
               std::uint64_t seed)
    : system(config, to_lane_specs(workloads), seed)
{
}

system::system(const system_config& config, const std::vector<lane_spec>& lanes,
               std::uint64_t seed)
    : config_(config), seed_(seed)
{
    if (lanes.empty())
        throw std::invalid_argument("system: no workloads");
    engine_.set_mode(config.engine_mode);
    if (!config_.capture_path.empty())
        capture_ = std::make_unique<trace::trace_writer>(
            config_.capture_path, lanes.front().profile.name,
            lanes.front().profile.floating_point,
            std::max(1u, config_.cores));
    if (config_.cores > 1)
        build_cmp(lanes);
    else
        build_single(lanes.front());
    build_ckpt_components();
}

system::~system()
{
    if (capture_) {
        capture_->set_workload(streams_.front()->profile().name,
                               streams_.front()->profile().floating_point);
        capture_->write();
    }
}

std::shared_ptr<const trace::trace_data>
system::trace_source(const wl::workload_profile& profile)
{
    const std::string key = !profile.trace_path.empty()
                                ? "trace:" + profile.trace_path
                                : "scenario:" + profile.scenario;
    for (const auto& [cached_key, cached] : trace_cache_)
        if (cached_key == key)
            return cached;
    std::shared_ptr<const trace::trace_data> data;
    if (!profile.trace_path.empty()) {
        data = trace::trace_data::open(profile.trace_path);
    } else {
        trace::scenario_params params;
        params.cores = std::max(1u, config_.cores);
        params.seed = seed_;
        data = trace::make_scenario(profile.scenario, params);
    }
    trace_cache_.emplace_back(key, data);
    return data;
}

std::unique_ptr<wl::workload_stream>
system::make_lane_stream(const lane_spec& spec, unsigned lane)
{
    std::unique_ptr<wl::workload_stream> stream;
    if (!spec.profile.trace_path.empty() || !spec.profile.scenario.empty()) {
        stream =
            std::make_unique<trace::trace_stream>(trace_source(spec.profile),
                                                  lane);
    } else {
        // The synthetic seed/region derivations are the frozen pre-trace
        // formulas: single-core and CMP bit-identity guards depend on them.
        const addr_t region =
            spec.region_base != 0
                ? spec.region_base
                : 0x10000000 + addr_t(config_.cores > 1 ? lane : 0) *
                      0x40000000ULL;
        const std::uint64_t stream_seed =
            config_.cores > 1 ? rng::split(seed_, 0x5770c0ULL, lane)
                              : hash64(seed_ ^ hash64(0x5770));
        stream = std::make_unique<wl::synthetic_stream>(spec.profile,
                                                        stream_seed, region);
    }
    if (capture_)
        stream = std::make_unique<trace::capture_stream>(std::move(stream),
                                                         *capture_, lane);
    return stream;
}

system::level_set system::levels() const
{
    level_set l;
    l.fabric = config_.kind == hierarchy_kind::lnuca_l3 ||
               config_.kind == hierarchy_kind::lnuca_dnuca;
    l.l2 = config_.kind == hierarchy_kind::conventional;
    l.l3 = config_.kind == hierarchy_kind::conventional ||
           config_.kind == hierarchy_kind::lnuca_l3;
    l.dnuca = config_.kind == hierarchy_kind::dnuca ||
              config_.kind == hierarchy_kind::lnuca_dnuca;
    return l;
}

void system::build_shared_components()
{
    memory_ = std::make_unique<mem::main_memory>(config_.memory);

    const auto [with_fabric, with_l2, with_l3, with_dnuca] = levels();

    if (with_fabric) {
        fabric::fabric_config fc = config_.fabric;
        fc.seed = hash64(seed_ ^ 0xfab);
        fc.tile.seed = hash64(seed_ ^ 0x711e);
        fabric_ = std::make_unique<fabric::lnuca_cache>(fc, ids_);
    }
    if (with_l2) {
        mem::cache_config l2c = config_.l2;
        l2c.seed = hash64(seed_ ^ 0x22);
        l2_ = std::make_unique<mem::conventional_cache>(l2c, ids_);
    }
    if (with_l3) {
        mem::cache_config l3c = config_.l3;
        l3c.seed = hash64(seed_ ^ 0x33);
        l3_ = std::make_unique<mem::conventional_cache>(l3c, ids_);
    }
    if (with_dnuca) {
        dnuca::dnuca_config dc = config_.dnuca;
        dc.seed = hash64(seed_ ^ 0xd0ca);
        dnuca_ = std::make_unique<dnuca::dnuca_cache>(dc, ids_);
    }
}

// Wire the constructed shared level beneath `above` - the lone L1 in
// single-core mode, the coherence hub in CMP mode - preserving the
// producers-before-consumers registration order (see sim/engine.h):
// fabric-or-(bus, L2), then L3-or-D-NUCA, then memory.
mem::mem_port* system::wire_shared_level(mem::mem_client* above)
{
    const auto [with_fabric, with_l2, with_l3, with_dnuca] = levels();

    mem::mem_port* below = nullptr;
    if (with_fabric) {
        below = fabric_.get();
        fabric_->set_upstream(above);
        engine_.add(*fabric_);
    } else if (with_l2) {
        // The narrow shared bus to the L2: the inter-cache hop the L-NUCA
        // eliminates.
        l1_l2_bus_ = std::make_unique<mem::bus>(config_.l1_l2_bus);
        below = l1_l2_bus_.get();
        l1_l2_bus_->set_upstream(above);
        l1_l2_bus_->set_downstream(l2_.get());
        l2_->set_upstream(l1_l2_bus_.get());
        engine_.add(*l1_l2_bus_);
        engine_.add(*l2_);
    }

    if (below == nullptr) {
        // D-NUCA directly beneath `above` (Fig. 1(c)).
        below = dnuca_.get();
        dnuca_->set_upstream(above);
        engine_.add(*dnuca_);
        dnuca_->set_downstream(memory_.get());
        memory_->set_upstream(dnuca_.get());
        engine_.add(*memory_);
        return below;
    }

    if (with_l3) {
        l3_->set_upstream(static_cast<mem::mem_client*>(
            with_fabric ? static_cast<mem::mem_client*>(fabric_.get())
                        : static_cast<mem::mem_client*>(l2_.get())));
        if (with_fabric)
            fabric_->set_downstream(l3_.get());
        else
            l2_->set_downstream(l3_.get());
        engine_.add(*l3_);
        l3_->set_downstream(memory_.get());
        memory_->set_upstream(l3_.get());
    } else if (with_dnuca) {
        // L-NUCA + D-NUCA (Fig. 1(d)).
        dnuca_->set_upstream(fabric_.get());
        fabric_->set_downstream(dnuca_.get());
        engine_.add(*dnuca_);
        dnuca_->set_downstream(memory_.get());
        memory_->set_upstream(dnuca_.get());
    }
    engine_.add(*memory_);
    return below;
}

// The single-core assembly is byte-for-byte the pre-CMP wiring: same
// derived seeds, same registration order - the cores=1 bit-identity
// guard in tests/coh_test.cpp depends on it.
void system::build_single(const lane_spec& lane)
{
    streams_.push_back(make_lane_stream(lane, 0));
    cores_.push_back(std::make_unique<cpu::ooo_core>(config_.core,
                                                     *streams_.back(), ids_));
    cpu::ooo_core* core = cores_.back().get();

    mem::cache_config l1c = config_.l1;
    l1c.seed = hash64(seed_ ^ 0x11);
    l1s_.push_back(std::make_unique<mem::conventional_cache>(l1c, ids_));
    mem::conventional_cache* l1 = l1s_.back().get();

    build_shared_components();

    // Wire top-down. Registration order is the timing contract: producers
    // tick before the consumers beneath them (see sim/engine.h).
    core->set_dcache(l1);
    engine_.add(*core);
    engine_.add(*l1);
    l1->set_upstream(core);
    l1->set_downstream(wire_shared_level(l1));
    prewarm();
}

// CMP assembly: N private cores/L1s above the coherence hub, the same
// shared level beneath it. Each core's workload lane derives from
// rng::split(seed, lane-tag, core) with a disjoint data region, so mixes
// are multiprogrammed (no shared data between cores; sharing is exercised
// by tests/coh_test.cpp through direct hub workloads).
void system::build_cmp(const std::vector<lane_spec>& lanes)
{
    const unsigned n = config_.cores;
    if (n > mem::max_cores)
        throw std::invalid_argument("system: cores > 32 unsupported");

    for (unsigned i = 0; i < n; ++i) {
        streams_.push_back(make_lane_stream(lanes[i % lanes.size()], i));
        cores_.push_back(std::make_unique<cpu::ooo_core>(
            config_.core, *streams_.back(), ids_));

        mem::cache_config l1c = config_.l1;
        l1c.name = "L1#" + std::to_string(i);
        l1c.seed = rng::split(seed_, 0x11c0ULL, i);
        // MESI structurally requires copy-back write-allocate L1s that
        // notify the directory of every eviction; normalise here (same
        // settings presets::cmp applies) so setting `cores` directly on a
        // stock preset cannot silently break coherence - a write-through
        // L1 would drain stores as access_kind::write, which the hub has
        // no transition for.
        l1c.write_through = false;
        l1c.write_allocate = true;
        l1c.writeback_clean = true;
        l1c.coherent = true;
        l1c.core_id = mem::core_id_t(i);
        l1s_.push_back(std::make_unique<mem::conventional_cache>(l1c, ids_));
    }

    coh::coherence_config cc = config_.coherence;
    cc.cores = n;
    cc.block_bytes = config_.l1.block_bytes;
    if (cc.directory_entries == 0) {
        // Inclusive over the L1s: size for every line every L1 can hold
        // plus in-flight fills/evictions, doubled for the open-addressed
        // index's load factor - overflow becomes structurally impossible.
        const std::uint32_t l1_lines =
            std::uint32_t(config_.l1.size_bytes / config_.l1.block_bytes);
        cc.directory_entries = n * (l1_lines + config_.l1.mshr_entries +
                                    config_.l1.write_buffer_entries + 64);
    }
    hub_ = std::make_unique<coh::coherence_hub>(cc, ids_);
    hub_->set_paranoid(config_.engine_mode == sim::schedule_mode::paranoid);

    build_shared_components();

    // Registration order: cores, private L1s, hub, shared level, memory -
    // the same producers-before-consumers contract as the single-core
    // wiring, with the hub standing where the lone L1's downstream was.
    for (unsigned i = 0; i < n; ++i) {
        cores_[i]->set_dcache(l1s_[i].get());
        engine_.add(*cores_[i]);
    }
    for (unsigned i = 0; i < n; ++i) {
        l1s_[i]->set_upstream(cores_[i].get());
        l1s_[i]->set_downstream(hub_.get());
        hub_->attach_l1(mem::core_id_t(i), l1s_[i].get());
        engine_.add(*l1s_[i]);
    }
    engine_.add(*hub_);
    hub_->set_downstream(wire_shared_level(hub_.get()));
    prewarm();
}

void system::prewarm()
{
    // Functionally install the workloads' hot windows into the large
    // arrays before measurement, substituting for the paper's
    // 200M-instruction warm-up, which scaled-down runs cannot afford.
    // Smaller structures (L1, L-NUCA tiles, conventional L2) warm
    // naturally during the simulated warm-up window; the L2 is included
    // here because its 4K lines are borderline at short windows. With N
    // cores the capacity splits evenly across the per-core streams (each
    // stream owns a disjoint region, so the shares cannot collide).
    // Streams with no warm table (scenario lanes, traces captured from
    // them) skip pre-warm: their working sets are small enough to warm
    // naturally, and there is no hot-window structure to install.
    const std::uint64_t n = streams_.size();
    auto warm_cache = [&](mem::conventional_cache* cache) {
        if (cache == nullptr)
            return;
        const std::uint64_t lines =
            cache->tags().size_bytes() / cache->tags().block_bytes();
        const std::uint64_t window =
            lines * cache->tags().block_bytes() / 32 / n; // generator blocks
        for (const auto& stream : streams_) {
            if (stream->warm_block_count() == 0)
                continue;
            for (std::uint64_t j = window; j-- > 0;)
                cache->tags().install(stream->warm_block(j), false);
        }
    };
    warm_cache(l3_.get());
    warm_cache(l2_.get());
    if (dnuca_) {
        const std::uint64_t window = dnuca_->size_bytes() / 32 / n;
        for (const auto& stream : streams_) {
            if (stream->warm_block_count() == 0)
                continue;
            for (std::uint64_t j = window; j-- > 0;)
                dnuca_->prewarm(stream->warm_block(j));
        }
    }
    if (fabric_) {
        // The fabric holds the recency window just beyond the L1's 1024
        // blocks; the L1 itself warms naturally within the warm-up window.
        const std::uint64_t l1_blocks = config_.l1.size_bytes / 32;
        const std::uint64_t capacity = fabric_->tile_capacity_bytes() / 32 / n;
        for (const auto& stream : streams_) {
            if (stream->warm_block_count() == 0)
                continue;
            std::uint64_t installed = 0;
            for (std::uint64_t j = l1_blocks;
                 installed < capacity && j < l1_blocks + 2 * capacity; ++j)
                installed += fabric_->prewarm(stream->warm_block(j)) ? 1 : 0;
        }
    }
}

namespace {

std::uint64_t counter_delta(const counter_set& counters, const std::string& name,
                            const counter_set& snapshot)
{
    return counters.get(name) - snapshot.get(name);
}

} // namespace

/// Snapshot/delta accumulator for detailed measurement: the exact plan sums
/// its chunks (one covering the whole run without checkpoints), the sampled
/// plan its windows (plus per-window CPI samples for the confidence
/// interval).
struct system::window_totals {
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::vector<double> window_cpi; ///< one sample per window (CI input)

    std::uint64_t l2_read_hits = 0;
    std::vector<std::uint64_t> fabric_read_hits;
    std::uint64_t transport_actual = 0;
    std::uint64_t transport_min = 0;
    std::uint64_t search_restarts = 0;
    std::uint64_t searches = 0;
    std::uint64_t loads_l1 = 0;
    std::uint64_t loads_fabric = 0;
    std::uint64_t loads_l2 = 0;
    std::uint64_t loads_l3 = 0;
    std::uint64_t loads_dnuca = 0;
    std::uint64_t loads_memory = 0;
    std::uint64_t loads_peer = 0;
    std::uint64_t load_latency_weighted = 0; ///< exact Σ latency (histogram)
    std::uint64_t load_latency_count = 0;
    power::energy_inputs energy; ///< event counts summed over windows
                                 ///< (cycles overwritten with the estimate
                                 ///< before compute_energy)

    /// The accumulated measurement travels inside the checkpoint's `driver`
    /// section, so a resumed run continues summing into the same totals.
    template <class Ar> void serialize(Ar& ar)
    {
        ar(instructions);
        ar(cycles);
        ar(window_cpi);
        ar(l2_read_hits);
        ar(fabric_read_hits);
        ar(transport_actual);
        ar(transport_min);
        ar(search_restarts);
        ar(searches);
        ar(loads_l1);
        ar(loads_fabric);
        ar(loads_l2);
        ar(loads_l3);
        ar(loads_dnuca);
        ar(loads_memory);
        ar(loads_peer);
        ar(load_latency_weighted);
        ar(load_latency_count);
        ar(energy);
    }
};

/// Baseline counter values for one measured span; harvest_levels() turns
/// the snapshot and the post-span counters into window_totals deltas.
struct system::level_snapshot {
    std::vector<counter_set> l1;
    counter_set l2, l3, fabric, dnuca, memory;
    std::uint64_t dn_hops = 0;
    std::vector<std::uint64_t> fab_hits;
    std::uint64_t transport_actual = 0;
    std::uint64_t transport_min = 0;
};

/// The driver's whole progress state: the checkpoint `driver` section, so a
/// resumed run continues summing into the same totals and cursors.
struct system::progress {
    /// Index of the next segment to run.
    std::uint64_t next = 0;
    /// Per-lane instructions retired so far (the checkpoint cadence cursor).
    std::uint64_t retired = 0;
    /// Draws each sampled window's offset within its span.
    rng placement;
    /// Measured commits and cycles per core (per_core_ipc).
    std::vector<std::uint64_t> core_instr;
    std::vector<std::uint64_t> core_cycles;
    /// Per-lane retirement rate in the latest measured segment, fed back
    /// into the fast-forward (see fast_forward). All 1.0 until the first
    /// window, which makes the first fast-forwards lockstep.
    std::vector<double> rates;
    window_totals totals;

    template <class Ar> void serialize(Ar& ar)
    {
        ar(next);
        ar(retired);
        ar(placement);
        ar(core_instr);
        ar(core_cycles);
        ar(rates);
        ar(totals);
    }
};

system::level_snapshot system::snap_levels() const
{
    level_snapshot snap;
    snap.l1.reserve(l1s_.size());
    for (const auto& l1 : l1s_)
        snap.l1.push_back(l1->counters());
    if (l2_)
        snap.l2 = l2_->counters();
    if (l3_)
        snap.l3 = l3_->counters();
    if (fabric_) {
        snap.fabric = fabric_->counters();
        for (unsigned level = 0; level <= config_.fabric.levels; ++level)
            snap.fab_hits.push_back(fabric_->read_hits_in_level(level));
        snap.transport_actual = fabric_->transport_actual_cycles();
        snap.transport_min = fabric_->transport_min_cycles();
    }
    if (dnuca_) {
        snap.dnuca = dnuca_->counters();
        snap.dn_hops = dnuca_->mesh().flit_hops();
    }
    snap.memory = memory_->counters();
    return snap;
}

void system::harvest_levels(const level_snapshot& snap, window_totals& totals)
{
    if (l2_)
        totals.l2_read_hits +=
            counter_delta(l2_->counters(), "read_hit", snap.l2);
    if (fabric_) {
        if (totals.fabric_read_hits.empty())
            totals.fabric_read_hits.assign(config_.fabric.levels + 1, 0);
        for (unsigned level = 2; level <= config_.fabric.levels; ++level)
            totals.fabric_read_hits[level] +=
                fabric_->read_hits_in_level(level) - snap.fab_hits[level];
        totals.transport_actual +=
            fabric_->transport_actual_cycles() - snap.transport_actual;
        totals.transport_min +=
            fabric_->transport_min_cycles() - snap.transport_min;
        totals.search_restarts +=
            counter_delta(fabric_->counters(), "search_restarts", snap.fabric);
        totals.searches += counter_delta(fabric_->counters(),
                                         "searches_injected", snap.fabric);
    }

    power::energy_inputs& in = totals.energy;
    for (std::size_t i = 0; i < l1s_.size(); ++i)
        in.l1_accesses +=
            counter_delta(l1s_[i]->counters(), "accesses", snap.l1[i]);
    if (l2_) {
        in.has_l2 = true;
        in.l2_accesses += counter_delta(l2_->counters(), "accesses", snap.l2);
    }
    if (fabric_) {
        const auto& fc = fabric_->counters();
        in.fabric_tiles = fabric_->geo().tile_count();
        in.tile_tag_lookups +=
            counter_delta(fc, "tile_tag_lookups", snap.fabric);
        in.tile_data_accesses +=
            counter_delta(fc, "tile_data_reads", snap.fabric) +
            counter_delta(fc, "tile_data_writes", snap.fabric);
        in.transport_hops += counter_delta(fc, "transport_hops", snap.fabric);
        in.replacement_hops +=
            counter_delta(fc, "replacement_hops", snap.fabric);
        in.search_hops +=
            counter_delta(fc, "search_broadcast_hops", snap.fabric);
    }
    if (l3_) {
        in.has_l3 = true;
        in.l3_accesses += counter_delta(l3_->counters(), "accesses", snap.l3);
    }
    if (dnuca_) {
        in.dnuca_banks = config_.dnuca.bank_sets * config_.dnuca.rows;
        in.bank_accesses +=
            counter_delta(dnuca_->counters(), "bank_lookups", snap.dnuca) +
            counter_delta(dnuca_->counters(), "bank_writes", snap.dnuca);
        in.dnuca_flit_hops += dnuca_->mesh().flit_hops() - snap.dn_hops;
    }
    in.memory_transfers +=
        counter_delta(memory_->counters(), "transfers", snap.memory);
}

void system::harvest_core(cpu::ooo_core& core, window_totals& totals) const
{
    totals.loads_l1 += core.loads_served_by(mem::service_level::l1);
    totals.loads_fabric +=
        core.loads_served_by(mem::service_level::lnuca_tile);
    totals.loads_l2 += core.loads_served_by(mem::service_level::l2);
    totals.loads_l3 += core.loads_served_by(mem::service_level::l3);
    totals.loads_dnuca += core.loads_served_by(mem::service_level::dnuca);
    totals.loads_memory += core.loads_served_by(mem::service_level::memory);
    totals.loads_peer += core.loads_served_by(mem::service_level::peer_l1);
    totals.load_latency_weighted += core.load_latency().weighted_sum();
    totals.load_latency_count += core.load_latency().total();
}

void system::apply_totals(run_result& r, const window_totals& totals,
                          double factor) const
{
    // Event counts extrapolate from the measured instructions to the whole
    // run. The exact plan passes 1.0, which is the identity for every count
    // below 2^53.
    const auto scaled = [factor](std::uint64_t v) {
        return std::uint64_t(std::llround(double(v) * factor));
    };
    r.l2_read_hits = scaled(totals.l2_read_hits);
    for (const std::uint64_t hits : totals.fabric_read_hits)
        r.fabric_read_hits.push_back(scaled(hits));
    r.transport_actual = scaled(totals.transport_actual);
    r.transport_min = scaled(totals.transport_min);
    r.search_restarts = scaled(totals.search_restarts);
    r.searches = scaled(totals.searches);
    r.loads_l1 = scaled(totals.loads_l1);
    r.loads_fabric = scaled(totals.loads_fabric);
    r.loads_l2 = scaled(totals.loads_l2);
    r.loads_l3 = scaled(totals.loads_l3);
    r.loads_dnuca = scaled(totals.loads_dnuca);
    r.loads_memory = scaled(totals.loads_memory);
    r.loads_peer = scaled(totals.loads_peer);
    r.avg_load_latency =
        totals.load_latency_count == 0
            ? 0.0
            : totals.load_latency_weighted / double(totals.load_latency_count);

    power::energy_inputs in = totals.energy;
    in.cycles = r.cycles;
    for (std::uint64_t* count :
         {&in.l1_accesses, &in.l2_accesses, &in.tile_tag_lookups,
          &in.tile_data_accesses, &in.transport_hops, &in.replacement_hops,
          &in.search_hops, &in.l3_accesses, &in.bank_accesses,
          &in.dnuca_flit_hops, &in.memory_transfers})
        *count = scaled(*count);
    r.energy = power::compute_energy(in);
}

// ---------------------------------------------------------------------------
// Checkpoint/restore orchestration. The system owns the section layout -
// every component's save_state/load_state runs inside a section the system
// opens for it - so the file structure is decided in exactly one place and
// the reader's exact-consumption check catches any reader/writer drift per
// component instead of smearing it across the file.
// ---------------------------------------------------------------------------

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v)
{
    return hash64(h ^ hash64(v));
}

std::uint64_t mix_str(std::uint64_t h, const std::string& s)
{
    for (const char c : s)
        h = mix(h, std::uint64_t(std::uint8_t(c)));
    return mix(h, s.size());
}

} // namespace

void system::build_ckpt_components()
{
    const auto add = [this](ckpt::section_id section, std::uint32_t index,
                            const std::string& name, sim::ticked* state) {
        if (state != nullptr)
            ckpt_components_.push_back({section, index, name, state});
    };
    for (std::uint32_t i = 0; i < cores_.size(); ++i)
        add(ckpt::section_id::core, i, "core" + std::to_string(i),
            cores_[i].get());
    for (std::uint32_t i = 0; i < l1s_.size(); ++i)
        add(ckpt::section_id::l1, i, "l1#" + std::to_string(i), l1s_[i].get());
    add(ckpt::section_id::hub, 0, "hub", hub_.get());
    add(ckpt::section_id::bus, 0, "bus", l1_l2_bus_.get());
    add(ckpt::section_id::l2, 0, "l2", l2_.get());
    add(ckpt::section_id::l3, 0, "l3", l3_.get());
    add(ckpt::section_id::fabric, 0, "fabric", fabric_.get());
    add(ckpt::section_id::dnuca, 0, "dnuca", dnuca_.get());
    add(ckpt::section_id::memory, 0, "memory", memory_.get());
}

std::uint64_t system::ckpt_config_hash() const
{
    // Everything that decides which plan runs, which sections exist and
    // how the components are sized. Deliberately not every tuning knob: the
    // per-component payloads carry their own structure (vector sizes), so a
    // resized cache fails the section load loudly even if the hash passed.
    // The salt names the `driver` section layout (system::progress): a
    // snapshot from another layout is a config-hash mismatch, rejected
    // before any state is touched.
    std::uint64_t h = 0x4c4e4b50'54310002ULL;
    h = mix_str(h, config_.name);
    h = mix(h, std::uint64_t(config_.kind));
    h = mix(h, config_.cores);
    h = mix(h, seed_);
    h = mix(h, std::uint64_t(config_.engine_mode));
    h = mix(h, config_.sampling.enabled ? 1 : 0);
    h = mix(h, config_.sampling.detail_instructions);
    h = mix(h, config_.sampling.detail_warmup);
    h = mix(h, config_.sampling.period_instructions);
    h = mix(h, config_.l1.size_bytes);
    h = mix(h, config_.l2.size_bytes);
    h = mix(h, config_.l3.size_bytes);
    h = mix(h, config_.fabric.levels);
    h = mix(h, config_.dnuca.bank_sets);
    h = mix(h, config_.dnuca.rows);
    for (const auto& stream : streams_)
        h = mix_str(h, stream->profile().name);
    return h;
}

void system::save_checkpoint(std::uint64_t run_instructions,
                             std::uint64_t run_warmup, const progress& p)
{
    using ckpt::section_id;
    try {
        ckpt::writer w;

        // meta: pure run identity, validated on restore before any state
        // is touched (so a mismatch is always a safe cold start).
        w.begin_section(section_id::meta);
        {
            ckpt::saver ar(w);
            ar(run_instructions);
            ar(run_warmup);
            ar(seed_);
            std::uint64_t lanes = streams_.size();
            std::uint64_t n_cores = cores_.size();
            ar(lanes);
            ar(n_cores);
        }
        w.end_section();

        w.begin_section(section_id::engine);
        {
            ckpt::saver ar(w);
            engine_.serialize(ar);
            ar(ids_);
        }
        w.end_section();

        for (const ckpt_component& c : ckpt_components_) {
            w.begin_section(c.section, c.index);
            c.state->save_state(w);
            w.end_section();
        }

        for (std::size_t i = 0; i < streams_.size(); ++i) {
            w.begin_section(section_id::stream, std::uint32_t(i));
            streams_[i]->save_state(w);
            w.end_section();
        }

        w.begin_section(section_id::driver);
        {
            ckpt::saver ar(w);
            ar(p);
        }
        w.end_section();

        // Digest values in section order; restore recomputes and compares,
        // so a load that "succeeded" into the wrong state is caught before
        // the run resumes.
        w.begin_section(section_id::digests);
        {
            ckpt::saver ar(w);
            for (const ckpt_component& c : ckpt_components_)
                ar(c.state->state_digest());
        }
        w.end_section();

        w.finalize(config_.checkpoint.path, ckpt_config_hash());
    } catch (const ckpt::ckpt_error& e) {
        // A failed save must never kill the run it protects; the previous
        // snapshot (if any) is still intact thanks to the atomic replace.
        LNUCA_WARN("checkpoint save failed (", e.what(),
                   "); continuing without a snapshot");
    }
}

bool system::try_load_checkpoint(std::uint64_t run_instructions,
                                 std::uint64_t run_warmup, progress& p)
{
    using ckpt::section_id;
    const checkpoint_config& cc = config_.checkpoint;
    if (!cc.resume || cc.path.empty())
        return false;
    if (::access(cc.path.c_str(), F_OK) != 0)
        return false; // no snapshot yet: the normal first-run cold start

    bool mutated = false;
    try {
        ckpt::reader r(cc.path);
        if (r.config_hash() != ckpt_config_hash())
            throw ckpt::ckpt_error(
                cc.path +
                ": checkpoint belongs to a different run (config hash "
                "mismatch)");

        r.open_section(section_id::meta);
        {
            ckpt::loader ar(r);
            std::uint64_t instr = 0, wu = 0, seed = 0, lanes = 0, n_cores = 0;
            ar(instr);
            ar(wu);
            ar(seed);
            ar(lanes);
            ar(n_cores);
            if (instr != run_instructions || wu != run_warmup)
                throw ckpt::ckpt_error(
                    cc.path + ": run length mismatch (checkpointed " +
                    std::to_string(instr) + "+" + std::to_string(wu) +
                    ", requested " + std::to_string(run_instructions) + "+" +
                    std::to_string(run_warmup) + ")");
            if (seed != seed_ || lanes != streams_.size() ||
                n_cores != cores_.size())
                throw ckpt::ckpt_error(cc.path +
                                       ": seed or topology mismatch");
        }
        r.close_section();

        // Everything below mutates live state: a failure past this point
        // leaves the system neither cold nor restored, so it escalates to
        // the caller (which rebuilds from scratch) instead of silently
        // "falling back" on polluted state.
        mutated = true;

        r.open_section(section_id::engine);
        {
            ckpt::loader ar(r);
            engine_.serialize(ar);
            ar(ids_);
        }
        r.close_section();

        for (const ckpt_component& c : ckpt_components_) {
            r.open_section(c.section, c.index);
            c.state->load_state(r);
            r.close_section();
        }

        for (std::size_t i = 0; i < streams_.size(); ++i) {
            r.open_section(section_id::stream, std::uint32_t(i));
            streams_[i]->load_state(r);
            r.close_section();
        }

        r.open_section(section_id::driver);
        {
            ckpt::loader ar(r);
            ar(p);
        }
        r.close_section();

        // Digest verification: the save-time digests must match the values
        // the restored components compute now.
        r.open_section(section_id::digests);
        {
            ckpt::loader ar(r);
            for (const ckpt_component& c : ckpt_components_) {
                std::uint64_t stored = 0;
                ar(stored);
                if (stored != c.state->state_digest())
                    throw ckpt::ckpt_error(
                        cc.path + ": state digest mismatch after restore (" +
                        c.name + ")");
            }
        }
        r.close_section();

        // Paranoid fidelity additionally proves the restored directory
        // sound before a single post-restore cycle executes.
        if (config_.engine_mode == sim::schedule_mode::paranoid && hub_)
            hub_->check_invariants();

        LNUCA_INFO("resumed from checkpoint ", cc.path, " at cycle ",
                   engine_.now());
        return true;
    } catch (const ckpt::ckpt_error& e) {
        if (!mutated) {
            LNUCA_WARN("ignoring checkpoint (", e.what(), "); cold start");
            return false;
        }
        throw ckpt::ckpt_error(
            std::string("checkpoint restore failed after state was "
                        "partially loaded (") +
            e.what() + "); rebuild the system and run cold");
    }
}

void system::checkpoint_boundary(std::uint64_t run_instructions,
                                 std::uint64_t run_warmup, const progress& p)
{
    const checkpoint_config& cc = config_.checkpoint;
    if (!cc.enabled())
        return;
    const bool signalled = ckpt::interrupt_requested();
    if (!signalled && p.retired - ckpt_last_save_ < cc.every)
        return;

    save_checkpoint(run_instructions, run_warmup, p);
    ckpt_last_save_ = p.retired;
    ++ckpt_saves_;

    // CI crash hook: simulate a SIGKILL a bounded number of saves into the
    // run (the fault harness cannot aim a real KILL at a quiescent point).
    if (const char* env = std::getenv("LNUCA_CKPT_EXIT_AFTER")) {
        const std::uint64_t n = std::strtoull(env, nullptr, 10);
        if (n != 0 && ckpt_saves_ >= n)
            std::_Exit(137);
    }
    if (signalled || (cc.halt_after != 0 && ckpt_saves_ >= cc.halt_after))
        throw ckpt::interrupted(cc.path);
}

void system::checkpoint_complete()
{
    // A finished run's snapshot must not survive: resuming it would replay
    // the final chunk of an already-reported job.
    if (config_.checkpoint.enabled())
        ::unlink(config_.checkpoint.path.c_str());
}

// ---------------------------------------------------------------------------
// Phase primitives: quiescence, drain, functional fast-forward and the
// detailed segment. Sampled execution is SMARTS-style; see DESIGN.md,
// "Sampling and statistical confidence".
// ---------------------------------------------------------------------------

bool system::quiescent() const
{
    for (const auto& core : cores_)
        if (!core->quiescent())
            return false;
    for (const auto& l1 : l1s_)
        if (!l1->quiescent())
            return false;
    return (!hub_ || hub_->quiescent()) &&
           (!l1_l2_bus_ || l1_l2_bus_->quiescent()) &&
           (!l2_ || l2_->quiescent()) && (!l3_ || l3_->quiescent()) &&
           (!fabric_ || fabric_->quiescent()) &&
           (!dnuca_ || dnuca_->quiescent()) && memory_->quiescent();
}

void system::drain(cycle_t max_cycles, const char* phase)
{
    if (!engine_.run_until([&] { return quiescent(); }, max_cycles))
        LNUCA_WARN(phase, ": hierarchy failed to drain within ", max_cycles,
                   " cycles; continuing anyway");
}

void system::fast_forward(std::uint64_t count, const std::vector<double>& rates)
{
    if (count == 0)
        return;
    // Per-lane quota proportional to the lane's measured rate, normalised
    // to the mean so sum(quota) == count * cores: the aggregate accounting
    // (retired instructions, clock advance) is unchanged while the lane
    // *positions* drift apart exactly as they do under the dense schedule.
    // With one lane, or with equal rates, every share is exactly 1.0.
    const std::size_t n_cores = cores_.size();
    double sum = 0.0;
    for (const double r : rates)
        sum += std::max(r, 1e-6);
    std::vector<std::uint64_t> remaining(n_cores);
    std::vector<std::uint64_t> chunk(n_cores);
    for (std::size_t i = 0; i < n_cores; ++i) {
        const double share =
            std::max(rates[i], 1e-6) * double(n_cores) / sum;
        remaining[i] = std::uint64_t(std::llround(double(count) * share));
        // Round-robin retirement in ~64 * share chunks so the lanes' warm
        // accesses interleave at a fine grain: coherence behaviour
        // (invalidations, downgrades, cache-to-cache migration) depends on
        // the interleave, and retiring whole lanes back-to-back would let
        // one lane monopolise every contended line before the next starts.
        chunk[i] = std::max<std::uint64_t>(
            1, std::uint64_t(std::llround(64.0 * share)));
    }
    bool any = true;
    while (any) {
        any = false;
        for (std::size_t i = 0; i < n_cores; ++i) {
            const std::uint64_t n = std::min(chunk[i], remaining[i]);
            if (n == 0)
                continue;
            cores_[i]->warm_retire(n);
            remaining[i] -= n;
            any = any || remaining[i] > 0;
        }
    }
    // The warm MESI transitions must leave the directory sound after every
    // functional segment; paranoid runs assert it.
    if (hub_ && config_.engine_mode == sim::schedule_mode::paranoid)
        hub_->check_invariants();
    // The clock advances at a nominal CPI of 1: reported cycles come from
    // the window estimate, so the rate only keeps timestamps monotone.
    engine_.advance(count);
}

void system::detailed_segment(std::uint64_t instructions, cycle_t max_cycles,
                              window_totals* totals)
{
    // Every lane gets the same committed-instruction quota and the segment
    // CPI is the aggregate (total instructions over wall cycles).
    const auto all_done = [&] {
        for (const auto& core : cores_)
            if (!core->done())
                return false;
        return true;
    };
    for (auto& core : cores_)
        core->reset_stats();
    if (totals == nullptr) {
        // Warm segment: re-establish pipeline/queue/MSHR occupancy under
        // full timing; measurements are discarded.
        for (auto& core : cores_)
            core->set_instruction_limit(instructions);
        engine_.run_until(all_done, max_cycles);
        return;
    }

    const level_snapshot snap = snap_levels();

    const cycle_t start = engine_.now();
    for (auto& core : cores_)
        core->set_instruction_limit(instructions);
    const bool finished = engine_.run_until(all_done, max_cycles);
    if (!finished)
        LNUCA_WARN("measurement window hit the cycle ceiling before "
                   "committing ", instructions, " instructions");

    std::uint64_t instr = 0;
    for (const auto& core : cores_)
        instr += core->committed();
    const std::uint64_t cycles = engine_.now() - start;
    totals->instructions += instr;
    totals->cycles += cycles;
    totals->window_cpi.push_back(instr == 0 ? 0.0
                                            : double(cycles) / double(instr));

    harvest_levels(snap, *totals);
    for (auto& core : cores_)
        harvest_core(*core, *totals);
}

// ---------------------------------------------------------------------------
// The run driver. One loop serves both plans and every core count (a
// single-core system is the n = 1 case of the CMP wiring):
//   exact    measures checkpoint-sized chunks under full detail - one chunk
//            covering the whole run unless checkpoint.every cuts it;
//   sampled  places one detailed window per period: fast-forward ->
//            detailed warm-up -> measured window -> drain -> fast-forward
//            to the end of the period.
// Each measured segment gets the same per-core accounting, each segment
// boundary the same checkpoint call, and both plans the same result tail.
// ---------------------------------------------------------------------------

run_result system::run(std::uint64_t instructions, std::uint64_t warmup)
{
    const std::size_t n_cores = cores_.size();
    const sampling_config& sc = config_.sampling;
    // A zero-instruction request has no windows to place; the exact plan
    // measures it as one empty segment.
    const bool sampled = sc.enabled && instructions > 0;
    // Generous cycle ceiling: runaways are bugs, and contended CMP lanes
    // run slower than a lone core.
    const auto ceiling = [](std::uint64_t n) {
        return cycle_t(600 * n + 2'000'000);
    };

    // Exact plan: segments of at most `chunk` per-lane instructions.
    const std::uint64_t chunk =
        config_.checkpoint.enabled() ? config_.checkpoint.every : instructions;
    // Sampled plan: `windows` spans of `base_span` per-lane instructions
    // (the last takes the remainder), each measuring `detail` instructions
    // after `window_warmup` detailed warm-up ones at a random offset.
    std::uint64_t detail = 0, window_warmup = 0, windows = 0, base_span = 0;
    cycle_t budget = ceiling(instructions + warmup);
    if (sampled) {
        detail = std::min(std::max<std::uint64_t>(sc.detail_instructions, 1),
                          instructions);
        window_warmup = std::min(sc.detail_warmup, instructions - detail);
        const std::uint64_t period =
            std::max(sc.period_instructions, detail + window_warmup);
        windows = std::max<std::uint64_t>(1, instructions / period);
        base_span = std::max(instructions / windows, detail + window_warmup);
        budget = ceiling(sc.detail_instructions + sc.detail_warmup);
    }

    progress p;
    // Deterministic systematic placement: each window sits at an
    // independent random offset within its period, derived from the run
    // seed alone - thread count and shard layout cannot move a window.
    p.placement = rng(rng::split(seed_, 0x5a3b11d6ULL, windows, 0));
    p.core_instr.assign(n_cores, 0);
    p.core_cycles.assign(n_cores, 0);
    p.rates.assign(n_cores, 1.0);
    const auto more = [&] {
        return sampled ? p.next < windows
                       : p.next == 0 || p.retired < instructions;
    };
    const auto all_done = [&] {
        for (const auto& core : cores_)
            if (!core->done())
                return false;
        return true;
    };
    const auto max_committed = [&] {
        std::uint64_t m = 0;
        for (const auto& core : cores_)
            m = std::max(m, core->committed());
        return m;
    };

    // Warm-up. Not checkpointed: a kill during warm-up restarts cold.
    if (try_load_checkpoint(instructions, warmup, p)) {
        ckpt_last_save_ = p.retired;
    } else if (sampled) {
        // Functional: large-structure warmth comes from prewarm() plus the
        // warm_access() path, timing warmth from each window's detailed
        // warm-up.
        fast_forward(warmup, p.rates);
    } else {
        // Timed: every core runs its quota and early finishers idle (the
        // fixed-instruction multiprogrammed methodology).
        for (auto& core : cores_)
            core->set_instruction_limit(warmup);
        engine_.run_until(all_done, budget);
    }

    const auto host_start = std::chrono::steady_clock::now();
    while (more()) {
        std::uint64_t span = std::min(chunk, instructions - p.retired);
        std::uint64_t used = 0; // the furthest lane's position in the span
        if (sampled) {
            span = p.next + 1 < windows
                       ? base_span
                       : instructions - (windows - 1) * base_span;
            used = p.placement.below(span - detail - window_warmup + 1);
            fast_forward(used, p.rates);
            if (window_warmup > 0) {
                detailed_segment(window_warmup, budget, nullptr);
                used += max_committed();
            }
        }
        const std::uint64_t measured = sampled ? detail : span;
        const cycle_t seg_start = engine_.now();
        detailed_segment(measured, budget, &p.totals);
        bool ceiling_hit = false;
        for (std::size_t i = 0; i < n_cores; ++i) {
            // Per-core cycles run to each core's own finish cycle (recorded
            // at the committing tick, so schedule-independent): early
            // finishers stop accruing.
            const std::uint64_t committed = cores_[i]->committed();
            const cycle_t fin = cores_[i]->finished_at() == no_cycle
                                    ? engine_.now()
                                    : cores_[i]->finished_at();
            const cycle_t cycles = fin + 1 - seg_start;
            p.core_instr[i] += committed;
            p.core_cycles[i] += cycles;
            p.rates[i] =
                cycles == 0 ? 1.0 : double(committed) / double(cycles);
            ceiling_hit = ceiling_hit || committed < measured;
        }
        used += max_committed();
        // An exact chunk cut short by the ceiling ends the measurement; a
        // short sampled window is one sample among many.
        if (ceiling_hit && !sampled)
            break;
        // A lone core's overshoot past its exact chunk shortens the next
        // chunk; CMP lanes keep the nominal chunk grid.
        p.retired += sampled || n_cores == 1 ? std::max(span, used) : span;
        ++p.next;

        // Fast-forwards and snapshots both need a quiescent hierarchy.
        if (sampled || more())
            drain(budget, sampled ? "sampled window" : "checkpoint chunk");
        if (sampled)
            fast_forward(span > used ? span - used : 0, p.rates);
        if (more())
            checkpoint_boundary(instructions, warmup, p);
    }
    checkpoint_complete();
    const double host_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      host_start)
            .count();

    const window_totals& totals = p.totals;
    run_result r;
    r.config_name = config_.name;
    r.floating_point = streams_.front()->profile().floating_point;
    r.cores = std::uint32_t(n_cores);
    // Workload label: the mix's distinct names, first-appearance order.
    std::vector<std::string> seen;
    for (const auto& stream : streams_) {
        const std::string& name = stream->profile().name;
        if (std::find(seen.begin(), seen.end(), name) == seen.end())
            seen.push_back(name);
    }
    r.workload_name = seen.front();
    for (std::size_t i = 1; i < seen.size(); ++i)
        r.workload_name += "+" + seen[i];
    // Single-core rows keep per_core_ipc empty (the pre-CMP row format).
    if (n_cores > 1)
        for (std::size_t i = 0; i < n_cores; ++i)
            r.per_core_ipc.push_back(p.core_cycles[i] == 0
                                         ? 0.0
                                         : double(p.core_instr[i]) /
                                               double(p.core_cycles[i]));

    double factor = 1.0;
    if (sampled) {
        // Windows are (near) equal size, so the run's CPI estimate is the
        // plain mean of per-window CPI; the 95% CI uses the normal
        // approximation (SMARTS' large-n regime) and transforms to IPC with
        // the delta method. The window CPI is aggregate over the lanes, so
        // the estimate extrapolates to every lane's whole span.
        const std::size_t n = totals.window_cpi.size();
        double mean_cpi = 0.0;
        for (const double cpi : totals.window_cpi)
            mean_cpi += cpi;
        mean_cpi = n == 0 ? 0.0 : mean_cpi / double(n);
        double ci_cpi = 0.0;
        if (n >= 2) {
            double ss = 0.0;
            for (const double cpi : totals.window_cpi)
                ss += (cpi - mean_cpi) * (cpi - mean_cpi);
            const double stddev = std::sqrt(ss / double(n - 1));
            ci_cpi = 1.96 * stddev / std::sqrt(double(n));
        }
        r.sampled = true;
        r.sampled_windows = n;
        r.measured_instructions = totals.instructions;
        r.instructions = p.retired * n_cores;
        r.ipc = mean_cpi > 0.0 ? 1.0 / mean_cpi : 0.0;
        r.ipc_ci95 = mean_cpi > 0.0 ? ci_cpi / (mean_cpi * mean_cpi) : 0.0;
        r.cycles = cycle_t(std::llround(double(r.instructions) * mean_cpi));
        factor = totals.instructions == 0
                     ? 0.0
                     : double(r.instructions) / double(totals.instructions);
    } else {
        r.instructions = totals.instructions;
        r.cycles = totals.cycles;
        r.ipc =
            r.cycles == 0 ? 0.0 : double(r.instructions) / double(r.cycles);
    }
    r.host_seconds = host_seconds;
    r.sim_cycles_per_second =
        host_seconds > 0.0 ? double(r.cycles) / host_seconds : 0.0;
    r.sim_instructions_per_second =
        host_seconds > 0.0 ? double(r.instructions) / host_seconds : 0.0;
    apply_totals(r, totals, factor);
    return r;
}

run_result run_one(const system_config& config,
                   const wl::workload_profile& workload,
                   std::uint64_t instructions, std::uint64_t warmup,
                   std::uint64_t seed)
{
    system sys(config, workload, seed);
    return sys.run(instructions, warmup);
}

double weighted_speedup(const run_result& cmp_result,
                        const run_result& single_core_baseline)
{
    if (single_core_baseline.ipc <= 0.0)
        return 0.0;
    double ws = 0.0;
    for (const double ipc : cmp_result.per_core_ipc)
        ws += ipc / single_core_baseline.ipc;
    return ws;
}

// run_matrix lives in src/exp/runner.cpp: it is a thin wrapper over the
// exp experiment runner (work-stealing pool + rng::split job seeding).

} // namespace lnuca::hier
