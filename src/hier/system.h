// Whole-system assembly: core + hierarchy + memory on one engine, plus the
// run driver (warm-up, measurement window, statistics harvesting).
#pragma once

#include "src/ckpt/format.h"
#include "src/coh/coherence_hub.h"
#include "src/cpu/ooo_core.h"
#include "src/dnuca/dnuca_cache.h"
#include "src/fabric/lnuca_cache.h"
#include "src/hier/presets.h"
#include "src/mem/bus.h"
#include "src/mem/cache.h"
#include "src/mem/main_memory.h"
#include "src/power/energy_model.h"
#include "src/sim/engine.h"
#include "src/workloads/synthetic.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace lnuca::trace {
class trace_data;
class trace_writer;
} // namespace lnuca::trace

namespace lnuca::hier {

/// Outcome of one experiment job. `ok` rows carry real measurements; the
/// failure states carry a zeroed result plus run_result::error, so a sweep
/// with a crashing or stalled job still produces one structured row per
/// job instead of aborting (src/exp/runner.cpp threads these through the
/// report, every sink, and decode_json_line).
enum class run_status : std::uint8_t {
    ok = 0,          ///< measured normally
    failed,          ///< the job threw; error holds the exception text
    timed_out,       ///< exceeded the per-job soft timeout (worker abandoned)
    skipped_resumed, ///< --resume: row reloaded from the existing output
};

constexpr const char* to_string(run_status s)
{
    switch (s) {
    case run_status::ok: return "ok";
    case run_status::failed: return "failed";
    case run_status::timed_out: return "timed_out";
    case run_status::skipped_resumed: return "skipped_resumed";
    }
    return "unknown";
}

/// Everything a bench/table needs from one (config, workload) run.
struct run_result {
    std::string config_name;
    std::string workload_name;
    bool floating_point = false;

    // Job outcome (see run_status). Failure rows keep the identity fields
    // and host_seconds but zero every measurement; `error` is empty unless
    // status is failed/timed_out.
    run_status status = run_status::ok;
    std::string error;

    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    double ipc = 0.0;

    // Read-hit distribution (Table III): conventional L2 hits, or per
    // L-NUCA level read hits (index = level, 2-based).
    std::uint64_t l2_read_hits = 0;
    std::vector<std::uint64_t> fabric_read_hits;

    // Transport latency accounting (Table III right).
    std::uint64_t transport_actual = 0;
    std::uint64_t transport_min = 0;

    // Contention restarts (Section III-C: "rarely occurs" - verified).
    std::uint64_t search_restarts = 0;
    std::uint64_t searches = 0;

    power::energy_breakdown energy;

    // Load service distribution as seen by the core.
    std::uint64_t loads_l1 = 0;
    std::uint64_t loads_fabric = 0;
    std::uint64_t loads_l2 = 0;
    std::uint64_t loads_l3 = 0;
    std::uint64_t loads_dnuca = 0;
    std::uint64_t loads_memory = 0;
    std::uint64_t loads_peer = 0; ///< CMP: cache-to-cache from a peer L1
    double avg_load_latency = 0.0;

    // CMP mode (cores > 1): per-core committed-instruction IPC in core
    // order, and - when the caller supplies a single-core baseline (see
    // weighted_speedup()) - the multiprogrammed weighted speedup
    // sum_i(IPC_i / IPC_single_i). Single-core runs leave cores == 1,
    // per_core_ipc empty and weighted_speedup 0.
    std::uint32_t cores = 1;
    std::vector<double> per_core_ipc;
    double weighted_speedup = 0.0;

    // Sampled execution (see sampling_config). When `sampled` is true,
    // cycles/ipc/energy/loads are statistical estimates extrapolated from
    // the measured windows; when false they are exact measurements and the
    // sampling fields below are zero.
    bool sampled = false;
    std::uint64_t sampled_windows = 0;      ///< detailed windows measured
    std::uint64_t measured_instructions = 0; ///< instructions inside windows
    double ipc_ci95 = 0.0; ///< half-width of the 95% CI around `ipc`

    // Host-side throughput of the measurement window. These are the only
    // fields that are *not* deterministic - exclude them from bit-identity
    // comparisons (exp_test/hier_test do).
    double host_seconds = 0.0;
    double sim_cycles_per_second = 0.0;    ///< cycles / host_seconds
    double sim_instructions_per_second = 0.0;
};

/// One core's front-end assignment: what to run and where its data lives.
/// Scenario/trace profiles carry their own addresses and ignore
/// region_base; synthetic lanes use it to place the data region - two
/// lanes may name the same base (shared-region overlap), which the
/// default disjoint layout cannot express.
struct lane_spec {
    wl::workload_profile profile;
    /// 0 selects the default disjoint per-core slot
    /// (0x10000000 + core * 0x40000000).
    addr_t region_base = 0;
};

class system {
public:
    system(const system_config& config, const wl::workload_profile& workload,
           std::uint64_t seed);

    /// CMP construction: core i runs workloads[i % workloads.size()] on
    /// its own rng::split lane with a disjoint address region (a
    /// multiprogrammed mix). A single profile replicates into a
    /// rate-style homogeneous mix. cores == 1 ignores all but the first
    /// profile and builds the exact single-core wiring.
    system(const system_config& config,
           const std::vector<wl::workload_profile>& workloads,
           std::uint64_t seed);

    /// Full-control construction: core i runs lanes[i % lanes.size()].
    /// The profile-based constructors forward here with region_base = 0
    /// (default disjoint layout), so private-lane callers are untouched.
    system(const system_config& config, const std::vector<lane_spec>& lanes,
           std::uint64_t seed);

    /// Writes the capture file (config.capture_path), if one was recorded.
    ~system();

    /// Run `warmup` instructions (discarded), then `instructions` measured,
    /// per core. When config.sampling.enabled, the measured span executes
    /// as fast-forward + periodic detailed windows and the result carries
    /// statistical estimates (run_result::sampled). CMP runs (cores > 1)
    /// sample too: functional retirement round-robins across the lanes and
    /// the coherence hub (always present with more than one core) applies
    /// warm MESI transitions, so directory and L1 permission state stay
    /// exact across fast-forward.
    run_result run(std::uint64_t instructions, std::uint64_t warmup);

    unsigned cores() const { return unsigned(cores_.size()); }
    cpu::ooo_core& core() { return *cores_.front(); }
    cpu::ooo_core& core(unsigned i) { return *cores_[i]; }
    fabric::lnuca_cache* fabric() { return fabric_.get(); }
    dnuca::dnuca_cache* dnuca() { return dnuca_.get(); }
    mem::conventional_cache& l1() { return *l1s_.front(); }
    mem::conventional_cache& l1(unsigned i) { return *l1s_[i]; }
    mem::conventional_cache* l2() { return l2_.get(); }
    mem::conventional_cache* l3() { return l3_.get(); }
    mem::main_memory& memory() { return *memory_; }
    mem::bus* l1_l2_bus() { return l1_l2_bus_.get(); }
    coh::coherence_hub* hub() { return hub_.get(); }
    sim::engine& engine() { return engine_; }

private:
    struct window_totals;
    struct level_snapshot;
    struct progress;

    /// Which shared-level components this hierarchy kind carries.
    struct level_set {
        bool fabric = false;
        bool l2 = false;
        bool l3 = false;
        bool dnuca = false;
    };
    level_set levels() const;

    void build_single(const lane_spec& lane);
    void build_cmp(const std::vector<lane_spec>& lanes);
    /// Realise one lane's stream: synthetic generator, trace replay, or
    /// scenario lane - wrapped for capture when config.capture_path is set.
    std::unique_ptr<wl::workload_stream> make_lane_stream(const lane_spec& spec,
                                                          unsigned lane);
    /// Open/generate (and cache) the trace behind a trace/scenario profile.
    std::shared_ptr<const trace::trace_data>
    trace_source(const wl::workload_profile& profile);
    /// Construct the shared level + memory (canonical seed derivations).
    void build_shared_components();
    /// Wire and register the shared level beneath `above` (the lone L1 or
    /// the coherence hub) and return its entry port. Registers memory.
    mem::mem_port* wire_shared_level(mem::mem_client* above);
    void prewarm();
    /// All components idle (nothing in flight anywhere).
    bool quiescent() const;
    /// Run detailed until quiescent (before a fast-forward or a snapshot);
    /// `phase` names the caller in the timeout warning.
    void drain(cycle_t max_cycles, const char* phase);
    /// Fast-forward `count` instructions per lane functionally and advance
    /// the clock. Rate matching: lane i advances by
    /// count * rates[i] / mean(rates) (mean-normalised, so the aggregate
    /// retirement still equals count * cores). Dense CMP execution lets
    /// fast lanes drift ahead of slow ones; feeding back the per-lane IPC
    /// measured in the previous detailed window reproduces that drift, so
    /// windows observe the same lane alignment (and hence the same
    /// sharing/migration pattern) the dense reference reaches. Equal rates
    /// (or one lane) retire in lockstep.
    void fast_forward(std::uint64_t count, const std::vector<double>& rates);
    /// One detailed segment of `instructions`; when `totals` is non-null the
    /// segment is measured into it (otherwise it only re-warms timing state).
    void detailed_segment(std::uint64_t instructions, cycle_t max_cycles,
                          window_totals* totals);
    // Counter-snapshot/harvest plumbing (one implementation of the delta
    // arithmetic for every measured segment).
    level_snapshot snap_levels() const;
    void harvest_levels(const level_snapshot& snap, window_totals& totals);
    void harvest_core(cpu::ooo_core& core, window_totals& totals) const;
    /// Copy the harvested totals (hit distribution, transport, load service
    /// levels, latency, energy) into `r`, scaling every event count by
    /// `factor` (1.0 for the exact plan, retired / measured instructions
    /// for the sampled one); r.cycles must already be set.
    void apply_totals(run_result& r, const window_totals& totals,
                      double factor) const;

    // --- checkpoint/restore (src/ckpt/) --------------------------------
    // The driver calls checkpoint_boundary() at every quiescent chunk or
    // window boundary; save_checkpoint/try_load_checkpoint own the section
    // layout (one section per ckpt_components_ entry, see ckpt::section_id)
    // and carry the driver's progress struct in the `driver` section.

    /// One checkpointed component: its section, the name its state digest
    /// goes by in the `digests` section, and the object whose state the
    /// section holds.
    struct ckpt_component {
        ckpt::section_id section{};
        std::uint32_t index = 0;
        std::string name;
        sim::ticked* state = nullptr;
    };
    /// Fill ckpt_components_ in the fixed section order: cores, L1s, hub,
    /// bus, L2, L3, fabric, D-NUCA, memory (absent levels skipped).
    void build_ckpt_components();

    /// Identity hash stored in the file header: config name/kind/cores,
    /// seed, engine mode, sampling spec, lane profiles and the major
    /// capacity parameters. A checkpoint from any other run is rejected
    /// before a single byte of state is restored.
    std::uint64_t ckpt_config_hash() const;
    /// Serialize the complete simulator state and atomically replace
    /// config_.checkpoint.path. Never throws: a failed save warns and the
    /// run it protects carries on.
    void save_checkpoint(std::uint64_t run_instructions,
                         std::uint64_t run_warmup, const progress& p);
    /// Restore from config_.checkpoint.path when checkpoint.resume is set.
    /// Returns false on the normal cold starts (resume off, no file yet) and
    /// on any defect detected before state is touched (CRC, version, config
    /// hash, meta mismatch - after an LNUCA_WARN). Throws ckpt::ckpt_error
    /// if the state was already partially loaded when a defect surfaced:
    /// the system is then unusable and the caller must rebuild it cold
    /// (exp::execute_job does).
    bool try_load_checkpoint(std::uint64_t run_instructions,
                             std::uint64_t run_warmup, progress& p);
    /// Cadence/signal check at a quiescent boundary: saves when p.retired
    /// crossed checkpoint.every since the last save or a SIGTERM/SIGINT is
    /// latched, then fires the halt_after and LNUCA_CKPT_EXIT_AFTER test
    /// hooks and converts a latched signal into ckpt::interrupted.
    void checkpoint_boundary(std::uint64_t run_instructions,
                             std::uint64_t run_warmup, const progress& p);
    /// Successful completion: unlink the snapshot (a stale one would
    /// "resume" a finished run).
    void checkpoint_complete();

    system_config config_;
    std::uint64_t seed_ = 1;
    mem::txn_id_source ids_;
    // Per-core front end: exactly one element in single-core mode (the
    // construction there is byte-for-byte the pre-CMP wiring).
    std::vector<std::unique_ptr<wl::workload_stream>> streams_;
    /// Trace/scenario sources behind streams_, keyed by spec - lanes of one
    /// trace share a single mapping/generation.
    std::vector<std::pair<std::string, std::shared_ptr<const trace::trace_data>>>
        trace_cache_;
    std::unique_ptr<trace::trace_writer> capture_; ///< capture_path only
    std::vector<std::unique_ptr<cpu::ooo_core>> cores_;
    std::vector<std::unique_ptr<mem::conventional_cache>> l1s_;
    std::unique_ptr<coh::coherence_hub> hub_; ///< cores > 1 only
    std::unique_ptr<mem::bus> l1_l2_bus_;
    std::unique_ptr<mem::conventional_cache> l2_;
    std::unique_ptr<mem::conventional_cache> l3_;
    std::unique_ptr<fabric::lnuca_cache> fabric_;
    std::unique_ptr<dnuca::dnuca_cache> dnuca_;
    std::unique_ptr<mem::main_memory> memory_;
    sim::engine engine_;
    std::vector<ckpt_component> ckpt_components_;

    // Checkpoint bookkeeping for the current run() invocation.
    std::uint64_t ckpt_last_save_ = 0; ///< retired cursor at the last save
    std::uint64_t ckpt_saves_ = 0;     ///< successful saves this process
};

/// Multiprogrammed weighted speedup of a homogeneous-mix CMP run against
/// its single-core baseline on the same hierarchy:
/// sum_i(IPC_i / IPC_single). Returns 0 when the baseline is degenerate.
double weighted_speedup(const run_result& cmp_result,
                        const run_result& single_core_baseline);

/// Run one (config, workload) pair in a fresh system.
run_result run_one(const system_config& config,
                   const wl::workload_profile& workload,
                   std::uint64_t instructions, std::uint64_t warmup,
                   std::uint64_t seed = 1);

/// Run a configs x workloads matrix, parallelised across hardware threads
/// by the exp runner (src/exp/). Results are indexed [config][workload].
/// Each job's seed derives from rng::split(seed, config, workload, 0), so a
/// cell is reproduced serially by
/// run_one(configs[c], workloads[w], ..., rng::split(seed, c, w, 0)).
std::vector<std::vector<run_result>>
run_matrix(const std::vector<system_config>& configs,
           const std::vector<wl::workload_profile>& workloads,
           std::uint64_t instructions, std::uint64_t warmup,
           std::uint64_t seed = 1);

/// Default bench run lengths; override with --instructions/--warmup.
inline constexpr std::uint64_t default_instructions = 400'000;
inline constexpr std::uint64_t default_warmup = 60'000;

} // namespace lnuca::hier
