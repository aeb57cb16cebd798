// Out-of-order core timing model with the paper's Table I configuration:
// 4-wide fetch (up to two taken branches), combined bimodal+gshare
// predictor, 128-entry ROB, 64-entry LSQ, separate INT/FP/MEM issue
// windows (32/24/16), 4 INT-or-MEM + 4 FP issue slots, 48-entry store
// buffer, store-to-load forwarding, and a DTLB with a 30-cycle miss
// penalty.
//
// Modelling notes (see DESIGN.md):
// * Trace-driven: wrong-path instructions are not simulated; a mispredicted
//   branch blocks fetch until it resolves plus the redirect penalty.
// * Load wake-up happens exactly when data arrives - equivalent to the
//   paper's speculative wake-up with selective recovery minus the replay
//   cost, which depends only on the (identical) L1 and cancels out in every
//   configuration comparison the paper makes.
// * Instruction fetch is perfect (the evaluation exercises the data side).
#pragma once

#include "src/common/histogram.h"
#include "src/common/index_set.h"
#include "src/common/ring_queue.h"
#include "src/common/stats.h"
#include "src/cpu/branch_predictor.h"
#include "src/cpu/completion_calendar.h"
#include "src/cpu/instruction.h"
#include "src/cpu/tlb.h"
#include "src/mem/request.h"
#include "src/sim/ticked.h"
#include "src/sim/timed_queue.h"

#include <array>
#include <utility>
#include <vector>

namespace lnuca::cpu {

struct core_config {
    unsigned fetch_width = 4;
    unsigned max_taken_per_fetch = 2;
    unsigned dispatch_width = 4;
    unsigned commit_width = 4;
    unsigned rob_size = 128;
    unsigned lsq_size = 64;
    unsigned int_window = 32;
    unsigned fp_window = 24;
    unsigned mem_window = 16;
    unsigned int_mem_issue_width = 4; ///< shared INT/MEM slots per cycle
    unsigned fp_issue_width = 4;
    unsigned store_buffer_size = 48;
    unsigned mispredict_penalty = 8;
    unsigned fetch_to_dispatch = 3; ///< front-end depth in cycles
    unsigned tlb_entries = 64;
    unsigned tlb_miss_latency = 30;
    std::uint64_t page_bytes = 8192;
    // Execution latencies.
    unsigned lat_int_alu = 1;
    unsigned lat_int_mul = 3;
    unsigned lat_fp_add = 4;
    unsigned lat_fp_mul = 4;
    unsigned lat_fp_div = 12;
    unsigned lat_store_forward = 2; ///< LSQ bypass, L1-speed
};

class ooo_core final : public sim::ticked, public mem::mem_client {
public:
    /// Throws std::invalid_argument for a zero execution or store-forward
    /// latency (a completion due in the cycle being retired).
    ooo_core(const core_config& config, instruction_stream& stream,
             mem::txn_id_source& ids);

    /// The L1 data cache (or r-tile) this core issues accesses into.
    void set_dcache(mem::mem_port* port) { dcache_ = port; }

    /// Stop fetching after this many committed instructions.
    void set_instruction_limit(std::uint64_t limit) { limit_ = limit; }
    bool done() const { return committed_ >= limit_; }

    /// Cycle at which the instruction limit was reached (no_cycle while
    /// still running). Recorded at the committing tick itself, so it is
    /// identical under dense and idle-skip scheduling - the CMP driver
    /// derives per-core IPC from it.
    cycle_t finished_at() const { return finished_at_; }

    /// Functional fast-forward (sampled simulation): consume `count`
    /// instructions from the stream without simulating timing, while
    /// keeping every predictive structure warm - the branch predictor
    /// trains, the DTLB is touched, and loads/stores walk the hierarchy's
    /// warm_access() path (tags/LRU/migration state). Statistics, the ROB
    /// and all timing queues are untouched; the caller must only invoke
    /// this while the pipeline is drained (quiescent()).
    void warm_retire(std::uint64_t count);

    /// No instruction in flight anywhere in the core (drain detection
    /// between detailed windows and functional fast-forward).
    bool quiescent() const
    {
        return rob_count_ == 0 && fetch_queue_.empty() &&
               store_buffer_.empty() && pending_loads_.empty() &&
               completions_.empty() && delayed_mem_.empty() &&
               responses_.empty();
    }

    // mem_client
    void respond(const mem::mem_response& response) override;

    // ticked
    void tick(cycle_t now) override;
    cycle_t next_event(cycle_t now) const override;
    std::uint64_t state_digest() const override;

    /// Test hooks: sequence numbers (1-based stream positions) of the ready
    /// ROB entries, in the order issue() visits the ready set, and in the
    /// order a full ROB walk from the head finds them. Always equal.
    std::vector<std::uint64_t> ready_seqs() const;
    std::vector<std::uint64_t> scan_ready_seqs() const;

    std::uint64_t committed() const { return committed_; }
    /// Cycles elapsed since the last reset_stats(), measured in engine time
    /// as of this core's most recent tick. Identical under dense and
    /// idle-skip scheduling whenever the run ends at a core event (the
    /// hier::system driver's case: runs end at an instruction commit);
    /// after a cycle budget expires mid-gap, idle-skip reports the last
    /// event cycle while dense reports the budget end.
    std::uint64_t cycles() const { return cycles_; }
    double ipc() const
    {
        return cycles_ == 0 ? 0.0 : double(committed_) / double(cycles_);
    }

    const counter_set& counters() const { return counters_; }
    const histogram& load_latency() const { return load_latency_; }
    /// Completed loads serviced by each hierarchy level.
    std::uint64_t loads_served_by(mem::service_level level) const;
    /// Completed loads serviced by each L-NUCA level (2-based).
    std::uint64_t loads_served_by_fabric_level(unsigned level) const;
    const tlb& dtlb() const { return dtlb_; }

    /// Zero statistics after warm-up; microarchitectural state persists.
    void reset_stats();

    /// Checkpoint hooks (quiescent-only; hier::system owns the section).
    void save_state(ckpt::writer& w) const override;
    void load_state(ckpt::reader& r) override;

    /// Persistent-at-quiescence state: predictive structures, allocation
    /// cursors, stats. ROB contents, queues and in-flight loads are empty
    /// by the quiesce-before-snapshot contract and not serialized.
    template <class Ar> void serialize(Ar& ar)
    {
        predictor_.serialize(ar);
        dtlb_.serialize(ar);
        ar(rob_head_);
        ar(next_seq_);
        ar(fetch_blocked_);
        ar(fetch_block_seq_);
        ar(fetch_stalled_until_);
        ar(limit_);
        ar(committed_);
        ar(finished_at_);
        ar(cycles_);
        ar(last_tick_);
        ar(cycles_base_);
        ar.counters(counters_);
        load_latency_.serialize(ar);
        ar(served_by_level_);
        ar(served_by_fabric_level_);
    }

private:
    enum class entry_state : std::uint8_t { waiting, ready, issued, done };

    struct rob_entry {
        instruction inst;
        std::uint64_t seq = 0;
        entry_state state = entry_state::waiting;
        unsigned deps = 0;                     ///< outstanding producers
        std::vector<std::uint32_t> dependents; ///< rob slots I wake
                                               ///< (capacity recycled with
                                               ///< the slot; see dispatch)
        cycle_t issued_at = no_cycle;
        txn_id_t txn = 0;
        bool mispredicted = false;
        bool in_window = false;
    };

    struct store_buffer_entry {
        addr_t addr = 0;
        std::uint8_t size = 0;
        txn_id_t txn = 0;
        bool issued = false;
        bool acked = false;
    };

    void process_responses(cycle_t now);
    void commit(cycle_t now);
    void writeback(cycle_t now);
    void issue(cycle_t now);
    void dispatch(cycle_t now);
    void fetch(cycle_t now);
    void drain_store_buffer(cycle_t now);
    void start_load_access(std::uint32_t slot, cycle_t now);
    void make_ready(std::uint32_t slot);
    void wake_dependents(std::uint32_t slot);
    void release_window(const rob_entry& entry);
    bool dispatch_capacity(const instruction& inst) const;
    unsigned latency_of(op_class op) const
    {
        return latency_[std::size_t(op)];
    }
    bool in_rob(std::uint64_t seq) const;
    std::uint32_t slot_of_seq(std::uint64_t seq) const;
    bool store_forwards(const instruction& load) const;

    core_config config_;
    instruction_stream& stream_;
    mem::txn_id_source& ids_;
    mem::mem_port* dcache_ = nullptr;

    combined_predictor predictor_;
    tlb dtlb_;

    // Circular ROB.
    std::vector<rob_entry> rob_;
    std::uint32_t rob_head_ = 0;
    std::uint32_t rob_count_ = 0;
    std::uint64_t next_seq_ = 1;

    struct fetched {
        cycle_t ready_at;
        instruction inst;
        bool mispredicted;
    };
    ring_queue<fetched> fetch_queue_;
    bool fetch_blocked_ = false;        ///< mispredict in flight
    std::uint64_t fetch_block_seq_ = 0; ///< branch that blocks fetch
    cycle_t fetch_stalled_until_ = 0;   ///< redirect penalty window

    // Issue-window occupancy and size per window class (INT, FP, MEM; see
    // window_of() in the .cpp), and execution latency per op_class, as
    // tables so the per-instruction paths index instead of branching.
    std::array<unsigned, 3> window_used_{};
    std::array<unsigned, 3> window_size_{};
    std::array<unsigned, 8> latency_{};
    unsigned lsq_used_ = 0;

    // ROB slots in entry_state::ready, maintained at the three transitions
    // into and out of it (dispatch, wake_dependents, issue), and how many
    // of them go to each issue class. issue() visits only these slots; the
    // counts let it stop once no class with a free slot has ready entries
    // left, and are the O(1) next_event() probe.
    index_set ready_;
    unsigned ready_int_mem_ = 0;
    unsigned ready_fp_ = 0;
    // O(1) next_event() probes for store-buffer entries awaiting issue /
    // retire.
    unsigned sb_unissued_ = 0;
    unsigned sb_acked_ = 0;

    completion_calendar completions_; ///< rob slots finishing
    sim::timed_queue<std::uint32_t> delayed_mem_; ///< TLB-miss / port retry
    /// In-flight demand loads (txn -> rob slot). Bounded by the LSQ, so a
    /// flat array + linear scan beats a node-allocating hash map.
    std::vector<std::pair<txn_id_t, std::uint32_t>> pending_loads_;
    sim::timed_queue<mem::mem_response> responses_;

    ring_queue<store_buffer_entry> store_buffer_;
    std::vector<std::uint32_t> retry_scratch_; ///< writeback() tick scratch
    /// ROB slots currently holding stores (store_forwards() scans only
    /// these instead of the whole ROB).
    std::vector<std::uint32_t> rob_store_slots_;

    std::uint64_t limit_ = ~std::uint64_t{0};
    std::uint64_t committed_ = 0;
    cycle_t finished_at_ = no_cycle;
    std::uint64_t cycles_ = 0;
    cycle_t last_tick_ = no_cycle;  ///< cycle of the most recent tick
    cycle_t cycles_base_ = 0;       ///< engine cycle the stats window began

    counter_set counters_;
    // Handles for the per-instruction hot counters (see counter_set::inc).
    counter_set::handle h_fetched_ = 0;
    counter_set::handle h_loads_ = 0;
    counter_set::handle h_loads_issued_ = 0;
    counter_set::handle h_loads_completed_ = 0;
    counter_set::handle h_stores_ = 0;
    counter_set::handle h_stores_issued_ = 0;
    counter_set::handle h_branches_ = 0;
    counter_set::handle h_dispatch_wait_ = 0;
    counter_set::handle h_branch_mispredicts_ = 0;
    counter_set::handle h_l1_port_retry_ = 0;
    counter_set::handle h_dtlb_misses_ = 0;
    counter_set::handle h_orphan_responses_ = 0;
    counter_set::handle h_sb_full_stall_ = 0;
    counter_set::handle h_store_forwards_ = 0;
    histogram load_latency_{256};
    std::vector<std::uint64_t> served_by_level_;
    std::vector<std::uint64_t> served_by_fabric_level_;
};

} // namespace lnuca::cpu
