// One experiment row: what a run measured (run_result), where its job sits
// in the sweep (row_coords), and row_fields, the table that names every row
// field once. The JSONL encoder and decoder, the CSV sink, the sampled
// plan's scaling, the checkpointed running totals and the host-timing strip
// all walk that table instead of listing fields by hand, so a new field is
// one member plus one table line.
#pragma once

#include "src/power/energy_model.h"

#include <cstdint>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

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

    // Host-side throughput of the measurement window: the table's
    // host_timing fields, the only ones that are not deterministic.
    double host_seconds = 0.0;
    double sim_cycles_per_second = 0.0;    ///< cycles / host_seconds
    double sim_instructions_per_second = 0.0;
};

/// Where a row's job sits in its sweep (exp::job::coords() fills it).
struct row_coords {
    std::uint64_t config_index = 0;
    std::uint64_t workload_index = 0;
    std::uint64_t replicate = 0;
    std::uint64_t flat = 0; ///< flat index in the full, unsharded sweep
    std::uint64_t seed = 0;
    std::uint64_t instructions_requested = 0;
    std::uint64_t warmup = 0;
    /// Content hash of the manifest that expanded the job; 0 for an ad-hoc
    /// sweep or a row written before manifests existed.
    std::uint64_t manifest = 0;

    bool operator==(const row_coords& o) const
    {
        return config_index == o.config_index &&
               workload_index == o.workload_index &&
               replicate == o.replicate && flat == o.flat && seed == o.seed &&
               instructions_requested == o.instructions_requested &&
               warmup == o.warmup && manifest == o.manifest;
    }
    bool operator!=(const row_coords& o) const { return !(*this == o); }
};

/// A row field's member. Its type is the field's kind: a string (status as
/// its to_string name), bool, u64 (cores at most 2^32 - 1), f64 written
/// "%.17g", an array of u64 or f64, the nested energy object
/// (energy_fields), or a u64 job coordinate.
using row_member =
    std::variant<std::string run_result::*, run_status run_result::*,
                 bool run_result::*, std::uint32_t run_result::*,
                 std::uint64_t run_result::*, double run_result::*,
                 std::vector<std::uint64_t> run_result::*,
                 std::vector<double> run_result::*,
                 power::energy_breakdown run_result::*,
                 std::uint64_t row_coords::*>;

enum class field_role : std::uint8_t {
    /// Deterministic, always written.
    plain,
    /// An event count: the sampled plan extrapolates it to the whole run
    /// (system::apply_totals) and the checkpoint's `driver` section carries
    /// its running sum, in table order.
    scaled,
    /// Measures the host, not the simulation: zeroed before any
    /// bit-identity comparison (exp::zero_host_timing).
    host_timing,
    /// Written only when status != ok.
    on_failure,
    /// A 64-bit hash written as a 16-digit hex string, and only when
    /// non-zero: a JSON number would lose precision in any double-backed
    /// reader (Python's json included).
    hash,
};

struct row_field {
    const char* key; ///< JSONL key and CSV column
    row_member member;
    field_role role = field_role::plain;
};

/// Every row field in JSONL key order (the CSV columns follow it too).
/// The order is part of the row bytes every golden digest pins, and the
/// scaled entries' order is part of the checkpoint layout.
inline constexpr row_field row_fields[] = {
    {"config", &run_result::config_name},
    {"workload", &run_result::workload_name},
    {"config_index", &row_coords::config_index},
    {"workload_index", &row_coords::workload_index},
    {"replicate", &row_coords::replicate},
    {"flat", &row_coords::flat},
    {"seed", &row_coords::seed},
    {"instructions_requested", &row_coords::instructions_requested},
    {"warmup", &row_coords::warmup},
    {"manifest", &row_coords::manifest, field_role::hash},
    {"status", &run_result::status},
    {"error", &run_result::error, field_role::on_failure},
    {"floating_point", &run_result::floating_point},
    {"instructions", &run_result::instructions},
    {"cycles", &run_result::cycles},
    {"ipc", &run_result::ipc},
    {"cores", &run_result::cores},
    {"per_core_ipc", &run_result::per_core_ipc},
    {"weighted_speedup", &run_result::weighted_speedup},
    {"sampled", &run_result::sampled},
    {"sampled_windows", &run_result::sampled_windows},
    {"measured_instructions", &run_result::measured_instructions},
    {"ipc_ci95", &run_result::ipc_ci95},
    {"l2_read_hits", &run_result::l2_read_hits, field_role::scaled},
    {"fabric_read_hits", &run_result::fabric_read_hits, field_role::scaled},
    {"transport_actual", &run_result::transport_actual, field_role::scaled},
    {"transport_min", &run_result::transport_min, field_role::scaled},
    {"search_restarts", &run_result::search_restarts, field_role::scaled},
    {"searches", &run_result::searches, field_role::scaled},
    {"loads_l1", &run_result::loads_l1, field_role::scaled},
    {"loads_fabric", &run_result::loads_fabric, field_role::scaled},
    {"loads_l2", &run_result::loads_l2, field_role::scaled},
    {"loads_l3", &run_result::loads_l3, field_role::scaled},
    {"loads_dnuca", &run_result::loads_dnuca, field_role::scaled},
    {"loads_memory", &run_result::loads_memory, field_role::scaled},
    {"loads_peer", &run_result::loads_peer, field_role::scaled},
    {"avg_load_latency", &run_result::avg_load_latency},
    {"host_seconds", &run_result::host_seconds, field_role::host_timing},
    {"sim_cycles_per_second", &run_result::sim_cycles_per_second,
     field_role::host_timing},
    {"sim_instructions_per_second", &run_result::sim_instructions_per_second,
     field_role::host_timing},
    {"energy", &run_result::energy},
};

/// The nested energy object's keys, in order. total_j has no member: it is
/// derived (energy_breakdown::total()): written, and on decode only checked
/// to be a number.
struct energy_field {
    const char* key;
    double power::energy_breakdown::*member;
};
inline constexpr energy_field energy_fields[] = {
    {"dynamic_j", &power::energy_breakdown::dynamic_j},
    {"static_l1_j", &power::energy_breakdown::static_l1_j},
    {"static_storage_j", &power::energy_breakdown::static_storage_j},
    {"static_l3_j", &power::energy_breakdown::static_l3_j},
    {"total_j", nullptr},
};

/// Each role's consumers assume one member kind; a table line that breaks
/// that fails to compile instead of being skipped at run time.
constexpr bool row_roles_match_kinds()
{
    using std::holds_alternative;
    for (const row_field& f : row_fields) {
        const row_member& m = f.member;
        const bool count =
            holds_alternative<std::uint64_t run_result::*>(m) ||
            holds_alternative<std::vector<std::uint64_t> run_result::*>(m);
        if ((f.role == field_role::scaled && !count) ||
            (f.role == field_role::host_timing &&
             !holds_alternative<double run_result::*>(m)) ||
            (f.role == field_role::on_failure &&
             !holds_alternative<std::string run_result::*>(m)) ||
            (f.role == field_role::hash &&
             !holds_alternative<std::uint64_t row_coords::*>(m)))
            return false;
    }
    return true;
}
static_assert(row_roles_match_kinds());

/// The value a row field names: a job coordinate lives in `c`, everything
/// else in `r`.
template <class T, class C, class R>
auto& field_value(T run_result::*m, C&, R& r)
{
    return r.*m;
}
template <class C, class R>
auto& field_value(std::uint64_t row_coords::*m, C& c, R&)
{
    return c.*m;
}

/// Calls f(member) for every scaled field, in table order; each member is a
/// `std::uint64_t run_result::*` or a `std::vector<std::uint64_t>
/// run_result::*`.
template <class F> void for_each_count(F&& f)
{
    for (const row_field& field : row_fields)
        if (field.role == field_role::scaled)
            std::visit(
                [&](auto m) {
                    using M = decltype(m);
                    if constexpr (std::is_same_v<M,
                                                 std::uint64_t run_result::*> ||
                                  std::is_same_v<M, std::vector<std::uint64_t>
                                                        run_result::*>)
                        f(m);
                },
                field.member);
}

} // namespace lnuca::hier
