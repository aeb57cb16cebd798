// Shared main() body for the figure/table bench binaries and sweep-driven
// examples. Standardises the experiment-runner command line:
//
//   --manifest FILE    drive the sweep from a lnuca_sweep/1 JSON manifest
//                      (src/exp/manifest.h) instead of the bench's own
//                      configs/workloads. The manifest is authoritative for
//                      the experiment definition, so combining it with
//                      --workload/--instructions/--warmup/--seed/
//                      --replicates/--engine/--sampling/--capture is a CLI
//                      error; --shard/--resume/--threads/--json/--csv/
//                      fault-tolerance flags compose as usual. Every row
//                      carries the manifest's content hash, and --resume
//                      refuses files whose rows carry a different one.
//   --instructions N   measured instructions per run
//   --warmup N         discarded warm-up instructions per run
//   --seed S           base seed (per-job seeds derive via rng::split)
//   --replicates R     repeated measurements per (config, workload)
//   --threads N        worker threads (0 = all hardware threads, 1 = serial)
//   --shard i/n        run only this shard of the sweep (multi-machine)
//   --json PATH        append JSON-lines results ("-" = stdout)
//   --csv PATH         write CSV results ("-" = stdout)
//   --engine MODE      dense | skip | paranoid (default: skip; bit-identical
//                      schedules, see src/sim/engine.h)
//   --sampling SPEC    off (default) | periodic:<detail>:<period>[:<warmup>]
//                      sampled execution: functional fast-forward plus
//                      periodic detailed windows; results carry a 95% CI
//                      (run_result::ipc_ci95) and estimated counts
//   --workload LIST    replace the bench's default workload set with a
//                      comma-separated spec list: SPEC proxy names,
//                      trace:<file> (binary trace replay), or
//                      scenario:<name> (shared-memory scenario library)
//   --capture PATH     serialise the run's instruction stream(s) to a
//                      binary trace file; requires a single-job sweep
//                      (one config x one workload, replicates=1)
//   --timeout S        per-job soft timeout in seconds (0 = off): a stalled
//                      job becomes a timed_out row instead of hanging the
//                      sweep (its attempt thread is abandoned)
//   --retries N        extra attempts for a failed/timed-out job; retries
//                      re-derive the identical rng::split seed, so a
//                      successful retry is bit-identical to a clean run
//   --resume           scan the --json file, skip every (config, workload,
//                      replicate) already completed there (failed rows and
//                      one trailing truncated line are re-run/repaired),
//                      and append only the missing rows — an interrupted
//                      shard re-invoked with the same command line
//                      converges to the uninterrupted run's byte content
//                      (modulo host-timing fields)
//   --durable N        crash-durable JSON-lines: write every row
//                      immediately and fsync every N rows
//   --checkpoint-every N
//                      mid-run checkpointing (src/ckpt/): every job
//                      snapshots its full simulator state every N retired
//                      instructions and on SIGTERM/SIGINT (the run then
//                      exits 128+signum after saving). With --resume, a
//                      job's valid snapshot restores and the run continues
//                      bit-identically to an uninterrupted one; a corrupt
//                      or mismatched snapshot falls back to a cold start.
//                      Mutually exclusive with --capture.
//   --checkpoint-dir D directory for the per-job snapshot files
//                      (job_<flat>.ckpt); defaults to <json path>.ckpt.d
//                      next to --json FILE, or "checkpoints" without one
//   --fault SPEC       test-only fault injection (also: LNUCA_FAULT env
//                      var; flag wins): throw:<flat>[:<attempts>] |
//                      stall:<flat>:<sec>[:<attempts>] | exit:<flat>[:<code>]
//   --quiet            skip the paper-style rendered tables and the
//                      throughput summary
//
// A bench passes its configs, workloads and a render callback; run_app
// expands the sweep, runs it on the pool, wires the requested sinks, and —
// for unsharded runs — calls render with the completed report. Sharded runs
// suppress rendering (the matrix is partial by construction) and tell the
// operator to merge the JSON-lines shards instead.
//
// Exit codes: 0 on success, exit_job_failure (1) when any job failed or
// timed out (the failure summary on stderr names each one), and
// exit_cli_error (2) for command-line/configuration errors — so fleet
// drivers can tell "re-run the failed rows" from "fix the invocation".
#pragma once

#include "src/common/cli.h"
#include "src/exp/fault.h"
#include "src/exp/runner.h"
#include "src/exp/sink.h"

#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace lnuca::exp {

/// Process exit codes shared by run_app and the self-driving benches.
inline constexpr int exit_ok = 0;
inline constexpr int exit_job_failure = 1; ///< >= 1 job failed / timed out
inline constexpr int exit_cli_error = 2;   ///< bad flags / unusable files

struct app_options {
    /// --manifest: when non-empty, the sweep definition comes from this
    /// lnuca_sweep/1 file and the per-axis flags above are rejected.
    std::string manifest_path;
    std::uint64_t instructions = hier::default_instructions;
    std::uint64_t warmup = hier::default_warmup;
    std::uint64_t seed = 1;
    std::size_t replicates = 1;
    unsigned threads = 0;
    std::size_t shard_index = 0;
    std::size_t shard_count = 1;
    std::string json_path;
    std::string csv_path;
    bool quiet = false;
    sim::schedule_mode engine_mode = sim::schedule_mode::idle_skip;
    hier::sampling_config sampling; ///< disabled unless --sampling given
    /// --workload: when non-empty, replaces the bench's default workload
    /// set (already parsed into profiles; trace/scenario specs carry their
    /// source in workload_profile::trace_path / scenario).
    std::vector<wl::workload_profile> workload_override;
    std::string capture_path; ///< --capture: binary trace output file

    // Fault tolerance / resume (see the flag table above).
    double timeout_seconds = 0.0;     ///< --timeout
    std::size_t retries = 0;          ///< --retries
    bool resume = false;              ///< --resume
    std::size_t durable_rows = 0;     ///< --durable (0 = batched, no fsync)
    std::optional<fault_plan> fault;  ///< --fault / LNUCA_FAULT
    std::uint64_t checkpoint_every = 0; ///< --checkpoint-every (0 = off)
    std::string checkpoint_dir;         ///< --checkpoint-dir (defaulted)

    /// Set by parse_app_options on an unusable command line (bad --shard,
    /// --fault, --engine, --sampling or --workload value, ...). Callers
    /// must print cli_error_text and exit with exit_cli_error instead of
    /// running a half-configured sweep.
    bool cli_error = false;
    std::string cli_error_text;
};

/// Parse the shared options; unknown options are left for the caller.
app_options parse_app_options(const cli_args& args);

/// The JSONL/CSV (and optional rendered-table) sinks an app_options asks
/// for, with their backing streams - one owner movable across the sweep.
/// `ok` is false when an output file could not be opened (already
/// reported to stderr); callers should exit with exit_cli_error.
struct sink_set {
    std::vector<sink*> sinks;
    bool ok = true;

    // Owned plumbing behind `sinks` (order matters: streams before sinks).
    std::unique_ptr<std::ofstream> csv_file;
    std::unique_ptr<jsonl_sink> json;
    std::unique_ptr<csv_sink> csv;
    std::unique_ptr<table_sink> table;
};

/// Wire the sinks requested by `opt` ("-" streams to stdout). The
/// JSON-lines file appends (O_APPEND; --durable N adds write-per-row +
/// fsync-every-N), the CSV truncates. `with_table` adds a rendered
/// table_sink on stdout (fig_cmp-style row replay).
sink_set make_sinks(const app_options& opt, bool with_table = false);

/// Result of scanning an existing JSON-lines file for --resume.
struct resume_scan {
    /// flat job index -> decoded result for rows that completed (status
    /// ok); failed/timed-out rows are deliberately absent so they re-run.
    std::map<std::size_t, hier::run_result> completed;
    std::size_t rows = 0;         ///< decodable rows seen (any status)
    std::size_t rerun_failed = 0; ///< failed/timed-out rows that will re-run
    bool truncated_tail = false;  ///< one partial trailing line was removed
};

/// Scan opt.json_path against the sweep for --resume. Rules: every decoded
/// row must match the sweep's job at its flat index (same coordinates,
/// seed, instructions, warmup and manifest hash — otherwise the file
/// belongs to a different sweep and resuming would silently mix
/// experiments); rows for other
/// shards of the same sweep are accepted and ignored; exactly one
/// undecodable *trailing* line is tolerated as a kill-torn tail and
/// truncated off the file; an undecodable line anywhere else poisons the
/// file. Returns false (message on stderr) when resume cannot proceed.
bool scan_resume_file(const app_options& opt, const sweep& s,
                      resume_scan& out);

/// run_options wired from the app flags (+ the resume scan, which must
/// outlive the run_sweep call, as must `opt` itself for --fault).
run_options make_run_options(const app_options& opt, const resume_scan* scan);

/// Checkpoint prologue, shared with benches that own their main instead
/// of delegating to run_app (fig_cmp): when --checkpoint-every is active,
/// create the checkpoint directory and latch SIGTERM/SIGINT so each
/// running job saves a final snapshot at its next quiescent boundary
/// instead of dying mid-window. No-op when checkpointing is off. Returns
/// false (message on stderr) when the directory cannot be created.
bool setup_checkpoints(const app_options& opt);

/// Post-sweep harness tally, the other half of setup_checkpoints():
/// prints the abandoned-worker / failed-sink warnings (both 0 on every
/// clean sweep), then returns 128+signum when a latched SIGTERM/SIGINT
/// preempted the sweep after checkpointing (the shell kill convention, so
/// drivers re-run with --resume instead of triaging "failed" rows), or -1
/// when the sweep ran to completion and the caller's normal exit path
/// applies.
int finish_sweep(const report& rep);

/// Render callback: the completed (unsharded) report plus the options.
using render_fn = std::function<void(const report&, const app_options&)>;

/// Run a (configs x workloads) sweep under the shared command line.
/// Returns the process exit code (see exit_* above).
int run_app(int argc, const char* const* argv,
            std::vector<hier::system_config> configs,
            std::vector<wl::workload_profile> workloads,
            const render_fn& render);

} // namespace lnuca::exp
