// Result sinks for the experiment runner.
//
// The runner replays finished (job, run_result) pairs into every sink in
// deterministic flat-job order, after the parallel phase — a sink never sees
// scheduler-dependent interleavings, so its output is bit-stable across
// thread counts *except* the fields hier::row_fields marks host_timing,
// which measure the host by design.
//
// Formats:
//   table_sink  human-readable summary table (one row per run)
//   csv_sink    flat CSV, one header row + one row per run
//   jsonl_sink  JSON-lines: one self-contained object per run, carrying the
//               job coordinates, derived seed, the full run_result and the
//               energy breakdown. decode_json_line() round-trips the format
//               (--resume, merge_tool and tests).
//
// CSV and JSONL list their fields from hier::row_fields
// (src/hier/run_result.h); neither restates a field by hand.
#pragma once

#include "src/exp/job.h"

#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace lnuca::exp {

/// Thrown by jsonl_sink when a write(2) or fsync(2) fails: rows the caller
/// believes durable would otherwise be silently lost (a sweep "completing"
/// with an empty output file). The message names the flat row index where
/// the loss starts. run_sweep catches it, disables that sink for the rest
/// of the sweep and counts it in report::sink_failures — the simulation
/// results themselves survive in the in-memory report.
class sink_error : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

class sink {
public:
    virtual ~sink() = default;

    /// Called once before the first consume() with the sharded job count.
    virtual void begin(std::size_t job_count) { (void)job_count; }

    /// Called once per finished job, in flat-job order.
    virtual void consume(const job& j, const hier::run_result& r) = 0;

    /// Called once after the last consume().
    virtual void finish() {}
};

/// Compact human-readable run log (headline metrics only).
class table_sink final : public sink {
public:
    explicit table_sink(std::ostream& out) : out_(out) {}
    void consume(const job& j, const hier::run_result& r) override;
    void finish() override;

private:
    std::ostream& out_;
    std::vector<std::vector<std::string>> rows_;
};

/// Flat CSV: one column per hier::row_fields entry (arrays ';'-joined, the
/// energy object flattened to energy_<key> columns).
class csv_sink final : public sink {
public:
    explicit csv_sink(std::ostream& out) : out_(out) {}
    void begin(std::size_t job_count) override;
    void consume(const job& j, const hier::run_result& r) override;

private:
    std::ostream& out_;
};

/// JSON-lines, one object per run. Rows are batched through a pre-sized
/// string buffer and flushed every `flush_rows` rows plus once from
/// finish()/the destructor - one write per batch instead of a formatted
/// write per row (visible in --shard sweeps, where thousands of rows append
/// to one file).
///
/// Crash-safety contract (file mode): the file opens with O_APPEND and a
/// flush writes only whole lines in one write(2), so the sink never leaves
/// a partial record *of its own making* mid-file — after any flush boundary
/// the file ends at a newline. A kill between flushes loses at most the
/// buffered rows (whole rows, recoverable by --resume), and a torn tail
/// from a mid-write crash is at most one trailing truncated line, which the
/// resume scan tolerates and truncates away. `fsync_rows > 0` additionally
/// fsyncs every N rows (and once from finish()) so rows survive a host
/// crash, not just a process kill.
///
/// Rows with status == skipped_resumed are *not* written: they were loaded
/// from this very file by --resume and re-appending them would duplicate
/// records, breaking the byte-identical-convergence guarantee.
class jsonl_sink final : public sink {
public:
    explicit jsonl_sink(std::ostream& out, std::size_t flush_rows = 64);
    /// Append-only file mode (see the crash-safety contract above).
    jsonl_sink(const std::string& path, std::size_t flush_rows,
               std::size_t fsync_rows);
    ~jsonl_sink() override;

    /// File mode: false when the file could not be opened.
    bool ok() const { return out_ != nullptr || fd_ >= 0; }

    void begin(std::size_t job_count) override;
    void consume(const job& j, const hier::run_result& r) override;
    void finish() override;

private:
    /// Throws sink_error on a failed/short write(2) or failed fsync(2)
    /// (file mode). The buffer is cleared first so the destructor's final
    /// flush cannot re-throw the same loss.
    void flush();

    std::ostream* out_ = nullptr; ///< stream mode (stdout / tests)
    int fd_ = -1;                 ///< file mode (O_APPEND + optional fsync)
    std::size_t flush_rows_;
    std::size_t fsync_rows_ = 0;  ///< 0 = never fsync
    std::size_t buffered_rows_ = 0;
    std::size_t rows_since_fsync_ = 0;
    std::size_t consumed_rows_ = 0; ///< rows seen; names the loss point
    std::string buffer_;
};

/// Broadcasts to several sinks (non-owning).
class sink_fanout final : public sink {
public:
    void attach(sink* s);
    void begin(std::size_t job_count) override;
    void consume(const job& j, const hier::run_result& r) override;
    void finish() override;

private:
    std::vector<sink*> sinks_;
};

/// One decoded jsonl_sink line.
struct decoded_run {
    hier::row_coords coords;
    hier::run_result result;
};

/// Serialise one run the way jsonl_sink does: every hier::row_fields entry
/// in table order, doubles at full precision so decode_json_line()
/// round-trips bit-exactly.
std::string encode_json_line(const job& j, const hier::run_result& r);

/// Zero the host_timing fields of hier::row_fields: what is left is a pure
/// function of the job, so two runs of it must agree bit for bit.
void zero_host_timing(hier::run_result& r);

/// Parse an encode_json_line() line with the strict reader in
/// src/common/json.h. Returns std::nullopt - never UB or a partially-filled
/// struct presented as valid - on any malformed input: truncation, trailing
/// content, a value of the wrong type, a signed, fractional or out-of-range
/// integer, or an unknown status string. Unknown keys are skipped and absent
/// fields keep their defaults, so lines from older writers (no status, no
/// manifest) decode with status == ok.
std::optional<decoded_run> decode_json_line(const std::string& line);

/// The rows of a JSONL file's `content` (for --resume and merge_tool), in
/// file order, each with its 1-based line number; blank lines are skipped.
/// Reading stops at the first line that does not decode. When that line is
/// the last one it is the partial record a kill mid-write leaves (`torn`),
/// which readers tolerate; anywhere else the file is corrupt.
struct jsonl_rows {
    std::vector<std::pair<std::size_t, decoded_run>> rows;
    std::size_t bad_line = 0;   ///< 0 when every line decoded
    std::size_t bad_offset = 0; ///< byte offset where the bad line starts
    bool torn = false;          ///< the bad line is the file's last line
};
jsonl_rows read_jsonl(const std::string& content);

} // namespace lnuca::exp
