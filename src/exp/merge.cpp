#include "src/exp/merge.h"

#include <algorithm>
#include <map>

namespace lnuca::exp {

namespace {

// Canonical deterministic encoding of a row: the encode_json_line() bytes
// with the host-timing fields zeroed. Two runs of the same job must agree
// on this string bit-for-bit.
std::string deterministic_encoding(const job& j, hier::run_result r)
{
    zero_host_timing(r);
    return encode_json_line(j, r);
}

std::string flat_list(const std::vector<std::size_t>& flats)
{
    // Compact "0-3,7,9-11" ranges; a 10k-row sweep with one shard missing
    // should not print 5k numbers.
    std::string out;
    std::size_t i = 0;
    while (i < flats.size()) {
        std::size_t run_end = i;
        while (run_end + 1 < flats.size() &&
               flats[run_end + 1] == flats[run_end] + 1)
            ++run_end;
        if (!out.empty())
            out += ',';
        out += std::to_string(flats[i]);
        if (run_end > i)
            out += '-' + std::to_string(flats[run_end]);
        i = run_end + 1;
    }
    return out;
}

} // namespace

bool merge_results(const manifest& m, const std::vector<merge_input>& inputs,
                   std::string& out_jsonl, merge_report& report,
                   std::string* error)
{
    out_jsonl.clear();
    report = merge_report{};
    report.expected = m.total_jobs();

    const std::vector<job> jobs = m.to_sweep().build();

    // flat -> best row so far. `ok` rows carry their canonical encoding so
    // duplicates can be compared without re-deriving it.
    struct best_row {
        bool ok = false;
        hier::run_result result;
        std::string canonical; ///< deterministic_encoding, ok rows only
    };
    std::map<std::size_t, best_row> rows;

    const auto fail = [&](const std::string& label, std::size_t line_no,
                          const std::string& why) {
        if (error != nullptr)
            *error = label + " line " + std::to_string(line_no) + ": " + why;
        return false;
    };

    for (const merge_input& input : inputs) {
        const jsonl_rows file = read_jsonl(input.second);
        for (const auto& [line_no, decoded] : file.rows) {
            // Provenance: the row must be this manifest's job at its flat
            // index, bit for bit.
            const std::size_t flat = decoded.coords.flat;
            if (flat >= jobs.size())
                return fail(input.first, line_no,
                            "flat index " + std::to_string(flat) +
                                " is outside the manifest's " +
                                std::to_string(jobs.size()) + " jobs");
            const job& j = jobs[flat];
            if (j.coords() != decoded.coords)
                return fail(input.first, line_no,
                            "row does not belong to this manifest (flat " +
                                std::to_string(flat) +
                                "): coordinates, seed, run length or "
                                "manifest hash disagree");

            ++report.rows_seen;
            const bool is_ok = decoded.result.status == hier::run_status::ok;
            best_row& slot = rows[flat];
            if (!is_ok) {
                // failed / timed_out (or a stray skipped_resumed, which a
                // sink never writes): keep only as evidence that the flat
                // was attempted; any ok row supersedes it.
                if (!slot.ok)
                    slot.result = decoded.result;
                continue;
            }
            std::string canonical = deterministic_encoding(j, decoded.result);
            if (slot.ok) {
                if (slot.canonical != canonical)
                    return fail(input.first, line_no,
                                "conflicting completed rows for flat " +
                                    std::to_string(flat) +
                                    ": two ok runs of the same job differ "
                                    "on deterministic fields (seed reuse "
                                    "or nondeterminism)");
                ++report.duplicates;
                continue;
            }
            slot.ok = true;
            slot.result = decoded.result;
            slot.canonical = std::move(canonical);
        }
        // Only a *trailing* undecodable line is a legitimate torn tail;
        // mid-file corruption means rows are gone for good.
        if (file.bad_line != 0 && !file.torn)
            return fail(input.first, file.bad_line,
                        "malformed row is not the trailing line; the file "
                        "is corrupt, not merely torn");
        if (file.torn)
            ++report.torn_tails;
    }

    // Coverage + canonical output, in flat order.
    for (std::size_t flat = 0; flat < jobs.size(); ++flat) {
        const auto it = rows.find(flat);
        if (it == rows.end()) {
            report.missing.push_back(flat);
            continue;
        }
        if (!it->second.ok) {
            report.failed.push_back(flat);
            continue;
        }
        out_jsonl += encode_json_line(jobs[flat], it->second.result);
        out_jsonl += '\n';
    }
    return true;
}

std::string describe_merge(const merge_report& report)
{
    const std::size_t completed =
        report.expected - report.missing.size() - report.failed.size();
    std::string out = "merge: " + std::to_string(completed) + "/" +
                      std::to_string(report.expected) + " flats completed, " +
                      std::to_string(report.rows_seen) + " rows read, " +
                      std::to_string(report.duplicates) + " duplicates, " +
                      std::to_string(report.torn_tails) + " torn tails";
    if (!report.failed.empty())
        out += "\n  failed flats:  " + flat_list(report.failed);
    if (!report.missing.empty())
        out += "\n  missing flats: " + flat_list(report.missing);
    return out;
}

} // namespace lnuca::exp
