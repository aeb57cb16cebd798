// Merge sharded / resumed JSON-lines sweep outputs into one canonical
// result set — the library behind tools/merge_tool.cpp, kept separate so
// tests drive every edge case in-process.
//
// Inputs are the raw byte contents of any number of JSONL files produced
// by runs of the *same* manifest (shards, resumed re-runs, or a mix; a
// file appearing twice is harmless). Merging:
//
//   - validates every decodable row's provenance against the manifest:
//     flat coordinates, derived seed, instruction/warmup counts and the
//     manifest hash must all match the manifest's job at that flat index —
//     a row from a different experiment is a hard error, never silently
//     dropped or kept;
//   - tolerates at most one undecodable *trailing* line per input (the
//     torn tail of a killed writer); an undecodable line anywhere else
//     poisons that input (hard error);
//   - keeps, per flat index, the completed (status ok) row; failed /
//     timed-out rows are superseded by a later ok row for the same flat
//     (the --resume re-run convention) but are reported when no ok row
//     ever arrives;
//   - verifies that duplicate ok rows for one flat agree on every
//     deterministic field (everything but the host_timing fields). Agreeing
//     duplicates collapse to one row; disagreeing ones are a hard error,
//     because two "bit-identical" runs that differ expose either seed
//     reuse or nondeterminism — exactly what the determinism contract
//     promises cannot happen.
//
// The merged output contains exactly one line per completed flat, in flat
// order, re-encoded with encode_json_line() — byte-identical (modulo the
// host_timing fields) to what a single clean unsharded run would have
// written.
#pragma once

#include "src/exp/manifest.h"
#include "src/exp/sink.h"

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace lnuca::exp {

/// Coverage accounting of one merge. complete() gates the merge_tool exit
/// code: a merge can succeed mechanically (no hard errors) and still
/// describe an incomplete result set.
struct merge_report {
    std::size_t expected = 0;   ///< manifest total_jobs
    std::size_t rows_seen = 0;  ///< decodable rows across all inputs
    std::size_t duplicates = 0; ///< extra agreeing ok rows collapsed
    std::size_t torn_tails = 0; ///< tolerated trailing truncated lines
    std::vector<std::size_t> missing; ///< flats with no row at all
    std::vector<std::size_t> failed;  ///< flats whose best row is failed/
                                      ///< timed-out (no ok row arrived)

    bool complete() const { return missing.empty() && failed.empty(); }
};

/// One input: {label for error messages (file name), file content}.
using merge_input = std::pair<std::string, std::string>;

/// Merge `inputs` against `m`. On success returns true with the canonical
/// JSONL in `out_jsonl` (only completed rows, flat order) and the coverage
/// in `report` — the caller decides whether incomplete-but-clean is fatal.
/// On a hard error (provenance mismatch, mid-file corruption, conflicting
/// duplicates) returns false with `error` naming input and line.
bool merge_results(const manifest& m, const std::vector<merge_input>& inputs,
                   std::string& out_jsonl, merge_report& report,
                   std::string* error);

/// Render `report` as the human coverage summary merge_tool prints
/// (one line of totals plus compact missing/failed flat lists).
std::string describe_merge(const merge_report& report);

} // namespace lnuca::exp
