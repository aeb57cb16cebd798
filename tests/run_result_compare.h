// Shared bit-identity comparator for hier::run_result, used by the exp
// determinism tests (thread count / shard layout must not change a field),
// the engine-schedule tests (dense vs idle-skip must not change a field)
// and the driver goldens. It compares the row's JSONL encoding with the
// host_timing fields of hier::row_fields zeroed: those measure the host, not
// the simulation. encode_json_line writes every row_fields entry, so a new
// row field is covered as soon as it has its table line.
#pragma once

#include "src/exp/sink.h"
#include "src/hier/system.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace lnuca {

/// The deterministic encoding of one row: encode_json_line with the job
/// coordinates defaulted and the host_timing fields zeroed.
inline std::string sim_fields_line(const hier::run_result& r)
{
    hier::run_result stripped = r;
    exp::zero_host_timing(stripped);
    return exp::encode_json_line(exp::job{}, stripped);
}

/// 64-bit FNV-1a of sim_fields_line(r): the pinned form of a golden row.
inline std::uint64_t sim_fields_digest(const hier::run_result& r)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : sim_fields_line(r)) {
        h ^= std::uint8_t(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

inline void expect_sim_fields_identical(const hier::run_result& a,
                                        const hier::run_result& b)
{
    EXPECT_EQ(sim_fields_line(a), sim_fields_line(b));
}

} // namespace lnuca
