// Shared bit-identity comparator for hier::run_result, used by the exp
// determinism tests (thread count / shard layout must not change a field),
// the engine-schedule tests (dense vs idle-skip must not change a field)
// and the driver goldens. It compares the row's JSONL encoding with the
// host-timing trio (host_seconds and the derived throughput rates) zeroed:
// those measure the host, not the simulation. encode_json_line writes every
// run_result field, energy included, so a new row field is covered as soon
// as the sink emits it.
#pragma once

#include "src/exp/sink.h"
#include "src/hier/system.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace lnuca {

/// The deterministic encoding of one row: encode_json_line with the job
/// coordinates defaulted and the host-timing fields zeroed.
inline std::string sim_fields_line(const hier::run_result& r)
{
    hier::run_result stripped = r;
    stripped.host_seconds = 0.0;
    stripped.sim_cycles_per_second = 0.0;
    stripped.sim_instructions_per_second = 0.0;
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
