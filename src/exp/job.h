// Job model of the experiment runner: one job is one deterministic
// hier::system run over an independently derived seed lane.
//
// Determinism contract: a job owns copies of its inputs and runs a fresh
// single-threaded hier::system; jobs share nothing, so a sweep executed on
// any thread count — or split across machines with shard filters — produces
// bit-identical run_results for the same (base seed, coordinates) tuples.
#pragma once

#include "src/common/rng.h"
#include "src/hier/system.h"
#include "src/workloads/profile.h"

#include <cstddef>
#include <cstdint>

namespace lnuca::exp {

/// Position of a job in its sweep's (config x workload x replicate) space.
struct job_key {
    std::size_t config = 0;    ///< index into the sweep's config axis
    std::size_t workload = 0;  ///< index into the sweep's workload axis
    std::size_t replicate = 0; ///< repeated-measurement index
    std::size_t flat = 0;      ///< flat index in the full, unsharded sweep

    bool operator==(const job_key& o) const
    {
        return config == o.config && workload == o.workload &&
               replicate == o.replicate && flat == o.flat;
    }
};

/// One self-contained simulation. Inputs are held by value so a job outlives
/// the sweep that built it and can be shipped to any worker thread.
struct job {
    job_key key;
    hier::system_config config;
    wl::workload_profile workload;
    std::uint64_t instructions = hier::default_instructions;
    std::uint64_t warmup = hier::default_warmup;

    /// rng::split(base seed, config, workload, replicate): collision-free
    /// across the whole sweep (see src/common/rng.h).
    std::uint64_t seed = 1;

    /// Provenance stamp of a manifest-driven sweep (src/exp/manifest.h):
    /// the canonical-content hash of the manifest that expanded this job.
    /// 0 for ad-hoc (manifest-less) sweeps. Carried into every JSONL row
    /// so merge_tool and --resume can prove a result file belongs to the
    /// manifest they were handed.
    std::uint64_t manifest_hash = 0;

    /// This job's coordinates as its result row carries them.
    hier::row_coords coords() const
    {
        return {key.config, key.workload, key.replicate, key.flat,
                seed,       instructions, warmup,        manifest_hash};
    }

    hier::run_result run() const
    {
        return hier::run_one(config, workload, instructions, warmup, seed);
    }
};

} // namespace lnuca::exp
