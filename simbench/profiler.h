// Sampled-PC host profiler for the benchmark's traced run.
//
// A CPU-time timer (ITIMER_PROF) delivers SIGPROF; the handler stores the
// interrupted program counter in a preallocated buffer and does nothing
// else. Samples stay in memory until the run ends, when attribute() reads
// the benchmark binary's own symbol table (`nm -C -S`), maps each sample to
// the function containing it, and charges it to the simulator module named
// by the function's first `lnuca::<module>::` namespace. Samples outside
// the binary (libc, libstdc++) and outside any simulator namespace land in
// "other".
//
// Nothing under src/ is instrumented: the profiler observes the simulator
// from outside, so an untraced run executes exactly the same code.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace simbench {

/// Samples attributed to one module.
struct layer_samples {
    std::uint64_t total = 0; ///< every sample inside the module
    std::uint64_t warm = 0;  ///< samples in its functional warm_* functions
};

struct profile_result {
    std::map<std::string, layer_samples> layers; ///< module -> samples
    std::uint64_t samples = 0;                   ///< attributed samples
    std::uint64_t dropped = 0;                   ///< lost to a full buffer
    /// Hottest functions, most samples first (for the trace summary file).
    std::vector<std::pair<std::string, std::uint64_t>> top_functions;
};

/// Process-wide SIGPROF sampler. One instance at a time; not copyable
/// because the signal handler holds its buffer.
class pc_profiler {
public:
    explicit pc_profiler(std::size_t capacity);
    ~pc_profiler();
    pc_profiler(const pc_profiler&) = delete;
    pc_profiler& operator=(const pc_profiler&) = delete;

    /// Arm / disarm the CPU-time timer (`interval_us` of process CPU time
    /// between samples). Samples accumulate across start/stop pairs.
    void start(long interval_us);
    void stop();

    /// Symbolise the samples against this executable and bucket them by
    /// module. Throws std::runtime_error when the symbol table cannot be
    /// read.
    profile_result attribute(std::size_t top_n) const;

private:
    std::vector<std::uintptr_t> samples_;
};

} // namespace simbench
