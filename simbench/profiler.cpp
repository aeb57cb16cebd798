#include "simbench/profiler.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <unordered_map>

#include <link.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

namespace simbench {

namespace {

// Handler state. Written only while no timer is armed; the handler reads
// the buffer pointer and capacity and bumps the atomic cursor, all of which
// are async-signal-safe.
std::uintptr_t* g_buffer = nullptr;
std::size_t g_capacity = 0;
std::atomic<std::size_t> g_next{0};
static_assert(std::atomic<std::size_t>::is_always_lock_free,
              "the SIGPROF handler needs a lock-free cursor");

std::uintptr_t interrupted_pc(void* context)
{
    const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
    return std::uintptr_t(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
    return std::uintptr_t(uc->uc_mcontext.pc);
#else
#error "pc_profiler: unsupported architecture"
#endif
}

void on_sigprof(int, siginfo_t*, void* context)
{
    const std::size_t slot = g_next.fetch_add(1, std::memory_order_relaxed);
    if (slot < g_capacity)
        g_buffer[slot] = interrupted_pc(context);
}

void set_timer(long interval_us)
{
    itimerval timer{};
    timer.it_interval.tv_sec = interval_us / 1'000'000;
    timer.it_interval.tv_usec = interval_us % 1'000'000;
    timer.it_value = timer.it_interval;
    if (setitimer(ITIMER_PROF, &timer, nullptr) != 0)
        throw std::runtime_error("setitimer(ITIMER_PROF) failed");
}

/// Load bias of the main executable (0 for a non-PIE binary): nm reports
/// link-time addresses, samples carry run-time ones.
std::uintptr_t executable_bias()
{
    std::uintptr_t bias = 0;
    dl_iterate_phdr(
        [](dl_phdr_info* info, std::size_t, void* out) {
            *static_cast<std::uintptr_t*>(out) = info->dlpi_addr;
            return 1; // the first object reported is the executable
        },
        &bias);
    return bias;
}

std::string executable_path()
{
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        throw std::runtime_error("cannot resolve /proc/self/exe");
    return std::string(buf, std::size_t(n));
}

struct symbol {
    std::uintptr_t addr = 0;
    std::uintptr_t size = 0;
    std::string name;
};

/// Function symbols of `path`, sorted by address.
std::vector<symbol> read_symbols(const std::string& path)
{
    std::string quoted = "'";
    for (const char c : path)
        quoted += c == '\'' ? std::string("'\\''") : std::string(1, c);
    quoted += "'";
    const std::string command =
        "nm -C -S --defined-only -n " + quoted + " 2>/dev/null";
    FILE* pipe = popen(command.c_str(), "r");
    if (pipe == nullptr)
        throw std::runtime_error("cannot run nm");

    std::vector<symbol> symbols;
    std::string line;
    char chunk[4096];
    while (std::fgets(chunk, sizeof(chunk), pipe) != nullptr) {
        line += chunk;
        if (line.empty() || line.back() != '\n')
            continue; // a demangled name longer than one chunk
        line.pop_back();
        // "<addr> <size> <type> <name...>"; symbols without a size are
        // labels, not functions.
        unsigned long long addr = 0;
        unsigned long long size = 0;
        char type = 0;
        int name_at = 0;
        if (std::sscanf(line.c_str(), "%llx %llx %c %n", &addr, &size, &type,
                        &name_at) == 3 &&
            name_at > 0 && std::strchr("tTwW", type) != nullptr && size > 0)
            symbols.push_back({std::uintptr_t(addr), std::uintptr_t(size),
                               line.substr(std::size_t(name_at))});
        line.clear();
    }
    const int status = pclose(pipe);
    if (status != 0 || symbols.empty())
        throw std::runtime_error("nm found no function symbols in " + path);
    std::sort(symbols.begin(), symbols.end(),
              [](const symbol& a, const symbol& b) { return a.addr < b.addr; });
    return symbols;
}

bool is_identifier_char(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_';
}

/// The module a demangled symbol belongs to ("cpu", "noc", ... or
/// "other").
std::string module_of(const std::string& demangled)
{
    // power and ckpt are off the benchmark's paths; they count as "other".
    static const char* const modules[] = {"cpu", "mem",  "fabric", "dnuca",
                                          "noc", "coh",  "sim",    "hier",
                                          "wl",  "trace", "exp"};
    static const std::string prefix = "lnuca::";
    std::size_t at = demangled.find(prefix);
    while (at != std::string::npos && at > 0 &&
           is_identifier_char(demangled[at - 1]))
        at = demangled.find(prefix, at + 1);
    if (at == std::string::npos)
        return "other";
    const std::size_t begin = at + prefix.size();
    const std::size_t end = demangled.find("::", begin);
    if (end == std::string::npos)
        return "other";
    const std::string component = demangled.substr(begin, end - begin);
    for (const char* m : modules)
        if (component == m)
            return component;
    return "other";
}

/// Whether a demangled symbol is a functional warm-path function (its
/// unqualified name starts with "warm").
bool is_warm_function(const std::string& demangled)
{
    const std::string qualified = demangled.substr(0, demangled.find('('));
    const std::size_t sep = qualified.rfind("::");
    const std::string name =
        sep == std::string::npos ? qualified : qualified.substr(sep + 2);
    return name.rfind("warm", 0) == 0;
}

} // namespace

pc_profiler::pc_profiler(std::size_t capacity) : samples_(capacity, 0)
{
    if (g_buffer != nullptr)
        throw std::logic_error("only one pc_profiler may exist at a time");
    g_buffer = samples_.data();
    g_capacity = samples_.size();
    g_next.store(0);

    struct sigaction action {};
    action.sa_sigaction = on_sigprof;
    action.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&action.sa_mask);
    if (sigaction(SIGPROF, &action, nullptr) != 0)
        throw std::runtime_error("sigaction(SIGPROF) failed");
}

pc_profiler::~pc_profiler()
{
    stop();
    signal(SIGPROF, SIG_IGN); // a tick already in flight must not kill us
    g_buffer = nullptr;
    g_capacity = 0;
}

void pc_profiler::start(long interval_us) { set_timer(interval_us); }

void pc_profiler::stop()
{
    itimerval off{};
    setitimer(ITIMER_PROF, &off, nullptr);
}

profile_result pc_profiler::attribute(std::size_t top_n) const
{
    const std::size_t taken = g_next.load();
    const std::size_t kept = std::min(taken, samples_.size());
    profile_result out;
    out.dropped = taken - kept;

    const std::vector<symbol> symbols = read_symbols(executable_path());
    const std::uintptr_t bias = executable_bias();
    std::unordered_map<std::size_t, std::uint64_t> per_symbol;
    for (std::size_t i = 0; i < kept; ++i) {
        const std::uintptr_t pc = samples_[i] - bias;
        auto it = std::upper_bound(
            symbols.begin(), symbols.end(), pc,
            [](std::uintptr_t v, const symbol& s) { return v < s.addr; });
        ++out.samples;
        if (it == symbols.begin() || pc >= (it - 1)->addr + (it - 1)->size) {
            ++out.layers["other"].total; // libc, libstdc++, PLT stubs
            continue;
        }
        --it;
        const std::size_t index = std::size_t(it - symbols.begin());
        ++per_symbol[index];
    }

    std::vector<std::pair<std::string, std::uint64_t>> functions;
    for (const auto& [index, count] : per_symbol) {
        const std::string& name = symbols[index].name;
        layer_samples& layer = out.layers[module_of(name)];
        layer.total += count;
        if (is_warm_function(name))
            layer.warm += count;
        functions.emplace_back(name, count);
    }
    std::sort(functions.begin(), functions.end(),
              [](const auto& a, const auto& b) {
                  return a.second != b.second ? a.second > b.second
                                              : a.first < b.first;
              });
    if (functions.size() > top_n)
        functions.resize(top_n);
    out.top_functions = std::move(functions);
    return out;
}

} // namespace simbench
