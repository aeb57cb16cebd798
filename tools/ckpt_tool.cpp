// Checkpoint workbench over the LNCKPT1 format (src/ckpt/format.h).
//
//   ckpt_tool info <ckpt>       header + run identity + section table
//   ckpt_tool validate <ckpt>   full open-time validation; exit 0 iff ok
//   ckpt_tool digest <ckpt>     the saved per-component state digests
//
// The reader validates eagerly (magic, version, endian tag, file size,
// header CRC, every section CRC), so every subcommand doubles as a
// corruption check: a torn or bit-rotted file prints the reader's error and
// exits 1. CI's kill-mid-job smoke validates each snapshot this way before
// resuming from it.
#include "src/ckpt/format.h"
#include "src/ckpt/reader.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace lnuca;

namespace {

int usage()
{
    std::fprintf(stderr,
                 "usage: ckpt_tool <command> <checkpoint>\n"
                 "  info <ckpt>      header, run identity and section table\n"
                 "  validate <ckpt>  full validation; exit 0 iff the file is "
                 "intact\n"
                 "  digest <ckpt>    saved per-component state digests\n");
    return 2;
}

int cmd_info(ckpt::reader& r)
{
    std::printf("checkpoint: %s\n", r.path().c_str());
    std::printf("  config hash: %016llx\n",
                (unsigned long long)r.config_hash());
    std::printf("  sections:    %zu\n", r.sections().size());

    // The meta section is five u64s: requested instructions, warm-up,
    // base seed, stream lanes, cores (see hier::system::save_checkpoint).
    r.open_section(ckpt::section_id::meta);
    const std::uint64_t instructions = r.get_u64();
    const std::uint64_t warmup = r.get_u64();
    const std::uint64_t seed = r.get_u64();
    const std::uint64_t lanes = r.get_u64();
    const std::uint64_t cores = r.get_u64();
    r.close_section();
    std::printf("  run: %llu instructions, %llu warmup, seed %llu, "
                "%llu lane(s), %llu core(s)\n",
                (unsigned long long)instructions, (unsigned long long)warmup,
                (unsigned long long)seed, (unsigned long long)lanes,
                (unsigned long long)cores);

    std::printf("  %-8s %-5s %10s %10s %10s\n", "section", "index", "offset",
                "bytes", "crc32");
    for (const ckpt::section_entry& e : r.sections())
        std::printf("  %-8s %-5u %10llu %10llu   %08x\n",
                    ckpt::to_string(ckpt::section_id(e.id)), e.index,
                    (unsigned long long)e.offset, (unsigned long long)e.size,
                    e.crc);
    return 0;
}

int cmd_digest(ckpt::reader& r)
{
    // The digests section is one u64 per component, in section order; the
    // count falls out of the payload size.
    r.open_section(ckpt::section_id::digests);
    const ckpt::section_entry* entry = nullptr;
    for (const ckpt::section_entry& e : r.sections())
        if (ckpt::section_id(e.id) == ckpt::section_id::digests)
            entry = &e;
    const std::uint64_t count = entry != nullptr ? entry->size / 8 : 0;
    for (std::uint64_t i = 0; i < count; ++i)
        std::printf("component %2llu: %016llx\n", (unsigned long long)i,
                    (unsigned long long)r.get_u64());
    r.close_section();
    return 0;
}

} // namespace

int main(int argc, char** argv)
{
    if (argc != 3)
        return usage();
    const std::string command = argv[1];
    const std::string path = argv[2];
    if (command != "info" && command != "validate" && command != "digest")
        return usage();

    try {
        ckpt::reader r(path);
        if (command == "info")
            return cmd_info(r);
        if (command == "digest")
            return cmd_digest(r);
        std::printf("%s: valid LNCKPT1 checkpoint (%zu sections, config "
                    "hash %016llx)\n",
                    path.c_str(), r.sections().size(),
                    (unsigned long long)r.config_hash());
        return 0;
    } catch (const ckpt::ckpt_error& e) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
        return 1;
    }
}
