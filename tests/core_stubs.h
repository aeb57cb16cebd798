// Core test fixtures shared by the cpu tests and the core microbenchmarks:
// a seeded mixed instruction stream and a fixed-latency L1 stub.
#pragma once

#include "src/common/rng.h"
#include "src/cpu/instruction.h"
#include "src/mem/request.h"
#include "src/sim/ticked.h"
#include "src/sim/timed_queue.h"

#include <cstdint>
#include <vector>

namespace lnuca::cpu {

/// Seeded random instruction mix: `fp_share` FP ops, `mem_share` loads and
/// stores, the rest INT ALU/multiply ops and branches. Operands chain to
/// recent producers (short dependency chains), to an anchor load (about
/// every fifth load; its return wakes a burst of INT and FP consumers) and
/// occasionally to far producers, so the ROB holds ready, waiting and
/// in-flight entries side by side. Addresses mix a few hot lines
/// (store-to-load forwarding) with a spread over 512 pages (DTLB misses);
/// a minority of branches is unpredictable. With `record_ops`,
/// `ops[seq - 1]` is the class of the instruction the core numbers `seq`.
struct mixed_stream final : instruction_stream {
    mixed_stream(std::uint64_t seed, double fp_share, double mem_share,
                 bool record_ops = true)
        : random(seed), fp_share(fp_share), mem_share(mem_share),
          record_ops(record_ops)
    {
    }

    instruction next() override
    {
        instruction i;
        const double r = random.uniform();
        if (r < mem_share) {
            i.op = random.chance(0.7) ? op_class::load : op_class::store;
            i.addr = random.chance(0.3)
                         ? 0x10000 + 8 * random.below(16)
                         : random.below(512) * 8192 + 8 * random.below(1024);
        } else if (r < mem_share + fp_share) {
            const double k = random.uniform();
            i.op = k < 0.5 ? op_class::fp_add
                           : k < 0.9 ? op_class::fp_mul : op_class::fp_div;
        } else {
            const double k = random.uniform();
            i.op = k < 0.7 ? op_class::int_alu
                           : k < 0.85 ? op_class::int_mul : op_class::branch;
            if (i.op == op_class::branch) {
                i.pc = 0x400000 + 4 * random.below(64);
                i.taken = random.chance(0.9);
            }
        }
        const std::uint64_t since_load = handed_out - last_load;
        if (last_load != 0 && since_load <= 48 && random.chance(0.8))
            i.dep[0] = std::uint32_t(since_load);
        else if (random.chance(0.4))
            i.dep[0] = std::uint32_t(1 + random.below(6));
        if (random.chance(0.2))
            i.dep[1] = std::uint32_t(1 + random.below(40));
        ++handed_out;
        if (record_ops)
            ops.push_back(i.op);
        if (i.op == op_class::load && random.chance(0.2))
            last_load = handed_out;
        return i;
    }

    std::vector<op_class> ops; ///< every instruction handed out, in order
    std::uint64_t handed_out = 0; ///< instructions handed out so far
    std::uint64_t last_load = 0; ///< 1-based position of the anchor load
    rng random;
    double fp_share;
    double mem_share;
    bool record_ops;
};

/// Instant L1: every access hits with a fixed latency. `capacity` bounds
/// the accesses in flight (a full cache refuses, forcing port retries), and
/// the accepted-request stream is folded into `accepted_digest` in order.
struct instant_cache final : sim::ticked, mem::mem_port {
    explicit instant_cache(cycle_t latency) : latency_(latency) {}
    bool can_accept(const mem::mem_request&) const override
    {
        return pending_.size() < capacity;
    }
    void accept(const mem::mem_request& r) override
    {
        ++accepted;
        accepted_digest.mix(r.id);
        accepted_digest.mix(r.addr);
        accepted_digest.mix(std::uint64_t(r.kind));
        accepted_digest.mix(r.created_at);
        if (r.needs_response)
            pending_.push(r.created_at + latency_ - 1, r);
    }
    cycle_t next_event(cycle_t) const override { return pending_.next_ready(); }
    std::uint64_t state_digest() const override
    {
        sim::state_hash h;
        h.mix(accepted_digest.value());
        h.mix(pending_.size());
        h.mix(pending_.next_ready());
        return h.value();
    }
    void tick(cycle_t now) override
    {
        while (auto r = pending_.pop_ready(now)) {
            mem::mem_response resp;
            resp.id = r->id;
            resp.addr = r->addr;
            resp.ready_at = now;
            resp.served_by = mem::service_level::l1;
            if (client)
                client->respond(resp);
        }
    }
    cycle_t latency_;
    std::size_t capacity = ~std::size_t{0};
    int accepted = 0;
    sim::state_hash accepted_digest;
    mem::mem_client* client = nullptr;
    sim::timed_queue<mem::mem_request> pending_;
};

} // namespace lnuca::cpu
