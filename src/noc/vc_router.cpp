#include "src/noc/vc_router.h"

#include <stdexcept>

namespace lnuca::noc {

vc_router::vc_router(const router_config& config, coord position,
                     std::size_t index, mesh_network& mesh)
    : config_(config), position_(position), index_(index), mesh_(&mesh)
{
    if (config_.virtual_channels == 0 ||
        port_count * config_.virtual_channels > 64)
        throw std::invalid_argument(
            "vc_router: virtual_channels must be between 1 and 12");
    inputs_.resize(port_count * config_.virtual_channels);
    for (auto& vc : inputs_)
        vc.buffer = sync_fifo<flit>(config_.vc_depth);
    for (auto& c : credits_)
        c.assign(config_.virtual_channels, config_.vc_depth);
    for (auto& o : vc_owner_)
        o.assign(config_.virtual_channels, -1);
    counters_.preregister(
        {"injected", "ejected", "forwarded", "credit_stall", "vc_alloc_stall"});
    h_credit_stall_ = counters_.handle_of("credit_stall");
    h_ejected_ = counters_.handle_of("ejected");
    h_forwarded_ = counters_.handle_of("forwarded");
    h_injected_ = counters_.handle_of("injected");
    h_vc_alloc_stall_ = counters_.handle_of("vc_alloc_stall");
}

bool vc_router::local_can_accept(std::uint32_t vc) const
{
    return inputs_[vc].buffer.on(); // the local port's VCs come first
}

void vc_router::local_inject(std::uint32_t vc, const flit& f)
{
    stage(vc, f);
    ++mesh_->flits_;
    counters_.inc(h_injected_);
}

void vc_router::stage(std::size_t slot, const flit& f)
{
    inputs_[slot].buffer.push(f);
    occupied_ |= std::uint64_t{1} << slot;
    staged_ |= std::uint64_t{1} << slot;
    mesh_->occupied_routers_.insert(index_);
}

std::optional<flit> vc_router::local_eject()
{
    if (ejected_.empty())
        return std::nullopt;
    --mesh_->ejected_;
    if (ejected_.size() == 1)
        mesh_->ejecting_.erase(index_);
    return ejected_.take_front();
}

bool vc_router::quiescent() const
{
    if (!ejected_.empty())
        return false;
    for (const auto& vc : inputs_)
        if (!vc.buffer.idle())
            return false;
    return true;
}

mesh_network::mesh_network(const router_config& config, int width, int height)
    : config_(config), width_(width), height_(height)
{
    if (width <= 0 || height <= 0)
        throw std::invalid_argument("mesh dimensions must be positive");
    const std::size_t count = std::size_t(width) * std::size_t(height);
    routers_.reserve(count);
    for (int y = 0; y < height; ++y)
        for (int x = 0; x < width; ++x)
            routers_.emplace_back(config, coord{x, y}, routers_.size(), *this);
    const std::uint32_t vcs = config.virtual_channels;
    for (auto& r : routers_) {
        for (std::size_t d = 1; d < port_count; ++d) {
            const coord c = neighbour(r.position_, port_dir(d));
            if (!in_bounds(c))
                continue;
            vc_router& other = at(c);
            r.links_[d] = &other;
            // `other` feeds input port d; its output towards us is the
            // opposite direction.
            for (std::uint32_t v = 0; v < vcs; ++v)
                r.inputs_[d * vcs + v].credit_return =
                    &other.credits_[std::size_t(opposite(port_dir(d)))][v];
        }
    }
    occupied_routers_ = index_set(count);
    ejecting_ = index_set(count);
}

port_dir mesh_network::route_xy(coord from, coord to)
{
    if (to.x > from.x)
        return port_dir::east;
    if (to.x < from.x)
        return port_dir::west;
    if (to.y > from.y)
        return port_dir::north;
    if (to.y < from.y)
        return port_dir::south;
    return port_dir::local;
}

coord mesh_network::neighbour(coord c, port_dir d)
{
    switch (d) {
    case port_dir::north: return {c.x, c.y + 1};
    case port_dir::south: return {c.x, c.y - 1};
    case port_dir::east: return {c.x + 1, c.y};
    case port_dir::west: return {c.x - 1, c.y};
    case port_dir::local: return c;
    }
    return c;
}

port_dir mesh_network::opposite(port_dir d)
{
    switch (d) {
    case port_dir::north: return port_dir::south;
    case port_dir::south: return port_dir::north;
    case port_dir::east: return port_dir::west;
    case port_dir::west: return port_dir::east;
    case port_dir::local: return port_dir::local;
    }
    return port_dir::local;
}

void mesh_network::step(cycle_t now)
{
    if (flits_ == 0)
        return; // nothing visible or staged anywhere: every phase is a no-op

    // A router or VC holding no flits has no work in either phase, and
    // flits staged into it during phase B only become visible after the
    // commit, so skipping it changes nothing. Occupied routers still run in
    // ascending index order and phase A still finishes everywhere before
    // phase B starts: a router's phase B returns credits to its upstream
    // neighbours, which a later router's phase B reads this very cycle.
    occupied_routers_.for_each(
        [&](std::size_t i) { allocate_vcs(routers_[i]); });

    // The rotation pointer is a pure function of the cycle number (every
    // router used to advance a member copy once per step, in lockstep), so
    // arbitration fairness is independent of how many idle cycles the
    // engine skipped.
    const std::size_t first_slot =
        std::size_t(now % (port_count * config_.virtual_channels));
    occupied_routers_.for_each(
        [&](std::size_t i) { traverse(routers_[i], first_slot); });

    // Make staged flits visible for the next cycle (a router with a staged
    // flit is occupied).
    occupied_routers_.for_each([&](std::size_t i) {
        vc_router& r = routers_[i];
        for (std::uint64_t bits = r.staged_; bits != 0; bits &= bits - 1)
            r.inputs_[std::size_t(__builtin_ctzll(bits))].buffer.commit();
        r.staged_ = 0;
    });
}

// Phase A: route computation + virtual-channel allocation for new heads.
void mesh_network::allocate_vcs(vc_router& r)
{
    const std::uint32_t vcs = config_.virtual_channels;
    for (std::uint64_t bits = r.occupied_; bits != 0; bits &= bits - 1) {
        const std::size_t slot = std::size_t(__builtin_ctzll(bits));
        auto& ivc = r.inputs_[slot];
        const flit* head = ivc.buffer.front();
        if (head == nullptr || ivc.routed || !head->head())
            continue;
        const port_dir out = route_xy(r.position_, head->dst);
        if (out == port_dir::local) {
            ivc.routed = true;
            ivc.out = out;
            ivc.out_vc = 0;
            continue;
        }
        // Claim a free downstream VC with buffering available.
        auto& owners = r.vc_owner_[std::size_t(out)];
        auto& credits = r.credits_[std::size_t(out)];
        for (std::uint32_t ovc = 0; ovc < vcs; ++ovc) {
            if (owners[ovc] == -1 && credits[ovc] > 0) {
                owners[ovc] = std::int32_t(slot);
                ivc.routed = true;
                ivc.out = out;
                ivc.out_vc = ovc;
                break;
            }
        }
        if (!ivc.routed)
            r.counters_.inc(r.h_vc_alloc_stall_);
    }
}

// Phase B: switch allocation + traversal. One flit per output port per
// cycle, round-robin over input VC slots starting at `first_slot`.
//
// One pass over the occupied slots in rotation order grants each output to
// the first routed candidate with a credit, exactly as a separate scan per
// output would: a VC competes only for the output it is routed to, and a
// grant changes no state another output's candidates read (the winner's own
// buffer, this output's credit and VC owner, a neighbour's buffer and an
// upstream router's credits). A credit stall counts every candidate met
// before its output's winner, as the per-output scan counted them.
void mesh_network::traverse(vc_router& r, std::size_t first_slot)
{
    const std::uint32_t vcs = config_.virtual_channels;
    const std::uint64_t from_first = ~std::uint64_t{0} << first_slot;
    std::array<bool, port_count> sent{};
    // Slots first_slot.. upwards, then the wrap-around 0..first_slot-1.
    for (const std::uint64_t part :
         {r.occupied_ & from_first, r.occupied_ & ~from_first}) {
        for (std::uint64_t bits = part; bits != 0; bits &= bits - 1) {
            const std::size_t slot = std::size_t(__builtin_ctzll(bits));
            auto& ivc = r.inputs_[slot];
            if (ivc.buffer.front() == nullptr || !ivc.routed)
                continue;
            const std::size_t out = std::size_t(ivc.out);
            if (sent[out])
                continue;
            if (ivc.out != port_dir::local &&
                r.credits_[out][ivc.out_vc] == 0) {
                r.counters_.inc(r.h_credit_stall_);
                continue;
            }

            const flit moving = *ivc.buffer.pop();
            if (ivc.buffer.idle()) {
                r.occupied_ &= ~(std::uint64_t{1} << slot);
                if (r.occupied_ == 0)
                    occupied_routers_.erase(r.index_);
            }
            if (ivc.out == port_dir::local) {
                r.ejected_.push_back(moving);
                r.counters_.inc(r.h_ejected_);
                --flits_;
                ++ejected_;
                ejecting_.insert(r.index_);
            } else {
                r.links_[out]->stage(
                    std::size_t(opposite(ivc.out)) * vcs + ivc.out_vc, moving);
                r.credits_[out][ivc.out_vc]--;
                ++flit_hops_;
                r.counters_.inc(r.h_forwarded_);
            }

            // Return a credit to whoever feeds this input port.
            if (ivc.credit_return != nullptr)
                ++*ivc.credit_return;

            if (moving.tail()) {
                if (ivc.out != port_dir::local)
                    r.vc_owner_[out][ivc.out_vc] = -1;
                ivc.routed = false;
            }
            sent[out] = true;
        }
    }
}

std::uint64_t mesh_network::occupancy_digest() const
{
    std::uint64_t h = flit_hops_;
    for (const auto& r : routers_) {
        h = h * 0x100000001b3ULL + r.ejected_.size();
        for (const auto& vc : r.inputs_)
            h = h * 0x100000001b3ULL + vc.buffer.total_size() * 8 +
                (vc.routed ? 4 : 0);
    }
    return h;
}

} // namespace lnuca::noc
