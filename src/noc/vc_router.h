// Wormhole virtual-channel mesh router (the NUCA-style interconnect the
// paper contrasts L-NUCA against): dimension-order X-Y routing, per-input
// virtual channels with fixed-depth flit buffers, credit-based VC flow
// control, round-robin switch allocation, one cycle per hop.
#pragma once

#include "src/common/index_set.h"
#include "src/common/ring_queue.h"
#include "src/common/stats.h"
#include "src/common/types.h"
#include "src/noc/fifo.h"
#include "src/noc/message.h"

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

namespace lnuca::noc {

enum class port_dir : std::uint8_t { local = 0, north, south, east, west };
inline constexpr std::size_t port_count = 5;

struct router_config {
    /// 1..12: a router's port_count x VCs input slots fit one 64-bit mask.
    std::uint32_t virtual_channels = 4;
    std::uint32_t vc_depth = 4; ///< flit buffer entries per VC
};

class mesh_network; // forward; owns and wires routers

/// One mesh node. Input-buffered; the local port is the bank/controller
/// attachment point. Routers only exist inside a mesh_network, which keeps
/// the network-wide occupancy their local ports update.
class vc_router {
public:
    vc_router(const router_config& config, coord position, std::size_t index,
              mesh_network& mesh);

    coord position() const { return position_; }

    /// Can the local port accept a new flit this cycle (VC `vc`)?
    bool local_can_accept(std::uint32_t vc) const;

    /// Inject a flit at the local port (caller checked local_can_accept).
    void local_inject(std::uint32_t vc, const flit& f);

    /// Drain one flit delivered to this node, if any.
    std::optional<flit> local_eject();

    const counter_set& counters() const { return counters_; }
    /// Full scan of the buffers and the ejection queue (not the counts the
    /// mesh steps by), so tests can hold mesh_network::quiescent() to it.
    bool quiescent() const;

    /// Checkpoint support: at quiescence buffers are empty, credits are
    /// back to full and every VC is unowned, so only counters persist.
    template <class Ar> void serialize(Ar& ar) { ar.counters(counters_); }

private:
    friend class mesh_network;

    struct input_vc {
        sync_fifo<flit> buffer{4};
        // Wormhole state: once a head flit is routed, the packet owns this
        // route until its tail passes.
        bool routed = false;
        port_dir out = port_dir::local;
        std::uint32_t out_vc = 0;
        /// Upstream router's credit for this VC (nullptr on the local port
        /// and at the mesh edge): bumped whenever a flit leaves the buffer.
        std::uint32_t* credit_return = nullptr;
    };

    /// Stage a flit into input slot `slot` (visible after the next commit).
    void stage(std::size_t slot, const flit& f);

    router_config config_;
    coord position_;
    std::size_t index_;  ///< position in the mesh's router vector
    mesh_network* mesh_; ///< owner: network-wide flit/ejection counts
    /// Downstream router of each output port (nullptr for local and at the
    /// mesh edge).
    std::array<vc_router*, port_count> links_{};
    /// Input VCs, port-major: slot p * virtual_channels + v. Switch
    /// allocation's round-robin walks this order.
    std::vector<input_vc> inputs_;
    std::uint64_t occupied_ = 0; ///< bit s: inputs_[s] holds a flit
    std::uint64_t staged_ = 0;   ///< bit s: inputs_[s] has a staged push
    // Downstream credits per output port per VC (free buffer slots).
    std::array<std::vector<std::uint32_t>, port_count> credits_;
    // Output VC ownership for wormhole: encoded input (port * V + vc), -1 free.
    // (Switch-allocation round-robin rotates by cycle number - see
    // mesh_network::step - so routers hold no per-cycle arbitration state.)
    std::array<std::vector<std::int32_t>, port_count> vc_owner_;
    ring_queue<flit> ejected_;
    counter_set counters_;
    counter_set::handle h_credit_stall_ = 0;
    counter_set::handle h_ejected_ = 0;
    counter_set::handle h_forwarded_ = 0;
    counter_set::handle h_injected_ = 0;
    counter_set::handle h_vc_alloc_stall_ = 0;
};

/// A width x height mesh of vc_routers with neighbour wiring. Call step()
/// once per cycle; flits staged this cycle are visible next cycle.
///
/// Event-driven: each router keeps a mask of its occupied input VCs and the
/// mesh counts the flits in flight and in ejection queues, so a step visits
/// only occupied routers and VCs, and quiescent() is O(1). Routers point at
/// each other and at the mesh, so a mesh is neither copied nor moved.
class mesh_network {
public:
    mesh_network(const router_config& config, int width, int height);
    mesh_network(const mesh_network&) = delete;
    mesh_network& operator=(const mesh_network&) = delete;

    int width() const { return width_; }
    int height() const { return height_; }

    vc_router& at(coord c) { return routers_[index(c)]; }
    const vc_router& at(coord c) const { return routers_[index(c)]; }

    /// Advance every router that holds flits by one cycle.
    void step(cycle_t now);

    /// Visit the routers with ejected flits waiting, in ascending router
    /// index (row-major) order; `fn(vc_router&)` may eject from its router.
    template <class Fn> void for_each_ejecting(Fn&& fn)
    {
        ejecting_.for_each([&](std::size_t i) { fn(routers_[i]); });
    }

    /// Total flit-hops performed (energy model input).
    std::uint64_t flit_hops() const { return flit_hops_; }
    std::uint64_t router_traversals() const { return flit_hops_; }

    bool quiescent() const { return flits_ == 0 && ejected_ == 0; }

    /// Cheap summary of buffer/ejection occupancy across all routers
    /// (paranoid-mode state digests; see sim/ticked.h).
    std::uint64_t occupancy_digest() const;

    /// X-Y route: next hop direction from `from` towards `to`.
    static port_dir route_xy(coord from, coord to);

    /// Checkpoint support: per-router counters + the hop total that feeds
    /// the energy model.
    template <class Ar> void serialize(Ar& ar)
    {
        for (vc_router& r : routers_)
            r.serialize(ar);
        ar(flit_hops_);
    }

private:
    friend class vc_router;

    std::size_t index(coord c) const
    {
        return std::size_t(c.y) * std::size_t(width_) + std::size_t(c.x);
    }

    bool in_bounds(coord c) const
    {
        return c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_;
    }

    static coord neighbour(coord c, port_dir d);
    static port_dir opposite(port_dir d);

    void allocate_vcs(vc_router& r);
    void traverse(vc_router& r, std::size_t first_slot);

    router_config config_;
    int width_;
    int height_;
    std::vector<vc_router> routers_;
    std::uint64_t flits_ = 0;    ///< flits in every router's input buffers
    std::uint64_t ejected_ = 0;  ///< flits in every router's ejection queue
    index_set occupied_routers_; ///< routers holding flits in input buffers
    index_set ejecting_;         ///< routers whose ejection queue is non-empty
    std::uint64_t flit_hops_ = 0;
};

} // namespace lnuca::noc
