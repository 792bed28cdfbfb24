/**
 * @file
 * The integrated storage network (paper section 3.2).
 *
 * StorageNetwork instantiates one external switch per node, lanes for
 * every cable in the topology, and a set of logical endpoints
 * (virtual channels) per node. Routing is deterministic per
 * (endpoint, destination): all packets of one endpoint to one
 * destination follow the same path -- preserving FIFO order without
 * completion buffers -- while different endpoints spread across
 * equal-cost paths (paper section 3.2.3, figure 6).
 *
 * Endpoints expose send/receive with backpressure so that an endpoint
 * pair behaves like a FIFO across the whole cluster. End-to-end flow
 * control is optional per endpoint: when on, a sender consumes a
 * credit per message and the receiver returns credits over the
 * control endpoint as the application drains data; when off, latency
 * is lower but a non-draining receiver eventually blocks the links
 * (exactly the trade-off of section 3.2.3).
 */

#ifndef BLUEDBM_NET_NETWORK_HH
#define BLUEDBM_NET_NETWORK_HH

// lint: hot-path

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "net/link.hh"
#include "net/message.hh"
#include "net/payload.hh"
#include "net/topology.hh"
#include "sim/simulator.hh"

namespace bluedbm {
namespace net {

class StorageNetwork;

/**
 * A logical endpoint: the network as seen by one in-store processor
 * service port.
 */
class Endpoint
{
  public:
    /** Handler invoked for each received message (auto-drain mode).
     * InlineFunction so installing and invoking receive handlers
     * never allocates for the typical capture (a this-pointer or a
     * few references; 48 bytes of room, heap fallback beyond). */
    using Handler = sim::InlineFunction<void(Message), 48>;

    /**
     * Send @p bytes to endpoint @p endpoint-equivalent on node
     * @p dst. Returns immediately; transmission is subject to
     * backpressure.
     *
     * @param dst     destination node
     * @param bytes   payload size for timing purposes
     * @param payload untimed data carried to the receiver
     */
    void send(NodeId dst, std::uint32_t bytes,
              PayloadRef payload = PayloadRef());

    /**
     * Convenience overload boxing @p payload through the network's
     * payload pool (inline for small trivial types, a recycled slab
     * slot for protocol structs -- no per-send allocation).
     */
    template <typename T,
              typename = std::enable_if_t<!std::is_same_v<
                  std::remove_cv_t<std::remove_reference_t<T>>,
                  PayloadRef>>>
    void send(NodeId dst, std::uint32_t bytes, T &&payload);

    /**
     * Pop the oldest received message, if any. Draining the receive
     * buffer is what returns credits (end-to-end and link-level).
     */
    std::optional<Message> receive();

    /** Number of messages waiting in the receive buffer. */
    std::size_t pendingReceive() const { return recvQueue_.size(); }

    /**
     * Install a handler that automatically drains every arriving
     * message (models an ISP consuming at line rate).
     */
    void setReceiveHandler(Handler handler);

    /**
     * Enable end-to-end flow control: at most @p credits messages
     * in flight per destination; safe against receiver stalls.
     */
    void enableEndToEnd(unsigned credits);

    /** Whether end-to-end flow control is on. */
    bool endToEnd() const { return e2eCredits_ > 0; }

    /** Node this endpoint lives on. */
    NodeId node() const { return node_; }

    /** Endpoint index. */
    EndpointId id() const { return id_; }

    /** Messages sent (accepted into the send queue). */
    std::uint64_t sent() const { return sent_; }

    /** Messages received (delivered into the receive buffer). */
    std::uint64_t received() const { return received_; }

  private:
    friend class StorageNetwork;

    Endpoint(StorageNetwork &net, NodeId node, EndpointId id,
             std::size_t recv_capacity)
        : net_(net), node_(node), id_(id), recvCapacity_(recv_capacity)
    {
    }

    /** Inject queued messages while end-to-end credits allow. */
    void pumpSend();

    /** Called by the network when a message arrives for us. */
    void deliver(Message msg, HopHook release);

    /** Arm the auto-drain event if it is not already pending. One
     * drain event empties the whole receive buffer, so a burst of
     * same-tick arrivals across many ports costs one event, not one
     * per arrival -- delivery event churn stays independent of the
     * cluster's total port count. */
    void scheduleDrain();

    /** Called when an end-to-end credit comes back from @p from. */
    void creditReturned(NodeId from);

    StorageNetwork &net_;
    NodeId node_;
    EndpointId id_;
    std::size_t recvCapacity_;
    Handler handler_;
    bool drainScheduled_ = false; //!< auto-drain event pending

    std::deque<Message> sendQueue_; //!< waiting for end-to-end credit
    struct Parked
    {
        Message msg;
        HopHook release;
    };
    std::deque<Message> recvQueue_;
    std::deque<Parked> parked_; //!< arrived but receive buffer full

    unsigned e2eCredits_ = 0; //!< 0 = end-to-end flow control off
    /** Credits available per destination node; flat, indexed by
     * NodeId, sized at enable time -- no hashing on the send path. */
    std::vector<unsigned> e2eAvail_;

    std::uint64_t sent_ = 0;
    std::uint64_t received_ = 0;
};

/**
 * The whole inter-controller network: lanes, switches and endpoints.
 */
class StorageNetwork
{
  public:
    /** Configuration knobs. */
    struct Params
    {
        LaneParams lane;
        /** Logical endpoints per node (index 0 is control). */
        unsigned endpoints = 8;
        /** Receive buffer capacity per endpoint, in messages. */
        std::size_t recvCapacity = 1024;
    };

    /**
     * Build the network for @p topo. Fatal on invalid topologies.
     */
    StorageNetwork(sim::Simulator &sim, const Topology &topo,
                   const Params &params);

    /** Build with default parameters. */
    StorageNetwork(sim::Simulator &sim, const Topology &topo)
        : StorageNetwork(sim, topo, Params{})
    {
    }

    /** Endpoint @p e of node @p node (e >= 1; 0 is control). */
    Endpoint &endpoint(NodeId node, EndpointId e);

    /** Number of nodes. */
    unsigned nodeCount() const { return topo_.nodes; }

    /** Number of endpoints per node. */
    unsigned endpointCount() const { return params_.endpoints; }

    /** Topology in use. */
    const Topology &topology() const { return topo_; }

    /** Lane parameters in use. */
    const LaneParams &laneParams() const { return params_.lane; }

    /**
     * Hop count of the route endpoint @p e uses from @p src to
     * @p dst (diagnostics / tests).
     */
    unsigned routeHops(EndpointId e, NodeId src, NodeId dst) const;

    /**
     * Output lane index at @p node for (endpoint, dst), or -1 when
     * the destination is local.
     */
    int routeLane(EndpointId e, NodeId node, NodeId dst) const;

    /** Bytes resident in the routing tables (next-hop slots plus the
     * shared equal-cost candidate pool) -- the footprint the
     * table-compression work is gated on. */
    std::size_t routingTableBytes() const;

    /** Total payload bytes delivered by all lanes. */
    std::uint64_t totalLaneBytes() const;

    /** Slab the payloads of this network's messages live in. */
    PayloadPool &payloadPool() { return *payloadPool_; }

  private:
    friend class Endpoint;

    struct LaneEnd
    {
        std::unique_ptr<Lane> lane; //!< transmits away from `owner`
        NodeId owner = 0;           //!< sending node
        NodeId peer = 0;            //!< receiving node
    };

    /** Compute per-endpoint deterministic routing tables. */
    void computeRoutes();

    /** A message arrived at @p node via lane @p lane_idx. */
    void arrive(NodeId node, std::size_t lane_idx, Message msg);

    /** Inject a message at its source node. */
    void inject(Message msg);

    /** Forward or deliver @p msg at @p node; @p release frees the
     * upstream buffer once the message moves on. */
    void route(NodeId node, Message msg, HopHook release);

    /** Send an end-to-end credit token back to @p msg's sender. */
    void returnE2eCredit(const Message &msg);

    sim::Simulator &sim_;
    Topology topo_;
    Params params_;

    /** Shared with the Simulator (retainResource): messages escape
     * into the event queue as captured lambdas, so the pool must
     * survive this network if events are still pending (their
     * *destruction* is then safe; running them would still touch
     * freed lanes -- don't run a simulator past its network's
     * lifetime). Declared before anything that can hold Messages so
     * it also outlives every member holding a PayloadRef. */
    // lint: allow(hot-path-alloc) construction-time: the pool is
    // shared with every lane once, never per message
    std::shared_ptr<PayloadPool> payloadPool_;

    std::vector<LaneEnd> lanes_;
    //! node -> list of outgoing lane indices (ordered by port)
    std::vector<std::vector<std::size_t>> outLanes_;

    /** Next-hop slot for one (src, dst) pair: the equal-cost
     * shortest-path out-lanes live at ecmpLanes_[base .. base+count).
     * Endpoint e deterministically takes candidate e % count -- the
     * same per-endpoint spread the old routes_[e][src][dst] tables
     * encoded, but shared across endpoints: O(n^2) slots plus one
     * candidate pool instead of O(endpoints * n^2) full tables. */
    struct RouteSlot
    {
        std::uint32_t base = 0;  //!< offset into ecmpLanes_
        std::uint32_t count = 0; //!< candidates; 0 = local
    };
    //! nextHop_[src * nodes + dst]
    std::vector<RouteSlot> nextHop_;
    //! shared equal-cost candidate lane indices, in port order
    std::vector<std::uint32_t> ecmpLanes_;
    //! endpoints_[node][e]
    std::vector<std::vector<std::unique_ptr<Endpoint>>> endpoints_;
};

template <typename T, typename>
void
Endpoint::send(NodeId dst, std::uint32_t bytes, T &&payload)
{
    send(dst, bytes, net_.payloadPool().make(std::forward<T>(payload)));
}

} // namespace net
} // namespace bluedbm

#endif // BLUEDBM_NET_NETWORK_HH
