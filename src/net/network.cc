#include "net/network.hh"

// lint: hot-path

#include <queue>
#include <utility>

#include "sim/logging.hh"

namespace bluedbm {
namespace net {

// ---------------------------------------------------------------- //
// Endpoint
// ---------------------------------------------------------------- //

void
Endpoint::send(NodeId dst, std::uint32_t bytes, PayloadRef payload)
{
    if (dst >= net_.nodeCount())
        sim::fatal("send to node %u but network has %u nodes", dst,
                   net_.nodeCount());
    Message msg;
    msg.src = node_;
    msg.dst = dst;
    msg.endpoint = id_;
    msg.bytes = bytes;
    msg.payload = std::move(payload);
    msg.headArrival = net_.sim_.now();
    ++sent_;
    if (e2eCredits_ == 0) {
        // No end-to-end credit to wait for: straight to the lane.
        net_.inject(std::move(msg));
        return;
    }
    sendQueue_.push_back(std::move(msg));
    pumpSend();
}

void
Endpoint::pumpSend()
{
    while (!sendQueue_.empty()) {
        Message &head = sendQueue_.front();
        unsigned &avail = e2eAvail_[head.dst];
        if (avail == 0)
            return; // wait for a credit to come back
        --avail;
        head.flowControlled = true;
        Message msg = std::move(head);
        sendQueue_.pop_front();
        net_.inject(std::move(msg));
    }
}

std::optional<Message>
Endpoint::receive()
{
    if (recvQueue_.empty())
        return std::nullopt;
    Message msg = std::move(recvQueue_.front());
    recvQueue_.pop_front();
    if (msg.flowControlled)
        net_.returnE2eCredit(msg);
    // Admit a parked message now that a buffer slot is free.
    if (!parked_.empty()) {
        Parked p = std::move(parked_.front());
        parked_.pop_front();
        recvQueue_.push_back(std::move(p.msg));
        ++received_;
        if (p.release)
            p.release();
    }
    return msg;
}

void
Endpoint::setReceiveHandler(Handler handler)
{
    handler_ = std::move(handler);
    if (!recvQueue_.empty())
        scheduleDrain();
}

void
Endpoint::scheduleDrain()
{
    if (drainScheduled_)
        return;
    drainScheduled_ = true;
    net_.sim_.scheduleAfter(0, [this]() {
        drainScheduled_ = false;
        while (handler_ && !recvQueue_.empty()) {
            auto msg = receive();
            handler_(std::move(*msg));
        }
    });
}

void
Endpoint::enableEndToEnd(unsigned credits)
{
    if (credits == 0)
        sim::fatal("end-to-end flow control needs >= 1 credit");
    e2eCredits_ = credits;
    // Flat per-destination credit table, sized once at enable time.
    e2eAvail_.assign(net_.nodeCount(), credits);
}

void
Endpoint::deliver(Message msg, HopHook release)
{
    if (recvQueue_.size() >= recvCapacity_) {
        // Hold the upstream buffer: this is where backpressure
        // originates when the consumer stalls.
        parked_.push_back(Parked{std::move(msg), std::move(release)});
        return;
    }
    recvQueue_.push_back(std::move(msg));
    ++received_;
    if (release)
        release();
    if (handler_)
        scheduleDrain();
}

void
Endpoint::creditReturned(NodeId from)
{
    // Tokens only flow back to the endpoint that consumed a credit,
    // but guard anyway: without flow control there is no table.
    if (e2eCredits_ == 0)
        return;
    unsigned &avail = e2eAvail_[from];
    if (avail < e2eCredits_)
        ++avail;
    pumpSend();
}

// ---------------------------------------------------------------- //
// StorageNetwork
// ---------------------------------------------------------------- //

StorageNetwork::StorageNetwork(sim::Simulator &sim,
                               const Topology &topo,
                               const Params &params)
    : sim_(sim), topo_(topo), params_(params),
      // lint: allow(hot-path-alloc) construction-time pool setup
      payloadPool_(std::make_shared<PayloadPool>())
{
    // Pending events capture Messages whose payloads live in this
    // pool; the simulator keeps it alive past our destruction.
    sim_.retainResource(payloadPool_);

    std::string err = topo_.validate();
    if (!err.empty())
        sim::fatal("invalid topology: %s", err.c_str());
    if (params_.endpoints < 2)
        sim::fatal("need >= 2 endpoints (0 is reserved for control)");

    outLanes_.resize(topo_.nodes);
    for (const auto &spec : topo_.links) {
        // Two directed lanes per cable.
        for (int dir = 0; dir < 2; ++dir) {
            LaneEnd end;
            end.owner = dir == 0 ? spec.nodeA : spec.nodeB;
            end.peer = dir == 0 ? spec.nodeB : spec.nodeA;
            // lint: allow(hot-path-alloc) construction-time lane setup
            end.lane = std::make_unique<Lane>(sim_, params_.lane);
            std::size_t idx = lanes_.size();
            auto on_deliver = [this, idx](Message msg) {
                arrive(lanes_[idx].peer, idx, std::move(msg));
            };
            static_assert(Lane::Deliver::storedInline<
                              decltype(on_deliver)>(),
                          "lane delivery capture must stay inline");
            end.lane->setDeliver(std::move(on_deliver));
            outLanes_[end.owner].push_back(idx);
            lanes_.push_back(std::move(end));
        }
    }

    computeRoutes();

    endpoints_.resize(topo_.nodes);
    for (unsigned n = 0; n < topo_.nodes; ++n) {
        for (unsigned e = 0; e < params_.endpoints; ++e) {
            endpoints_[n].emplace_back(std::unique_ptr<Endpoint>(
                // lint: allow(hot-path-alloc) construction-time endpoint setup
                new Endpoint(*this, NodeId(n), EndpointId(e),
                             params_.recvCapacity)));
        }
    }
}

void
StorageNetwork::computeRoutes()
{
    unsigned n = topo_.nodes;
    nextHop_.assign(std::size_t(n) * n, RouteSlot{});
    ecmpLanes_.clear();

    // One BFS per destination yields every node's next-hop set for
    // that destination directly; the per-endpoint spread is applied
    // at lookup time (e % count), so no per-endpoint tables exist.
    for (NodeId dst = 0; dst < n; ++dst) {
        std::vector<int> dist(n, -1);
        std::queue<NodeId> bfs;
        dist[dst] = 0;
        bfs.push(dst);
        while (!bfs.empty()) {
            NodeId v = bfs.front();
            bfs.pop();
            for (std::size_t l : outLanes_[v]) {
                NodeId u = lanes_[l].peer;
                if (dist[u] < 0) {
                    dist[u] = dist[v] + 1;
                    bfs.push(u);
                }
            }
        }

        for (NodeId v = 0; v < n; ++v) {
            if (v == dst)
                continue;
            // All outgoing lanes on a shortest path, in port order
            // (the order the old tables enumerated them, so the
            // endpoint -> lane assignment is unchanged).
            RouteSlot slot;
            slot.base = static_cast<std::uint32_t>(ecmpLanes_.size());
            for (std::size_t l : outLanes_[v]) {
                if (dist[lanes_[l].peer] == dist[v] - 1)
                    ecmpLanes_.push_back(
                        static_cast<std::uint32_t>(l));
            }
            slot.count =
                static_cast<std::uint32_t>(ecmpLanes_.size()) -
                slot.base;
            if (slot.count == 0)
                sim::panic("no route from %u to %u", v, dst);
            nextHop_[std::size_t(v) * n + dst] = slot;
        }
    }
    // Tables are immutable after construction; drop growth slack so
    // routingTableBytes() reports what actually stays resident.
    ecmpLanes_.shrink_to_fit();
}

Endpoint &
StorageNetwork::endpoint(NodeId node, EndpointId e)
{
    if (node >= topo_.nodes)
        sim::fatal("node %u out of range", node);
    if (e == controlEndpoint || e >= params_.endpoints)
        sim::fatal("endpoint %u out of range (1..%u)", e,
                   params_.endpoints - 1);
    return *endpoints_[node][e];
}

unsigned
StorageNetwork::routeHops(EndpointId e, NodeId src, NodeId dst) const
{
    unsigned hops = 0;
    NodeId v = src;
    while (v != dst) {
        int l = routeLane(e, v, dst);
        if (l < 0)
            sim::panic("broken route %u->%u", src, dst);
        v = lanes_[std::size_t(l)].peer;
        ++hops;
        if (hops > topo_.nodes)
            sim::panic("routing loop %u->%u", src, dst);
    }
    return hops;
}

int
StorageNetwork::routeLane(EndpointId e, NodeId node, NodeId dst) const
{
    const RouteSlot &s = nextHop_[std::size_t(node) * topo_.nodes + dst];
    if (s.count == 0)
        return -1; // local
    // Deterministic per-endpoint choice spreads endpoints across
    // equal-cost paths (paper section 3.2.3).
    return int(ecmpLanes_[s.base + e % s.count]);
}

std::size_t
StorageNetwork::routingTableBytes() const
{
    return nextHop_.capacity() * sizeof(RouteSlot) +
           ecmpLanes_.capacity() * sizeof(std::uint32_t);
}

std::uint64_t
StorageNetwork::totalLaneBytes() const
{
    std::uint64_t sum = 0;
    for (const auto &end : lanes_)
        sum += end.lane->deliveredBytes();
    return sum;
}

void
StorageNetwork::inject(Message msg)
{
    // The head enters the network now, regardless of how long the
    // message waited in the endpoint's send queue.
    msg.headArrival = std::max(msg.headArrival, sim_.now());
    if (msg.dst == msg.src) {
        // Local loopback through the internal switch: no serial hop.
        // (The capture recovers the node from the message itself to
        // stay within the inline event buffer.)
        sim_.scheduleAfter(0, [this, m = std::move(msg)]() mutable {
            NodeId here = m.dst;
            route(here, std::move(m), {});
        });
        return;
    }
    int l = routeLane(msg.endpoint, msg.src, msg.dst);
    lanes_[std::size_t(l)].lane->send(std::move(msg));
}

void
StorageNetwork::arrive(NodeId node, std::size_t lane_idx, Message msg)
{
    Lane *upstream = lanes_[lane_idx].lane.get();
    std::uint32_t bytes = msg.bytes;
    auto release = [upstream, bytes]() {
        upstream->releaseCredits(bytes);
    };
    static_assert(HopHook::storedInline<decltype(release)>(),
                  "credit release capture must stay inline");
    route(node, std::move(msg), std::move(release));
}

void
StorageNetwork::route(NodeId node, Message msg, HopHook release)
{
    if (msg.dst == node) {
        if (msg.endpoint == controlEndpoint) {
            // Credit token: payload is the endpoint index.
            auto e = msg.payload.take<EndpointId>();
            if (release)
                release();
            endpoints_[node][e]->creditReturned(msg.src);
            return;
        }
        endpoints_[node][msg.endpoint]->deliver(std::move(msg),
                                                std::move(release));
        return;
    }
    int l = routeLane(msg.endpoint, node, msg.dst);
    // Credits of the upstream lane are held until this message is
    // accepted onto the wire of the next lane: backpressure chains.
    lanes_[std::size_t(l)].lane->send(std::move(msg),
                                      std::move(release));
}

void
StorageNetwork::returnE2eCredit(const Message &msg)
{
    Message token;
    token.src = msg.dst; // we are the receiver
    token.dst = msg.src;
    token.endpoint = controlEndpoint;
    token.bytes = 8; // tiny control packet
    token.payload = PayloadRef::inlineOf(msg.endpoint);
    token.headArrival = sim_.now();
    inject(std::move(token));
}

} // namespace net
} // namespace bluedbm
