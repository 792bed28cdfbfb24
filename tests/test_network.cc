/**
 * @file
 * Tests for the integrated storage network: latency, bandwidth,
 * ordering, routing determinism, flow control and backpressure.
 */

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <vector>

#include "net/network.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

using namespace bluedbm;
using net::Endpoint;
using net::LaneParams;
using net::Message;
using net::NodeId;
using net::StorageNetwork;
using net::Topology;
using sim::Tick;

namespace {

StorageNetwork::Params
defaultParams()
{
    StorageNetwork::Params p;
    return p;
}

} // namespace

TEST(Network, SingleHopLatencyMatchesLinkParams)
{
    sim::Simulator sim;
    StorageNetwork net(sim, Topology::line(2), defaultParams());
    Tick arrival = 0;
    net.endpoint(1, 1).setReceiveHandler(
        [&](Message) { arrival = sim.now(); });
    net.endpoint(0, 1).send(1, 16, {});
    sim.run();
    const LaneParams &lp = net.laneParams();
    // 16-byte packet: serialization of ~20 wire bytes + hop latency.
    Tick serialization = sim::transferTicks(
        static_cast<std::uint64_t>(16 / lp.efficiency + 0.5),
        lp.physBytesPerSec);
    EXPECT_EQ(arrival, serialization + lp.hopLatency);
    EXPECT_LT(arrival, sim::usToTicks(0.6));
}

TEST(Network, MultiHopLatencyIsPerHopTimesHops)
{
    // Small packets over 1..4 hops of an idle line: latency must be
    // close to hops x 0.48 us (paper figure 11).
    for (unsigned hops = 1; hops <= 4; ++hops) {
        sim::Simulator sim;
        StorageNetwork net(sim, Topology::line(hops + 1),
                           defaultParams());
        Tick arrival = 0;
        net.endpoint(NodeId(hops), 1)
            .setReceiveHandler([&](Message) { arrival = sim.now(); });
        net.endpoint(0, 1).send(NodeId(hops), 16, {});
        sim.run();
        const LaneParams &lp = net.laneParams();
        double us = sim::ticksToUs(arrival);
        double per_hop = sim::ticksToUs(lp.hopLatency);
        EXPECT_NEAR(us, per_hop * hops, per_hop * 0.2 * hops)
            << hops << " hops";
    }
}

TEST(Network, StreamBandwidthReachesEffectiveRate)
{
    // A stream of messages across 3 hops must sustain the effective
    // (protocol-overhead-adjusted) rate of ~8.2 Gb/s.
    sim::Simulator sim;
    StorageNetwork net(sim, Topology::line(4), defaultParams());
    const std::uint32_t msg_bytes = 2048;
    const int messages = 2000;
    Tick last = 0;
    int got = 0;
    net.endpoint(3, 1).setReceiveHandler([&](Message) {
        ++got;
        last = sim.now();
    });
    for (int i = 0; i < messages; ++i)
        net.endpoint(0, 1).send(3, msg_bytes, {});
    sim.run();
    ASSERT_EQ(got, messages);
    double rate = sim::bytesPerSec(
        std::uint64_t(messages) * msg_bytes, last);
    double effective = net.laneParams().effectiveBytesPerSec();
    EXPECT_GT(rate, effective * 0.95);
    EXPECT_LE(rate, effective * 1.02);
}

TEST(Network, CutThroughBeatsStoreAndForward)
{
    // An 8 KB message over 3 hops should take roughly one
    // serialization plus 3 hop latencies, NOT 3 serializations.
    sim::Simulator sim;
    StorageNetwork net(sim, Topology::line(4), defaultParams());
    Tick arrival = 0;
    net.endpoint(3, 1).setReceiveHandler(
        [&](Message) { arrival = sim.now(); });
    net.endpoint(0, 1).send(3, 8192, {});
    sim.run();
    const LaneParams &lp = net.laneParams();
    Tick one_serialization = sim::transferTicks(
        static_cast<std::uint64_t>(8192 / lp.efficiency + 0.5),
        lp.physBytesPerSec);
    Tick cut_through = one_serialization + 3 * lp.hopLatency;
    Tick store_forward = 3 * (one_serialization + lp.hopLatency);
    EXPECT_LT(arrival, cut_through + one_serialization / 4);
    EXPECT_LT(arrival, store_forward / 2);
}

TEST(Network, PerEndpointFifoOrderProperty)
{
    // All packets of one endpoint to one destination take one path,
    // so arrival order equals send order (paper figure 6).
    sim::Simulator sim;
    StorageNetwork net(sim, Topology::ring(6, 2), defaultParams());
    std::vector<int> order;
    net.endpoint(3, 2).setReceiveHandler([&](Message m) {
        order.push_back(m.payload.take<int>());
    });
    for (int i = 0; i < 200; ++i)
        net.endpoint(0, 2).send(3, 64 + (i % 7) * 100, i);
    sim.run();
    ASSERT_EQ(order.size(), 200u);
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Network, DifferentEndpointsUseDifferentParallelLanes)
{
    // Ring with 4 parallel lanes: endpoints must spread across them.
    sim::Simulator sim;
    StorageNetwork net(sim, Topology::ring(4, 4), defaultParams());
    std::set<int> lanes;
    for (net::EndpointId e = 1; e < net.endpointCount(); ++e)
        lanes.insert(net.routeLane(e, 0, 1));
    EXPECT_GE(lanes.size(), 4u);
}

TEST(Network, RouteHopsMatchesShortestPath)
{
    sim::Simulator sim;
    StorageNetwork net(sim, Topology::ring(8, 1), defaultParams());
    // On an 8-ring, opposite node is 4 hops away.
    EXPECT_EQ(net.routeHops(1, 0, 4), 4u);
    EXPECT_EQ(net.routeHops(1, 0, 1), 1u);
    EXPECT_EQ(net.routeHops(1, 0, 7), 1u);
    EXPECT_EQ(net.routeHops(1, 2, 6), 4u);
}

TEST(Network, RoutesAreDeterministic)
{
    sim::Simulator sim1, sim2;
    StorageNetwork a(sim1, Topology::ring(8, 2), defaultParams());
    StorageNetwork b(sim2, Topology::ring(8, 2), defaultParams());
    for (net::EndpointId e = 1; e < a.endpointCount(); ++e) {
        for (NodeId s = 0; s < 8; ++s) {
            for (NodeId d = 0; d < 8; ++d)
                EXPECT_EQ(a.routeLane(e, s, d), b.routeLane(e, s, d));
        }
    }
}

TEST(Network, LoopbackDelivers)
{
    sim::Simulator sim;
    StorageNetwork net(sim, Topology::line(2), defaultParams());
    int got = 0;
    net.endpoint(0, 1).setReceiveHandler([&](Message m) {
        EXPECT_EQ(m.src, 0);
        ++got;
    });
    net.endpoint(0, 1).send(0, 128, {});
    sim.run();
    EXPECT_EQ(got, 1);
}

TEST(Network, BidirectionalTrafficDoesNotInterfere)
{
    // Full-duplex lanes: A->B and B->A streams both get full rate.
    sim::Simulator sim;
    StorageNetwork net(sim, Topology::line(2), defaultParams());
    int got_a = 0, got_b = 0;
    Tick last = 0;
    net.endpoint(1, 1).setReceiveHandler([&](Message) {
        ++got_b;
        last = std::max(last, sim.now());
    });
    net.endpoint(0, 1).setReceiveHandler([&](Message) {
        ++got_a;
        last = std::max(last, sim.now());
    });
    const int n = 500;
    for (int i = 0; i < n; ++i) {
        net.endpoint(0, 1).send(1, 2048, {});
        net.endpoint(1, 1).send(0, 2048, {});
    }
    sim.run();
    EXPECT_EQ(got_a, n);
    EXPECT_EQ(got_b, n);
    double per_dir = sim::bytesPerSec(std::uint64_t(n) * 2048, last);
    EXPECT_GT(per_dir, net.laneParams().effectiveBytesPerSec() * 0.9);
}

TEST(Network, StalledReceiverBlocksWithoutLosingData)
{
    // Receiver with a tiny buffer and no drain: messages park and
    // hold credits. Once the consumer drains, everything arrives in
    // order -- token flow control never drops packets.
    sim::Simulator sim;
    StorageNetwork::Params p;
    p.recvCapacity = 2;
    StorageNetwork net(sim, Topology::line(3), p);
    const int n = 50;
    for (int i = 0; i < n; ++i)
        net.endpoint(0, 1).send(2, 4096, i);
    sim.run(); // receiver never drains; network must quiesce
    Endpoint &rx = net.endpoint(2, 1);
    EXPECT_LE(rx.pendingReceive(), 2u);

    // Now drain; parked and in-flight messages flow in order.
    std::vector<int> order;
    rx.setReceiveHandler([&](Message m) {
        order.push_back(m.payload.take<int>());
    });
    sim.run();
    ASSERT_EQ(order.size(), std::size_t(n));
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Network, EndToEndFlowControlBoundsInFlight)
{
    sim::Simulator sim;
    StorageNetwork::Params p;
    p.recvCapacity = 4;
    StorageNetwork net(sim, Topology::line(2), p);
    Endpoint &tx = net.endpoint(0, 1);
    tx.enableEndToEnd(4);
    const int n = 40;
    for (int i = 0; i < n; ++i)
        tx.send(1, 1024, i);
    sim.run(); // no drain: at most credits+capacity messages moved
    Endpoint &rx = net.endpoint(1, 1);
    EXPECT_LE(rx.pendingReceive(), 4u);

    std::vector<int> order;
    rx.setReceiveHandler([&](Message m) {
        order.push_back(m.payload.take<int>());
    });
    sim.run();
    ASSERT_EQ(order.size(), std::size_t(n));
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Network, EndToEndAddsLatencyVersusRawEndpoint)
{
    // The safety of end-to-end flow control costs round trips on a
    // long path (paper section 3.2.3): with a small credit window the
    // stream is limited by the credit RTT rather than the wire rate.
    auto run_stream = [](bool e2e) {
        sim::Simulator sim;
        StorageNetwork net(sim, Topology::line(6), defaultParams());
        Endpoint &tx = net.endpoint(0, 1);
        if (e2e)
            tx.enableEndToEnd(2); // tight credit window
        Tick last = 0;
        int got = 0;
        net.endpoint(5, 1).setReceiveHandler([&](Message) {
            ++got;
            last = sim.now();
        });
        for (int i = 0; i < 200; ++i)
            tx.send(5, 512, {});
        sim.run();
        EXPECT_EQ(got, 200);
        return last;
    };
    Tick raw = run_stream(false);
    Tick flow_controlled = run_stream(true);
    EXPECT_GT(flow_controlled, raw * 2);
}

TEST(Network, ManyToOneKeepsAllData)
{
    sim::Simulator sim;
    StorageNetwork net(sim, Topology::ring(9), defaultParams());
    int got = 0;
    net.endpoint(4, 1).setReceiveHandler([&](Message) { ++got; });
    for (NodeId src = 0; src < 9; ++src) {
        if (src == 4)
            continue;
        for (int i = 0; i < 50; ++i)
            net.endpoint(src, 1).send(4, 512, {});
    }
    sim.run();
    EXPECT_EQ(got, 8 * 50);
}

TEST(Network, IdleTwoHopMessageCostsDeliveriesAndDrainOnly)
{
    // Two hops on an idle ring: one delivery event per hop and one
    // drain at the receiver. Neither hop's credit return is an event.
    sim::Simulator sim;
    StorageNetwork net(sim, Topology::ring(4), defaultParams());
    ASSERT_EQ(net.routeHops(1, 0, 2), 2u);
    int got = 0;
    net.endpoint(2, 1).setReceiveHandler([&](Message) { ++got; });
    net.endpoint(0, 1).send(2, 512, {});
    sim.run();
    EXPECT_EQ(got, 1);
    EXPECT_EQ(sim.eventsExecuted(), 3u);
}

TEST(Network, CreditBoundStreamsPinDeliveryTimes)
{
    // Three sources on a 4-node line stream 300-1,500 B messages
    // into one sink endpoint that holds two messages and drains one
    // at a time on seeded delays. Parked messages hold lane 2->3's
    // 2 KB of credit, so every lane into the sink runs dry and sends
    // meet returning credits on the same tick. The digest pins each
    // delivery's (tick, source, sequence number) and the clock pins
    // where the last credit return left it: a credit that counts on
    // another tick moves one of them. (The order within a tick is
    // Lane.MatchesEventPerReturnModelUnderSeededTraffic's to pin.)
    sim::Simulator sim;
    StorageNetwork::Params p;
    p.lane.bufferBytes = 2048;
    // 1 B/ns and whole-100 B messages keep every tick on a 20 ns grid
    // with the hop latency and the seeded delays, so events of
    // different chains meet on one tick.
    p.lane.physBytesPerSec = 1e9;
    p.lane.efficiency = 1.0;
    p.recvCapacity = 2;
    StorageNetwork net(sim, Topology::line(4), p);
    sim::Rng rng(5);
    const int per_source = 150;
    const int total = 3 * per_source;
    auto grid = [&rng](std::uint64_t max_steps) {
        return sim::nsToTicks(20.0 * double(rng.below(max_steps + 1)));
    };

    int sent[3] = {0, 0, 0};
    std::function<void(NodeId)> stream = [&](NodeId src) {
        std::uint32_t bytes = 100 * std::uint32_t(rng.range(3, 15));
        net.endpoint(src, 1).send(3, bytes, sent[src]++);
        if (sent[src] < per_source)
            sim.scheduleAfter(grid(40), [&stream, src] { stream(src); });
    };
    for (NodeId src = 0; src < 3; ++src)
        sim.scheduleAt(grid(10), [&stream, src] { stream(src); });

    Endpoint &rx = net.endpoint(3, 1);
    int delivered = 0;
    int next_seq[3] = {0, 0, 0};
    std::uint64_t digest = 0xcbf29ce484222325ull;
    auto mix = [&digest](std::uint64_t v) {
        digest = (digest ^ v) * 0x100000001b3ull;
    };
    std::function<void()> drain = [&]() {
        if (auto m = rx.receive()) {
            int seq = m->payload.take<int>();
            EXPECT_EQ(seq, next_seq[m->src]++) << "source " << m->src;
            mix(sim.now());
            mix(m->src);
            mix(std::uint64_t(seq));
            ++delivered;
        }
        if (delivered < total)
            sim.scheduleAfter(grid(60), [&drain] { drain(); });
    };
    sim.scheduleAt(grid(10), [&drain] { drain(); });

    sim.run();
    EXPECT_EQ(delivered, total);
    EXPECT_EQ(digest, 0x9189a153ecc0657aull);
    // At this seed the last credit return, not a drain, ends the run.
    EXPECT_EQ(sim.now(), 417400000ull);
}

TEST(Network, RoutingMemoryIndependentOfEndpointCount)
{
    // Next-hop RouteSlots are per (src,dst) pair over one shared
    // ECMP candidate pool; the per-endpoint spread happens at
    // lookup time (e % count), so adding endpoints must not grow
    // the resident tables at all.
    sim::Simulator sim1, sim2;
    auto few = defaultParams();
    few.endpoints = 2;
    auto many = defaultParams();
    many.endpoints = 16;
    StorageNetwork a(sim1, Topology::ring(8, 2), few);
    StorageNetwork b(sim2, Topology::ring(8, 2), many);
    EXPECT_GT(a.routingTableBytes(), 0u);
    EXPECT_EQ(a.routingTableBytes(), b.routingTableBytes());
}

TEST(Network, EcmpSpreadRotatesByEndpointModuloPathCount)
{
    // ring(4, 4): four equal-cost parallel lanes between neighbors.
    // The per-endpoint rotation is e % count over the candidate
    // slice, so endpoints 4 apart must share a lane and the four
    // residue classes must cover all four lanes.
    sim::Simulator sim;
    auto params = defaultParams();
    params.endpoints = 9;
    StorageNetwork net(sim, Topology::ring(4, 4), params);
    std::set<int> lanes;
    for (net::EndpointId e = 1; e <= 4; ++e) {
        lanes.insert(net.routeLane(e, 0, 1));
        EXPECT_EQ(net.routeLane(e, 0, 1),
                  net.routeLane(net::EndpointId(e + 4), 0, 1));
    }
    EXPECT_EQ(lanes.size(), 4u);
}
