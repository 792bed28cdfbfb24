/**
 * @file
 * Cluster-scale regression: the ROADMAP's 20-node target. Builds
 * the fan-out-8 ring (every serial port in use, paper figure 5),
 * validates it, and routes cross-node KV traffic through the 20-node
 * ring the paper describes (4 lanes each way = 32.8 Gb/s of ring
 * throughput, section 3.2).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/cluster.hh"
#include "net/network.hh"
#include "kv/kv_router.hh"
#include "kv/kv_service.hh"
#include "sim/simulator.hh"
#include "workload/workload.hh"

using namespace bluedbm;
using flash::PageBuffer;
using kv::Key;
using kv::KvStatus;

namespace {

/** The paper's 20-node ring: 4 lanes each way fills all 8 ports. */
core::ClusterParams
ring20Cluster()
{
    core::ClusterParams p;
    p.topology = net::Topology::ring(20, 4);
    p.node.geometry = flash::Geometry::tiny();
    p.node.timing = flash::Timing::fast();
    p.node.cards = 2;
    p.node.controllerTags = 64;
    p.network.endpoints = kv::kvRequiredEndpoints;
    return p;
}

} // namespace

TEST(ClusterScale, FanOut8WiringsValidate)
{
    // ring(20,4): every node consumes its full 8-port budget.
    net::Topology ring = net::Topology::ring(20, 4);
    EXPECT_EQ(ring.validate(), "");
    EXPECT_EQ(ring.nodes, 20u);
    EXPECT_EQ(ring.links.size(), 20u * 4);
    std::vector<unsigned> ports(20, 0);
    for (const auto &l : ring.links) {
        ++ports[l.nodeA];
        ++ports[l.nodeB];
    }
    for (unsigned n = 0; n < 20; ++n)
        EXPECT_EQ(ports[n], 8u) << "node " << n;
}

TEST(ClusterScale, Ring20RoutesAreShortAndLoopFree)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, ring20Cluster());
    auto &net = cluster.network();
    // Worst-case hop count on a 20-ring is 10; every endpoint's
    // deterministic route must respect it.
    for (net::NodeId src = 0; src < 20; ++src) {
        for (net::NodeId dst = 0; dst < 20; ++dst) {
            if (src == dst)
                continue;
            unsigned expect =
                std::min<unsigned>((dst + 20 - src) % 20,
                                   (src + 20 - dst) % 20);
            for (net::EndpointId e = 1; e < 4; ++e)
                EXPECT_EQ(net.routeHops(e, src, dst), expect)
                    << src << "->" << dst;
        }
    }
}

TEST(ClusterScale, KvTrafficCrossesThe20NodeRing)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, ring20Cluster());
    kv::KvParams kp;
    kp.replication = 2;
    kv::KvRouter router(sim, cluster, kp);

    // Load keys from origins all around the ring.
    const unsigned keys = 400;
    unsigned acks = 0;
    for (Key k = 0; k < keys; ++k) {
        router.put(net::NodeId(k % 20), k,
                   workload::WorkloadEngine::makeValue(k, 64),
                   [&](KvStatus st) {
            ASSERT_EQ(st, KvStatus::Ok);
            ++acks;
        });
    }
    sim.run();
    ASSERT_EQ(acks, keys);

    // Every node ended up owning a slice (consistent hashing over
    // 20 nodes x 64 vnodes leaves nobody empty at 800 replicas).
    for (unsigned n = 0; n < 20; ++n)
        EXPECT_GT(router.shard(net::NodeId(n)).keyCount(), 0u)
            << "node " << n;

    // Reads from the node most distant from the data still return
    // correct bytes, for every key, via the integrated network.
    unsigned gets = 0;
    for (Key k = 0; k < keys; ++k) {
        net::NodeId origin = net::NodeId((k + 10) % 20); // far away
        router.get(origin, k, [&, k](PageBuffer v, KvStatus st) {
            ASSERT_EQ(st, KvStatus::Ok);
            ASSERT_EQ(v, workload::WorkloadEngine::makeValue(k, 64));
            ++gets;
        });
    }
    sim.run();
    EXPECT_EQ(gets, keys);
    EXPECT_GT(router.remoteOps(), 0u);

    // Traffic really crossed serial lanes (no loopback shortcut).
    EXPECT_GT(cluster.network().totalLaneBytes(), 0u);
}

TEST(ClusterScale, WorkloadEngineDrives20Nodes)
{
    sim::Simulator sim;
    core::Cluster cluster(sim, ring20Cluster());
    kv::KvRouter router(sim, cluster, kv::KvParams{});
    kv::KvService service(sim, router);

    workload::WorkloadParams wp;
    wp.keys = 500;
    wp.valueBytes = 64;
    wp.mix.readFrac = 0.95;
    wp.zipfian = true;
    wp.theta = 0.99;
    wp.clientsPerNode = 2;
    wp.pipeline = 2;
    wp.totalOps = 3000;
    workload::WorkloadEngine engine(sim, cluster, router, service,
                                    wp);

    bool loaded = false;
    engine.preload([&]() { loaded = true; });
    sim.run();
    ASSERT_TRUE(loaded);
    bool finished = false;
    engine.run([&]() { finished = true; });
    sim.run();
    ASSERT_TRUE(finished);

    EXPECT_EQ(engine.completedOps(), 3000u);
    EXPECT_EQ(engine.notFoundOps(), 0u);
    EXPECT_GT(engine.throughputOpsPerSec(), 0.0);
    EXPECT_GT(engine.allLatency().p999(), 0u);
}

// ---------------------------------------------------------------- //
// The 100-node target (docs/kernel.md)
// ---------------------------------------------------------------- //

TEST(ClusterScale, Ring100RoutesAreShortCompactAndLoopFree)
{
    sim::Simulator sim;
    net::StorageNetwork net(sim, net::Topology::ring(100, 4),
                            net::StorageNetwork::Params{});
    // routeHops panics on a loop, so this also proves loop freedom.
    for (net::NodeId src = 0; src < 100; src += 7) {
        for (net::NodeId dst = 0; dst < 100; ++dst) {
            if (src == dst)
                continue;
            unsigned expect =
                std::min<unsigned>((dst + 100 - src) % 100,
                                   (src + 100 - dst) % 100);
            for (net::EndpointId e = 1; e < 3; ++e)
                EXPECT_EQ(net.routeHops(e, src, dst), expect)
                    << src << "->" << dst;
        }
    }
    // Next-hop tables stay compact at the target scale: one
    // RouteSlot per (src,dst) pair plus the shared ECMP candidate
    // pool, independent of the endpoint count (the old per-endpoint
    // tables were ~an order of magnitude above this bound).
    EXPECT_GT(net.routingTableBytes(), 0u);
    EXPECT_LT(net.routingTableBytes(), 300000u);
}

TEST(ClusterScale, EventSlabRecyclesAcross100NodeTraffic)
{
    // The kernel's zero-allocation invariant at the target scale:
    // stream enough cross-ring messages that executed events dwarf
    // the slab, and require the slot high-water mark to stay at the
    // peak-concurrency level rather than tracking the event count.
    sim::Simulator sim;
    net::StorageNetwork net(sim, net::Topology::ring(100, 4),
                            net::StorageNetwork::Params{});
    unsigned received = 0;
    for (net::NodeId nd = 0; nd < 100; ++nd) {
        net.endpoint(nd, 1).enableEndToEnd(8);
        net.endpoint(nd, 1).setReceiveHandler(
            [&received](net::Message) { ++received; });
    }
    const unsigned perNode = 40;
    for (unsigned i = 0; i < perNode; ++i)
        for (net::NodeId nd = 0; nd < 100; ++nd)
            net.endpoint(nd, 1).send((nd + 50) % 100, 256, {});
    sim.run();
    EXPECT_EQ(received, perNode * 100);
    EXPECT_GT(sim.eventsExecuted(), 100000u);
    EXPECT_LT(sim.eventPoolSlots(), sim.eventsExecuted() / 10);
}
