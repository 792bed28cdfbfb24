/**
 * @file
 * Parameterized property sweeps (TEST_P): invariants that must hold
 * across whole families of configurations -- network topologies,
 * flash geometries and link parameters.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "flash/flash_card.hh"
#include "flash/flash_server.hh"
#include "net/network.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

using namespace bluedbm;
using net::Message;
using net::StorageNetwork;
using net::Topology;

// ----------------------------------------------------------------- //
// Network properties across topology families
// ----------------------------------------------------------------- //

namespace {

struct TopoCase
{
    std::string name;
    Topology topo;
};

std::vector<TopoCase>
topoCases()
{
    return {
        {"ring8x2", Topology::ring(8, 2)},
        {"line5", Topology::line(5)},
    };
}

} // namespace

class NetworkTopologyProperty
    : public ::testing::TestWithParam<TopoCase>
{
};

TEST_P(NetworkTopologyProperty, AllPairsDeliverEverything)
{
    const Topology &topo = GetParam().topo;
    sim::Simulator sim;
    StorageNetwork net(sim, topo, StorageNetwork::Params{});
    int got = 0, expected = 0;
    for (net::NodeId d = 0; d < topo.nodes; ++d)
        net.endpoint(d, 1).setReceiveHandler([&](Message) { ++got; });
    for (net::NodeId s = 0; s < topo.nodes; ++s) {
        for (net::NodeId d = 0; d < topo.nodes; ++d) {
            if (s == d)
                continue;
            for (int i = 0; i < 5; ++i) {
                net.endpoint(s, 1).send(d, 256, {});
                ++expected;
            }
        }
    }
    sim.run();
    EXPECT_EQ(got, expected);
}

TEST_P(NetworkTopologyProperty, PerEndpointOrderHolds)
{
    const Topology &topo = GetParam().topo;
    sim::Simulator sim;
    StorageNetwork net(sim, topo, StorageNetwork::Params{});
    net::NodeId dst = net::NodeId(topo.nodes - 1);
    std::vector<int> order;
    net.endpoint(dst, 2).setReceiveHandler([&](Message m) {
        order.push_back(m.payload.take<int>());
    });
    for (int i = 0; i < 100; ++i)
        net.endpoint(0, 2).send(dst, 64 + (i % 5) * 200, i);
    sim.run();
    ASSERT_EQ(order.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(order[i], i);
}

TEST_P(NetworkTopologyProperty, RoutesReachEveryDestination)
{
    const Topology &topo = GetParam().topo;
    sim::Simulator sim;
    StorageNetwork net(sim, topo, StorageNetwork::Params{});
    for (net::EndpointId e = 1; e < net.endpointCount(); ++e) {
        for (net::NodeId s = 0; s < topo.nodes; ++s) {
            for (net::NodeId d = 0; d < topo.nodes; ++d) {
                if (s == d)
                    continue;
                unsigned hops = net.routeHops(e, s, d);
                EXPECT_GE(hops, 1u);
                EXPECT_LT(hops, topo.nodes);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, NetworkTopologyProperty,
    ::testing::ValuesIn(topoCases()),
    [](const ::testing::TestParamInfo<TopoCase> &info) {
        return info.param.name;
    });

// ----------------------------------------------------------------- //
// Flash data-path integrity across geometries
// ----------------------------------------------------------------- //

namespace {

struct GeoCase
{
    std::string name;
    flash::Geometry geo;
};

std::vector<GeoCase>
geoCases()
{
    std::vector<GeoCase> cases;
    {
        flash::Geometry g = flash::Geometry::tiny();
        cases.push_back({"tiny", g});
    }
    {
        flash::Geometry g;
        g.buses = 4;
        g.chipsPerBus = 4;
        g.blocksPerChip = 4;
        g.pagesPerBlock = 8;
        g.pageSize = 2048;
        cases.push_back({"wide4x4", g});
    }
    {
        flash::Geometry g;
        g.buses = 1;
        g.chipsPerBus = 8;
        g.blocksPerChip = 16;
        g.pagesPerBlock = 4;
        g.pageSize = 4096;
        cases.push_back({"singlebus", g});
    }
    {
        flash::Geometry g;
        g.buses = 8;
        g.chipsPerBus = 1;
        g.blocksPerChip = 2;
        g.pagesPerBlock = 32;
        g.pageSize = 1024;
        cases.push_back({"manybus", g});
    }
    return cases;
}

} // namespace

class FlashGeometryProperty : public ::testing::TestWithParam<GeoCase>
{
};

TEST_P(FlashGeometryProperty, AddressRoundTripsAreBijective)
{
    const flash::Geometry &g = GetParam().geo;
    for (std::uint64_t i = 0; i < g.pages(); ++i) {
        auto a = flash::Address::fromLinear(g, i);
        ASSERT_TRUE(a.validFor(g));
        ASSERT_EQ(a.linearize(g), i);
        auto s = flash::Address::fromStriped(g, i);
        ASSERT_TRUE(s.validFor(g));
    }
}

TEST_P(FlashGeometryProperty, WriteReadIntegrityThroughServer)
{
    const flash::Geometry &g = GetParam().geo;
    sim::Simulator sim;
    flash::FlashCard card(sim, g, flash::Timing::fast(), 32);
    auto &port = card.splitter().addPort(32);
    flash::FlashServer server(sim, port, 2, 8);
    sim::Rng rng(7);

    // Pick target pages first, then erase each distinct block ONCE
    // (an erase wipes the whole block, so it must precede all of the
    // block's programs).
    std::vector<std::uint64_t> targets;
    std::set<std::uint64_t> seen_pages, blocks;
    for (int i = 0; i < 24; ++i) {
        auto linear = rng.below(g.pages());
        if (seen_pages.insert(linear).second)
            targets.push_back(linear);
    }
    for (auto linear : targets) {
        auto addr = flash::Address::fromLinear(g, linear);
        std::uint64_t block_key = linear / g.pagesPerBlock;
        if (!blocks.insert(block_key).second)
            continue;
        bool prepared = false;
        server.eraseBlock(0, addr,
                          [&](flash::Status) { prepared = true; });
        sim.run();
        ASSERT_TRUE(prepared);
    }

    std::map<std::uint64_t, flash::PageBuffer> written;
    for (auto linear : targets) {
        flash::PageBuffer data(g.pageSize);
        for (auto &b : data)
            b = std::uint8_t(rng.next());
        auto addr = flash::Address::fromLinear(g, linear);
        bool ok = false;
        server.writePage(0, addr, data, [&](flash::Status st) {
            ok = st == flash::Status::Ok;
        });
        sim.run();
        ASSERT_TRUE(ok);
        written[linear] = std::move(data);
    }
    ASSERT_GT(written.size(), 10u);
    for (const auto &[linear, expect] : written) {
        flash::PageBuffer got;
        server.readPage(1, flash::Address::fromLinear(g, linear),
                        [&](flash::PageBuffer d, flash::Status) {
            got = std::move(d);
        });
        sim.run();
        EXPECT_EQ(got, expect) << GetParam().name << " @" << linear;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, FlashGeometryProperty,
    ::testing::ValuesIn(geoCases()),
    [](const ::testing::TestParamInfo<GeoCase> &info) {
        return info.param.name;
    });

// ----------------------------------------------------------------- //
// Link parameter sweeps: rate and latency scale as configured
// ----------------------------------------------------------------- //

class LaneRateProperty : public ::testing::TestWithParam<double>
{
};

TEST_P(LaneRateProperty, StreamTracksConfiguredRate)
{
    double gbit = GetParam();
    sim::Simulator sim;
    StorageNetwork::Params p;
    p.lane.physBytesPerSec = gbit * 1e9 / 8.0;
    StorageNetwork net(sim, Topology::line(2), p);
    int got = 0;
    sim::Tick last = 0;
    net.endpoint(1, 1).setReceiveHandler([&](Message) {
        ++got;
        last = sim.now();
    });
    const int msgs = 500;
    for (int i = 0; i < msgs; ++i)
        net.endpoint(0, 1).send(1, 2048, {});
    sim.run();
    ASSERT_EQ(got, msgs);
    double rate = sim::bytesPerSec(2048ull * msgs, last);
    double expect = p.lane.effectiveBytesPerSec();
    EXPECT_NEAR(rate, expect, expect * 0.05);
}

INSTANTIATE_TEST_SUITE_P(LinkRates, LaneRateProperty,
                         ::testing::Values(2.5, 5.0, 10.0, 40.0));
