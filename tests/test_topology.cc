/**
 * @file
 * Tests for the ring and line builders and for wiring validation.
 */

#include <gtest/gtest.h>

#include "net/topology.hh"

using namespace bluedbm;
using net::LinkSpec;
using net::Topology;

TEST(Topology, RingIsValid)
{
    auto t = Topology::ring(20, 4);
    EXPECT_EQ(t.validate(), "");
    EXPECT_EQ(t.nodes, 20u);
    // 20 nodes x 4 lanes = 80 cables.
    EXPECT_EQ(t.links.size(), 80u);
}

TEST(Topology, LineIsValid)
{
    auto t = Topology::line(5);
    EXPECT_EQ(t.validate(), "");
    EXPECT_EQ(t.links.size(), 4u);
}

TEST(Topology, PortBudgetRespected)
{
    // Every builder must stay within 8 ports per node.
    for (const auto &t :
         {Topology::ring(20, 4), Topology::line(20, 4)}) {
        std::vector<unsigned> used(t.nodes, 0);
        for (const auto &l : t.links) {
            ++used[l.nodeA];
            ++used[l.nodeB];
        }
        for (unsigned n = 0; n < t.nodes; ++n)
            EXPECT_LE(used[n], t.portsPerNode);
    }
}

TEST(Topology, DetectsPortReuse)
{
    Topology t;
    t.nodes = 2;
    t.links.push_back(LinkSpec{0, 0, 1, 0});
    t.links.push_back(LinkSpec{0, 0, 1, 1}); // port 0 of node 0 reused
    EXPECT_NE(t.validate().find("used twice"), std::string::npos);
}

TEST(Topology, DetectsSelfLoop)
{
    Topology t;
    t.nodes = 2;
    t.links.push_back(LinkSpec{0, 0, 0, 1});
    EXPECT_NE(t.validate().find("self-loop"), std::string::npos);
}

TEST(Topology, DetectsDisconnection)
{
    Topology t;
    t.nodes = 4;
    t.links.push_back(LinkSpec{0, 0, 1, 0});
    t.links.push_back(LinkSpec{2, 0, 3, 0});
    EXPECT_NE(t.validate().find("disconnected"), std::string::npos);
}

TEST(Topology, DetectsOutOfRangeNode)
{
    Topology t;
    t.nodes = 2;
    t.links.push_back(LinkSpec{0, 0, 5, 0});
    EXPECT_NE(t.validate().find("out of range"), std::string::npos);
}
