#include "net/topology.hh"

#include <queue>
#include <vector>

#include "sim/logging.hh"

namespace bluedbm {
namespace net {

std::string
Topology::validate() const
{
    if (nodes == 0)
        return "topology has no nodes";
    std::vector<std::vector<bool>> used(
        nodes, std::vector<bool>(portsPerNode, false));
    for (const auto &l : links) {
        if (l.nodeA >= nodes || l.nodeB >= nodes)
            return sim::format("link references node out of range "
                               "(%u-%u, %u nodes)", l.nodeA, l.nodeB,
                               nodes);
        if (l.nodeA == l.nodeB)
            return sim::format("self-loop on node %u", l.nodeA);
        if (l.portA >= portsPerNode || l.portB >= portsPerNode)
            return sim::format("port out of range on link %u:%u-%u:%u",
                               l.nodeA, l.portA, l.nodeB, l.portB);
        if (used[l.nodeA][l.portA])
            return sim::format("port %u of node %u used twice",
                               l.portA, l.nodeA);
        if (used[l.nodeB][l.portB])
            return sim::format("port %u of node %u used twice",
                               l.portB, l.nodeB);
        used[l.nodeA][l.portA] = true;
        used[l.nodeB][l.portB] = true;
    }
    if (nodes == 1)
        return "";
    // Connectivity via BFS.
    std::vector<std::vector<NodeId>> adj(nodes);
    for (const auto &l : links) {
        adj[l.nodeA].push_back(l.nodeB);
        adj[l.nodeB].push_back(l.nodeA);
    }
    std::vector<bool> seen(nodes, false);
    std::queue<NodeId> bfs;
    bfs.push(0);
    seen[0] = true;
    unsigned count = 1;
    while (!bfs.empty()) {
        NodeId v = bfs.front();
        bfs.pop();
        for (NodeId u : adj[v]) {
            if (!seen[u]) {
                seen[u] = true;
                ++count;
                bfs.push(u);
            }
        }
    }
    if (count != nodes)
        return sim::format("network is disconnected (%u of %u nodes "
                           "reachable)", count, nodes);
    return "";
}

namespace {

/** Track next free port per node while building topologies. */
class PortAllocator
{
  public:
    PortAllocator(unsigned nodes, unsigned ports)
        : next_(nodes, 0), ports_(ports)
    {
    }

    std::uint8_t
    alloc(NodeId node)
    {
        if (next_[node] >= ports_)
            sim::fatal("node %u needs more than %u ports", node,
                       ports_);
        return static_cast<std::uint8_t>(next_[node]++);
    }

  private:
    std::vector<unsigned> next_;
    unsigned ports_;
};

void
connect(Topology &t, PortAllocator &ports, NodeId a, NodeId b)
{
    LinkSpec l;
    l.nodeA = a;
    l.portA = ports.alloc(a);
    l.nodeB = b;
    l.portB = ports.alloc(b);
    t.links.push_back(l);
}

} // namespace

Topology
Topology::ring(unsigned n, unsigned lanes_each_dir)
{
    if (n < 3)
        sim::fatal("ring needs at least 3 nodes");
    Topology t;
    t.nodes = n;
    if (2 * lanes_each_dir > t.portsPerNode)
        sim::fatal("ring with %u lanes each way exceeds %u ports",
                   lanes_each_dir, t.portsPerNode);
    PortAllocator ports(n, t.portsPerNode);
    for (unsigned i = 0; i < n; ++i) {
        for (unsigned lane = 0; lane < lanes_each_dir; ++lane)
            connect(t, ports, NodeId(i), NodeId((i + 1) % n));
    }
    return t;
}

Topology
Topology::line(unsigned n, unsigned lanes)
{
    if (n < 2)
        sim::fatal("line needs at least 2 nodes");
    Topology t;
    t.nodes = n;
    PortAllocator ports(n, t.portsPerNode);
    for (unsigned i = 0; i + 1 < n; ++i) {
        for (unsigned lane = 0; lane < lanes; ++lane)
            connect(t, ports, NodeId(i), NodeId(i + 1));
    }
    return t;
}

} // namespace net
} // namespace bluedbm
