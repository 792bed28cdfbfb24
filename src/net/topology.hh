/**
 * @file
 * Topology description and builders for the integrated storage
 * network.
 *
 * BlueDBM nodes have a fan-out of 8 serial ports; any topology wirable
 * within that budget is possible (paper figure 5). Physical cabling is
 * a list of point-to-point links. ring() and line() build the shapes
 * the benches use; any other figure-5 shape (distributed star, mesh,
 * fat tree) is wired by hand from LinkSpecs, and StorageNetwork
 * validates every wiring it is given. Routes are not part of the
 * topology: StorageNetwork computes them by BFS over the links (the
 * paper loads them from a network configuration file instead).
 */

#ifndef BLUEDBM_NET_TOPOLOGY_HH
#define BLUEDBM_NET_TOPOLOGY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "net/message.hh"

namespace bluedbm {
namespace net {

/**
 * One full-duplex serial cable between two node ports.
 */
struct LinkSpec
{
    NodeId nodeA = 0;
    std::uint8_t portA = 0;
    NodeId nodeB = 0;
    std::uint8_t portB = 0;
};

/**
 * Physical shape of a storage network.
 */
struct Topology
{
    unsigned nodes = 0;
    unsigned portsPerNode = 8;
    std::vector<LinkSpec> links;

    /**
     * Validate the wiring: port budget respected, no port used twice,
     * no self-loops, and the graph is connected.
     *
     * @return empty string when valid, else a description of the
     *         violation
     */
    std::string validate() const;

    /**
     * Ring of @p n nodes with @p lanes_each_dir parallel cables to
     * each neighbor (the paper discusses a 20-node ring with 4 lanes
     * each way: 32.8 Gb/s of ring throughput).
     */
    static Topology ring(unsigned n, unsigned lanes_each_dir = 1);

    /** Chain (line) of @p n nodes, handy for hop-count experiments. */
    static Topology line(unsigned n, unsigned lanes = 1);
};

} // namespace net
} // namespace bluedbm

#endif // BLUEDBM_NET_TOPOLOGY_HH
