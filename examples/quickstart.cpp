/**
 * @file
 * Quickstart: build a small BlueDBM appliance, store a file through
 * the log-structured file system, publish its physical addresses to
 * the flash server's address translation unit, and stream it through
 * the in-store processor -- the end-to-end flow of paper figure 8 --
 * then read a page off a remote node over the integrated network.
 * It exits 1 unless the append and the remote read both complete.
 *
 * Run:  ./quickstart
 */

#include <cstdio>
#include <string>

#include "core/cluster.hh"
#include "sim/simulator.hh"
#include "sim/logging.hh"

using namespace bluedbm;

int
main()
{
    // --- 1. Build the appliance: 4 nodes on a ring, two flash
    //        cards each (tiny geometry keeps the demo snappy).
    sim::Simulator sim;
    core::ClusterParams params;
    params.topology = net::Topology::ring(4, 2);
    params.node.geometry = flash::Geometry::tiny();
    params.node.timing = flash::Timing::fast();
    core::Cluster cluster(sim, params);

    std::printf("BlueDBM cluster: %u nodes, %.1f MB of flash, "
                "%u-port network\n",
                cluster.size(),
                double(cluster.capacityBytes()) / 1e6,
                params.topology.portsPerNode);

    // --- 2. Store a file through the log-structured file system.
    auto &node0 = cluster.node(0);
    if (!node0.fs().create("greeting"))
        sim::fatal("create(greeting) failed");
    std::string text =
        "hello from the in-store processor! BlueDBM reads flash "
        "without the operating system in the way. ";
    std::vector<std::uint8_t> payload;
    for (int i = 0; i < 50; ++i)
        payload.insert(payload.end(), text.begin(), text.end());
    bool ok = false;
    node0.fs().append("greeting", payload,
                      [&](bool o) { ok = o; });
    sim.run();
    std::printf("wrote '%s': %llu bytes across %zu flash pages "
                "(ok=%d)\n",
                "greeting",
                (unsigned long long)node0.fs().size("greeting"),
                node0.fs().physicalAddresses("greeting").size(),
                int(ok));

    // --- 3. Publish physical locations to the ISP's flash server
    //        (figure 8 step 1-2) and stream the file in store.
    node0.fs().publishHandle("greeting", /*handle=*/1);
    node0.ispServer(0).defineHandle(
        1, node0.fs().physicalAddresses("greeting"));

    std::uint64_t streamed = 0;
    sim::Tick start = sim.now();
    auto pages = node0.fs().physicalAddresses("greeting").size();
    node0.ispServer(0).streamRead(
        0, 1, 0, pages,
        [&](flash::PageBuffer page, flash::Status) {
        streamed += page.size();
    });
    sim.run();
    std::printf("ISP streamed %llu bytes in %.1f us (%.0f MB/s)\n",
                (unsigned long long)streamed,
                sim::ticksToUs(sim.now() - start),
                sim::bytesPerSec(streamed, sim.now() - start) / 1e6);

    // --- 4. Read a remote page through the integrated network:
    //        near-uniform latency into the global address space.
    core::GlobalAddress ga =
        cluster.globalPage(cluster.globalPages() / 2 + 1);
    sim::Tick t0 = sim.now();
    bool got = false;
    node0.ispReadRemote(ga.node, ga.card, ga.addr,
                        [&](flash::PageBuffer) { got = true; });
    sim.run();
    std::printf("remote page on node %u arrived in %.1f us "
                "(got=%d)\n",
                ga.node, sim::ticksToUs(sim.now() - t0), int(got));

    std::printf("simulated time: %.2f ms, events executed: %llu\n",
                sim::ticksToUs(sim.now()) / 1000.0,
                (unsigned long long)sim.eventsExecuted());
    return ok && got ? 0 : 1;
}
