/**
 * @file
 * Accelerated grep (paper section 7.3): files live in the
 * log-structured file system; the host transfers the needle and its
 * Morris-Pratt constants once, streams physical addresses, and the
 * in-store engines return only match positions.
 *
 * Run:  ./string_search [needle]
 */

#include <cstdint>
#include <cstdio>
#include <string>

#include "analytics/text.hh"
#include "core/cluster.hh"
#include "fs/log_fs.hh"
#include "isp/string_search.hh"
#include "sim/simulator.hh"
#include "sim/logging.hh"

using namespace bluedbm;

int
main(int argc, char **argv)
{
    std::string needle = argc > 1 ? argv[1] : "B1ueDBM!";

    sim::Simulator sim;
    core::ClusterParams params;
    params.topology = net::Topology::line(2);
    params.node.geometry = flash::Geometry::tiny();
    params.node.timing = flash::Timing::fast();
    core::Cluster cluster(sim, params);
    auto &node = cluster.node(0);

    // --- 1. Create a corpus with known needle positions and store
    //        it as files in the FS. It fills the card up to the
    //        block the FS holds back for its cleaner.
    const auto &geo = params.node.geometry;
    std::uint64_t usable =
        (node.fs().freeBlocks() - fs::LogFs::cleanReserve) *
        geo.pagesPerBlock * geo.pageSize;
    auto corpus = analytics::makeCorpus(
        usable, needle, /*occurrences=*/9, /*seed=*/3);
    if (!node.fs().create("corpus.txt"))
        sim::fatal("create(corpus.txt) failed");
    bool ok = false;
    node.fs().append("corpus.txt", corpus.text,
                     [&](bool o) { ok = o; });
    sim.run();
    std::printf("corpus.txt: %llu bytes, %zu planted matches "
                "(ok=%d)\n",
                (unsigned long long)node.fs().size("corpus.txt"),
                corpus.needlePositions.size(), int(ok));
    if (!ok) {
        std::fprintf(stderr, "append to corpus.txt failed\n");
        return 1;
    }

    // --- 2. Publish the file to the flash server ATU and search
    //        with the in-store Morris-Pratt engines.
    node.fs().publishHandle("corpus.txt", 1);
    // The ISP reads through its own server; hand it the addresses.
    node.ispServer(0).defineHandle(
        1, node.fs().physicalAddresses("corpus.txt"));

    isp::StringSearchEngine engine(sim, node.ispServer(0));
    isp::SearchResult result;
    sim::Tick start = sim.now();
    engine.search(1, node.fs().size("corpus.txt"),
                  geo.pageSize, needle,
                  [&](isp::SearchResult r) { result = std::move(r); });
    sim.run();
    double us = sim::ticksToUs(sim.now() - start);

    std::printf("in-store search: %zu matches in %.0f us "
                "(%.0f MB/s scanned)\n",
                result.positions.size(), us,
                sim::bytesPerSec(result.bytesScanned,
                                 sim.now() - start) / 1e6);
    for (std::size_t i = 0; i < result.positions.size(); ++i)
        std::printf("  match %zu at byte %llu\n", i,
                    (unsigned long long)result.positions[i]);

    // --- 3. Verify against the generator's ground truth.
    bool exact = result.positions == corpus.needlePositions;
    std::printf("ground truth check: %s\n",
                exact ? "ok" : "FAILED");
    return exact ? 0 : 1;
}
