/**
 * @file
 * The paper's claims as one gated table: every number of BlueDBM
 * (ISCA 2015) that this simulator produces -- figures 11-13 and
 * 16-21, tables 1-3 -- plus the design claims the hardware
 * ablations test and the section-8 SQL filter extension
 * (docs/paper.md).
 *
 * measure() runs each distinct simulation once and names its
 * results. table() holds one row per claim: its id, the paper's
 * wording with its value, and the checks that band the simulated
 * values -- a `~x` claim within kTolerance of x, a ratio through the
 * check's rhs, and `<`, `>=`, crossover and cap claims as written.
 * A row whose checks fail must carry a one-line cause, and a cause
 * on a row in band fails too, so causes cannot go stale. Tables 1-3
 * are labelled restated: their values are the paper's published
 * totals and the datasheet watts, not a model.
 *
 * Takes no flags. Prints every check, writes every value to
 * BENCH_paper.json (all simulated or restated, so byte-stable) and
 * exits 1 if any row failed.
 */

#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analytics/graph.hh"
#include "analytics/text.hh"
#include "baseline/hdd.hh"
#include "baseline/ram_cloud.hh"
#include "baseline/ssd.hh"
#include "bench/bench_util.hh"
#include "core/cluster.hh"
#include "host/host_cpu.hh"
#include "host/page_buffers.hh"
#include "host/pcie.hh"
#include "isp/graph_engine.hh"
#include "isp/nearest_neighbor.hh"
#include "isp/string_search.hh"
#include "isp/table_scan.hh"
#include "net/network.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

using namespace bluedbm;
using bench::Check;
using bench::Cmp;
using core::Cluster;
using core::ClusterParams;
using flash::PageBuffer;
using sim::Tick;

namespace {

/** Named results: "<figure>_<what>", each in its unit. */
using Values = std::map<std::string, double>;

/** A two-node line: the smallest cluster with a remote node. */
ClusterParams
twoNodes()
{
    ClusterParams p;
    p.topology = net::Topology::line(2);
    return p;
}

// ---------------------------------------------------------------- //
// Figure 11 and section 6.3: the integrated network
// ---------------------------------------------------------------- //

void
fig11(Values &v)
{
    for (unsigned hops = 1; hops <= 5; ++hops) {
        sim::Simulator sim;
        net::StorageNetwork net(sim, net::Topology::line(hops + 1),
                                net::StorageNetwork::Params{});

        // Latency: one 16-byte packet (a 128-bit flit) on an idle
        // net.
        Tick lat = 0;
        net.endpoint(net::NodeId(hops), 1)
            .setReceiveHandler([&](net::Message) { lat = sim.now(); });
        net.endpoint(0, 1).send(net::NodeId(hops), 16, {});
        sim.run();

        // Bandwidth: a single stream of 2 KB messages.
        const int messages = 5000;
        const std::uint32_t bytes = 2048;
        Tick last = 0;
        net.endpoint(net::NodeId(hops), 2)
            .setReceiveHandler([&](net::Message) { last = sim.now(); });
        Tick start = sim.now();
        for (int i = 0; i < messages; ++i)
            net.endpoint(0, 2).send(net::NodeId(hops), bytes, {});
        sim.run();

        std::string h = "fig11_" + std::to_string(hops) + "hop";
        v[h + "_gbps"] = sim::bytesPerSec(
            std::uint64_t(messages) * bytes, last - start) * 8 / 1e9;
        v[h + "_us_per_hop"] = sim::ticksToUs(lat) / hops;
    }
    double per_hop_us = v["fig11_1hop_us_per_hop"];
    v["fig11_overhead_pct"] = 100 * (1 - v["fig11_1hop_gbps"] / 10);
    v["fig11_4hop_flash_share_pct"] = 100.0 * (4 * per_hop_us) / 50.0;

    // Section 6.3: a 20-node ring, 4 lanes each way.
    sim::Simulator sim;
    net::StorageNetwork ring(sim, net::Topology::ring(20, 4),
                             net::StorageNetwork::Params{});
    double total_hops = 0;
    for (net::NodeId dst = 1; dst < 20; ++dst)
        total_hops += ring.routeHops(1, 0, dst);
    v["fig11_ring_avg_hops"] = total_hops / 19.0;
    v["fig11_ring_avg_us"] = total_hops / 19.0 * per_hop_us;
}

// ---------------------------------------------------------------- //
// Figure 12: latency of remote access, decomposed
// ---------------------------------------------------------------- //

/** Measure one 8 KB access path end to end and decompose it into
 * software, storage, network and (the rest) data transfer. */
template <typename Issue>
void
fig12Path(Values &v, const std::string &name, bool local_sw,
          bool remote_sw, bool storage, Issue issue)
{
    sim::Simulator sim;
    Cluster cluster(sim, twoNodes());
    flash::Address addr{0, 0, 0, 0};

    Tick done_at = 0;
    issue(cluster, addr, [&](PageBuffer) { done_at = sim.now(); });
    sim.run();

    const auto &node = cluster.params().node;
    const auto &sw = node.software;
    const auto &pcie = node.pcie;
    const auto &lane = cluster.network().laneParams();

    double software_us = 0, storage_us = 0;
    if (local_sw)
        software_us += sim::ticksToUs(
            sw.requestSetup + pcie.rpcLatency + pcie.interruptLatency);
    if (remote_sw)
        software_us += sim::ticksToUs(
            sw.remoteService + pcie.interruptLatency +
            pcie.rpcLatency);
    if (storage)
        storage_us = sim::ticksToUs(node.timing.readUs);
    // Request + response each cross one hop.
    double network_us = sim::ticksToUs(2 * lane.hopLatency);
    double transfer_us = sim::ticksToUs(done_at) - software_us -
        storage_us - network_us;

    std::string p = "fig12_" + name;
    v[p + "_total_us"] =
        software_us + storage_us + transfer_us + network_us;
    v[p + "_software_us"] = software_us;
    v[p + "_transfer_us"] = transfer_us;
    v["fig12_network_us"] = network_us;
}

void
fig12(Values &v)
{
    fig12Path(v, "ISP-F", false, false, true,
              [](Cluster &c, const flash::Address &a, auto cb) {
        c.node(0).ispReadRemote(1, 0, a, cb);
    });
    fig12Path(v, "H-F", true, false, true,
              [](Cluster &c, const flash::Address &a, auto cb) {
        c.node(0).hostReadRemote(1, 0, a, cb);
    });
    fig12Path(v, "H-RH-F", true, true, true,
              [](Cluster &c, const flash::Address &a, auto cb) {
        c.node(0).hostReadRemoteViaHost(1, 0, a, cb);
    });
    fig12Path(v, "H-D", true, true, false,
              [](Cluster &c, const flash::Address &, auto cb) {
        c.node(0).hostReadRemoteDram(1, 8192, cb);
    });
}

// ---------------------------------------------------------------- //
// Figure 13: bandwidth of random 8 KB reads
// ---------------------------------------------------------------- //

constexpr std::uint64_t kFig13Requests = 20000;
constexpr unsigned kWindowPerCard = 256;

/** Node 0 wired to @p remotes nodes by @p links_per_remote links
 * each. */
ClusterParams
topoFor(unsigned remotes, unsigned links_per_remote)
{
    if (remotes == 0 || links_per_remote == 0) {
        // Local-only run; a minimal wired pair keeps the network
        // valid but unused.
        return twoNodes();
    }
    ClusterParams p;
    net::Topology t;
    t.nodes = 1 + remotes;
    for (unsigned r = 0; r < remotes; ++r) {
        for (unsigned l = 0; l < links_per_remote; ++l) {
            net::LinkSpec spec;
            spec.nodeA = 0;
            spec.portA = std::uint8_t(r * links_per_remote + l);
            spec.nodeB = net::NodeId(1 + r);
            spec.portB = std::uint8_t(l);
            t.links.push_back(spec);
        }
    }
    p.topology = t;
    return p;
}

/**
 * In-store random reads; fraction_remote of them spread over the
 * remote nodes. Each target gets its own request stream and window
 * so a slower remote pipe never head-of-line-blocks the local one
 * (the hardware pipelines them independently too).
 */
double
ispBandwidth(unsigned remotes, unsigned links_per_remote,
             double fraction_remote)
{
    sim::Simulator sim;
    Cluster cluster(sim, topoFor(remotes, links_per_remote));
    sim::Rng rng(7);
    const auto &geo = cluster.params().node.geometry;

    // The paper reports the aggregate bandwidth with every pipe
    // saturated, so we measure each stream's steady rate and sum.
    struct Stream
    {
        Tick last = 0;
        std::uint64_t pages = 0;
    };
    std::vector<std::unique_ptr<Stream>> streams;

    auto stream = [&](net::NodeId target, std::uint64_t requests) {
        streams.emplace_back(std::make_unique<Stream>());
        Stream *st = streams.back().get();
        st->pages = requests;
        bench::Window::run(
            requests, kWindowPerCard * 2,
            [&cluster, &rng, &geo, st, &sim, target](
                std::uint64_t i, std::function<void()> done) {
                flash::Address addr = flash::Address::fromLinear(
                    geo, rng.below(geo.pages()));
                cluster.node(0).ispReadRemote(
                    target, unsigned(i & 1), addr,
                    [st, &sim, done](PageBuffer) {
                    st->last = sim.now();
                    done();
                });
            });
    };

    auto remote_requests = std::uint64_t(
        double(kFig13Requests) * fraction_remote);
    stream(0, kFig13Requests - remote_requests);
    for (unsigned r = 0; r < remotes; ++r)
        stream(net::NodeId(1 + r), remote_requests / remotes);
    sim.run();
    double total = 0;
    for (const auto &st : streams)
        total += sim::bytesPerSec(st->pages * geo.pageSize,
                                  st->last);
    return total / 1e9;
}

void
fig13(Values &v)
{
    sim::Simulator sim;
    Cluster cluster(sim, topoFor(1, 1));
    sim::Rng rng(9);
    const auto &geo = cluster.params().node.geometry;
    Tick last = 0;
    bench::Window::run(
        kFig13Requests, 128, // the 128 read page buffers
        [&](std::uint64_t i, std::function<void()> done) {
            flash::Address addr = flash::Address::fromLinear(
                geo, rng.below(geo.pages()));
            cluster.node(0).hostReadLocal(
                unsigned(i & 1), addr, [&, done](PageBuffer) {
                last = sim.now();
                done();
            });
        });
    sim.run();
    v["fig13_Host-Local_gbps"] =
        sim::bytesPerSec(kFig13Requests * geo.pageSize, last) / 1e9;
    v["fig13_ISP-Local_gbps"] = ispBandwidth(0, 0, 0.0);
    v["fig13_ISP-2Nodes_gbps"] = ispBandwidth(1, 1, 0.5);
    v["fig13_ISP-3Nodes_gbps"] = ispBandwidth(2, 2, 2.0 / 3.0);
}

// ---------------------------------------------------------------- //
// Figures 16-19: nearest neighbor, 8 KB Hamming comparisons/s
// ---------------------------------------------------------------- //

/** Comparisons per ISP measurement run. */
constexpr std::uint64_t kIspComparisons = 20000;
/** Items per host-side measurement run. */
constexpr std::uint64_t kHostItems = 4000;

/**
 * In-store NN throughput on one node whose flash is scaled by
 * @p throttle (1.0 = full 2.4 GB/s, 0.25 = the paper's 600 MB/s
 * throttled configuration).
 */
double
ispNn(double throttle)
{
    sim::Simulator sim;
    ClusterParams params = twoNodes();
    params.node.timing.busBytesPerSec *= throttle;
    Cluster cluster(sim, params);
    const auto &geo = params.node.geometry;

    sim::Rng rng(11);
    std::vector<core::GlobalAddress> candidates;
    candidates.reserve(kIspComparisons);
    for (std::uint64_t i = 0; i < kIspComparisons; ++i) {
        core::GlobalAddress ga;
        ga.node = 0;
        ga.card = std::uint8_t(i & 1);
        ga.addr = flash::Address::fromLinear(geo,
                                             rng.below(geo.pages()));
        candidates.push_back(ga);
    }

    isp::NearestNeighborEngine engine(cluster.node(0), 256);
    Tick finish = 0;
    engine.query(PageBuffer(geo.pageSize, 0x55),
                 std::move(candidates), [&](isp::NnResult r) {
        finish = sim.now();
        if (r.comparisons != kIspComparisons)
            sim::panic("lost comparisons");
    });
    sim.run();
    return double(kIspComparisons) / sim::ticksToSec(finish);
}

/** Host software NN over (mostly) DRAM with optional paging misses
 * (the ram-cloud configurations of figures 16 and 17). */
double
dramNn(unsigned threads, double miss_fraction, Tick miss_penalty)
{
    sim::Simulator sim;
    host::HostCpu cpu(sim, 24);
    baseline::RamCloudParams p;
    p.missFraction = miss_fraction;
    p.missPenalty = miss_penalty;
    baseline::RamCloudWorkload work(sim, cpu, p, 13);
    Tick finish = 0;
    work.run(threads, kHostItems, [&] { finish = sim.now(); });
    sim.run();
    return double(kHostItems) / sim::ticksToSec(finish);
}

/** Host software NN reading candidates from the off-the-shelf SSD
 * (H-RFlash), optionally with accesses artificially arranged to be
 * sequential (H-SFlash) -- figure 18. */
double
ssdNn(unsigned threads, bool sequential)
{
    sim::Simulator sim;
    host::HostCpu cpu(sim, 24);
    baseline::OffTheShelfSsd ssd(sim, baseline::SsdParams{});
    host::SoftwareParams sw;
    sim::Rng rng(17);

    Tick finish = 0;
    std::uint64_t seq_lba = 0;
    std::uint64_t remaining_start = kHostItems;
    std::uint64_t remaining_finish = kHostItems;

    std::function<void()> worker = [&]() {
        if (remaining_start == 0)
            return;
        --remaining_start;
        // Kernel block layer, then the device, then the compare.
        cpu.execute(sw.kernelBlockIo, [&]() {
            std::uint64_t lba = sequential
                ? seq_lba++
                : rng.below(1ull << 24) * 2;
            ssd.read(lba, 8192, [&]() {
                cpu.execute(sw.hammingComputePerPage, [&]() {
                    if (--remaining_finish == 0) {
                        finish = sim.now();
                        return;
                    }
                    worker();
                });
            });
        });
    };
    for (unsigned t = 0; t < threads; ++t)
        worker();
    sim.run();
    return double(kHostItems) / sim::ticksToSec(finish);
}

/** Host software NN over the throttled BlueDBM device itself
 * (BlueDBM+SW in figure 19): every candidate crosses PCIe and the
 * software stack before the host compares it. */
double
hostSwNn(unsigned threads, double throttle)
{
    sim::Simulator sim;
    ClusterParams params = twoNodes();
    params.node.timing.busBytesPerSec *= throttle;
    Cluster cluster(sim, params);
    const auto &geo = params.node.geometry;
    auto &node = cluster.node(0);
    sim::Rng rng(19);

    Tick finish = 0;
    std::uint64_t remaining_start = kHostItems;
    std::uint64_t remaining_finish = kHostItems;

    std::function<void()> worker = [&]() {
        if (remaining_start == 0)
            return;
        --remaining_start;
        flash::Address addr = flash::Address::fromLinear(
            geo, rng.below(geo.pages()));
        node.hostReadLocal(
            unsigned(remaining_start & 1), addr, [&](PageBuffer) {
            node.cpu().execute(node.software().hammingComputePerPage,
                               [&]() {
                if (--remaining_finish == 0) {
                    finish = sim.now();
                    return;
                }
                worker();
            });
        });
    };
    // Each thread overlaps one read with the previous compare
    // (readahead), i.e. two request chains per thread.
    for (unsigned t = 0; t < threads * 2; ++t)
        worker();
    sim.run();
    return double(kHostItems) / sim::ticksToSec(finish);
}

void
nearestNeighbor(Values &v)
{
    v["nn_isp_full"] = ispNn(1.0);
    v["nn_isp_throttled"] = ispNn(0.25);
    // Figure 17 sweeps 1-8 threads, figure 16 2-16 in steps of 2.
    for (unsigned t = 1; t <= 16; t += t < 8 ? 1 : 2) {
        std::string s = "_t" + std::to_string(t);
        v["nn_dram" + s] = dramNn(t, 0.0, 0);
        if (t > 8)
            continue;
        v["nn_dram_flash10" + s] =
            dramNn(t, 0.10, sim::usToTicks(750));
        v["nn_dram_disk5" + s] = dramNn(t, 0.05, sim::msToTicks(12));
        v["nn_ssd_seq" + s] = ssdNn(t, true);
        v["nn_ssd_random" + s] = ssdNn(t, false);
        v["nn_host_sw" + s] = hostSwNn(t, 0.25);
    }
}

// ---------------------------------------------------------------- //
// Figure 20: graph traversal, dependent lookups/s
// ---------------------------------------------------------------- //

constexpr std::uint64_t kVertices = 4096;
constexpr std::uint64_t kSteps = 1500;

/**
 * A 2-node cluster whose node 1 holds the graph's vertex pages on
 * card 0. Each step's target is known only after the previous page
 * arrives, so throughput is the reciprocal of access latency.
 */
struct GraphBench
{
    sim::Simulator sim;
    ClusterParams params = twoNodes();
    Cluster cluster{sim, params};
    analytics::PageGraph graph =
        analytics::PageGraph::random(kVertices, 8, 23);

    GraphBench()
    {
        // Preload vertex pages into node 1's backing store
        // (instantaneous: simulates a prior loading phase).
        const auto &geo = params.node.geometry;
        auto &store = cluster.node(1).card(0).nand().store();
        for (std::uint64_t v = 0; v < kVertices; ++v) {
            if (store.program(vertexAddr(v),
                              graph.serialize(v, geo.pageSize)) !=
                flash::Status::Ok)
                sim::fatal("graph preload program failed");
        }
    }

    flash::Address
    vertexAddr(std::uint64_t v) const
    {
        return flash::Address::fromStriped(params.node.geometry, v);
    }

    /** Serve vertex @p v from node 1's DRAM: DRAM-service timing,
     * with the real page bytes for the walk to parse. */
    void
    readDram(std::uint64_t v, core::Node::PageDone cb)
    {
        auto page = graph.serialize(v, params.node.geometry.pageSize);
        cluster.node(0).hostReadRemoteDram(
            1, params.node.geometry.pageSize,
            [cb, page = std::move(page)](PageBuffer) { cb(page); });
    }

    double
    walk(isp::GraphTraversalEngine::Fetch fetch)
    {
        isp::GraphTraversalEngine engine(std::move(fetch), 29);
        Tick start = sim.now();
        Tick finish = 0;
        engine.walk(0, kSteps, [&](isp::TraversalResult r) {
            finish = sim.now();
            if (r.steps != kSteps)
                sim::panic("walk lost steps");
        });
        sim.run();
        return double(kSteps) / sim::ticksToSec(finish - start);
    }
};

void
fig20(Values &v)
{
    // Each path gets a fresh cluster so device state never leaks.
    {
        GraphBench b;
        v["fig20_ISP-F_per_s"] = b.walk([&b](std::uint64_t x, auto cb) {
            b.cluster.node(0).ispReadRemote(1, 0, b.vertexAddr(x), cb);
        });
    }
    {
        GraphBench b;
        v["fig20_H-F_per_s"] = b.walk([&b](std::uint64_t x, auto cb) {
            b.cluster.node(0).hostReadRemote(1, 0, b.vertexAddr(x),
                                              cb);
        });
    }
    {
        GraphBench b;
        v["fig20_H-RH-F_per_s"] = b.walk([&b](std::uint64_t x,
                                              auto cb) {
            b.cluster.node(0).hostReadRemoteViaHost(
                1, 0, b.vertexAddr(x), cb);
        });
    }
    // DRAM-mix paths: x% of lookups still hit remote flash via the
    // remote host; the rest are served from the remote host's DRAM.
    for (auto [flash_fraction, name] :
         {std::pair{0.5, "50%F"}, std::pair{0.3, "30%F"}}) {
        GraphBench b;
        auto rng = std::make_shared<sim::Rng>(31);
        v[std::string("fig20_") + name + "_per_s"] =
            b.walk([&b, rng, flash_fraction = flash_fraction](
                       std::uint64_t x, auto cb) {
            if (rng->uniform() < flash_fraction)
                b.cluster.node(0).hostReadRemoteViaHost(
                    1, 0, b.vertexAddr(x), cb);
            else
                b.readDram(x, cb);
        });
    }
    {
        GraphBench b;
        v["fig20_H-DRAM_per_s"] = b.walk([&b](std::uint64_t x,
                                              auto cb) {
            b.readDram(x, cb);
        });
    }
}

// ---------------------------------------------------------------- //
// Figure 21: string search bandwidth and host CPU
// ---------------------------------------------------------------- //

constexpr std::uint64_t kHaystackPages = 8192; // 64 MB at 8 KB pages

/** In-store Morris-Pratt search over one full-speed flash card. */
void
ispSearch(Values &v)
{
    sim::Simulator sim;
    ClusterParams params = twoNodes();
    Cluster cluster(sim, params);
    auto &node = cluster.node(0);
    const auto &geo = params.node.geometry;

    // Build the haystack file: pages preloaded into the store (a
    // prior load phase), published to the flash server's ATU.
    auto corpus = analytics::makeCorpus(
        std::uint64_t(kHaystackPages) * geo.pageSize / 64,
        "N33dle?", 64, 41);
    // Replicate the corpus chunk across the full haystack so the
    // dataset is large without O(file) setup cost dominating.
    std::vector<flash::Address> addrs;
    auto &store = node.card(0).nand().store();
    std::uint64_t chunk_pages = corpus.text.size() / geo.pageSize;
    for (std::uint64_t p = 0; p < kHaystackPages; ++p) {
        flash::Address a = flash::Address::fromStriped(geo, p);
        addrs.push_back(a);
        if (p < chunk_pages) {
            PageBuffer page(
                corpus.text.begin() + long(p * geo.pageSize),
                corpus.text.begin() + long((p + 1) * geo.pageSize));
            if (store.program(a, std::move(page)) !=
                flash::Status::Ok)
                sim::fatal("corpus preload program failed");
        }
    }
    node.ispServer(0).defineHandle(5, addrs);

    isp::StringSearchEngine engine(sim, node.ispServer(0));
    node.cpu().resetAccounting();
    // Host involvement: one setup (needle + MP constants over DMA).
    node.cpu().execute(node.software().requestSetup, [] {});

    Tick finish = 0;
    std::uint64_t bytes = kHaystackPages * geo.pageSize;
    engine.search(5, bytes, geo.pageSize, "N33dle?",
                  [&](isp::SearchResult) { finish = sim.now(); });
    sim.run();

    v["fig21_isp_mbps"] = sim::bytesPerSec(bytes, finish) / 1e6;
    // CPU reported per core (top-style), as in the paper's figure.
    v["fig21_isp_cpu_pct"] =
        100.0 * node.cpu().utilization() * node.cpu().cores();
}

/** Software grep streaming 16 MB from @p Device on a 24-core
 * host. */
template <typename Device, typename Params>
void
swGrep(Values &v, const std::string &name)
{
    sim::Simulator sim;
    host::HostCpu cpu(sim, 24);
    Device dev(sim, Params{});
    host::SoftwareParams sw;
    const std::uint32_t page = 8192;
    const std::uint64_t pages = 2048;
    Tick finish = 0;
    std::uint64_t remaining = pages;

    // grep pipelines reads ahead (kernel readahead) while the CPU
    // chews the previous chunk; model 4 outstanding reads.
    bench::Window::run(
        pages, 4, [&](std::uint64_t i, std::function<void()> done) {
            dev.read(i, page, [&, done]() {
                cpu.execute(sw.grepComputePerPage, [&, done]() {
                    if (--remaining == 0)
                        finish = sim.now();
                    done();
                });
            });
        });
    sim.run();

    v["fig21_" + name + "_mbps"] =
        sim::bytesPerSec(pages * page, finish) / 1e6;
    v["fig21_" + name + "_cpu_pct"] =
        100.0 * cpu.utilization() * cpu.cores();
}

void
fig21(Values &v)
{
    ispSearch(v);
    swGrep<baseline::OffTheShelfSsd, baseline::SsdParams>(v, "ssd");
    swGrep<baseline::HardDisk, baseline::HddParams>(v, "hdd");
}

// ---------------------------------------------------------------- //
// Tables 1-3: FPGA resources and power (restated)
// ---------------------------------------------------------------- //

void
tables(Values &v)
{
    // Table 1: the Artix-7 flash controller's totals.
    v["table1_luts"] = 75225;
    v["table1_registers"] = 62801;
    v["table1_bram36"] = 181;

    // Table 2: the Virtex-7 host FPGA's totals.
    v["table2_luts"] = 135271;
    v["table2_registers"] = 135897;
    v["table2_ramb36"] = 224;
    v["table2_ramb18"] = 18;

    // Table 3, datasheet watts: a VC707 (30 W) and two flash boards
    // (5 W each) added to a 200 W Xeon server.
    const double device = 30.0 + 2 * 5.0;
    const double node = device + 200.0;
    v["table3_node_watts"] = node;
    v["table3_device_fraction"] = device / node;
}

// ---------------------------------------------------------------- //
// Hardware ablations: what each design choice of sections 3.1-3.3
// buys
// ---------------------------------------------------------------- //

/**
 * Section 3.3, figure 7: 8 flash buses deliver 8 KB pages in 1 KB
 * bursts with jittered gaps, fanned across 16 outstanding read
 * buffers; the PCIe-side completion rate with one burst FIFO per
 * buffer or one shared FIFO (head-of-line blocking).
 */
double
dmaGbps(bool per_buffer_fifos)
{
    sim::Simulator sim;
    host::PcieLink pcie(sim, host::PcieParams{});
    const std::uint32_t page = 8192, burst = 1024;
    host::BurstDma dma(sim, pcie, page, burst, per_buffer_fifos);
    sim::Rng rng(5);

    const unsigned buffers = 16;
    const std::uint64_t pages = 2000;
    Tick last = 0;

    bench::Window::run(
        pages, buffers,
        [&](std::uint64_t i, std::function<void()> done) {
            unsigned buffer = unsigned(i % buffers);
            dma.beginRead(buffer, [&, done]() {
                last = sim.now();
                done();
            });
            // The flash side: the page's NAND sense finishes after a
            // random 0-100 us (different chips, different queueing),
            // then its 8 bursts pace in at the bus transfer rate.
            Tick t = sim.now() +
                Tick(rng.below(sim::usToTicks(100)));
            for (unsigned b = 0; b < page / burst; ++b) {
                t += sim::usToTicks(6.8);
                sim.scheduleAt(t, [&dma, buffer, burst]() {
                    dma.addData(buffer, burst);
                });
            }
        });
    sim.run();
    return sim::bytesPerSec(pages * page, last) / 1e9;
}

/**
 * Section 3.2.3: a stalled receiver on endpoint 2 shares the
 * 0->1->2 line with a healthy stream on endpoint 3 from node 0 to
 * node 1. Without end-to-end flow control the stalled stream's
 * messages pile up in link buffers and slow the bystander; with it,
 * the sender self-limits.
 */
double
bystanderGbps(bool e2e)
{
    sim::Simulator sim;
    net::StorageNetwork::Params p;
    p.lane.bufferBytes = 32 * 1024; // small buffers show the effect
    p.recvCapacity = 4;
    net::StorageNetwork net(sim, net::Topology::line(3), p);

    net::Endpoint &stalled_tx = net.endpoint(0, 2);
    if (e2e)
        stalled_tx.enableEndToEnd(4);
    int got = 0;
    Tick last = 0;
    net.endpoint(1, 3).setReceiveHandler([&](net::Message) {
        ++got;
        last = sim.now();
    });

    for (int i = 0; i < 1500; ++i) {
        stalled_tx.send(2, 4096, {}); // receiver never drains
        net.endpoint(0, 3).send(1, 4096, {});
    }
    sim.run();
    return sim::bytesPerSec(std::uint64_t(got) * 4096, last) * 8 /
        1e9;
}

/** The cost of end-to-end flow control: per-message time of a
 * stream over 5 hops with a 2-message credit window. */
double
e2eUsPerMessage(bool e2e)
{
    sim::Simulator sim;
    net::StorageNetwork net(sim, net::Topology::line(6),
                            net::StorageNetwork::Params{});
    net::Endpoint &tx = net.endpoint(0, 1);
    if (e2e)
        tx.enableEndToEnd(2);
    Tick last = 0;
    net.endpoint(5, 1).setReceiveHandler(
        [&](net::Message) { last = sim.now(); });
    for (int i = 0; i < 200; ++i)
        tx.send(5, 512, {});
    sim.run();
    return sim::ticksToUs(last) / 200.0;
}

/** Section 3.2.3: aggregate node0 -> node1 throughput on a 4-lane
 * ring with @p endpoints streams, each routed deterministically. */
double
ringGbps(unsigned endpoints)
{
    sim::Simulator sim;
    net::StorageNetwork net(sim, net::Topology::ring(4, 4),
                            net::StorageNetwork::Params{});
    const std::uint32_t bytes = 2048;
    Tick last = 0;
    int got = 0;
    for (unsigned e = 1; e <= endpoints; ++e) {
        net.endpoint(1, net::EndpointId(e))
            .setReceiveHandler([&](net::Message) {
            ++got;
            last = sim.now();
        });
    }
    for (int i = 0; i < 2000; ++i) {
        for (unsigned e = 1; e <= endpoints; ++e)
            net.endpoint(0, net::EndpointId(e)).send(1, bytes, {});
    }
    sim.run();
    return sim::bytesPerSec(std::uint64_t(got) * bytes, last) * 8 /
        1e9;
}

/** Section 3.1.1: ISP random 8 KB reads over both cards with
 * @p window commands in flight. */
double
tagsGbps(unsigned window)
{
    sim::Simulator sim;
    ClusterParams params = twoNodes();
    Cluster cluster(sim, params);
    const auto &geo = params.node.geometry;
    sim::Rng rng(3);
    const std::uint64_t reads = 8000;
    Tick last = 0;

    bench::Window::run(
        reads, window,
        [&](std::uint64_t i, std::function<void()> done) {
            flash::Address addr = flash::Address::fromLinear(
                geo, rng.below(geo.pages()));
            cluster.node(0).ispReadLocal(
                unsigned(i & 1), addr, [&, done](PageBuffer) {
                last = sim.now();
                done();
            });
        });
    sim.run();
    return sim::bytesPerSec(reads * geo.pageSize, last) / 1e9;
}

void
ablations(Values &v)
{
    v["dma_fifos_gbps"] = dmaGbps(true);
    v["dma_single_fifo_gbps"] = dmaGbps(false);
    v["flow_bystander_e2e_off_gbps"] = bystanderGbps(false);
    v["flow_bystander_e2e_on_gbps"] = bystanderGbps(true);
    v["flow_e2e_off_us_per_msg"] = e2eUsPerMessage(false);
    v["flow_e2e_on_us_per_msg"] = e2eUsPerMessage(true);
    v["routing_1ep_gbps"] = ringGbps(1);
    v["routing_4ep_gbps"] = ringGbps(4);
    for (unsigned w = 1; w <= 128; w *= 2)
        v["tags_" + std::to_string(w) + "_gbps"] = tagsGbps(w);
}

// ---------------------------------------------------------------- //
// Extension (section 8 planned work): SQL selection offload
// ---------------------------------------------------------------- //

constexpr std::uint64_t kTablePages = 4096; // 32 MB of records

/**
 * Scan a table of 64-byte records (key u64 | payload u64 x 7) for
 * key < selectivity * 1e6: in store, one engine per card returning
 * only matches, and on the host, every page over PCIe.
 */
void
sqlFilter(Values &v, double selectivity)
{
    sim::Simulator sim;
    ClusterParams params = twoNodes();
    Cluster cluster(sim, params);
    auto &node = cluster.node(0);
    const auto &geo = params.node.geometry;

    isp::RecordSchema schema({8, 8, 8, 8, 8, 8, 8, 8});
    std::uint32_t per_page = schema.recordsPerPage(geo.pageSize);

    // Store pages directly (a prior load phase); keys uniform in
    // [0, 1e6). The table stripes across BOTH cards so the scan
    // runs at 2.4 GB/s.
    sim::Rng rng(5);
    std::vector<flash::Address> addrs[2];
    for (std::uint64_t p = 0; p < kTablePages; ++p) {
        unsigned c = unsigned(p & 1);
        flash::Address a = flash::Address::fromStriped(geo, p / 2);
        addrs[c].push_back(a);
        PageBuffer page(geo.pageSize, 0);
        for (std::uint32_t r = 0; r < per_page; ++r) {
            schema.store(page.data() + r * schema.recordBytes(), 0,
                         rng.below(1000000));
        }
        if (node.card(c).nand().store().program(
                a, std::move(page)) != flash::Status::Ok)
            sim::fatal("table preload program failed");
    }
    node.ispServer(0).defineHandle(11, addrs[0]);
    node.ispServer(1).defineHandle(11, addrs[1]);

    // --- In-store scan: one engine per card, concurrent.
    isp::TableScanEngine engine0(sim, node.ispServer(0));
    isp::TableScanEngine engine1(sim, node.ispServer(1));
    auto threshold = std::uint64_t(selectivity * 1e6);
    Tick start = sim.now();
    std::uint64_t out_bytes = 0;
    auto collect = [&](isp::ScanResult r) {
        out_bytes += r.records.size();
    };
    std::vector<isp::Predicate> preds{
        {0, isp::CmpOp::Lt, threshold}};
    engine0.scan(11, schema, addrs[0].size() * per_page,
                 geo.pageSize, preds, collect);
    engine1.scan(11, schema, addrs[1].size() * per_page,
                 geo.pageSize, preds, collect);
    sim.run();
    Tick isp_elapsed = sim.now() - start;
    // Matching records stream over PCIe *while* the scan runs (the
    // engine emits them as it goes); the elapsed time is whichever
    // pipe drains last.
    Tick out_xfer = sim::transferTicks(
        out_bytes, node.params().pcie.devToHostBytesPerSec);
    if (out_xfer > isp_elapsed)
        isp_elapsed = out_xfer;

    // --- Host scan: every page crosses PCIe, host CPU filters.
    Tick host_start = sim.now();
    Tick host_last = 0;
    const auto &sw = node.software();
    bench::Window::run(
        kTablePages, 128,
        [&](std::uint64_t i, std::function<void()> done) {
            flash::Address a = addrs[i & 1][i / 2];
            node.hostReadLocal(unsigned(i & 1), a,
                               [&, done](PageBuffer) {
                node.cpu().execute(sw.grepComputePerPage,
                                   [&, done]() {
                    host_last = sim.now();
                    done();
                });
            });
        });
    sim.run();

    char name[32];
    std::snprintf(name, sizeof name, "sql_%g%%", selectivity * 100);
    std::string s = name;
    std::uint64_t table_bytes = kTablePages * geo.pageSize;
    v[s + "_isp_gbps"] =
        sim::bytesPerSec(table_bytes, isp_elapsed) / 1e9;
    v[s + "_host_gbps"] =
        sim::bytesPerSec(table_bytes, host_last - host_start) / 1e9;
    v[s + "_pcie_pct"] =
        100.0 * double(out_bytes) / double(table_bytes);
}

/** Every simulation, each run once. */
Values
measure()
{
    Values v;
    fig11(v);
    fig12(v);
    fig13(v);
    nearestNeighbor(v);
    fig20(v);
    fig21(v);
    tables(v);
    ablations(v);
    for (double s : {0.0001, 0.001, 0.01, 0.1, 0.5, 1.0})
        sqlFilter(v, s);
    return v;
}

// ---------------------------------------------------------------- //
// The claims
// ---------------------------------------------------------------- //

/** How far a `~x` claim may sit from x, table-wide. */
constexpr double kTolerance = 0.10;

/** One claim of the paper and the checks that band it. */
struct Claim
{
    std::string id;
    std::string paper;         //!< the paper's wording, with its value
    std::vector<Check> checks; //!< over measure()'s values
    /** Why the simulated value sits outside the band; set exactly
     * when some check fails. */
    const char *cause = nullptr;
    /** Equal to the paper by construction, not reproduced. */
    bool restated = false;
};

/** `~x`: each of @p names (or its ratio to @p rhs) within
 * kTolerance of @p x. */
std::vector<Check>
near(std::initializer_list<const char *> names, double x,
     const char *rhs = "")
{
    std::vector<Check> out;
    for (const char *n : names) {
        out.push_back({n, Cmp::Ge, x * (1 - kTolerance), rhs});
        out.push_back({n, Cmp::Le, x * (1 + kTolerance), rhs});
    }
    return out;
}

std::vector<Claim>
table()
{
    return {
        // Figure 11 and section 6.3.
        {"fig11_stream", "~8.2 Gb/s per stream across 1-5 hops",
         near({"fig11_1hop_gbps", "fig11_2hop_gbps", "fig11_3hop_gbps",
               "fig11_4hop_gbps", "fig11_5hop_gbps"},
              8.2)},
        {"fig11_hop_latency", "0.48 us per hop",
         near({"fig11_1hop_us_per_hop", "fig11_2hop_us_per_hop",
               "fig11_3hop_us_per_hop", "fig11_4hop_us_per_hop",
               "fig11_5hop_us_per_hop"},
              0.48)},
        {"fig11_overhead",
         "protocol overhead under 18% of the 10 Gb/s physical rate",
         {{"fig11_overhead_pct", Cmp::Lt, 18}},
         "the lane is set to the paper's own 8.2 of 10 Gb/s, exactly "
         "18%, and whole wire bytes per 2 KB message add 0.02%"},
        {"sec6.3_ring_distance",
         "20-node ring: 5 hops on average",
         near({"fig11_ring_avg_hops"}, 5)},
        {"sec6.3_ring_latency", "20-node ring: 2.5 us on average",
         near({"fig11_ring_avg_us"}, 2.5)},
        {"sec6.3_ring_throughput", "4 lanes per ring: 32.8 Gb/s",
         near({"routing_4ep_gbps"}, 32.8)},
        {"sec6.3_flash_share",
         "4 hops add <= 5% to a 50 us flash access",
         {{"fig11_4hop_flash_share_pct", Cmp::Le, 5}}},

        // Figure 12.
        {"fig12_isp_software", "ISP-F avoids all software latency",
         {{"fig12_ISP-F_software_us", Cmp::Eq, 0}}},
        {"fig12_hrhf", "H-RH-F sits ~3x above ISP-F",
         near({"fig12_H-RH-F_total_us"}, 3, "fig12_ISP-F_total_us")},
        {"fig12_network",
         "network latency is insignificant in all cases (read: "
         "under the tolerance of the shortest path, ISP-F)",
         {{"fig12_network_us", Cmp::Lt, kTolerance,
           "fig12_ISP-F_total_us"}}},
        {"fig12_hd_transfer",
         "data transfer is lower for H-D than for the flash paths",
         {{"fig12_H-D_transfer_us", Cmp::Lt, 1,
           "fig12_ISP-F_transfer_us"}}},

        // Figure 13.
        {"fig13_host_local", "Host-Local ~1.6 GB/s, capped by PCIe",
         {{"fig13_Host-Local_gbps", Cmp::Ge, 1.6 * (1 - kTolerance)},
          {"fig13_Host-Local_gbps", Cmp::Le, 1.6}}},
        {"fig13_isp_local", "ISP-Local ~2.4 GB/s",
         near({"fig13_ISP-Local_gbps"}, 2.4)},
        {"fig13_isp_2nodes", "ISP-2Nodes ~3.4 GB/s",
         near({"fig13_ISP-2Nodes_gbps"}, 3.4)},
        {"fig13_isp_3nodes", "ISP-3Nodes ~6.5 GB/s",
         near({"fig13_ISP-3Nodes_gbps"}, 6.5)},

        // Figures 16-19, in comparisons/s.
        {"fig16_one_node", "one node's ISP: ~320K comparisons/s",
         near({"nn_isp_full"}, 320e3),
         "320K x 8 KB is 2.62 GB/s, above one node's 2.4 GB/s of "
         "flash; random reads here reach 2.22 GB/s"},
        {"fig16_crossover",
         "DRAM keeps below the ISP at low thread counts and passes "
         "it with enough threads",
         {{"nn_dram_t2", Cmp::Lt, 1, "nn_isp_full"},
          {"nn_dram_t16", Cmp::Gt, 1, "nn_isp_full"}}},
        {"fig16_throttled",
         "flash throttled to 1/4 cuts the ISP accordingly",
         near({"nn_isp_throttled"}, 0.25, "nn_isp_full")},
        {"fig17_dram", "DRAM ~350K at 8 threads",
         near({"nn_dram_t8"}, 350e3)},
        {"fig17_flash10", "DRAM + 10% flash misses < 80K at 8 threads",
         {{"nn_dram_flash10_t8", Cmp::Lt, 80e3}}},
        {"fig17_disk5", "DRAM + 5% disk misses < 10K at 8 threads",
         {{"nn_dram_disk5_t8", Cmp::Lt, 10e3}},
         "a miss blocks its thread 12 ms with no disk queueing, so 8 "
         "threads reach 8 / (23 us + 5% x 12 ms) = 12.8K"},
        {"fig18_random",
         "random reads on the retail SSD fall below even the "
         "throttled ISP",
         {{"nn_ssd_random_t8", Cmp::Lt, 1, "nn_isp_throttled"}}},
        {"fig18_sequential",
         "sequential reads beat random and can match the throttled "
         "ISP",
         {{"nn_ssd_seq_t8", Cmp::Gt, 1, "nn_ssd_random_t8"},
          {"nn_ssd_seq_t8", Cmp::Ge, 1 - kTolerance,
           "nn_isp_throttled"}}},
        {"fig19_throttled",
         "throttled ISP at least 20% over host software on the same "
         "device",
         {{"nn_isp_throttled", Cmp::Ge, 1.2, "nn_host_sw_t8"}}},
        {"fig19_unthrottled",
         "full-speed ISP 30%+ over software capped by PCIe at "
         "1.6 GB/s",
         {{"nn_isp_full", Cmp::Ge, 1.3 * 1.6e9 / 8192}}},

        // Figure 20, in dependent lookups/s.
        {"fig20_isp", "ISP-F ~3x over H-RH-F",
         near({"fig20_ISP-F_per_s"}, 3, "fig20_H-RH-F_per_s")},
        {"fig20_dram_mix",
         "with 50% DRAM hits the conventional path stays below ISP-F",
         {{"fig20_50%F_per_s", Cmp::Lt, 1, "fig20_ISP-F_per_s"}}},

        // Figure 21.
        {"fig21_isp", "ISP search at ~1.1 GB/s",
         near({"fig21_isp_mbps"}, 1100)},
        {"fig21_isp_cpu",
         "ISP search uses almost no host CPU (read: under the "
         "tolerance of one core)",
         {{"fig21_isp_cpu_pct", Cmp::Lt, 100 * kTolerance}}},
        {"fig21_ssd_cpu", "SSD grep at ~65% CPU",
         near({"fig21_ssd_cpu_pct"}, 65)},
        {"fig21_hdd", "HDD grep ~7.5x slower than the ISP at ~13% CPU",
         {{"fig21_isp_mbps", Cmp::Ge, 7.5 * (1 - kTolerance),
           "fig21_hdd_mbps"},
          {"fig21_isp_mbps", Cmp::Le, 7.5 * (1 + kTolerance),
           "fig21_hdd_mbps"},
          {"fig21_hdd_cpu_pct", Cmp::Ge, 13 * (1 - kTolerance)},
          {"fig21_hdd_cpu_pct", Cmp::Le, 13 * (1 + kTolerance)}},
         "ISP runs 8.7% over 1.1 GB/s, HDD 5% under 147 MB/s; the "
         "9 us/page grep cost fits the SSD's 65% CPU"},

        // Tables 1-3.
        {"table1",
         "Artix-7 flash controller: 75225 LUTs, 62801 registers, "
         "181 BRAM",
         {{"table1_luts", Cmp::Eq, 75225},
          {"table1_registers", Cmp::Eq, 62801},
          {"table1_bram36", Cmp::Eq, 181}},
         nullptr, true},
        {"table2",
         "Virtex-7 host: 135271 LUTs, 135897 registers, 224 RAMB36, "
         "18 RAMB18",
         {{"table2_luts", Cmp::Eq, 135271},
          {"table2_registers", Cmp::Eq, 135897},
          {"table2_ramb36", Cmp::Eq, 224},
          {"table2_ramb18", Cmp::Eq, 18}},
         nullptr, true},
        {"table3_node",
         "node power 240 W: VC707 30, two flash boards 10, Xeon 200",
         {{"table3_node_watts", Cmp::Eq, 240}}, nullptr, true},
        {"table3_share", "BlueDBM adds less than 20% to node power",
         {{"table3_device_fraction", Cmp::Lt, 0.20}}, nullptr, true},

        // Design claims of sections 3.1-3.3.
        {"sec3.3_dma_fifos",
         "per-buffer burst FIFOs keep PCIe busier than one FIFO",
         {{"dma_fifos_gbps", Cmp::Gt, 1, "dma_single_fifo_gbps"}}},
        {"sec3.2.3_flow_control",
         "end-to-end flow control shields a bystander from a stalled "
         "receiver",
         {{"flow_bystander_e2e_on_gbps", Cmp::Gt, 1,
           "flow_bystander_e2e_off_gbps"}}},
        {"sec3.2.3_flow_cost",
         "end-to-end flow control costs credit round trips",
         {{"flow_e2e_on_us_per_msg", Cmp::Gt, 1,
           "flow_e2e_off_us_per_msg"}}},
        {"sec3.2.3_routing",
         "endpoints routed over 4 parallel lanes: ~4x one lane",
         near({"routing_4ep_gbps"}, 4, "routing_1ep_gbps")},
        {"sec3.1.1_tags",
         "saturating flash needs many commands in flight: bandwidth "
         "rises with each doubling",
         {{"tags_2_gbps", Cmp::Gt, 1, "tags_1_gbps"},
          {"tags_4_gbps", Cmp::Gt, 1, "tags_2_gbps"},
          {"tags_8_gbps", Cmp::Gt, 1, "tags_4_gbps"},
          {"tags_16_gbps", Cmp::Gt, 1, "tags_8_gbps"},
          {"tags_32_gbps", Cmp::Gt, 1, "tags_16_gbps"},
          {"tags_64_gbps", Cmp::Gt, 1, "tags_32_gbps"},
          {"tags_128_gbps", Cmp::Gt, 1, "tags_64_gbps"}}},

        // Section 8, planned work.
        {"sec8_sql_offload",
         "in-store filtering beats host filtering on a selective "
         "query",
         {{"sql_0.01%_isp_gbps", Cmp::Gt, 1, "sql_0.01%_host_gbps"}}},
        {"sec8_sql_host_cap",
         "host filtering is capped by PCIe at 1.6 GB/s",
         {{"sql_0.01%_host_gbps", Cmp::Le, 1.6},
          {"sql_100%_host_gbps", Cmp::Le, 1.6}}},
    };
}

} // namespace

int
main()
{
    bench::banner("BlueDBM (ISCA 2015): the paper's claims");
    std::printf("~x claims hold within %g%% of x\n", 100 * kTolerance);
    Values v = measure();
    std::vector<std::string> failed;
    unsigned known = 0;
    const auto claims = table();
    for (const Claim &c : claims) {
        std::printf("\n%s (%s): %s\n", c.id.c_str(),
                    c.restated ? "restated" : "reproduced",
                    c.paper.c_str());
        bool in_band = true;
        for (const Check &k : c.checks)
            in_band = bench::holds(k, v) && in_band;
        if (c.cause && in_band) {
            std::printf("FAIL %s is in band, so its cause is stale: "
                        "%s\n",
                        c.id.c_str(), c.cause);
            failed.push_back(c.id);
        } else if (c.cause) {
            std::printf("     out of band: %s\n", c.cause);
            ++known;
        } else if (!in_band) {
            failed.push_back(c.id);
        }
    }
    std::printf("\n%zu claims: %zu in band, %u out of band with a "
                "cause, %zu failed\n",
                claims.size(), claims.size() - known - failed.size(),
                known, failed.size());

    bench::JsonCounters json(v.begin(), v.end());
    if (!bench::writeJson("BENCH_paper.json", json))
        failed.push_back("BENCH_paper.json");
    if (failed.empty())
        return 0;
    std::fprintf(stderr, "paper: %zu claim(s) failed:", failed.size());
    for (const auto &f : failed)
        std::fprintf(stderr, " %s", f.c_str());
    std::fprintf(stderr, "\n");
    return 1;
}
