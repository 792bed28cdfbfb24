/**
 * @file
 * isp_remote_scan: figure 13's ISP-3Nodes shape. Node 0's in-store
 * processor reads random 8 KB pages, a third from its own cards and
 * the rest from two remotes, each wired to node 0 by two serial
 * links. Every page read must match what the preload wrote.
 */

#include <cstdint>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "bench/bench_util.hh"
#include "harness.hh"
#include "kv/kv_types.hh"
#include "workload/key_dist.hh"

namespace repobench {

namespace {

constexpr unsigned remotes = 2;
constexpr unsigned linksPerRemote = 2;
constexpr unsigned cards = 2;
/** Preloaded pages per card: 16 on each of the 64 chips. */
constexpr std::uint64_t pagesPerCard = 1024;
/** Outstanding reads per target node (fig13: 256 per card). */
constexpr unsigned scanWindow = 512;
/** Preload program arrivals per card per second: about a third of
 * what 64 chips programming one page at a time sustain. */
constexpr double programsPerSec = 50000.0;
constexpr std::uint64_t defaultPages = 30000;

core::ClusterParams
clusterParams()
{
    core::ClusterParams p;
    p.topology.nodes = 1 + remotes;
    for (unsigned r = 0; r < remotes; ++r) {
        for (unsigned l = 0; l < linksPerRemote; ++l) {
            net::LinkSpec spec;
            spec.nodeA = 0;
            spec.portA = std::uint8_t(r * linksPerRemote + l);
            spec.nodeB = net::NodeId(1 + r);
            spec.portB = std::uint8_t(l);
            p.topology.links.push_back(spec);
        }
    }
    p.node.cards = cards;
    return p;
}

/** The preloaded pages of one card and the bytes each must hold. */
struct CardData
{
    std::vector<flash::Address> addrs;
    std::vector<flash::PageBuffer> pages;
    std::vector<std::uint64_t> order; //!< preload program order
};

} // namespace

Rep
runIspRemoteScan(const RepConfig &cfg)
{
    Rep rep;
    Stopwatch clock;
    const std::uint64_t pages = cfg.ops ? cfg.ops : defaultPages;

    sim::Simulator sim;
    core::Cluster cluster(sim, clusterParams());
    const flash::Geometry &geo = cluster.params().node.geometry;
    sim::Rng rng(kv::mix64(cfg.seed ^ 0x6a09e667f3bcc909ull));

    // Each card holds pagesPerCard distinct pages, the same number on
    // every chip (so no chip is a hot spot by construction), each at a
    // random block and page; their content is a function of (seed,
    // node, card, index). The preload programs them in a random order.
    std::vector<CardData> data(cluster.size() * cards);
    for (unsigned n = 0; n < cluster.size(); ++n) {
        for (unsigned c = 0; c < cards; ++c) {
            CardData &d = data[n * cards + c];
            std::set<std::uint64_t> taken;
            while (d.addrs.size() < pagesPerCard) {
                std::uint64_t i = d.addrs.size();
                flash::Address a;
                a.bus = std::uint32_t(i % geo.buses);
                a.chip = std::uint32_t(i / geo.buses % geo.chipsPerBus);
                a.block = std::uint32_t(rng.below(geo.blocksPerChip));
                a.page = std::uint32_t(rng.below(geo.pagesPerBlock));
                if (taken.insert(a.linearize(geo)).second)
                    d.addrs.push_back(a);
            }
            for (std::uint64_t i = 0; i < pagesPerCard; ++i) {
                std::uint64_t h = kv::mix64(
                    cfg.seed ^ (std::uint64_t(n) << 48) ^
                    (std::uint64_t(c) << 40) ^ i);
                flash::PageBuffer page(geo.pageSize);
                for (std::uint32_t b = 0; b < geo.pageSize; ++b)
                    page[b] = std::uint8_t((h >> ((b % 8) * 8)) ^ b);
                d.pages.push_back(std::move(page));
                d.order.push_back(i);
            }
            for (std::uint64_t i = pagesPerCard - 1; i > 0; --i)
                std::swap(d.order[i], d.order[rng.below(i + 1)]);
        }
    }
    rep.buildS = clock.lap();

    // Preload: timed page programs through each card's ISP server,
    // arriving as a Poisson stream per card. They are this workload's
    // writes (sim_write_p99_us and flash_write_amp); random arrivals
    // make their waits continuous rather than whole program times.
    Latencies writes;
    std::uint64_t write_bad = 0;
    for (unsigned n = 0; n < cluster.size(); ++n) {
        for (unsigned c = 0; c < cards; ++c) {
            const CardData *d = &data[n * cards + c];
            flash::FlashServer *server = &cluster.node(n).ispServer(c);
            workload::PoissonArrivals gaps(
                programsPerSec, rng.next());
            sim::Tick at = 0;
            for (std::uint64_t k = 0; k < pagesPerCard; ++k) {
                at += gaps.nextGap();
                sim.scheduleAt(at, [&sim, &writes, &write_bad, d, server,
                                    k]() {
                    sim::Tick t0 = sim.now();
                    std::uint64_t i = d->order[k];
                    server->writePage(
                        unsigned(k % 4), d->addrs[i], d->pages[i],
                        [&sim, &writes, &write_bad, t0](flash::Status st) {
                        if (st == flash::Status::Ok)
                            writes.record(sim.now() - t0);
                        else
                            ++write_bad;
                    });
                });
            }
        }
    }
    sim.run();
    const std::uint64_t programmed =
        sim.metrics().counterTotal("nand.pages_written");
    if (writes.count() != data.size() * pagesPerCard || write_bad != 0)
        rep.problems.push_back("preload: a page program failed");
    rep.preloadS = clock.lap();

    // Measured phase: a third of the pages from node 0's own cards,
    // the rest from a remote drawn per page. The local stream has its
    // own window so the slower remote pipes never block it. The two
    // remotes share one window and are drawn at random rather than
    // served by a stream each: per-target streams fall into lockstep,
    // and since node 0 picks a reply endpoint (and with it a link) by
    // request-id parity, lockstep can put every reply of one remote
    // on one of its two links, halving its bandwidth for a whole run.
    if (cfg.traced) {
        sim::Tracer::Params tp;
        tp.enabled = true;
        tp.sampleEvery = 8;
        sim.tracer().configure(tp);
    }
    LayerProbe probe(sim, cluster);
    const std::uint64_t events0 = sim.eventsExecuted();
    const sim::Tick start = sim.now();
    sim::Tick end = start;
    Latencies reads;
    std::uint64_t bad = 0;
    auto read = [&](net::NodeId target, std::function<void()> next) {
        unsigned c = unsigned(rng.below(cards));
        std::uint64_t i = rng.below(pagesPerCard);
        const CardData &d = data[target * cards + c];
        const flash::PageBuffer *want = &d.pages[i];
        sim::Tick t0 = sim.now();
        cluster.node(0).ispReadRemote(
            target, c, d.addrs[i],
            [&, want, t0, next = std::move(next)](flash::PageBuffer got) {
            end = sim.now();
            if (got == *want)
                reads.record(end - t0);
            else
                ++bad;
            next();
        });
    };
    const std::uint64_t local = pages / cluster.size();
    bench::Window::run(local, scanWindow,
                       [&](std::uint64_t, std::function<void()> next) {
        read(0, std::move(next));
    });
    bench::Window::run(pages - local, scanWindow * remotes,
                       [&](std::uint64_t, std::function<void()> next) {
        read(net::NodeId(1 + rng.below(remotes)), std::move(next));
    });
    sim.run();
    rep.runS = clock.lap();
    rep.events = sim.eventsExecuted() - events0;
    sim.tracer().configure(sim::Tracer::Params{});

    rep.attempted = pages;
    rep.failed = bad;
    if (reads.count() + bad != pages)
        rep.problems.push_back("measured: not every page completed");
    if (bad != 0)
        rep.problems.push_back("measured: a page read wrong bytes");
    rep.sim.userBytes = double(writes.count()) * geo.pageSize;
    rep.sim.nandBytes = double(programmed) * geo.pageSize;
    rep.sim.elapsed = end - start;
    rep.sim.all = reads;
    rep.sim.reads = std::move(reads);
    rep.sim.writes = std::move(writes);
    probe.finish({pages, pages, 0, bad, end - start}, rep.layers);
    rep.sweepS = clock.lap();

    if (cfg.traced)
        attributeSpans(sim.tracer(), rep);
    return rep;
}

} // namespace repobench
