/**
 * @file
 * Tests for the in-store processing engines: Morris-Pratt matching,
 * string search over the flash server, nearest-neighbor search over
 * the global address space, and the FIFO accelerator scheduler.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analytics/text.hh"
#include "core/cluster.hh"
#include "flash/ecc.hh"
#include "flash/flash_card.hh"
#include "flash/flash_server.hh"
#include "fs/log_fs.hh"
#include "isp/morris_pratt.hh"
#include "isp/nearest_neighbor.hh"
#include "isp/scheduler.hh"
#include "isp/string_search.hh"
#include "sim/simulator.hh"

using namespace bluedbm;
using flash::FlashCard;
using flash::FlashServer;
using flash::Geometry;
using flash::Timing;
using isp::AcceleratorScheduler;
using isp::MpMatcher;
using isp::MpPattern;
using isp::SearchResult;
using isp::StringSearchEngine;

namespace {

std::vector<std::uint64_t>
naiveSearch(const std::vector<std::uint8_t> &hay,
            const std::string &needle)
{
    std::vector<std::uint64_t> out;
    if (needle.size() > hay.size())
        return out;
    for (std::size_t i = 0; i + needle.size() <= hay.size(); ++i) {
        if (std::equal(needle.begin(), needle.end(),
                       hay.begin() + long(i)))
            out.push_back(i);
    }
    return out;
}

std::vector<std::uint64_t>
mpSearch(const std::vector<std::uint8_t> &hay,
         const std::string &needle)
{
    MpPattern pattern(needle);
    MpMatcher matcher(pattern);
    std::vector<std::uint64_t> out;
    matcher.feed(hay.data(), hay.size(), 0, out);
    return out;
}

} // namespace

TEST(MorrisPratt, FailureFunctionKnownValues)
{
    MpPattern p("abcabd");
    std::vector<std::uint32_t> expect{0, 0, 0, 1, 2, 0};
    EXPECT_EQ(p.failure(), expect);

    MpPattern q("aaaa");
    std::vector<std::uint32_t> expect_q{0, 1, 2, 3};
    EXPECT_EQ(q.failure(), expect_q);
}

TEST(MorrisPratt, MatchesNaiveOnRandomText)
{
    sim::Rng rng(4);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<std::uint8_t> hay(2000);
        for (auto &b : hay)
            b = static_cast<std::uint8_t>('a' + rng.below(3));
        std::string needle;
        auto len = 1 + rng.below(6);
        for (std::uint64_t i = 0; i < len; ++i)
            needle.push_back(char('a' + rng.below(3)));
        EXPECT_EQ(mpSearch(hay, needle), naiveSearch(hay, needle))
            << "needle " << needle;
    }
}

TEST(MorrisPratt, OverlappingMatchesFound)
{
    std::vector<std::uint8_t> hay{'a', 'a', 'a', 'a', 'a'};
    auto matches = mpSearch(hay, "aa");
    EXPECT_EQ(matches,
              (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(MorrisPratt, StreamingAcrossChunksMatchesWhole)
{
    sim::Rng rng(6);
    std::vector<std::uint8_t> hay(5000);
    for (auto &b : hay)
        b = static_cast<std::uint8_t>('x' + rng.below(2));
    std::string needle = "xyxyx";

    MpPattern pattern(needle);
    MpMatcher matcher(pattern);
    std::vector<std::uint64_t> streamed;
    std::uint64_t pos = 0;
    std::size_t off = 0;
    while (off < hay.size()) {
        std::size_t chunk = std::min<std::size_t>(
            137, hay.size() - off);
        matcher.feed(hay.data() + off, chunk, pos, streamed);
        off += chunk;
        pos += chunk;
    }
    EXPECT_EQ(streamed, naiveSearch(hay, needle));
}

namespace {

struct SearchFixture
{
    sim::Simulator sim;
    Geometry geo = Geometry::tiny();
    FlashCard card{sim, geo, Timing::fast(), 128};
    flash::FlashSplitter::Port &port{card.splitter().addPort(64)};
    FlashServer server{sim, port, 4, 16};
    fs::LogFs fs{sim, server, 0, card.nand().store()};
    StringSearchEngine engine{sim, server};

    SearchResult
    searchFile(const std::string &name, const std::string &needle)
    {
        fs.publishHandle(name, 1);
        SearchResult result;
        bool done = false;
        engine.search(1, fs.size(name), geo.pageSize, needle,
                      [&](SearchResult r) {
            result = std::move(r);
            done = true;
        });
        sim.run();
        EXPECT_TRUE(done);
        return result;
    }
};

} // namespace

TEST(StringSearch, FindsPlantedNeedlesExactly)
{
    SearchFixture f;
    auto corpus = analytics::makeCorpus(20000, "N33dle!", 12, 9);
    ASSERT_TRUE(f.fs.create("hay"));
    bool ok = false;
    f.fs.append("hay", corpus.text, [&](bool o) { ok = o; });
    f.sim.run();
    ASSERT_TRUE(ok);

    SearchResult res = f.searchFile("hay", "N33dle!");
    EXPECT_EQ(res.positions, corpus.needlePositions);
}

TEST(StringSearch, MatchSpanningPageBoundaryFound)
{
    SearchFixture f;
    // Build a haystack with the needle exactly straddling the first
    // page boundary.
    std::string needle = "BOUNDARY?";
    std::vector<std::uint8_t> hay(f.geo.pageSize * 2, 'q');
    std::uint64_t start = f.geo.pageSize - 4;
    std::copy(needle.begin(), needle.end(),
              hay.begin() + long(start));
    ASSERT_TRUE(f.fs.create("hay"));
    f.fs.append("hay", hay, [](bool) {});
    f.sim.run();

    SearchResult res = f.searchFile("hay", needle);
    ASSERT_EQ(res.positions.size(), 1u);
    EXPECT_EQ(res.positions[0], start);
}

TEST(StringSearch, MatchInSegmentOverlapNotDuplicated)
{
    SearchFixture f;
    // 4 interfaces split the file into segments; place needles near
    // every segment boundary and verify exact-once reporting.
    const std::uint64_t pages = 16;
    std::vector<std::uint8_t> hay(f.geo.pageSize * pages, 'm');
    std::string needle = "Edge#";
    std::uint64_t seg_bytes = (pages / 4) * f.geo.pageSize;
    std::vector<std::uint64_t> expect;
    for (int s = 1; s < 4; ++s) {
        std::uint64_t pos = s * seg_bytes - 2; // straddles boundary
        std::copy(needle.begin(), needle.end(),
                  hay.begin() + long(pos));
        expect.push_back(pos);
    }
    ASSERT_TRUE(f.fs.create("hay"));
    f.fs.append("hay", hay, [](bool) {});
    f.sim.run();

    SearchResult res = f.searchFile("hay", needle);
    EXPECT_EQ(res.positions, expect);
}

TEST(StringSearch, NoMatchesOnCleanHaystack)
{
    SearchFixture f;
    auto corpus = analytics::makeCorpus(8000, "Z!", 1, 11);
    // Remove the single needle by overwriting it.
    corpus.text[corpus.needlePositions[0]] = 'a';
    corpus.text[corpus.needlePositions[0] + 1] = 'b';
    ASSERT_TRUE(f.fs.create("hay"));
    f.fs.append("hay", corpus.text, [](bool) {});
    f.sim.run();
    SearchResult res = f.searchFile("hay", "Z!");
    EXPECT_TRUE(res.positions.empty());
    EXPECT_GE(res.bytesScanned, 8000u);
}

TEST(StringSearch, ScansAtFlashStreamBandwidth)
{
    SearchFixture f;
    const std::uint64_t bytes = f.geo.pageSize * 64;
    auto corpus = analytics::makeCorpus(bytes, "W0w!", 5, 13);
    ASSERT_TRUE(f.fs.create("hay"));
    f.fs.append("hay", corpus.text, [](bool) {});
    f.sim.run();

    sim::Tick start = f.sim.now();
    f.searchFile("hay", "W0w!");
    sim::Tick elapsed = f.sim.now() - start;
    double rate = sim::bytesPerSec(bytes, elapsed);
    // The tiny geometry is chip-limited: each chip delivers one wire
    // page (data + ECC bytes) per tR. The parallel engines must
    // reach a solid fraction of that ceiling.
    Timing t = Timing::fast();
    double wire_page = f.geo.pageSize +
        double(flash::Secded72::checkBytes(f.geo.pageSize));
    double chip_ceiling = double(f.geo.chips()) * wire_page /
        sim::ticksToSec(t.readUs);
    EXPECT_GT(rate, chip_ceiling * 0.6);
}

TEST(NearestNeighbor, FindsClosestCandidateAcrossNodes)
{
    sim::Simulator sim;
    core::ClusterParams params;
    params.topology = net::Topology::line(2);
    params.node.geometry = Geometry::tiny();
    params.node.timing = Timing::fast();
    core::Cluster cluster(sim, params);
    const Geometry &geo = params.node.geometry;

    // 40 random candidate pages spread over both nodes and cards;
    // the query is candidate 23 with 5 bits flipped, so it is the
    // unique nearest one.
    sim::Rng rng(8);
    std::vector<core::GlobalAddress> candidates;
    flash::PageBuffer query;
    for (std::uint64_t i = 0; i < 40; ++i) {
        core::GlobalAddress ga;
        ga.node = net::NodeId(i % 2);
        ga.card = std::uint8_t((i / 2) % 2);
        ga.addr = flash::Address::fromLinear(geo, i);
        flash::PageBuffer page(geo.pageSize);
        for (auto &b : page)
            b = std::uint8_t(rng.below(256));
        if (i == 23)
            query = page;
        ASSERT_EQ(cluster.node(ga.node).card(ga.card).nand().store()
                      .program(ga.addr, std::move(page)),
                  flash::Status::Ok);
        candidates.push_back(ga);
    }
    for (unsigned bit : {3u, 100u, 777u, 1500u, 4000u})
        query[bit / 8] ^= std::uint8_t(1u << (bit % 8));

    // A window far below the candidate count makes the engine
    // refill it from read completions many times over.
    isp::NearestNeighborEngine engine(cluster.node(0), 4);
    isp::NnResult result;
    bool done = false;
    engine.query(query, candidates, [&](isp::NnResult r) {
        result = r;
        done = true;
    });
    sim.run();
    ASSERT_TRUE(done);
    EXPECT_EQ(result.comparisons, 40u);
    EXPECT_EQ(result.bestIndex, 23u);
    EXPECT_EQ(result.bestDistance, 5u);

    engine.query(query, {}, [&](isp::NnResult r) { result = r; });
    sim.run();
    EXPECT_EQ(result.comparisons, 0u);
}

TEST(Scheduler, JobsRunFifoAcrossUnits)
{
    sim::Simulator sim;
    AcceleratorScheduler sched(sim, 2);
    std::vector<int> order;
    for (int i = 0; i < 6; ++i) {
        sched.submit([&order, i, &sim](unsigned,
                                       std::function<void()> rel) {
            order.push_back(i);
            sim.scheduleAfter(sim::usToTicks(10), rel);
        });
    }
    sim.run();
    ASSERT_EQ(order.size(), 6u);
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(order[i], i);
    EXPECT_EQ(sched.granted(), 6u);
    EXPECT_EQ(sched.freeUnits(), 2u);
}

TEST(Scheduler, ConcurrencyBoundedByUnits)
{
    sim::Simulator sim;
    AcceleratorScheduler sched(sim, 3);
    int running = 0, peak = 0;
    for (int i = 0; i < 10; ++i) {
        sched.submit([&](unsigned, std::function<void()> rel) {
            ++running;
            peak = std::max(peak, running);
            sim.scheduleAfter(sim::usToTicks(5), [&, rel]() {
                --running;
                rel();
            });
        });
    }
    sim.run();
    EXPECT_EQ(peak, 3);
    EXPECT_EQ(running, 0);
}

TEST(Scheduler, UnitsReusedAfterRelease)
{
    sim::Simulator sim;
    AcceleratorScheduler sched(sim, 1);
    std::vector<unsigned> units;
    for (int i = 0; i < 4; ++i) {
        sched.submit([&](unsigned u, std::function<void()> rel) {
            units.push_back(u);
            rel();
        });
    }
    sim.run();
    ASSERT_EQ(units.size(), 4u);
    for (unsigned u : units)
        EXPECT_EQ(u, 0u);
}
