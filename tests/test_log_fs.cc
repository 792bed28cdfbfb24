/**
 * @file
 * Tests for the RFS-style log-structured file system, including the
 * physical-address query that feeds in-store processors.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "flash/flash_card.hh"
#include "flash/flash_server.hh"
#include "fs/log_fs.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

using namespace bluedbm;
using flash::FlashCard;
using flash::FlashServer;
using flash::Geometry;
using flash::PageBuffer;
using flash::Status;
using flash::Timing;
using fs::LogFs;

namespace {

struct Fixture
{
    sim::Simulator sim;
    Geometry geo = Geometry::tiny();
    FlashCard card{sim, geo, Timing::fast(), 64};
    flash::FlashSplitter::Port &port{card.splitter().addPort(64)};
    FlashServer server{sim, port, 2, 16};
    LogFs fs{sim, server, 0, card.nand().store()};

    std::vector<std::uint8_t>
    bytes(std::size_t n, std::uint8_t seed)
    {
        std::vector<std::uint8_t> v(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = static_cast<std::uint8_t>(seed + i * 7);
        return v;
    }

    void
    appendSync(const std::string &name,
               std::vector<std::uint8_t> data)
    {
        bool ok = false;
        fs.append(name, std::move(data), [&](bool o) { ok = o; });
        sim.run();
        ASSERT_TRUE(ok);
    }

    std::vector<std::uint8_t>
    readSync(const std::string &name, std::uint64_t off,
             std::uint64_t len)
    {
        std::vector<std::uint8_t> out;
        fs.read(name, off, len,
                [&](std::vector<std::uint8_t> data, bool ok) {
            EXPECT_TRUE(ok);
            out = std::move(data);
        });
        sim.run();
        return out;
    }
};

} // namespace

TEST(LogFs, CreateExistsRemove)
{
    Fixture f;
    EXPECT_FALSE(f.fs.exists("a"));
    EXPECT_TRUE(f.fs.create("a"));
    EXPECT_FALSE(f.fs.create("a")); // duplicate
    EXPECT_TRUE(f.fs.exists("a"));
    EXPECT_EQ(f.fs.size("a"), 0u);
    EXPECT_TRUE(f.fs.remove("a"));
    EXPECT_FALSE(f.fs.exists("a"));
    EXPECT_FALSE(f.fs.remove("a"));
}

TEST(LogFs, ListIsSorted)
{
    Fixture f;
    ASSERT_TRUE(f.fs.create("zeta"));
    ASSERT_TRUE(f.fs.create("alpha"));
    ASSERT_TRUE(f.fs.create("mid"));
    auto names = f.fs.list();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "mid");
    EXPECT_EQ(names[2], "zeta");
}

TEST(LogFs, AppendReadRoundTripPageAligned)
{
    Fixture f;
    ASSERT_TRUE(f.fs.create("data"));
    auto payload = f.bytes(f.geo.pageSize * 3, 5);
    f.appendSync("data", payload);
    EXPECT_EQ(f.fs.size("data"), payload.size());
    EXPECT_EQ(f.readSync("data", 0, payload.size()), payload);
}

TEST(LogFs, AppendReadRoundTripUnaligned)
{
    Fixture f;
    ASSERT_TRUE(f.fs.create("data"));
    auto payload = f.bytes(f.geo.pageSize + 100, 3);
    f.appendSync("data", payload);
    EXPECT_EQ(f.fs.size("data"), payload.size());
    EXPECT_EQ(f.readSync("data", 0, payload.size()), payload);
}

TEST(LogFs, MultipleAppendsConcatenate)
{
    Fixture f;
    ASSERT_TRUE(f.fs.create("log"));
    auto a = f.bytes(300, 1);
    auto b = f.bytes(f.geo.pageSize, 2);
    auto c = f.bytes(77, 3);
    f.appendSync("log", a);
    f.appendSync("log", b);
    f.appendSync("log", c);
    ASSERT_EQ(f.fs.size("log"), a.size() + b.size() + c.size());

    auto all = f.readSync("log", 0, f.fs.size("log"));
    std::vector<std::uint8_t> expect = a;
    expect.insert(expect.end(), b.begin(), b.end());
    expect.insert(expect.end(), c.begin(), c.end());
    EXPECT_EQ(all, expect);
}

TEST(LogFs, SubRangeReads)
{
    Fixture f;
    ASSERT_TRUE(f.fs.create("data"));
    auto payload = f.bytes(f.geo.pageSize * 2 + 50, 9);
    f.appendSync("data", payload);
    for (std::uint64_t off : {0ul, 100ul, 511ul, 512ul, 1000ul}) {
        auto got = f.readSync("data", off, 64);
        std::vector<std::uint8_t> expect(
            payload.begin() + long(off),
            payload.begin() + long(off) + 64);
        EXPECT_EQ(got, expect) << "offset " << off;
    }
}

TEST(LogFs, ReadPastEndIsClipped)
{
    Fixture f;
    ASSERT_TRUE(f.fs.create("small"));
    f.appendSync("small", f.bytes(100, 4));
    auto got = f.readSync("small", 50, 1000);
    EXPECT_EQ(got.size(), 50u);
}

TEST(LogFs, PhysicalAddressesMatchContent)
{
    Fixture f;
    ASSERT_TRUE(f.fs.create("data"));
    auto payload = f.bytes(f.geo.pageSize * 4, 6);
    f.appendSync("data", payload);

    auto addrs = f.fs.physicalAddresses("data");
    ASSERT_EQ(addrs.size(), 4u);
    // Reading the raw physical pages must reproduce the file.
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        PageBuffer raw = f.card.nand().store().read(addrs[i]);
        for (std::uint32_t b = 0; b < f.geo.pageSize; ++b)
            ASSERT_EQ(raw[b], payload[i * f.geo.pageSize + b]);
    }
}

TEST(LogFs, PhysicalAddressesStripeAcrossBuses)
{
    Fixture f;
    ASSERT_TRUE(f.fs.create("data"));
    f.appendSync("data", f.bytes(f.geo.pageSize * 8, 7));
    auto addrs = f.fs.physicalAddresses("data");
    std::set<std::uint32_t> buses;
    for (const auto &a : addrs)
        buses.insert(a.bus);
    // Log allocation stripes blocks across buses for parallelism.
    EXPECT_GT(buses.size(), 1u);
}

TEST(LogFs, PublishHandleFeedsFlashServerAtu)
{
    Fixture f;
    ASSERT_TRUE(f.fs.create("data"));
    auto payload = f.bytes(f.geo.pageSize * 3, 8);
    f.appendSync("data", payload);
    f.fs.publishHandle("data", 77);

    // Stream through the flash server as an ISP would.
    std::vector<std::uint8_t> streamed;
    f.server.streamRead(1, 77, 0, 3,
                        [&](PageBuffer page, Status st) {
        EXPECT_NE(st, Status::Uncorrectable);
        streamed.insert(streamed.end(), page.begin(), page.end());
    });
    f.sim.run();
    ASSERT_EQ(streamed.size(), payload.size());
    EXPECT_EQ(streamed, payload);
}

TEST(LogFs, OverwriteTailDoesNotCorruptEarlierData)
{
    Fixture f;
    ASSERT_TRUE(f.fs.create("grow"));
    // Many small appends force repeated tail-page rewrites.
    std::vector<std::uint8_t> expect;
    for (int i = 0; i < 40; ++i) {
        auto chunk = f.bytes(97, std::uint8_t(i));
        expect.insert(expect.end(), chunk.begin(), chunk.end());
        f.appendSync("grow", chunk);
    }
    EXPECT_EQ(f.fs.size("grow"), expect.size());
    EXPECT_EQ(f.readSync("grow", 0, expect.size()), expect);
}

TEST(LogFs, CleanerReclaimsDeletedFiles)
{
    Fixture f;
    // Fill a good part of the card with short-lived files; the
    // cleaner must keep up and data must stay correct.
    std::uint64_t file_pages = 16;
    int generations = 30;
    for (int g = 0; g < generations; ++g) {
        std::string name = "tmp" + std::to_string(g % 3);
        if (f.fs.exists(name)) {
            ASSERT_TRUE(f.fs.remove(name));
        }
        ASSERT_TRUE(f.fs.create(name));
        f.appendSync(name,
                     f.bytes(f.geo.pageSize * file_pages,
                             std::uint8_t(g)));
    }
    EXPECT_GT(f.fs.blocksErased(), 0u);
    // Last three generations intact.
    for (int g = generations - 3; g < generations; ++g) {
        std::string name = "tmp" + std::to_string(g % 3);
        auto got = f.readSync(name, 0, f.fs.size(name));
        auto expect = f.bytes(f.geo.pageSize * file_pages,
                              std::uint8_t(g));
        EXPECT_EQ(got, expect) << name;
    }
}

TEST(LogFs, RandomWorkloadTorture)
{
    Fixture f;
    sim::Rng rng(7);
    std::map<std::string, std::vector<std::uint8_t>> reference;
    for (int op = 0; op < 200; ++op) {
        // std::string{} + ... sidesteps a gcc-12 -Wrestrict false
        // positive on the char* + string&& overload (PR 105651).
        std::string name =
            std::string("f") + std::to_string(rng.below(5));
        double dice = rng.uniform();
        if (dice < 0.55) {
            if (!f.fs.exists(name)) {
                ASSERT_TRUE(f.fs.create(name));
                reference[name] = {};
            }
            auto chunk = f.bytes(
                rng.below(2 * f.geo.pageSize) + 1,
                std::uint8_t(rng.next()));
            reference[name].insert(reference[name].end(),
                                   chunk.begin(), chunk.end());
            f.appendSync(name, chunk);
        } else if (dice < 0.75) {
            if (f.fs.exists(name)) {
                ASSERT_TRUE(f.fs.remove(name));
                reference.erase(name);
            }
        } else {
            if (f.fs.exists(name) && !reference[name].empty()) {
                auto &expect = reference[name];
                std::uint64_t off = rng.below(expect.size());
                std::uint64_t len =
                    rng.below(expect.size() - off) + 1;
                auto got = f.readSync(name, off, len);
                std::vector<std::uint8_t> want(
                    expect.begin() + long(off),
                    expect.begin() + long(off + len));
                ASSERT_EQ(got, want) << name << "@" << off;
            }
        }
    }
    // Final audit of every live file.
    for (const auto &[name, expect] : reference) {
        ASSERT_EQ(f.fs.size(name), expect.size());
        if (!expect.empty()) {
            EXPECT_EQ(f.readSync(name, 0, expect.size()), expect);
        }
    }
}

// ---------------------------------------------------------------- //
// Append-failure semantics (fault injection)
// ---------------------------------------------------------------- //

TEST(LogFs, AppendFailureReservesRangeAndPoisonsFreshPages)
{
    Fixture f;
    ASSERT_TRUE(f.fs.create("f"));
    auto payload = f.bytes(f.geo.pageSize * 2, 5);

    // Every program fails: the append must report failure, keep the
    // reserved byte range (offsets handed to concurrent appends
    // must stay stable), and poison the fresh pages so reads of the
    // range report failure instead of silently returning zeroes.
    f.server.setWriteFault(
        [](const flash::Address &) { return true; });
    bool ok = true;
    f.fs.append("f", payload, [&](bool o) { ok = o; });
    f.sim.run();
    EXPECT_FALSE(ok);
    EXPECT_EQ(f.fs.size("f"), payload.size());
    EXPECT_EQ(f.fs.pageWriteFailures(), 2u);

    bool read_ok = true;
    std::vector<std::uint8_t> got;
    f.fs.read("f", 0, payload.size(),
              [&](std::vector<std::uint8_t> data, bool o) {
        got = std::move(data);
        read_ok = o;
    });
    f.sim.run();
    EXPECT_FALSE(read_ok);
    EXPECT_EQ(got, std::vector<std::uint8_t>(payload.size(), 0));

    // Healthy again: new appends land after the reserved range and
    // read back fine; the poisoned range keeps reporting failure.
    f.server.setWriteFault(nullptr);
    auto tail = f.bytes(f.geo.pageSize, 9);
    f.appendSync("f", tail);
    EXPECT_EQ(f.readSync("f", payload.size(), tail.size()), tail);
    f.fs.read("f", 0, f.fs.size("f"),
              [&](std::vector<std::uint8_t>, bool o) {
        read_ok = o;
    });
    f.sim.run();
    EXPECT_FALSE(read_ok);
}

TEST(LogFs, FailedTailRewriteKeepsOldContentAndHeals)
{
    Fixture f;
    ASSERT_TRUE(f.fs.create("f"));
    auto first = f.bytes(100, 1);
    f.appendSync("f", first);

    // The tail-page rewrite fails: the aborted program leaves the
    // page's previous contents intact, so the bytes before the
    // failed append still read back correctly.
    f.server.setWriteFault(
        [](const flash::Address &) { return true; });
    auto second = f.bytes(50, 2);
    bool ok = true;
    f.fs.append("f", second, [&](bool o) { ok = o; });
    f.sim.run();
    EXPECT_FALSE(ok);
    EXPECT_EQ(f.fs.size("f"), 150u);
    EXPECT_EQ(f.readSync("f", 0, 100), first);

    // The failed bytes stayed staged in the in-memory tail: the
    // next successful append rewrites the shared tail page and
    // heals the whole range.
    f.server.setWriteFault(nullptr);
    auto third = f.bytes(30, 3);
    f.appendSync("f", third);
    std::vector<std::uint8_t> expect = first;
    expect.insert(expect.end(), second.begin(), second.end());
    expect.insert(expect.end(), third.begin(), third.end());
    EXPECT_EQ(f.fs.size("f"), expect.size());
    EXPECT_EQ(f.readSync("f", 0, expect.size()), expect);
}

// ---------------------------------------------------------------- //
// Read spreading onto a reserved spill interface
// ---------------------------------------------------------------- //

TEST(LogFs, ReadsSpreadToSpillInterfaceUnderLoad)
{
    sim::Simulator sim;
    Geometry geo = Geometry::tiny();
    FlashCard card{sim, geo, Timing::fast(), 64};
    auto &port = card.splitter().addPort(64);
    FlashServer server{sim, port, 2, 16};
    fs::FsParams params;
    params.spillInterface = 1;
    params.readSpreadDepth = 1; // spread as soon as one is queued
    LogFs lfs{sim, server, 0, card.nand().store(), params};

    ASSERT_TRUE(lfs.create("hot"));
    std::vector<std::uint8_t> payload(geo.pageSize * 4);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = std::uint8_t(i * 13);
    bool ok = false;
    lfs.append("hot", payload, [&](bool o) { ok = o; });
    sim.run();
    ASSERT_TRUE(ok);

    // A burst of whole-file reads: the primary queue backs up and
    // page reads stripe onto the spill interface; the data stays
    // correct regardless of which interface served it.
    int done = 0;
    for (int i = 0; i < 8; ++i) {
        lfs.read("hot", 0, payload.size(),
                 [&](std::vector<std::uint8_t> data, bool o) {
            EXPECT_TRUE(o);
            EXPECT_EQ(data, payload);
            ++done;
        });
    }
    sim.run();
    EXPECT_EQ(done, 8);
    EXPECT_GT(lfs.spreadReads(), 0u);
}

// ---------------------------------------------------------------- //
// Tail-page group commit
// ---------------------------------------------------------------- //

TEST(LogFs, ConcurrentSmallAppendsGroupCommit)
{
    Fixture f;
    ASSERT_TRUE(f.fs.create("log"));

    // A burst of small appends issued back to back: rewrites of the
    // shared tail page arriving while one program is in flight must
    // batch into a single follow-up program, every ack must still
    // fire, and the contents must concatenate exactly.
    std::vector<std::uint8_t> expect;
    int acks = 0;
    bool all_ok = true;
    const int appends = 24;
    for (int i = 0; i < appends; ++i) {
        auto chunk = f.bytes(97, std::uint8_t(i + 1));
        expect.insert(expect.end(), chunk.begin(), chunk.end());
        f.fs.append("log", chunk, [&](bool ok) {
            all_ok = all_ok && ok;
            ++acks;
        });
    }
    f.sim.run();
    EXPECT_EQ(acks, appends);
    EXPECT_TRUE(all_ok);
    EXPECT_EQ(f.fs.size("log"), expect.size());
    EXPECT_EQ(f.readSync("log", 0, expect.size()), expect);
    // Far fewer programs than appends: the burst group-committed.
    EXPECT_GT(f.fs.batchedPageWrites(), 0u);
    EXPECT_LT(f.fs.pagesWritten(), unsigned(appends));
}

// ---------------------------------------------------------------- //
// Cross-file write batching (FlashServer program coalescing)
// ---------------------------------------------------------------- //

TEST(LogFs, CrossFileAppendsBatchOntoSharedProgramWindows)
{
    // One-bus geometry forces every append onto the same bus's
    // chips -- the collision case the coalescing stage exists for.
    // Concurrent small appends to DIFFERENT files each rewrite
    // their own tail page; without batching each pays a full tPROG
    // behind the others, with batching they flush as one command
    // group and share program windows.
    sim::Simulator sim;
    Geometry geo = Geometry::tiny();
    geo.buses = 1;
    geo.chipsPerBus = 2;
    FlashCard card{sim, geo, Timing::fast(), 64};
    auto &port = card.splitter().addPort(64);
    FlashServer server{sim, port, 3, 16};
    LogFs fs{sim, server, 0, card.nand().store()}; // batching on

    const unsigned files = 4;
    const std::string names[files] = {"f0", "f1", "f2", "f3"};
    for (unsigned i = 0; i < files; ++i)
        ASSERT_TRUE(fs.create(names[i]));

    // Burst: every file appends at once, repeatedly.
    unsigned done = 0, rounds = 3;
    for (unsigned r = 0; r < rounds; ++r) {
        for (unsigned i = 0; i < files; ++i) {
            std::vector<std::uint8_t> data(64,
                                           std::uint8_t(r * 16 + i));
            fs.append(names[i], std::move(data),
                      [&](bool ok) {
                EXPECT_TRUE(ok);
                ++done;
            });
        }
        sim.run();
    }
    EXPECT_EQ(done, files * rounds);

    // The stage saw cross-file concurrency and the NAND shared
    // program windows across it.
    EXPECT_GT(server.batchedWrites(), 0u);
    EXPECT_GT(card.nand().coalescedPrograms(), 0u);

    // Correctness: every file reads back exactly what it appended.
    for (unsigned i = 0; i < files; ++i) {
        std::vector<std::uint8_t> out;
        fs.read(names[i], 0, 64 * rounds,
                [&](std::vector<std::uint8_t> data, bool ok) {
            EXPECT_TRUE(ok);
            out = std::move(data);
        });
        sim.run();
        ASSERT_EQ(out.size(), 64u * rounds);
        for (unsigned r = 0; r < rounds; ++r) {
            for (unsigned b = 0; b < 64; ++b)
                EXPECT_EQ(out[r * 64 + b],
                          std::uint8_t(r * 16 + i))
                    << "file " << i << " round " << r;
        }
    }
}

// ---------------------------------------------------------------- //
// Aged flash: poisoned pages, bad-block retirement, parked cleans
// ---------------------------------------------------------------- //

TEST(LogFs, UncorrectableReadPoisonsPageForGood)
{
    Fixture f;
    ASSERT_TRUE(f.fs.create("f"));
    auto payload = f.bytes(f.geo.pageSize * 2, 5);
    f.appendSync("f", payload);

    // Every sense fails (retry budget 0): the read reports failure
    // and the dead copies are unmapped -- poisoned -- so their
    // blocks stay reclaimable.
    f.server.setReadFault([](const flash::Address &) {
        FlashServer::ReadFaultAction act;
        act.uncorrectable = true;
        return act;
    });
    bool ok = true;
    f.fs.read("f", 0, payload.size(),
              [&](std::vector<std::uint8_t>, bool o) { ok = o; });
    f.sim.run();
    EXPECT_FALSE(ok);
    EXPECT_EQ(f.fs.poisonedPages(), 2u);

    // The hole is permanent even with the fault gone: the flash
    // copy was unmapped, so reads keep reporting failure (zeroes,
    // ok = false) until a replica one level up heals the range.
    f.server.setReadFault(nullptr);
    ok = true;
    std::vector<std::uint8_t> got;
    f.fs.read("f", 0, payload.size(),
              [&](std::vector<std::uint8_t> data, bool o) {
        got = std::move(data);
        ok = o;
    });
    f.sim.run();
    EXPECT_FALSE(ok);
    EXPECT_EQ(got, std::vector<std::uint8_t>(payload.size(), 0));
    EXPECT_EQ(f.fs.poisonedPages(), 2u); // no double poison
}

TEST(LogFs, BadBlockRetirementRelocatesAndPreservesOffsets)
{
    Fixture f;
    ASSERT_TRUE(f.fs.create("keep"));
    auto keep = f.bytes(f.geo.pageSize, 5);
    f.appendSync("keep", keep);
    auto before = f.fs.physicalAddresses("keep");
    ASSERT_EQ(before.size(), 1u);

    // The hardware declares keep's block bad: the next program
    // landing on that frontier fails with Status::BadBlock, the
    // block is remapped out of service, and its surviving live
    // page drains out at maintenance priority.
    f.card.nand().store().markBad(before[0]);
    ASSERT_TRUE(f.fs.create("filler"));
    unsigned acks = 0, fails = 0;
    for (int i = 0; i < 2; ++i) {
        f.fs.append("filler",
                    f.bytes(f.geo.pageSize, std::uint8_t(i)),
                    [&](bool o) {
            ++acks;
            fails += o ? 0 : 1;
        });
    }
    f.sim.run();
    EXPECT_EQ(acks, 2u);
    EXPECT_EQ(fails, 1u); // exactly the program on the bad block
    EXPECT_EQ(f.fs.retiredBlocks(), 1u);

    // "keep" survived with its byte offsets intact: same size,
    // same contents, new physical home off the retired block.
    EXPECT_EQ(f.fs.size("keep"), keep.size());
    EXPECT_EQ(f.readSync("keep", 0, keep.size()), keep);
    auto after = f.fs.physicalAddresses("keep");
    ASSERT_EQ(after.size(), 1u);
    EXPECT_NE(after[0].linearize(f.geo) / f.geo.pagesPerBlock,
              before[0].linearize(f.geo) / f.geo.pagesPerBlock);
    EXPECT_EQ(f.fs.pagesCleaned(), 1u); // the one relocation
}

TEST(LogFs, ProgramFaultMidCleanParksVictimInsteadOfErasing)
{
    Fixture f;
    // Interleave two files in uneven chunks so their pages mix
    // within blocks (the allocator round-robins buses per page),
    // then delete one: every closed block is a PART-live victim,
    // so cleaning must relocate before erasing. 150 rounds of 3
    // pages fill ~29 of the card's 32 blocks -- past the cleaner's
    // low water, without parking appends on the reserve.
    ASSERT_TRUE(f.fs.create("live"));
    ASSERT_TRUE(f.fs.create("dead"));
    std::vector<std::uint8_t> expect;
    for (int i = 0; i < 150; ++i) {
        auto chunk = f.bytes(f.geo.pageSize * 2, std::uint8_t(i));
        expect.insert(expect.end(), chunk.begin(), chunk.end());
        f.appendSync("live", chunk);
        f.appendSync("dead", f.bytes(f.geo.pageSize,
                                     std::uint8_t(0x80 + i)));
    }
    ASSERT_TRUE(f.fs.remove("dead"));

    // A bounded burst of program failures while the cleaner works:
    // relocation writes fail, the victim keeps its unmoved live
    // pages, and the pass must PARK it (no erase of data that
    // never moved, no panic) and retry later.
    int faults = 60;
    f.server.setWriteFault(
        [&](const flash::Address &) { return faults-- > 0; });
    ASSERT_TRUE(f.fs.create("spur"));
    for (int i = 0; i < 48; ++i) {
        // Enough single-page appends to drain the open frontiers
        // and force fresh block opens -- the events that kick
        // maybeClean below the low water.
        // Appends opening fresh blocks kick maybeClean; their own
        // programs may also eat faults, which is fine -- the
        // cleaner's relocations burn through the rest.
        f.fs.append("spur", f.bytes(f.geo.pageSize, 0x55),
                    [](bool) {});
        f.sim.run();
    }
    EXPECT_GT(f.fs.cleanParks(), 0u);

    // Device healed: cleaning resumes, reclaims the garbage, and
    // the surviving file is bit-exact -- parked passes never cost
    // data.
    f.server.setWriteFault(nullptr);
    for (int i = 0; i < 4; ++i)
        f.appendSync("live", f.bytes(64, std::uint8_t(0xf0 + i)));
    EXPECT_GT(f.fs.blocksErased(), 0u);
    EXPECT_EQ(f.readSync("live", 0, expect.size()), expect);
}

// ---------------------------------------------------------------- //
// The page store holds only pages a read can still reach
// ---------------------------------------------------------------- //

TEST(LogFs, StoredPagesFollowMappedPages)
{
    // Small appends to three files leave a superseded tail page
    // behind each time; a trim, a remove and the cleaner's
    // relocations and erases kill more. Every dead page must be
    // released, so the card holds exactly the pages still mapped.
    Fixture f;
    const std::string names[] = {"a", "b", "c"};
    std::vector<std::uint8_t> expect[3];
    for (const std::string &name : names)
        ASSERT_TRUE(f.fs.create(name));
    auto grow = [&](unsigned i, std::uint8_t seed) {
        auto chunk = f.bytes(100, seed);
        expect[i].insert(expect[i].end(), chunk.begin(), chunk.end());
        f.appendSync(names[i], chunk);
    };
    for (unsigned r = 0; r < 20; ++r) {
        for (unsigned i = 0; i < 3; ++i)
            grow(i, std::uint8_t(r * 3 + i));
    }
    ASSERT_TRUE(f.fs.trim("a", 0));
    ASSERT_TRUE(f.fs.remove("b"));
    // Keep appending until the cleaner has moved a live page out
    // of a victim, not only erased blocks that were already dead.
    for (unsigned r = 0; f.fs.pagesCleaned() == 0; ++r) {
        ASSERT_LT(r, 2000u) << "the cleaner never relocated";
        grow(2, std::uint8_t(r));
    }

    auto file_pages = [&](const std::string &name) {
        return (f.fs.size(name) + f.geo.pageSize - 1) /
            f.geo.pageSize;
    };
    const std::uint64_t mapped =
        file_pages("a") - 1 /* trimmed */ + file_pages("c");
    EXPECT_EQ(f.card.nand().store().storedPages(), mapped);
    EXPECT_GT(f.fs.blocksErased(), 0u);
    const std::uint64_t page = f.geo.pageSize;
    auto a_rest = f.readSync("a", page, expect[0].size() - page);
    EXPECT_TRUE(std::equal(a_rest.begin(), a_rest.end(),
                           expect[0].begin() + long(page)));
    EXPECT_EQ(f.readSync("c", 0, expect[2].size()), expect[2]);
}

TEST(LogFs, PageSupersededUnderAReadKeepsItsBytesUntilTheRead)
{
    // A Background read queues FIFO behind an erase on its page's
    // chip (Timing::fast(): erase 100 us). Meanwhile an append
    // rewrites the tail page on the other bus (program 20 us) and
    // supersedes the page being read. The read must still sense
    // the old bytes; the dead page is released once it completes.
    Fixture f;
    ASSERT_TRUE(f.fs.create("f"));
    const auto first = f.bytes(100, 1);
    f.appendSync("f", first);
    const flash::Address old_page = f.fs.physicalAddresses("f")[0];

    flash::Address spare = old_page; // a free block on the same chip
    spare.block += 1;
    f.card.nand().erase(spare, [](Status st) {
        EXPECT_EQ(st, Status::Ok);
    });
    std::vector<std::uint8_t> got;
    bool read_ok = false;
    f.fs.read("f", 0, first.size(),
              [&](std::vector<std::uint8_t> data, bool ok) {
        got = std::move(data);
        read_ok = ok;
    },
              flash::Priority::Background);
    bool append_ok = false;
    f.fs.append("f", f.bytes(50, 2), [&](bool ok) { append_ok = ok; });
    f.sim.run();

    EXPECT_TRUE(append_ok);
    EXPECT_TRUE(read_ok);
    EXPECT_EQ(got, first);
    EXPECT_NE(f.fs.physicalAddresses("f")[0], old_page);
    EXPECT_TRUE(f.card.nand().store().isProgrammed(old_page));
    EXPECT_EQ(f.card.nand().store().storedPages(), 1u);
}
