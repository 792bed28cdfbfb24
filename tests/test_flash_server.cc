/**
 * @file
 * Tests for the Flash Server: in-order delivery over an out-of-order
 * flash interface, the address translation unit, and multi-interface
 * independence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "flash/flash_card.hh"
#include "flash/flash_server.hh"
#include "sim/simulator.hh"

using namespace bluedbm;
using flash::Address;
using flash::FlashCard;
using flash::FlashServer;
using flash::Geometry;
using flash::PageBuffer;
using flash::Status;
using flash::Timing;

namespace {

struct Fixture
{
    sim::Simulator sim;
    FlashCard card{sim, Geometry::tiny(), Timing::fast(), 32};
    flash::FlashSplitter::Port &port{card.splitter().addPort(32)};
    FlashServer server{sim, port, 2, 8};
};

} // namespace

TEST(FlashServer, SinglePageRead)
{
    Fixture f;
    PageBuffer got;
    f.server.readPage(0, Address{0, 0, 0, 0},
                      [&](PageBuffer data, Status st) {
        EXPECT_EQ(st, Status::Ok);
        got = std::move(data);
    });
    f.sim.run();
    EXPECT_EQ(got.size(), f.card.geometry().pageSize);
    EXPECT_EQ(got, f.card.nand().store().read(Address{0, 0, 0, 0}));
}

TEST(FlashServer, WriteThenReadBack)
{
    Fixture f;
    const auto ps = f.card.geometry().pageSize;
    bool wrote = false;
    f.server.writePage(0, Address{1, 0, 0, 0}, PageBuffer(ps, 0x3c),
                       [&](Status st) {
        EXPECT_EQ(st, Status::Ok);
        wrote = true;
    });
    f.sim.run();
    ASSERT_TRUE(wrote);

    PageBuffer got;
    f.server.readPage(0, Address{1, 0, 0, 0},
                      [&](PageBuffer data, Status) {
        got = std::move(data);
    });
    f.sim.run();
    EXPECT_EQ(got, PageBuffer(ps, 0x3c));
}

TEST(FlashServer, InOrderDeliveryDespiteOutOfOrderFlash)
{
    Fixture f;
    const Geometry &g = f.card.geometry();
    // Mix addresses so that later requests complete earlier at the
    // flash level: first page on a chip made busy by an erase.
    bool erased = false;
    f.server.eraseBlock(0, Address{0, 0, 0, 0},
                        [&](Status) { erased = true; });

    std::vector<Address> addrs;
    addrs.push_back(Address{0, 0, 1, 0}); // slow: behind the erase
    addrs.push_back(Address{1, 0, 0, 0}); // fast: idle bus
    addrs.push_back(Address{1, 1, 0, 0}); // fast: idle chip

    f.server.defineHandle(42, addrs);
    std::vector<PageBuffer> pages;
    f.server.streamRead(0, 42, 0, 3, [&](PageBuffer data, Status st) {
        EXPECT_EQ(st, Status::Ok);
        pages.push_back(std::move(data));
    });
    f.sim.run();
    ASSERT_TRUE(erased);
    ASSERT_EQ(pages.size(), 3u);
    // Delivery must match file order, not completion order.
    for (std::size_t i = 0; i < addrs.size(); ++i)
        EXPECT_EQ(pages[i], f.card.nand().store().read(addrs[i]))
            << "page " << i;
    (void)g;
}

TEST(FlashServer, StreamReadWholeHandle)
{
    Fixture f;
    const Geometry &g = f.card.geometry();
    std::vector<Address> addrs;
    for (std::uint64_t i = 0; i < 32; ++i)
        addrs.push_back(Address::fromStriped(g, i));
    f.server.defineHandle(1, addrs);

    int delivered = 0;
    f.server.streamRead(0, 1, 0, 32,
                        [&](PageBuffer, Status) { ++delivered; });
    f.sim.run();
    EXPECT_EQ(delivered, 32);
}

TEST(FlashServer, StreamReadSubRange)
{
    Fixture f;
    const Geometry &g = f.card.geometry();
    std::vector<Address> addrs;
    for (std::uint64_t i = 0; i < 16; ++i)
        addrs.push_back(Address::fromStriped(g, i));
    f.server.defineHandle(2, addrs);

    std::vector<PageBuffer> pages;
    f.server.streamRead(0, 2, 4, 3, [&](PageBuffer data, Status) {
        pages.push_back(std::move(data));
    });
    f.sim.run();
    ASSERT_EQ(pages.size(), 3u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(pages[i],
                  f.card.nand().store().read(addrs[4 + i]));
}

TEST(FlashServer, AtuDefineDropReplace)
{
    Fixture f;
    std::vector<Address> a1{Address{0, 0, 0, 0}};
    std::vector<Address> a2{Address{1, 0, 0, 0}, Address{1, 1, 0, 0}};
    f.server.defineHandle(9, a1);
    ASSERT_NE(f.server.handlePages(9), nullptr);
    EXPECT_EQ(f.server.handlePages(9)->size(), 1u);
    f.server.defineHandle(9, a2); // replace
    EXPECT_EQ(f.server.handlePages(9)->size(), 2u);
    f.server.dropHandle(9);
    EXPECT_EQ(f.server.handlePages(9), nullptr);
}

TEST(FlashServer, InterfacesAreIndependentlyOrdered)
{
    Fixture f;
    const Geometry &g = f.card.geometry();
    std::vector<int> events; // 0/1 per interface completion
    std::vector<Address> addrs0, addrs1;
    for (std::uint64_t i = 0; i < 8; ++i) {
        addrs0.push_back(Address::fromStriped(g, i));
        addrs1.push_back(Address::fromStriped(g, 8 + i));
    }
    f.server.defineHandle(0, addrs0);
    f.server.defineHandle(1, addrs1);
    int done0 = 0, done1 = 0;
    f.server.streamRead(0, 0, 0, 8,
                        [&](PageBuffer, Status) { ++done0; });
    f.server.streamRead(1, 1, 0, 8,
                        [&](PageBuffer, Status) { ++done1; });
    f.sim.run();
    EXPECT_EQ(done0, 8);
    EXPECT_EQ(done1, 8);
}

TEST(FlashServer, BackPressureRespectsQueueDepth)
{
    // Queue depth 8: even with 100 pages requested, at most 8 port
    // tags may be busy at any instant. We check it indirectly: the
    // run completes and in-order delivery holds.
    Fixture f;
    const Geometry &g = f.card.geometry();
    std::vector<Address> addrs;
    for (std::uint64_t i = 0; i < 100; ++i)
        addrs.push_back(Address::fromStriped(g, i % g.pages()));
    f.server.defineHandle(3, addrs);
    int count = 0;
    f.server.streamRead(0, 3, 0, 100,
                        [&](PageBuffer, Status) { ++count; });
    f.sim.run();
    EXPECT_EQ(count, 100);
}

TEST(FlashServerDeath, UnknownHandleIsFatal)
{
    Fixture f;
    EXPECT_DEATH(f.server.streamRead(0, 12345, 0, 1,
                                     [](PageBuffer, Status) {}),
                 "undefined handle");
}

TEST(FlashServerDeath, RangePastEndIsFatal)
{
    Fixture f;
    f.server.defineHandle(1, {Address{0, 0, 0, 0}});
    EXPECT_DEATH(f.server.streamRead(0, 1, 0, 2,
                                     [](PageBuffer, Status) {}),
                 "past end");
}

TEST(FlashServer, InjectedWriteFaultLeavesPageUntouched)
{
    Fixture f;
    const auto ps = f.card.geometry().pageSize;
    const Address addr{1, 0, 1, 0};
    PageBuffer before = f.card.nand().store().read(addr);

    // The armed hook fails the program before it reaches the card:
    // the completion reports failure, in order, and the NAND
    // contents are unchanged.
    f.server.setWriteFault(
        [&](const Address &a) { return a.block == addr.block; });
    Status got = Status::Ok;
    f.server.writePage(0, addr, PageBuffer(ps, 0x5d),
                       [&](Status st) { got = st; });
    f.sim.run();
    EXPECT_NE(got, Status::Ok);
    EXPECT_EQ(f.server.injectedWriteFaults(), 1u);
    EXPECT_EQ(f.card.nand().store().read(addr), before);

    // Unarmed addresses (and the hook removed) program normally.
    f.server.setWriteFault(nullptr);
    f.server.writePage(0, addr, PageBuffer(ps, 0x5d),
                       [&](Status st) { got = st; });
    f.sim.run();
    EXPECT_EQ(got, Status::Ok);
    EXPECT_EQ(f.card.nand().store().read(addr),
              PageBuffer(ps, 0x5d));
}

TEST(FlashServer, QueueLengthTracksPendingAndInFlight)
{
    Fixture f;
    EXPECT_EQ(f.server.queueLength(0), 0u);
    int done = 0;
    for (int i = 0; i < 12; ++i) {
        f.server.readPage(0, Address{0, 0, 0, std::uint32_t(i)},
                          [&](PageBuffer, Status) { ++done; });
    }
    // Depth is 8: eight in flight, four still pending.
    EXPECT_EQ(f.server.queueLength(0), 12u);
    EXPECT_EQ(f.server.queueLength(1), 0u);
    f.sim.run();
    EXPECT_EQ(done, 12);
    EXPECT_EQ(f.server.queueLength(0), 0u);
}

TEST(FlashServer, ReadsDeliverIndependentlyOfSlowWrites)
{
    // Completion delivery is in order PER TRAFFIC CLASS: a read
    // issued after a write must not wait in the reorder buffer for
    // the (much slower) program's completion slot -- that would
    // throw away everything read-priority suspension wins at the
    // NAND.
    Fixture f;
    const auto ps = f.card.geometry().pageSize;
    sim::Tick write_done = 0, read_done = 0;
    f.server.writePage(0, Address{0, 0, 0, 0}, PageBuffer(ps, 0x11),
                       [&](Status) { write_done = f.sim.now(); });
    f.server.readPage(0, Address{1, 0, 0, 0},
                      [&](PageBuffer, Status) {
        read_done = f.sim.now();
    });
    f.sim.run();
    ASSERT_NE(write_done, 0u);
    ASSERT_NE(read_done, 0u);
    EXPECT_LT(read_done, write_done);
}

TEST(FlashServer, PartialReadOutDeliversRange)
{
    Fixture f;
    const auto ps = f.card.geometry().pageSize;
    const Address addr{1, 1, 0, 0};
    bool wrote = false;
    PageBuffer data(ps);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i ^ 0x41);
    f.server.writePage(0, addr, data, [&](Status) { wrote = true; });
    f.sim.run();
    ASSERT_TRUE(wrote);

    PageBuffer got;
    f.server.readPage(0, addr,
                      [&](PageBuffer range, Status st) {
        EXPECT_EQ(st, Status::Ok);
        got = std::move(range);
    },
                      flash::Priority::Read, 37, 200);
    f.sim.run();
    ASSERT_EQ(got.size(), 200u);
    EXPECT_TRUE(std::equal(got.begin(), got.end(),
                           data.begin() + 37));
}

// ---------------------------------------------------------------- //
// Program coalescing (write combining)
// ---------------------------------------------------------------- //

namespace {

/**
 * Issue @p writes page programs to consecutive pages of one chip
 * through one interface and return the tick of the last completion.
 * With @p batch enabled the writes behind the first should flush as
 * a command group and share program windows.
 */
sim::Tick
runChipWrites(bool batch, unsigned writes,
              std::uint64_t *coalesced = nullptr,
              std::uint64_t *batched = nullptr)
{
    sim::Simulator sim;
    FlashCard card{sim, Geometry::tiny(), Timing::fast(), 32};
    auto &port = card.splitter().addPort(32);
    FlashServer server{sim, port, 2, 8};
    if (batch)
        server.enableWriteBatching(0, 4, sim::usToTicks(50));

    const auto ps = card.geometry().pageSize;
    unsigned done = 0;
    for (unsigned i = 0; i < writes; ++i) {
        // Same bus, same chip: the collision case coalescing exists
        // for (different buses already program in parallel).
        server.writePage(0, Address{0, 0, 0, i},
                         PageBuffer(ps, std::uint8_t(i)),
                         [&](Status st) {
            EXPECT_EQ(st, Status::Ok);
            ++done;
        });
    }
    sim.run();
    EXPECT_EQ(done, writes);
    if (coalesced)
        *coalesced = card.nand().coalescedPrograms();
    if (batched)
        *batched = server.batchedWrites();
    // Data must land correctly despite the shared program windows.
    for (unsigned i = 0; i < writes; ++i) {
        EXPECT_EQ(card.nand().store().read(Address{0, 0, 0, i}),
                  PageBuffer(ps, std::uint8_t(i)))
            << "page " << i;
    }
    return sim.now();
}

} // namespace

TEST(FlashServer, WriteBatchSharesProgramWindows)
{
    std::uint64_t coalesced = 0, batched = 0;
    sim::Tick with = runChipWrites(true, 6, &coalesced, &batched);
    sim::Tick without = runChipWrites(false, 6);
    // The batch behind the lead write flushed as a group...
    EXPECT_GE(batched, 2u);
    // ...and at least one program rode another's tPROG window...
    EXPECT_GE(coalesced, 1u);
    // ...which must show up as wall-clock: same-chip writes no
    // longer serialize one full program each.
    EXPECT_LT(with, without);
}

TEST(FlashServer, IdleQueueBypassesBatchWindow)
{
    // A lone write on an idle interface must not wait out the batch
    // window: identical completion time with and without batching.
    sim::Tick with = runChipWrites(true, 1);
    sim::Tick without = runChipWrites(false, 1);
    EXPECT_EQ(with, without);

    std::uint64_t batched = ~0ull;
    runChipWrites(true, 1, nullptr, &batched);
    EXPECT_EQ(batched, 0u);
}

TEST(FlashServer, BatchedWritesSurviveFaultInjection)
{
    // A write fault inside a flushed batch fails only its own page;
    // the group's other programs land.
    sim::Simulator sim;
    FlashCard card{sim, Geometry::tiny(), Timing::fast(), 32};
    auto &port = card.splitter().addPort(32);
    FlashServer server{sim, port, 2, 8};
    server.enableWriteBatching(0, 4, sim::usToTicks(50));
    server.setWriteFault(
        [](const Address &a) { return a.page == 2; });

    const auto ps = card.geometry().pageSize;
    std::vector<Status> got(4, Status::Ok);
    unsigned done = 0;
    for (unsigned i = 0; i < 4; ++i) {
        server.writePage(0, Address{0, 0, 1, i},
                         PageBuffer(ps, std::uint8_t(0xa0 + i)),
                         [&, i](Status st) {
            got[i] = st;
            ++done;
        });
    }
    sim.run();
    EXPECT_EQ(done, 4u);
    for (unsigned i = 0; i < 4; ++i) {
        if (i == 2) {
            EXPECT_NE(got[i], Status::Ok);
            continue;
        }
        EXPECT_EQ(got[i], Status::Ok) << "page " << i;
        EXPECT_EQ(card.nand().store().read(Address{0, 0, 1, i}),
                  PageBuffer(ps, std::uint8_t(0xa0 + i)));
    }
    EXPECT_EQ(server.injectedWriteFaults(), 1u);
}

TEST(FlashServer, ReadFaultDropSwallowsResponse)
{
    Fixture f;

    // The armed hook loses the completion above the flash: the
    // waiter never hears back (its timeout machinery owns
    // recovery), but the delivery slot retires so later reads on
    // the interface still flow in order.
    f.server.setReadFault([](const Address &) {
        FlashServer::ReadFaultAction act;
        act.drop = true;
        return act;
    });
    bool heard = false;
    f.server.readPage(0, Address{0, 0, 0, 0},
                      [&](PageBuffer, Status) { heard = true; });
    f.sim.run();
    EXPECT_FALSE(heard);
    EXPECT_EQ(f.server.injectedReadFaults(), 1u);

    // Disarmed, the interface serves normally again.
    f.server.setReadFault(nullptr);
    Status st = Status::Uncorrectable;
    f.server.readPage(0, Address{0, 0, 0, 0},
                      [&](PageBuffer, Status s) { st = s; });
    f.sim.run();
    EXPECT_EQ(st, Status::Ok);
    EXPECT_EQ(f.server.injectedReadFaults(), 1u);
}

TEST(FlashServer, StreamReadDropsSkipPagesButKeepOrder)
{
    Fixture f;
    const Geometry &g = f.card.geometry();
    std::vector<Address> addrs;
    for (std::uint64_t i = 0; i < 6; ++i) {
        addrs.push_back(Address::fromStriped(g, i));
        f.server.writePage(0, addrs.back(),
                           PageBuffer(g.pageSize, std::uint8_t(i + 1)),
                           [](Status st) { EXPECT_EQ(st, Status::Ok); });
    }
    f.sim.run();
    f.server.defineHandle(5, addrs);

    // Drops hit a middle page and the last page of one stream: the
    // sink hears every other page, in file order, and the stream
    // still retires with its last page.
    const Address middle = addrs[2], last = addrs[5];
    f.server.setReadFault([&](const Address &a) {
        FlashServer::ReadFaultAction act;
        act.drop = a == middle || a == last;
        return act;
    });
    std::vector<PageBuffer> pages;
    auto sink = [&](PageBuffer data, Status st) {
        EXPECT_EQ(st, Status::Ok);
        pages.push_back(std::move(data));
    };
    f.server.streamRead(0, 5, 0, 6, sink);
    f.sim.run();
    EXPECT_EQ(f.server.injectedReadFaults(), 2u);
    const std::size_t kept[] = {0, 1, 3, 4};
    ASSERT_EQ(pages.size(), std::size(kept));
    for (std::size_t i = 0; i < std::size(kept); ++i)
        EXPECT_EQ(pages[i], PageBuffer(g.pageSize,
                                       std::uint8_t(kept[i] + 1)))
            << "delivery " << i;

    // Disarmed, a second stream on the same interface delivers
    // every page.
    f.server.setReadFault(nullptr);
    pages.clear();
    f.server.streamRead(0, 5, 0, 6, sink);
    f.sim.run();
    ASSERT_EQ(pages.size(), addrs.size());
    for (std::size_t i = 0; i < addrs.size(); ++i)
        EXPECT_EQ(pages[i], PageBuffer(g.pageSize, std::uint8_t(i + 1)))
            << "page " << i;
}

TEST(FlashServer, ReadFaultDelayShiftsCompletion)
{
    Fixture f;

    // Baseline: one unfaulted read's completion time.
    sim::Tick healthy = 0;
    f.server.readPage(0, Address{0, 0, 0, 0},
                      [&](PageBuffer, Status st) {
        EXPECT_EQ(st, Status::Ok);
        healthy = f.sim.now();
    });
    f.sim.run();
    ASSERT_GT(healthy, 0u);

    // A held response: the data still arrives intact, but only
    // after the injected delay (the tag stays busy meanwhile, like
    // a wedged chip backpressuring the interface).
    const sim::Tick delay = 10 * healthy + 1;
    f.server.setReadFault([delay](const Address &) {
        FlashServer::ReadFaultAction act;
        act.delayTicks = delay;
        return act;
    });
    sim::Tick begin = f.sim.now();
    sim::Tick delayed = 0;
    PageBuffer got;
    f.server.readPage(0, Address{0, 0, 0, 0},
                      [&](PageBuffer data, Status st) {
        EXPECT_EQ(st, Status::Ok);
        got = std::move(data);
        delayed = f.sim.now();
    });
    f.sim.run();
    EXPECT_GE(delayed - begin, delay);
    EXPECT_EQ(got, f.card.nand().store().read(Address{0, 0, 0, 0}));
    EXPECT_EQ(f.server.injectedReadFaults(), 1u);
}

// ---------------------------------------------------------------- //
// Uncorrectable fault mode and the read-retry ladder
// ---------------------------------------------------------------- //

TEST(FlashServer, ReadFaultUncorrectableForcesVerdict)
{
    Fixture f;
    f.server.setReadFault([](const Address &) {
        FlashServer::ReadFaultAction act;
        act.uncorrectable = true;
        return act;
    });
    Status st = Status::Ok;
    PageBuffer got;
    f.server.readPage(0, Address{0, 0, 0, 0},
                      [&](PageBuffer data, Status s) {
        st = s;
        got = std::move(data);
    });
    f.sim.run();
    EXPECT_EQ(st, Status::Uncorrectable);
    // The bytes still arrive -- a real failed decode hands up its
    // best guess -- only the verdict is forced.
    EXPECT_EQ(got, f.card.nand().store().read(Address{0, 0, 0, 0}));
    EXPECT_EQ(f.server.injectedReadFaults(), 1u);
}

TEST(FlashServer, RetryLadderRecoversMarginalRead)
{
    Fixture f;
    f.server.setReadRetries(2);
    // Fail the first sense only: the re-sense reads clean, like a
    // marginal page under a read-retry voltage step.
    int senses = 0;
    f.server.setReadFault([&](const Address &) {
        FlashServer::ReadFaultAction act;
        act.uncorrectable = ++senses == 1;
        return act;
    });
    Status st = Status::Uncorrectable;
    f.server.readPage(0, Address{0, 0, 0, 0},
                      [&](PageBuffer, Status s) { st = s; });
    f.sim.run();
    EXPECT_EQ(st, Status::Ok);
    EXPECT_EQ(senses, 2);
    EXPECT_EQ(f.server.retriedReads(), 1u);
    EXPECT_EQ(f.server.retrySuccesses(), 1u);
    EXPECT_EQ(f.server.retryFailures(), 0u);
}

TEST(FlashServer, RetryLadderExhaustsBudgetAndReportsFailure)
{
    Fixture f;
    f.server.setReadRetries(2);
    f.server.setReadFault([](const Address &) {
        FlashServer::ReadFaultAction act;
        act.uncorrectable = true;
        return act;
    });
    Status st = Status::Ok;
    f.server.readPage(0, Address{0, 0, 0, 0},
                      [&](PageBuffer, Status s) { st = s; });
    f.sim.run();
    EXPECT_EQ(st, Status::Uncorrectable);
    // Budget of 2: three senses total, then the verdict stands.
    EXPECT_EQ(f.server.retriedReads(), 2u);
    EXPECT_EQ(f.server.retryFailures(), 1u);
    EXPECT_EQ(f.server.retrySuccesses(), 0u);

    // The ladder re-sensed on the SAME delivery slot: the
    // interface still serves later reads in order.
    f.server.setReadFault(nullptr);
    Status ok_st = Status::Uncorrectable;
    f.server.readPage(0, Address{1, 0, 0, 0},
                      [&](PageBuffer, Status s) { ok_st = s; });
    f.sim.run();
    EXPECT_EQ(ok_st, Status::Ok);
}

TEST(FlashServer, SecondFullWaveCompletesLikeTheFirst)
{
    // Two waves that each fill every tag of every interface with a
    // mix of serving reads, programs and maintenance reads. Each
    // interface delivers every stream in issue order, and the second
    // wave -- issued into recycled in-flight state -- completes in
    // the same order and at the same offsets as the first.
    sim::Simulator sim;
    const Geometry geo = Geometry::tiny();
    FlashCard card{sim, geo, Timing::fast(), 64};
    const unsigned ifcs = 4, depth = 8;
    FlashServer server{sim, card.splitter().addPort(ifcs * depth),
                       ifcs, depth};

    struct Delivery
    {
        unsigned ifc, kind, index;
        sim::Tick offset;
        Status status;
        bool operator==(const Delivery &) const = default;
    };
    // Wave w programs block 2w and reads block 2w + 1, so both waves
    // see the same chips, free and unprogrammed.
    auto wave = [&](std::uint32_t w) {
        std::vector<Delivery> log;
        const sim::Tick start = sim.now();
        unsigned writes = 0;
        for (unsigned ifc = 0; ifc < ifcs; ++ifc) {
            unsigned issued[3] = {};
            for (unsigned d = 0; d < depth; ++d) {
                const unsigned kind = (ifc + d) % 3;
                const unsigned index = issued[kind]++;
                auto record = [&log, &sim, start, ifc, kind,
                               index](Status st) {
                    log.push_back(Delivery{ifc, kind, index,
                                           sim.now() - start, st});
                };
                if (kind == 1) {
                    const unsigned n = writes++;
                    Address a{n % 2, (n / 2) % 2, 2 * w, n / 4};
                    server.writePage(ifc, a,
                                     PageBuffer(geo.pageSize,
                                                std::uint8_t(n)),
                                     record);
                    continue;
                }
                Address a{d % 2, (d / 2) % 2, 2 * w + 1, ifc};
                server.readPage(ifc, a,
                                [record](PageBuffer, Status st) {
                    record(st);
                },
                                kind == 0 ? flash::Priority::Read
                                          : flash::Priority::Background);
            }
        }
        EXPECT_EQ(server.queueLength(0), depth);
        sim.run();
        return log;
    };

    const auto first = wave(0);
    const auto second = wave(1);
    ASSERT_EQ(first.size(), std::size_t(ifcs * depth));
    EXPECT_EQ(second, first);
    unsigned next[ifcs][3] = {};
    for (const Delivery &d : first) {
        EXPECT_EQ(d.status, Status::Ok);
        EXPECT_EQ(d.index, next[d.ifc][d.kind]++)
            << "interface " << d.ifc << " stream " << d.kind;
    }
    // The second wave's last program (the 11th) landed.
    EXPECT_EQ(card.nand().store().read(Address{0, 1, 2, 2}),
              PageBuffer(geo.pageSize, std::uint8_t(10)));
}
