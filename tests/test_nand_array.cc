/**
 * @file
 * Timing and ECC tests for the NAND array model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <vector>

#include "flash/ecc.hh"
#include "flash/nand_array.hh"
#include "sim/simulator.hh"

using namespace bluedbm;
using flash::Address;
using flash::Geometry;
using flash::NandArray;
using flash::PageBuffer;
using flash::ReadResult;
using flash::Status;
using flash::Timing;
using sim::Tick;

namespace {

struct Fixture
{
    sim::Simulator sim;
    Geometry geo = Geometry::tiny();
    Timing timing = Timing::fast();
};

Tick
wireTime(const Geometry &g, const Timing &t)
{
    std::uint64_t bytes =
        g.pageSize + flash::Secded72::checkBytes(g.pageSize);
    return sim::transferTicks(bytes, t.busBytesPerSec);
}

/** Read-out ranges of a 512-byte page (offset, length; 0 = whole
 * page): an unaligned interior, the last word, the last byte, a
 * word's tail and a pair straddling two words. */
struct Range
{
    std::uint32_t off;
    std::uint32_t len;
};

const Range kRanges[] = {{0, 0}, {13, 100}, {504, 8}, {511, 1},
                         {1, 7}, {7, 2}};

} // namespace

TEST(NandArray, SingleReadLatency)
{
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing);
    Tick done_at = 0;
    nand.read(Address{0, 0, 0, 0}, [&](ReadResult res) {
        EXPECT_EQ(res.status, Status::Ok);
        EXPECT_EQ(res.data.size(), f.geo.pageSize);
        done_at = f.sim.now();
    });
    f.sim.run();
    Tick expected = f.timing.readUs + wireTime(f.geo, f.timing) +
        f.timing.controllerOverhead;
    EXPECT_EQ(done_at, expected);
    EXPECT_EQ(nand.pagesRead(), 1u);
}

TEST(NandArray, SameChipReadsSerialize)
{
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing);
    std::vector<Tick> done;
    for (int i = 0; i < 2; ++i) {
        nand.read(Address{0, 0, 0, std::uint32_t(i)},
                  [&](ReadResult) { done.push_back(f.sim.now()); });
    }
    f.sim.run();
    ASSERT_EQ(done.size(), 2u);
    // Second read's sense cannot start until the first finishes.
    EXPECT_GE(done[1] - done[0], f.timing.readUs);
}

TEST(NandArray, DifferentChipsOverlapSenseSameBusSerializesXfer)
{
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing);
    std::vector<Tick> done;
    // Two chips on the same bus: senses overlap, transfers serialize.
    nand.read(Address{0, 0, 0, 0},
              [&](ReadResult) { done.push_back(f.sim.now()); });
    nand.read(Address{0, 1, 0, 0},
              [&](ReadResult) { done.push_back(f.sim.now()); });
    f.sim.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[1] - done[0], wireTime(f.geo, f.timing));
}

TEST(NandArray, DifferentBusesFullyParallel)
{
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing);
    std::vector<Tick> done;
    nand.read(Address{0, 0, 0, 0},
              [&](ReadResult) { done.push_back(f.sim.now()); });
    nand.read(Address{1, 0, 0, 0},
              [&](ReadResult) { done.push_back(f.sim.now()); });
    f.sim.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_EQ(done[0], done[1]);
}

TEST(NandArray, WriteReadRoundTripData)
{
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing);
    PageBuffer data(f.geo.pageSize);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 3);

    bool wrote = false;
    nand.write(Address{0, 0, 0, 0}, data, [&](Status st) {
        EXPECT_EQ(st, Status::Ok);
        wrote = true;
    });
    f.sim.run();
    ASSERT_TRUE(wrote);

    PageBuffer got;
    nand.read(Address{0, 0, 0, 0},
              [&](ReadResult res) { got = std::move(res.data); });
    f.sim.run();
    EXPECT_EQ(got, data);
}

TEST(NandArray, WriteTimingIncludesProgram)
{
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing);
    Tick done_at = 0;
    nand.write(Address{0, 0, 0, 0}, PageBuffer(f.geo.pageSize, 1),
               [&](Status) { done_at = f.sim.now(); });
    f.sim.run();
    Tick expected = wireTime(f.geo, f.timing) + f.timing.programUs +
        f.timing.controllerOverhead;
    EXPECT_EQ(done_at, expected);
}

TEST(NandArray, EraseTimingAndEffect)
{
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing);
    nand.write(Address{0, 0, 2, 0}, PageBuffer(f.geo.pageSize, 1),
               [](Status) {});
    f.sim.run();

    Tick start = f.sim.now();
    Tick done_at = 0;
    nand.erase(Address{0, 0, 2, 0}, [&](Status st) {
        EXPECT_EQ(st, Status::Ok);
        done_at = f.sim.now();
    });
    f.sim.run();
    EXPECT_EQ(done_at - start,
              f.timing.eraseUs + f.timing.controllerOverhead);
    EXPECT_FALSE(nand.store().isProgrammed(Address{0, 0, 2, 0}));
    EXPECT_EQ(nand.blocksErased(), 1u);
}

TEST(NandArray, EnoughChipsInFlightSaturateBusBandwidth)
{
    // Keeping many reads in flight on one bus must achieve the bus's
    // configured rate (the paper: "multiple commands must be in-flight
    // ... to saturate the bandwidth"). tR/transfer ~ 9 here, so 16
    // chips provide enough overlap.
    sim::Simulator sim;
    Geometry geo = Geometry::tiny();
    geo.buses = 1;
    geo.chipsPerBus = 16;
    Timing timing = Timing::fast();
    NandArray nand(sim, geo, timing);
    const int reads = 256;
    int done = 0;
    Tick last = 0;
    for (int i = 0; i < reads; ++i) {
        Address a{0, std::uint32_t(i % geo.chipsPerBus),
                  std::uint32_t((i / geo.chipsPerBus) % 8),
                  std::uint32_t(i % 16)};
        nand.read(a, [&](ReadResult) {
            ++done;
            last = sim.now();
        });
    }
    sim.run();
    ASSERT_EQ(done, reads);
    std::uint64_t wire_bytes = std::uint64_t(reads) *
        (geo.pageSize + flash::Secded72::checkBytes(geo.pageSize));
    double rate = sim::bytesPerSec(wire_bytes, last);
    EXPECT_GT(rate, timing.busBytesPerSec * 0.9);
}

TEST(NandArray, TooFewChipsCannotSaturateBus)
{
    // Counter-property: with 2 chips and tR >> transfer, the bus
    // cannot be kept busy; achieved rate is chip-limited.
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing);
    const int reads = 64;
    int done = 0;
    Tick last = 0;
    for (int i = 0; i < reads; ++i) {
        Address a{0, std::uint32_t(i % f.geo.chipsPerBus),
                  std::uint32_t(i / 16), std::uint32_t(i % 16)};
        nand.read(a, [&](ReadResult) {
            ++done;
            last = f.sim.now();
        });
    }
    f.sim.run();
    ASSERT_EQ(done, reads);
    std::uint64_t wire = f.geo.pageSize +
        flash::Secded72::checkBytes(f.geo.pageSize);
    double rate = sim::bytesPerSec(std::uint64_t(reads) * wire, last);
    // Chip-limited bound: chips * wire / tR.
    double chip_bound = 2.0 * static_cast<double>(wire) /
        sim::ticksToSec(f.timing.readUs);
    EXPECT_LT(rate, chip_bound * 1.05);
    EXPECT_GT(rate, chip_bound * 0.85);
}

TEST(NandArray, ErrorInjectionGetsCorrected)
{
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing, 77);
    // ~1e-5 BER over (512+64)*8 = 4608 bits => ~0.046 flips/page;
    // over 2000 reads expect ~90 corrected pages, ~0 uncorrectable.
    nand.setBitErrorRate(1e-5);
    int corrected_pages = 0, uncorrectable = 0, clean = 0;
    for (int i = 0; i < 2000; ++i) {
        Address a = Address::fromLinear(
            f.geo, std::uint64_t(i) % f.geo.pages());
        nand.read(a, [&](ReadResult res) {
            switch (res.status) {
              case Status::Ok: ++clean; break;
              case Status::Corrected: ++corrected_pages; break;
              case Status::Uncorrectable: ++uncorrectable; break;
              default: FAIL();
            }
        });
    }
    f.sim.run();
    EXPECT_GT(corrected_pages, 20);
    // A page may hold several corrected bits (one per word), so the
    // bit count dominates the page count.
    EXPECT_GE(static_cast<int>(nand.bitsCorrected()),
              corrected_pages);
    EXPECT_LE(uncorrectable, 2);
    EXPECT_GT(clean, 1000);
}

TEST(NandArray, CorrectedDataMatchesOriginal)
{
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing, 33);
    PageBuffer data(f.geo.pageSize, 0x5a);
    nand.write(Address{0, 0, 0, 0}, data, [](Status) {});
    f.sim.run();

    nand.setBitErrorRate(5e-5);
    int checked = 0;
    for (int i = 0; i < 200; ++i) {
        nand.read(Address{0, 0, 0, 0}, [&](ReadResult res) {
            if (res.status != Status::Uncorrectable) {
                EXPECT_EQ(res.data, data);
                ++checked;
            }
        });
        f.sim.run();
    }
    EXPECT_GT(checked, 150);
}

TEST(NandArray, AlwaysDecodeVerifiesCleanPages)
{
    // A clean page decodes Ok, whole or sliced, programmed, short
    // programmed or never programmed. Each slice's check bytes must
    // be those of exactly the words it covers: one word off, and a
    // position-dependent page decodes as corrupt (a uniform page
    // cannot tell words apart).
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing);
    const Address programmed{0, 0, 0, 0};
    const Address synthetic{1, 1, 3, 5};
    // 50 bytes end inside a word: the ranges fall inside them
    // ((1, 7), (7, 2)), straddle their end ((13, 100)) and lie past
    // it ((504, 8), (511, 1)).
    const Address short_page{0, 1, 2, 0};
    PageBuffer data(f.geo.pageSize);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7 + 3);
    PageBuffer head(data.begin(), data.begin() + 50);
    nand.write(programmed, data, [](Status) {});
    nand.write(short_page, head, [](Status) {});
    f.sim.run();
    nand.setAlwaysDecode(true);

    for (const Address &a : {programmed, synthetic, short_page}) {
        PageBuffer page = nand.store().read(a);
        if (a == programmed) {
            ASSERT_EQ(page, data);
        }
        if (a == short_page) {
            PageBuffer padded = head;
            padded.resize(f.geo.pageSize, 0);
            ASSERT_EQ(page, padded);
        }
        for (const Range &r : kRanges) {
            std::uint32_t len = r.len == 0 ? f.geo.pageSize : r.len;
            ReadResult got;
            got.status = Status::Uncorrectable;
            nand.read(a, [&](ReadResult res) { got = std::move(res); },
                      flash::Priority::Read, r.off, r.len);
            f.sim.run();
            EXPECT_EQ(got.status, Status::Ok)
                << a.toString() << " @" << r.off << "+" << len;
            EXPECT_EQ(got.data,
                      PageBuffer(page.begin() + r.off,
                                 page.begin() + r.off + len))
                << a.toString() << " @" << r.off << "+" << len;
        }
    }
    EXPECT_EQ(nand.bitsCorrected(), 0u);
    EXPECT_EQ(nand.uncorrectablePages(), 0u);
}

// ---------------------------------------------------------------- //
// Stale-sense ordering and error-injection fidelity
// ---------------------------------------------------------------- //

TEST(NandArray, ReadBehindProgramToSamePageSeesNewBytes)
{
    // Regression: the read used to snapshot page contents at ISSUE
    // time; queued behind an in-flight program to the same page, it
    // returned pre-program bytes even though its sense was ordered
    // after the program completed. With suspension disabled the
    // read queues FIFO behind the program -- exactly the buggy
    // schedule -- and must observe the programmed data.
    Fixture f;
    f.timing.maxSuspendsPerOp = 0;
    NandArray nand(f.sim, f.geo, f.timing);
    const Address addr{0, 0, 0, 0};
    PageBuffer data(f.geo.pageSize, 0x7e);
    nand.write(addr, data, [](Status st) {
        EXPECT_EQ(st, Status::Ok);
    });
    // Mid-program: the chip is busy; the read's sense lands after
    // the program's array time ends.
    PageBuffer got;
    f.sim.scheduleAt(f.timing.programUs / 2, [&]() {
        ASSERT_GT(nand.chipBusyUntil(0, 0), f.sim.now());
        nand.read(addr,
                  [&](ReadResult res) { got = std::move(res.data); });
    });
    f.sim.run();
    EXPECT_EQ(got, data);
}

TEST(NandArray, SuspendedReadObservesPreProgramBytes)
{
    // The flip side: a read that SUSPENDS the program senses before
    // the cells were programmed, so it returns the old contents --
    // physically what a real suspended program yields.
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing);
    const Address addr{0, 0, 0, 0};
    PageBuffer before = nand.store().read(addr);
    PageBuffer data(f.geo.pageSize, 0x7e);
    nand.write(addr, data, [](Status) {});
    PageBuffer got;
    f.sim.scheduleAt(f.timing.programUs / 2, [&]() {
        nand.read(addr,
                  [&](ReadResult res) { got = std::move(res.data); });
    });
    f.sim.run();
    EXPECT_EQ(nand.suspendedPrograms(), 1u);
    EXPECT_EQ(got, before);
    // The program itself still completed with the new bytes.
    EXPECT_EQ(nand.store().read(addr), data);
}

TEST(NandArray, HighBerInjectsFullPoissonTail)
{
    // The injector used to cap flips at 64 per page, silently
    // truncating the Poisson tail at stress BERs. At 2e-2 the page
    // expects (512 + 64) * 8 * 0.02 = ~92 flips -- past the old cap
    // -- and the injected-bit stat must average accordingly.
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing, 123);
    nand.setBitErrorRate(2e-2);
    const int reads = 200;
    int done = 0;
    for (int i = 0; i < reads; ++i) {
        Address a = Address::fromLinear(
            f.geo, std::uint64_t(i) % f.geo.pages());
        nand.read(a, [&](ReadResult) { ++done; });
    }
    f.sim.run();
    ASSERT_EQ(done, reads);
    double mean = double(nand.bitsInjected()) / reads;
    EXPECT_GT(mean, 80.0);
    EXPECT_LT(mean, 105.0);
}

TEST(NandArrayDeath, BerBeyondModelRangePanics)
{
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing);
    nand.setBitErrorRate(0.5);
    nand.read(Address{0, 0, 0, 0}, [](ReadResult) {});
    EXPECT_DEATH(f.sim.run(), "outside the error model");
}

// ---------------------------------------------------------------- //
// Program/erase suspend-resume
// ---------------------------------------------------------------- //

TEST(NandArray, ReadSuspendsProgramAndBothAccountExactly)
{
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing);
    const Tick wire = wireTime(f.geo, f.timing);
    Tick write_done = 0, read_done = 0;
    nand.write(Address{0, 0, 0, 0}, PageBuffer(f.geo.pageSize, 1),
               [&](Status st) {
        EXPECT_EQ(st, Status::Ok);
        write_done = f.sim.now();
    });
    const Tick issue = wire + f.timing.programUs / 2;
    f.sim.scheduleAt(issue, [&]() {
        nand.read(Address{0, 0, 0, 1},
                  [&](ReadResult) { read_done = f.sim.now(); });
    });
    f.sim.run();
    // The read pays suspend latency + its own sense + wire + pipe.
    EXPECT_EQ(read_done, issue + f.timing.suspendUs +
                  f.timing.readUs + wire +
                  f.timing.controllerOverhead);
    // The program pays exactly the inserted delay on top of its
    // undisturbed completion: total program time never shrinks.
    const Tick inserted = f.timing.suspendUs + f.timing.readUs +
        f.timing.resumeUs;
    EXPECT_EQ(write_done, wire + f.timing.programUs + inserted +
                  f.timing.controllerOverhead);
    EXPECT_EQ(nand.suspendedPrograms(), 1u);
    EXPECT_EQ(nand.resumedPrograms(), 1u);
}

TEST(NandArray, BackgroundReadNeverSuspends)
{
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing);
    const Tick wire = wireTime(f.geo, f.timing);
    nand.write(Address{0, 0, 0, 0}, PageBuffer(f.geo.pageSize, 1),
               [](Status) {});
    Tick read_done = 0;
    const Tick issue = wire + f.timing.programUs / 2;
    f.sim.scheduleAt(issue, [&]() {
        nand.read(Address{0, 0, 0, 1},
                  [&](ReadResult) { read_done = f.sim.now(); },
                  flash::Priority::Background);
    });
    f.sim.run();
    // FIFO: the sense waits out the program.
    EXPECT_EQ(read_done, wire + f.timing.programUs +
                  f.timing.readUs + wire +
                  f.timing.controllerOverhead);
    EXPECT_EQ(nand.suspendedPrograms(), 0u);
    EXPECT_EQ(nand.backgroundReads(), 1u);
}

TEST(NandArray, SuspendBudgetExhaustionFallsBackToFifo)
{
    Fixture f;
    f.timing.maxSuspendsPerOp = 1;
    NandArray nand(f.sim, f.geo, f.timing);
    const Tick wire = wireTime(f.geo, f.timing);
    Tick write_done = 0;
    nand.write(Address{0, 0, 0, 0}, PageBuffer(f.geo.pageSize, 1),
               [&](Status) { write_done = f.sim.now(); });
    Tick read1_done = 0, read2_done = 0;
    const Tick issue = wire + f.timing.programUs / 4;
    f.sim.scheduleAt(issue, [&]() {
        nand.read(Address{0, 0, 0, 1},
                  [&](ReadResult) { read1_done = f.sim.now(); });
        // Second read while the window is open: the program's
        // budget (1) is spent, so it queues FIFO behind the
        // resumed program.
        nand.read(Address{0, 0, 0, 2},
                  [&](ReadResult) { read2_done = f.sim.now(); });
    });
    f.sim.run();
    EXPECT_EQ(nand.suspendedPrograms(), 1u);
    EXPECT_LT(read1_done, write_done);
    // The second read completes only after the resumed program's
    // array work ended (write_done includes the controller pipe).
    EXPECT_GT(read2_done, write_done - f.timing.controllerOverhead);
}

TEST(NandArray, CoalescedWindowSuspendsAsUnit)
{
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing);
    const Tick wire = wireTime(f.geo, f.timing);
    // Two grouped writes share a program window on one chip.
    std::vector<Tick> write_done;
    for (unsigned i = 0; i < 2; ++i) {
        nand.write(Address{0, 0, 0, i},
                   PageBuffer(f.geo.pageSize, std::uint8_t(i + 1)),
                   [&](Status st) {
            EXPECT_EQ(st, Status::Ok);
            write_done.push_back(f.sim.now());
        },
                   7);
    }
    Tick read_done = 0;
    const Tick issue = 2 * wire + f.timing.programUs / 2;
    f.sim.scheduleAt(issue, [&]() {
        nand.read(Address{0, 0, 0, 3},
                  [&](ReadResult) { read_done = f.sim.now(); });
    });
    f.sim.run();
    ASSERT_EQ(write_done.size(), 2u);
    EXPECT_EQ(nand.coalescedPrograms(), 1u);
    EXPECT_EQ(nand.suspendedPrograms(), 1u);
    EXPECT_EQ(nand.resumedPrograms(), 1u);
    const Tick inserted = f.timing.suspendUs + f.timing.readUs +
        f.timing.resumeUs;
    // Both window pages shift by exactly the one inserted delay:
    // the window parks and resumes as a unit, and each page still
    // pays its full tPROG from data arrival.
    EXPECT_EQ(write_done[0], wire + f.timing.programUs + inserted +
                  f.timing.controllerOverhead);
    EXPECT_EQ(write_done[1], 2 * wire + f.timing.programUs +
                  inserted + f.timing.controllerOverhead);
    EXPECT_LT(read_done, write_done[0]);
    // Data landed despite the shared, suspended window.
    for (unsigned i = 0; i < 2; ++i)
        EXPECT_EQ(nand.store().read(Address{0, 0, 0, i}),
                  PageBuffer(f.geo.pageSize, std::uint8_t(i + 1)));
}

TEST(NandArray, EraseSuspension)
{
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing);
    nand.write(Address{0, 0, 2, 0}, PageBuffer(f.geo.pageSize, 1),
               [](Status) {});
    f.sim.run();
    Tick base = f.sim.now();
    Tick erase_done = 0, read_done = 0;
    nand.erase(Address{0, 0, 2, 0}, [&](Status st) {
        EXPECT_EQ(st, Status::Ok);
        erase_done = f.sim.now();
    });
    const Tick issue = base + f.timing.eraseUs / 2;
    f.sim.scheduleAt(issue, [&]() {
        nand.read(Address{0, 0, 0, 0},
                  [&](ReadResult) { read_done = f.sim.now(); });
    });
    f.sim.run();
    const Tick inserted = f.timing.suspendUs + f.timing.readUs +
        f.timing.resumeUs;
    EXPECT_EQ(erase_done, base + f.timing.eraseUs + inserted +
                  f.timing.controllerOverhead);
    EXPECT_EQ(read_done, issue + f.timing.suspendUs +
                  f.timing.readUs + wireTime(f.geo, f.timing) +
                  f.timing.controllerOverhead);
    EXPECT_EQ(nand.suspendedErases(), 1u);
    EXPECT_EQ(nand.resumedErases(), 1u);
    EXPECT_EQ(nand.suspendedPrograms(), 0u);
    EXPECT_EQ(nand.backgroundErases(), 1u);
    EXPECT_FALSE(nand.store().isProgrammed(Address{0, 0, 2, 0}));
}

TEST(NandArray, PriorityReadJumpsQueuedProgram)
{
    // A read arriving while a SENSE runs cannot suspend it, but a
    // program queued behind that sense has not started: the read
    // inserts before it (queue reordering, no suspend penalty) and
    // the program is displaced by one sense, charged against the
    // same yield budget.
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing);
    const Tick wire = wireTime(f.geo, f.timing);
    Tick read0_done = 0, write_done = 0, read1_done = 0;
    nand.read(Address{0, 0, 0, 0},
              [&](ReadResult) { read0_done = f.sim.now(); });
    nand.write(Address{0, 0, 0, 1}, PageBuffer(f.geo.pageSize, 1),
               [&](Status) { write_done = f.sim.now(); });
    // During the running sense, with the program queued behind it.
    f.sim.scheduleAt(f.timing.readUs / 2, [&]() {
        nand.read(Address{0, 0, 0, 2},
                  [&](ReadResult) { read1_done = f.sim.now(); });
    });
    f.sim.run();
    EXPECT_EQ(nand.displacedPrograms(), 1u);
    EXPECT_EQ(nand.suspendedPrograms(), 0u);
    // The priority read senses right after the running sense,
    // before the program.
    EXPECT_EQ(read1_done, 2 * f.timing.readUs + wire +
                  f.timing.controllerOverhead);
    // The program starts one sense later than it would have.
    EXPECT_EQ(write_done, 2 * f.timing.readUs + f.timing.programUs +
                  f.timing.controllerOverhead);
    EXPECT_LT(read0_done, read1_done);
}

TEST(NandArray, BusBusyUntilTracksCurrentTransfer)
{
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing);
    EXPECT_EQ(nand.busBusyUntil(0), 0u);
    nand.read(Address{0, 0, 0, 0}, [](ReadResult) {});
    f.sim.runUntil(f.timing.readUs);
    EXPECT_EQ(nand.queuedTransfers(0), 0u);
    f.sim.run();
    // The last transfer's end is still recorded.
    EXPECT_EQ(nand.busBusyUntil(0),
              f.timing.readUs + wireTime(f.geo, f.timing));
}

TEST(NandArray, PartialReadOutTransfersOnlyCoveredWords)
{
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing);
    PageBuffer data(f.geo.pageSize);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7 + 3);
    nand.write(Address{0, 0, 0, 0}, data, [](Status) {});
    f.sim.run();

    // An unaligned 100-byte range: data must match exactly and the
    // completion must only pay the covered words' wire time.
    const std::uint32_t off = 13, len = 100;
    Tick start = f.sim.now();
    Tick done_at = 0;
    PageBuffer got;
    nand.read(Address{0, 0, 0, 0},
              [&](ReadResult res) {
        got = std::move(res.data);
        done_at = f.sim.now();
    },
              flash::Priority::Read, off, len);
    f.sim.run();
    ASSERT_EQ(got.size(), len);
    EXPECT_TRUE(std::equal(got.begin(), got.end(),
                           data.begin() + off));
    std::uint32_t words = (off + len + 7) / 8 - off / 8;
    Tick wire = sim::transferTicks(words * 9ull,
                                   f.timing.busBytesPerSec);
    EXPECT_EQ(done_at - start, f.timing.readUs + wire +
                  f.timing.controllerOverhead);
}

// ---------------------------------------------------------------- //
// Wear-driven bit errors
// ---------------------------------------------------------------- //

TEST(NandArray, WearModelFollowsEraseCountCurve)
{
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing);
    const Address a{0, 0, 0, 0};
    // Off by default: fresh-flash figures are untouched.
    EXPECT_EQ(nand.effectiveBitErrorRate(a), 0.0);

    nand.setBitErrorRate(1e-6);
    nand.setWearModel(2e-5, 1000, 2.5);
    // At zero erases the wear term is exactly ber0 ...
    EXPECT_DOUBLE_EQ(nand.effectiveBitErrorRate(a), 1e-6 + 2e-5);
    // ... at the knee it doubles ...
    nand.store().addWear(a, 1000);
    EXPECT_DOUBLE_EQ(nand.effectiveBitErrorRate(a),
                     1e-6 + 2 * 2e-5);
    // ... and past it the power law dominates.
    nand.store().addWear(a, 1400);
    EXPECT_DOUBLE_EQ(nand.effectiveBitErrorRate(a),
                     1e-6 + 2e-5 * (1.0 + std::pow(2.4, 2.5)));
    // Wear is per block: a neighbor of the same chip is unaged.
    EXPECT_DOUBLE_EQ(nand.effectiveBitErrorRate(Address{0, 0, 1, 0}),
                     1e-6 + 2e-5);
}

TEST(NandArray, WearRaisesDecodeFailuresMonotonically)
{
    // SECDED oracle: at each wear level the decoder's verdicts are
    // the ground truth, and non-Ok verdicts (Corrected +
    // Uncorrectable) must climb with the raw BER the wear curve
    // injects. Expected flips/page at 4608 wire bits: fresh
    // ~0.09, knee ~0.18, 2600 erases ~1.1.
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing, 11);
    nand.setWearModel(2e-5, 1000, 2.5);
    const Address fresh{0, 0, 0, 0};
    const Address knee{0, 0, 1, 0};
    const Address aged{0, 0, 2, 0};
    nand.store().addWear(knee, 1000);
    nand.store().addWear(aged, 2600);

    auto decode_errors = [&](const Address &blk) {
        int errs = 0;
        const int reads = 400;
        for (int i = 0; i < reads; ++i) {
            Address p = blk;
            p.page = std::uint32_t(i) % f.geo.pagesPerBlock;
            nand.read(p, [&](ReadResult res) {
                if (res.status != Status::Ok)
                    ++errs;
            });
        }
        f.sim.run();
        return errs;
    };
    int e_fresh = decode_errors(fresh);
    int e_knee = decode_errors(knee);
    int e_aged = decode_errors(aged);
    EXPECT_LT(e_fresh, e_knee);
    EXPECT_LT(e_knee, e_aged);
    // The aged block is past the ECC's comfort zone: a solid
    // majority of its pages take at least one flip per sense.
    EXPECT_GT(e_aged, 150);
}

TEST(NandArray, PartialReadOutSurvivesErrorInjection)
{
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing, 55);
    PageBuffer data(f.geo.pageSize, 0xc3);
    nand.write(Address{0, 0, 0, 0}, data, [](Status) {});
    f.sim.run();
    nand.setBitErrorRate(5e-5);
    int checked = 0;
    for (int i = 0; i < 100; ++i) {
        nand.read(Address{0, 0, 0, 0},
                  [&](ReadResult res) {
            if (res.status != Status::Uncorrectable) {
                ASSERT_EQ(res.data.size(), 64u);
                EXPECT_EQ(res.data, PageBuffer(64, 0xc3));
                ++checked;
            }
        },
                  flash::Priority::Read, 128, 64);
        f.sim.run();
    }
    EXPECT_GT(checked, 80);
}

TEST(NandArray, SeededErrorInjectionIsPinned)
{
    // Exact counts for one seed: a mixed stream of full and partial
    // reads over programmed and never-programmed pages. The flips a
    // read draws depend only on its wire size and the seed, so any
    // change to how check bytes are produced must keep every number
    // here.
    Fixture f;
    NandArray nand(f.sim, f.geo, f.timing, 4242);
    for (std::uint32_t p = 0; p < 8; ++p) {
        PageBuffer data(f.geo.pageSize);
        for (std::size_t i = 0; i < data.size(); ++i)
            data[i] = static_cast<std::uint8_t>(i * 7 + 3 + p * 31);
        nand.write(Address{0, 0, 0, p}, data, [](Status) {});
    }
    f.sim.run();
    nand.setBitErrorRate(5e-5);

    std::uint64_t byte_sum = 0, bytes = 0;
    int corrected = 0, uncorrectable = 0;
    for (std::uint32_t i = 0; i < 40000; ++i) {
        // Even reads hit the programmed block, odd ones synthetic
        // pages spread over every chip.
        Address a = i % 2 == 0
            ? Address{0, 0, 0, (i / 2) % 8}
            : Address::fromLinear(f.geo,
                                  f.geo.pagesPerBlock + (i * 13) %
                                      (f.geo.pages() -
                                       f.geo.pagesPerBlock));
        const Range &r = kRanges[i % std::size(kRanges)];
        nand.read(a, [&](ReadResult res) {
            for (std::uint8_t b : res.data)
                byte_sum += b;
            bytes += res.data.size();
            corrected += res.status == Status::Corrected;
            uncorrectable += res.status == Status::Uncorrectable;
        },
                  flash::Priority::Read, r.off, r.len);
        if (i % 16 == 15)
            f.sim.run();
    }
    f.sim.run();
    EXPECT_EQ(bytes, 4200201u);
    EXPECT_EQ(byte_sum, 535851027u);
    EXPECT_EQ(nand.bitsInjected(), 1950u);
    EXPECT_EQ(nand.bitsCorrected(), 1940u);
    EXPECT_EQ(corrected, 1793);
    EXPECT_EQ(uncorrectable, 5);
    EXPECT_EQ(nand.uncorrectablePages(), 5u);
}
