/**
 * @file
 * Unit tests for the sparse NAND page store.
 */

#include <gtest/gtest.h>

#include <map>

#include "flash/page_store.hh"
#include "sim/random.hh"

using namespace bluedbm;
using flash::Address;
using flash::Geometry;
using flash::PageBuffer;
using flash::PageStore;
using flash::Status;

namespace {

PageBuffer
pattern(const Geometry &g, std::uint8_t seed)
{
    PageBuffer data(g.pageSize);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(seed + i);
    return data;
}

} // namespace

TEST(PageStore, ProgramReadRoundTrip)
{
    Geometry g = Geometry::tiny();
    PageStore store(g);
    Address a{0, 1, 2, 3};
    PageBuffer data = pattern(g, 7);
    EXPECT_EQ(store.program(a, data), Status::Ok);
    EXPECT_EQ(store.read(a), data);
    EXPECT_TRUE(store.isProgrammed(a));
}

TEST(PageStore, ReprogramWithoutEraseIsIllegal)
{
    Geometry g = Geometry::tiny();
    PageStore store(g);
    Address a{0, 0, 0, 0};
    EXPECT_EQ(store.program(a, pattern(g, 1)), Status::Ok);
    EXPECT_EQ(store.program(a, pattern(g, 2)), Status::IllegalWrite);
    // Original data still intact.
    EXPECT_EQ(store.read(a), pattern(g, 1));
}

TEST(PageStore, EraseEnablesReprogram)
{
    Geometry g = Geometry::tiny();
    PageStore store(g);
    Address a{1, 0, 3, 5};
    ASSERT_EQ(store.program(a, pattern(g, 1)), Status::Ok);
    ASSERT_EQ(store.eraseBlock(a), Status::Ok);
    EXPECT_FALSE(store.isProgrammed(a));
    EXPECT_EQ(store.program(a, pattern(g, 9)), Status::Ok);
    EXPECT_EQ(store.read(a), pattern(g, 9));
}

TEST(PageStore, EraseClearsWholeBlockOnly)
{
    Geometry g = Geometry::tiny();
    PageStore store(g);
    Address in_block{0, 0, 2, 0};
    Address other_block{0, 0, 3, 0};
    ASSERT_EQ(store.program(in_block, pattern(g, 1)), Status::Ok);
    ASSERT_EQ(store.program(other_block, pattern(g, 2)), Status::Ok);
    ASSERT_EQ(store.eraseBlock(in_block), Status::Ok);
    EXPECT_FALSE(store.isProgrammed(in_block));
    EXPECT_TRUE(store.isProgrammed(other_block));
    EXPECT_EQ(store.read(other_block), pattern(g, 2));
}

TEST(PageStore, SyntheticContentIsDeterministic)
{
    Geometry g = Geometry::tiny();
    PageStore s1(g, 99), s2(g, 99), s3(g, 100);
    Address a{1, 1, 4, 7};
    EXPECT_EQ(s1.read(a), s2.read(a));
    EXPECT_NE(s1.read(a), s3.read(a)); // different seed
    Address b{1, 1, 4, 8};
    EXPECT_NE(s1.read(a), s1.read(b)); // different address
}

TEST(PageStore, RangedReadIsSliceOfFullPage)
{
    Geometry g = Geometry::tiny();
    g.pageSize = 8192;
    PageStore store(g, 5);
    Address programmed{0, 1, 0, 0};
    Address synthetic{0, 1, 0, 1};
    Address short_page{0, 1, 0, 2};
    ASSERT_EQ(store.program(programmed, pattern(g, 11)), Status::Ok);
    // A short program keeps its 4000 bytes; the page reads as
    // zeroes past them.
    PageBuffer head = pattern(g, 23);
    head.resize(4000);
    ASSERT_EQ(store.program(short_page, head), Status::Ok);
    PageBuffer padded = head;
    padded.resize(g.pageSize, 0);
    EXPECT_EQ(store.read(short_page), padded);
    struct Range
    {
        std::uint32_t off;
        std::uint32_t len;
    };
    for (const Address &a : {programmed, synthetic, short_page}) {
        PageBuffer page = store.read(a);
        ASSERT_EQ(page.size(), g.pageSize);
        // Length 0 is the whole page. Against the short page the
        // ranges fall inside its stored bytes, straddle their end
        // (3990 + 20) and lie past it.
        for (Range r : {Range{0, 0}, Range{13, 100}, Range{3990, 20},
                        Range{8184, 8}, Range{8191, 1}}) {
            std::uint32_t len = r.len == 0 ? g.pageSize : r.len;
            EXPECT_EQ(store.read(a, r.off, r.len),
                      PageBuffer(page.begin() + r.off,
                                 page.begin() + r.off + len))
                << a.toString() << " @" << r.off << "+" << r.len;
        }
    }
    EXPECT_EQ(store.read(programmed), pattern(g, 11));
}

TEST(PageStore, EraseCountsAccumulate)
{
    Geometry g = Geometry::tiny();
    PageStore store(g);
    Address a{0, 0, 1, 0};
    EXPECT_EQ(store.eraseCount(a), 0u);
    ASSERT_EQ(store.eraseBlock(a), Status::Ok);
    ASSERT_EQ(store.eraseBlock(a), Status::Ok);
    EXPECT_EQ(store.eraseCount(a), 2u);
    EXPECT_EQ(store.erases(), 2u);
}

TEST(PageStore, WearOutTurnsBlockBad)
{
    Geometry g = Geometry::tiny();
    PageStore store(g);
    store.setEraseLimit(3);
    Address a{0, 0, 0, 0};
    EXPECT_EQ(store.eraseBlock(a), Status::Ok);
    EXPECT_EQ(store.eraseBlock(a), Status::Ok);
    EXPECT_EQ(store.eraseBlock(a), Status::BadBlock);
    EXPECT_TRUE(store.isBad(a));
    EXPECT_EQ(store.program(a, pattern(g, 1)), Status::BadBlock);
}

TEST(PageStore, FactoryBadBlockRejectsOperations)
{
    Geometry g = Geometry::tiny();
    PageStore store(g);
    Address a{1, 0, 5, 0};
    store.markBad(a);
    EXPECT_EQ(store.program(a, pattern(g, 1)), Status::BadBlock);
    EXPECT_EQ(store.eraseBlock(a), Status::BadBlock);
}

TEST(PageStore, SequentialProgramEnforcement)
{
    Geometry g = Geometry::tiny();
    PageStore store(g);
    store.setRequireSequential(true);
    Address p0{0, 0, 0, 0}, p1{0, 0, 0, 1}, p3{0, 0, 0, 3};
    EXPECT_EQ(store.program(p0, pattern(g, 0)), Status::Ok);
    EXPECT_EQ(store.program(p3, pattern(g, 3)), Status::IllegalWrite);
    EXPECT_EQ(store.program(p1, pattern(g, 1)), Status::Ok);
}

TEST(PageStore, StoredPagesTracksRealData)
{
    Geometry g = Geometry::tiny();
    PageStore store(g);
    const Address a{0, 0, 0, 0};
    const Address b{0, 0, 0, 1};
    EXPECT_EQ(store.storedPages(), 0u);
    store.read(a); // synthetic read stores nothing
    EXPECT_EQ(store.storedPages(), 0u);
    ASSERT_EQ(store.program(a, pattern(g, 1)), Status::Ok);
    EXPECT_EQ(store.storedPages(), 1u);
    ASSERT_EQ(store.program(b, pattern(g, 2)), Status::Ok);
    EXPECT_EQ(store.storedPages(), 2u);

    // Release drops the bytes but not the programmed state: the
    // page still needs an erase before it can be programmed again.
    store.release(a);
    EXPECT_EQ(store.storedPages(), 1u);
    EXPECT_TRUE(store.isProgrammed(a));
    EXPECT_EQ(store.program(a, pattern(g, 3)), Status::IllegalWrite);
    EXPECT_EQ(store.read(b), pattern(g, 2));

    ASSERT_EQ(store.eraseBlock(a), Status::Ok);
    EXPECT_EQ(store.storedPages(), 0u);
    store.release(a); // erased: no-op
    EXPECT_FALSE(store.isProgrammed(a));
    EXPECT_EQ(store.read(a), PageStore(g).read(a)); // synthetic again
    ASSERT_EQ(store.program(a, pattern(g, 4)), Status::Ok);
    EXPECT_EQ(store.storedPages(), 1u);
    EXPECT_EQ(store.read(a), pattern(g, 4));
}

TEST(PageStoreDeath, ReadOfReleasedPagePanics)
{
    // No read can reach a released page; one that does is a
    // use-after-free, not stale data.
    Geometry g = Geometry::tiny();
    PageStore store(g);
    const Address a{1, 0, 2, 3};
    ASSERT_EQ(store.program(a, pattern(g, 1)), Status::Ok);
    store.release(a);
    EXPECT_DEATH(store.read(a, 8, 16), "read of released page");
}

TEST(PageStore, EraseStatsCoverWholeCard)
{
    Geometry g = Geometry::tiny();
    PageStore store(g);
    auto zero = store.eraseStats();
    EXPECT_EQ(zero.min, 0u);
    EXPECT_EQ(zero.p50, 0u);
    EXPECT_EQ(zero.max, 0u);
    EXPECT_EQ(zero.total, 0u);

    // Two of the card's blocks erased, unevenly: untouched blocks
    // count as zero, so skewed wear shows up as min << max.
    Address a{0, 0, 0, 0}, b{1, 1, 3, 0};
    ASSERT_EQ(store.eraseBlock(a), Status::Ok);
    ASSERT_EQ(store.eraseBlock(a), Status::Ok);
    ASSERT_EQ(store.eraseBlock(a), Status::Ok);
    ASSERT_EQ(store.eraseBlock(b), Status::Ok);
    auto s = store.eraseStats();
    EXPECT_EQ(s.min, 0u);
    EXPECT_EQ(s.p50, 0u); // 2 of 32 blocks touched: median still 0
    EXPECT_EQ(s.max, 3u);
    EXPECT_EQ(s.total, 4u);
}

TEST(PageStore, AddWearAgesWithoutTrippingEndurance)
{
    Geometry g = Geometry::tiny();
    PageStore store(g);
    Address a{0, 0, 0, 0};
    ASSERT_EQ(store.program(a, pattern(g, 3)), Status::Ok);
    store.setEraseLimit(100);

    // Pre-aging to (and past) the limit neither destroys contents
    // nor marks the block bad: addWear only moves the odometer.
    store.addWear(a, 150);
    EXPECT_EQ(store.eraseCount(a), 150u);
    EXPECT_FALSE(store.isBad(a));
    EXPECT_EQ(store.read(a), pattern(g, 3));
    EXPECT_EQ(store.badBlockCount(), 0u);

    // The next REAL erase is what trips the endurance check -- and
    // the aborted erase keeps the contents, so live pages of a
    // worn-out block can still be relocated.
    EXPECT_EQ(store.eraseBlock(a), Status::BadBlock);
    EXPECT_TRUE(store.isBad(a));
    EXPECT_EQ(store.badBlockCount(), 1u);
    EXPECT_EQ(store.read(a), pattern(g, 3));
    EXPECT_EQ(store.eraseStats().max, 151u);
}

/** Property: random program/erase sequences never corrupt other pages. */
TEST(PageStore, RandomOpsPreserveIndependence)
{
    Geometry g = Geometry::tiny();
    PageStore store(g);
    sim::Rng rng(21);
    std::map<std::uint64_t, std::uint8_t> expect; // linear -> seed

    for (int op = 0; op < 500; ++op) {
        Address a = Address::fromLinear(g, rng.below(g.pages()));
        if (rng.chance(0.7)) {
            auto seed = static_cast<std::uint8_t>(rng.next());
            if (store.program(a, pattern(g, seed)) == Status::Ok)
                expect[a.linearize(g)] = seed;
        } else {
            a.page = 0;
            if (store.eraseBlock(a) == Status::Ok) {
                for (std::uint32_t p = 0; p < g.pagesPerBlock; ++p) {
                    Address pa = a;
                    pa.page = p;
                    expect.erase(pa.linearize(g));
                }
            }
        }
    }
    for (const auto &[linear, seed] : expect) {
        Address a = Address::fromLinear(g, linear);
        EXPECT_EQ(store.read(a), pattern(g, seed));
    }
}
