/**
 * @file
 * Tests for the in-store SQL table scan (paper section 8 planned
 * work): schema packing, predicate semantics, and full scans
 * validated against a reference filter.
 */

#include <gtest/gtest.h>

#include <vector>

#include "flash/flash_card.hh"
#include "flash/flash_server.hh"
#include "fs/log_fs.hh"
#include "isp/table_scan.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

using namespace bluedbm;
using flash::FlashCard;
using flash::FlashServer;
using flash::Geometry;
using flash::Timing;
using isp::CmpOp;
using isp::Predicate;
using isp::RecordSchema;
using isp::ScanResult;
using isp::TableScanEngine;

namespace {

/** id u32 | value u64 | flag u8. */
RecordSchema
testSchema()
{
    return RecordSchema({4, 8, 1});
}

struct Fixture
{
    sim::Simulator sim;
    Geometry geo = Geometry::tiny();
    FlashCard card{sim, geo, Timing::fast(), 128};
    flash::FlashSplitter::Port &port{card.splitter().addPort(64)};
    FlashServer server{sim, port, 4, 16};
    fs::LogFs fs{sim, server, 0, 1, card.nand().store()};
    TableScanEngine engine{sim, server};
    RecordSchema schema = testSchema();
    std::vector<std::vector<std::uint64_t>> table; //!< reference rows

    /** Build and store a table of @p rows records. */
    void
    load(std::uint64_t rows, std::uint64_t seed = 3)
    {
        sim::Rng rng(seed);
        std::uint32_t per_page = schema.recordsPerPage(geo.pageSize);
        std::uint64_t pages = (rows + per_page - 1) / per_page;
        std::vector<std::uint8_t> bytes(pages * geo.pageSize, 0);
        for (std::uint64_t r = 0; r < rows; ++r) {
            std::uint64_t page_idx = r / per_page;
            std::uint8_t *rec = bytes.data() +
                page_idx * geo.pageSize +
                (r % per_page) * schema.recordBytes();
            std::uint64_t id = r;
            std::uint64_t value = rng.below(1000);
            std::uint64_t flag = rng.below(2);
            schema.store(rec, 0, id);
            schema.store(rec, 1, value);
            schema.store(rec, 2, flag);
            table.push_back({id, value, flag});
        }
        ASSERT_TRUE(fs.create("table"));
        bool ok = false;
        fs.append("table", bytes, [&](bool o) { ok = o; });
        sim.run();
        ASSERT_TRUE(ok);
        fs.publishHandle("table", 8);
    }

    ScanResult
    scan(std::vector<Predicate> preds)
    {
        ScanResult out;
        bool done = false;
        engine.scan(8, schema, table.size(), geo.pageSize,
                    std::move(preds), [&](ScanResult r) {
            out = std::move(r);
            done = true;
        });
        sim.run();
        EXPECT_TRUE(done);
        return out;
    }

    std::vector<std::uint64_t>
    reference(const std::vector<Predicate> &preds)
    {
        std::vector<std::uint64_t> rows;
        for (std::uint64_t r = 0; r < table.size(); ++r) {
            bool ok = true;
            for (const auto &p : preds)
                ok = ok && p.matches(table[r][p.column]);
            if (ok)
                rows.push_back(r);
        }
        return rows;
    }
};

} // namespace

TEST(RecordSchema, PackingAndExtraction)
{
    RecordSchema s({4, 8, 1});
    EXPECT_EQ(s.recordBytes(), 13u);
    EXPECT_EQ(s.columns(), 3u);
    EXPECT_EQ(s.offset(0), 0u);
    EXPECT_EQ(s.offset(1), 4u);
    EXPECT_EQ(s.offset(2), 12u);

    std::vector<std::uint8_t> rec(13, 0);
    s.store(rec.data(), 0, 0xdeadbeef);
    s.store(rec.data(), 1, 0x1122334455667788ull);
    s.store(rec.data(), 2, 0x5a);
    EXPECT_EQ(s.extract(rec.data(), 0), 0xdeadbeefu);
    EXPECT_EQ(s.extract(rec.data(), 1), 0x1122334455667788ull);
    EXPECT_EQ(s.extract(rec.data(), 2), 0x5au);
}

TEST(RecordSchema, RecordsPerPage)
{
    RecordSchema s({4, 8, 1}); // 13 bytes
    EXPECT_EQ(s.recordsPerPage(512), 39u);
    EXPECT_EQ(s.recordsPerPage(8192), 630u);
}

TEST(PredicateTest, AllOperators)
{
    using P = Predicate;
    EXPECT_TRUE((P{0, CmpOp::Eq, 5}.matches(5)));
    EXPECT_FALSE((P{0, CmpOp::Eq, 5}.matches(6)));
    EXPECT_TRUE((P{0, CmpOp::Ne, 5}.matches(6)));
    EXPECT_TRUE((P{0, CmpOp::Lt, 5}.matches(4)));
    EXPECT_FALSE((P{0, CmpOp::Lt, 5}.matches(5)));
    EXPECT_TRUE((P{0, CmpOp::Le, 5}.matches(5)));
    EXPECT_TRUE((P{0, CmpOp::Gt, 5}.matches(6)));
    EXPECT_TRUE((P{0, CmpOp::Ge, 5}.matches(5)));
    EXPECT_FALSE((P{0, CmpOp::Ge, 5}.matches(4)));
}

TEST(TableScan, FullScanWithNoPredicatesReturnsAllRows)
{
    Fixture f;
    f.load(500);
    ScanResult res = f.scan({});
    EXPECT_EQ(res.rows.size(), 500u);
    EXPECT_EQ(res.rowsScanned, 500u);
    EXPECT_EQ(res.uncorrectablePages, 0u);
    for (std::uint64_t r = 0; r < 500; ++r)
        EXPECT_EQ(res.rows[r], r);
}

TEST(TableScan, UncorrectablePageIsCounted)
{
    // A failed decode still hands up its best-guess bytes, which the
    // predicates then see; the result must say so rather than look
    // clean. No read retries (the default), so the forced verdict
    // is final.
    Fixture f;
    f.load(500);
    ASSERT_EQ(f.server.readRetries(), 0u);
    flash::Address bad = f.fs.physicalAddresses("table").at(5);
    f.server.setReadFault([bad](const flash::Address &a) {
        FlashServer::ReadFaultAction act;
        act.uncorrectable = a == bad;
        return act;
    });
    ScanResult res = f.scan({});
    EXPECT_EQ(res.uncorrectablePages, 1u);
    EXPECT_EQ(res.rowsScanned, 500u);
}

TEST(TableScan, SinglePredicateMatchesReference)
{
    Fixture f;
    f.load(800);
    std::vector<Predicate> preds{{1, CmpOp::Lt, 100}};
    ScanResult res = f.scan(preds);
    EXPECT_EQ(res.rows, f.reference(preds));
    // ~10% selectivity expected.
    EXPECT_GT(res.rows.size(), 40u);
    EXPECT_LT(res.rows.size(), 160u);
}

TEST(TableScan, ConjunctionMatchesReference)
{
    Fixture f;
    f.load(800);
    std::vector<Predicate> preds{
        {1, CmpOp::Ge, 200},
        {1, CmpOp::Lt, 700},
        {2, CmpOp::Eq, 1},
    };
    ScanResult res = f.scan(preds);
    EXPECT_EQ(res.rows, f.reference(preds));
}

TEST(TableScan, ReturnedRecordBytesAreTheMatchingRecords)
{
    Fixture f;
    f.load(300);
    std::vector<Predicate> preds{{2, CmpOp::Eq, 0}};
    ScanResult res = f.scan(preds);
    ASSERT_EQ(res.records.size(),
              res.rows.size() * f.schema.recordBytes());
    for (std::size_t i = 0; i < res.rows.size(); ++i) {
        const std::uint8_t *rec =
            res.records.data() + i * f.schema.recordBytes();
        EXPECT_EQ(f.schema.extract(rec, 0), res.rows[i]);
        EXPECT_EQ(f.schema.extract(rec, 2), 0u);
    }
}

TEST(TableScan, EmptyResultOnImpossiblePredicate)
{
    Fixture f;
    f.load(200);
    ScanResult res = f.scan({{1, CmpOp::Gt, 5000}});
    EXPECT_TRUE(res.rows.empty());
    EXPECT_TRUE(res.records.empty());
    EXPECT_EQ(res.rowsScanned, 200u);
}

TEST(TableScan, RowCountNotMultipleOfPageCapacity)
{
    Fixture f;
    // tiny pages hold 39 records; 101 rows spans 2.6 pages.
    f.load(101);
    ScanResult res = f.scan({});
    EXPECT_EQ(res.rows.size(), 101u);
    EXPECT_EQ(res.rowsScanned, 101u);
}

TEST(TableScan, SegmentBoundariesPreserveRowOrder)
{
    Fixture f;
    f.load(1000);
    std::vector<Predicate> preds{{2, CmpOp::Eq, 1}};
    ScanResult res = f.scan(preds);
    auto expect = f.reference(preds);
    ASSERT_EQ(res.rows, expect);
    for (std::size_t i = 1; i < res.rows.size(); ++i)
        EXPECT_LT(res.rows[i - 1], res.rows[i]);
}

TEST(TableScanDeath, OversizedRecordIsFatal)
{
    Fixture f;
    f.load(10);
    RecordSchema wide({8, 8, 8, 8, 8, 8, 8, 8,
                       8, 8, 8, 8, 8, 8, 8, 8});
    // 128-byte records fit; but a fake page size smaller than the
    // record must be rejected.
    EXPECT_DEATH(f.engine.scan(8, wide, 1, 64, {},
                               [](ScanResult) {}),
                 "larger than a page");
}
