/**
 * @file
 * In-store SQL table scan with predicate pushdown -- the "SQL
 * Database Acceleration by offloading query processing and filtering
 * to in-store processors" the paper names as planned work (section
 * 8), in the style of Ibex [48] which it cites.
 *
 * Tables are fixed-width records packed into flash pages (records do
 * not span pages). The host pushes a conjunction of column
 * predicates; the engine streams the table at flash bandwidth and
 * returns only matching records -- so the host link carries the
 * selectivity-scaled output instead of the whole table.
 */

#ifndef BLUEDBM_ISP_TABLE_SCAN_HH
#define BLUEDBM_ISP_TABLE_SCAN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "flash/flash_server.hh"
#include "sim/simulator.hh"

namespace bluedbm {
namespace isp {

/**
 * Fixed-width record layout: byte width per column, in order.
 * Column values are unsigned little-endian integers of 1-8 bytes.
 */
class RecordSchema
{
  public:
    /** @param widths per-column byte widths (each 1..8) */
    explicit RecordSchema(std::vector<std::uint32_t> widths);

    /** Total record width in bytes. */
    std::uint32_t recordBytes() const { return recordBytes_; }

    /** Number of columns. */
    std::uint32_t columns() const
    {
        return std::uint32_t(offsets_.size());
    }

    /** Byte offset of column @p c within a record. */
    std::uint32_t offset(std::uint32_t c) const
    {
        return offsets_.at(c);
    }

    /** Byte width of column @p c. */
    std::uint32_t width(std::uint32_t c) const
    {
        return widths_.at(c);
    }

    /** Extract column @p c of the record at @p record. */
    std::uint64_t extract(const std::uint8_t *record,
                          std::uint32_t c) const;

    /** Store @p value into column @p c of @p record. */
    void store(std::uint8_t *record, std::uint32_t c,
               std::uint64_t value) const;

    /** Records that fit one page of @p page_size. */
    std::uint32_t
    recordsPerPage(std::uint32_t page_size) const
    {
        return page_size / recordBytes_;
    }

  private:
    std::vector<std::uint32_t> widths_;
    std::vector<std::uint32_t> offsets_;
    std::uint32_t recordBytes_ = 0;
};

/** Comparison operators for predicates. */
enum class CmpOp { Eq, Ne, Lt, Le, Gt, Ge };

/**
 * One column predicate; a query is a conjunction of these.
 */
struct Predicate
{
    std::uint32_t column = 0;
    CmpOp op = CmpOp::Eq;
    std::uint64_t value = 0;

    /** Evaluate against a column value. */
    bool matches(std::uint64_t v) const;
};

/**
 * Result of an in-store scan.
 */
struct ScanResult
{
    /** Row indices of matching records (table order). */
    std::vector<std::uint64_t> rows;
    /** Matching records' bytes, concatenated (the data that would
     * cross PCIe). */
    std::vector<std::uint8_t> records;
    std::uint64_t rowsScanned = 0;
    std::uint64_t bytesScanned = 0;
    /** Pages that read Uncorrectable after the server's read
     * retries. Their best-guess bytes were still scanned, so rows
     * and records may be wrong whenever this is nonzero. */
    std::uint64_t uncorrectablePages = 0;
};

/**
 * In-store filtering table scan over one flash card.
 */
class TableScanEngine
{
  public:
    using Done = std::function<void(ScanResult)>;

    TableScanEngine(sim::Simulator &sim, flash::FlashServer &server)
        : sim_(sim), server_(server)
    {
    }

    /**
     * Scan table @p handle (published in the server's ATU).
     *
     * @param handle     ATU handle of the table file
     * @param schema     record layout
     * @param row_count  number of records in the table
     * @param page_size  flash page size backing the table
     * @param predicates conjunction to evaluate per record
     * @param done       result callback (rows in table order)
     */
    void scan(std::uint32_t handle, const RecordSchema &schema,
              std::uint64_t row_count, std::uint32_t page_size,
              std::vector<Predicate> predicates, Done done);

  private:
    sim::Simulator &sim_;
    flash::FlashServer &server_;
};

} // namespace isp
} // namespace bluedbm

#endif // BLUEDBM_ISP_TABLE_SCAN_HH
