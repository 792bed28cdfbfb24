/**
 * @file
 * Flash card geometry and physical addressing.
 *
 * One BlueDBM node hosts two custom flash cards (paper section 5.1).
 * Each card groups NAND chips into buses; every bus transfers data
 * independently, and chips on one bus overlap their array operations
 * but serialize data transfers. Default geometry yields 512 GB/card:
 * 8 buses x 8 chips x 4096 blocks x 256 pages x 8 KB.
 */

#ifndef BLUEDBM_FLASH_GEOMETRY_HH
#define BLUEDBM_FLASH_GEOMETRY_HH

#include <cstdint>
#include <string>

#include "sim/logging.hh"

namespace bluedbm {
namespace flash {

/**
 * Static shape of one flash card.
 */
struct Geometry
{
    std::uint32_t buses = 8;          //!< independent channels
    std::uint32_t chipsPerBus = 8;    //!< NAND dies sharing one bus
    std::uint32_t blocksPerChip = 4096;
    std::uint32_t pagesPerBlock = 256;
    std::uint32_t pageSize = 8192;    //!< data bytes per page

    /** Number of chips on the card. */
    std::uint64_t
    chips() const
    {
        return std::uint64_t(buses) * chipsPerBus;
    }

    /** Number of pages on the card. */
    std::uint64_t
    pages() const
    {
        return chips() * blocksPerChip * pagesPerBlock;
    }

    /** Raw capacity in bytes. */
    std::uint64_t
    capacityBytes() const
    {
        return pages() * pageSize;
    }

    /** A small geometry convenient for unit tests. */
    static Geometry
    tiny()
    {
        Geometry g;
        g.buses = 2;
        g.chipsPerBus = 2;
        g.blocksPerChip = 8;
        g.pagesPerBlock = 16;
        g.pageSize = 512;
        return g;
    }
};

/**
 * Physical page address within one flash card.
 */
struct Address
{
    std::uint32_t bus = 0;
    std::uint32_t chip = 0;   //!< within the bus
    std::uint32_t block = 0;  //!< within the chip
    std::uint32_t page = 0;   //!< within the block

    bool
    operator==(const Address &o) const
    {
        return bus == o.bus && chip == o.chip && block == o.block &&
            page == o.page;
    }

    /** Whether this address is inside @p g. */
    [[nodiscard]] bool
    validFor(const Geometry &g) const
    {
        return bus < g.buses && chip < g.chipsPerBus &&
            block < g.blocksPerChip && page < g.pagesPerBlock;
    }

    /** Dense page index in [0, g.pages()). */
    std::uint64_t
    linearize(const Geometry &g) const
    {
        return ((std::uint64_t(bus) * g.chipsPerBus + chip) *
                    g.blocksPerChip + block) * g.pagesPerBlock + page;
    }

    /** Inverse of linearize(). */
    static Address
    fromLinear(const Geometry &g, std::uint64_t linear)
    {
        Address a;
        a.page = static_cast<std::uint32_t>(linear % g.pagesPerBlock);
        linear /= g.pagesPerBlock;
        a.block = static_cast<std::uint32_t>(linear % g.blocksPerChip);
        linear /= g.blocksPerChip;
        a.chip = static_cast<std::uint32_t>(linear % g.chipsPerBus);
        linear /= g.chipsPerBus;
        a.bus = static_cast<std::uint32_t>(linear);
        if (a.bus >= g.buses)
            sim::panic("linear address out of range");
        return a;
    }

    /**
     * Page index striped across buses then chips, so that consecutive
     * indices land on different buses (maximum parallelism, the layout
     * the paper's flash server exploits for sequential streams).
     */
    static Address
    fromStriped(const Geometry &g, std::uint64_t index)
    {
        Address a;
        a.bus = static_cast<std::uint32_t>(index % g.buses);
        index /= g.buses;
        a.chip = static_cast<std::uint32_t>(index % g.chipsPerBus);
        index /= g.chipsPerBus;
        a.page = static_cast<std::uint32_t>(index % g.pagesPerBlock);
        index /= g.pagesPerBlock;
        a.block = static_cast<std::uint32_t>(index);
        if (a.block >= g.blocksPerChip)
            sim::panic("striped address out of range");
        return a;
    }

    /** Human-readable form for diagnostics. */
    std::string
    toString() const
    {
        return sim::format("b%u.c%u.blk%u.p%u", bus, chip, block, page);
    }
};

} // namespace flash
} // namespace bluedbm

#endif // BLUEDBM_FLASH_GEOMETRY_HH
