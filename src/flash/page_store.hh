/**
 * @file
 * Byte-accurate sparse backing store for one flash card, with NAND
 * program/erase semantics.
 *
 * Pages that were never programmed return deterministic synthetic
 * content derived from the address, so multi-terabyte workloads can be
 * simulated without allocating the dataset (the content is stable, as
 * if it had been written by a prior loading phase). Pages that are
 * programmed store the bytes the program carried -- up to a page;
 * the rest of the page reads as zeroes -- and no ECC check bytes:
 * those are a pure function of the page's bytes, which the NAND
 * array computes at sense. A programmed page whose owner knows no
 * read can reach it any more may be released: its bytes go, the page
 * stays programmed, and a read of it is a use-after-free that panics.
 * The NAND rules are enforced: a page must be erased before it is
 * programmed again, and erases wear blocks out.
 */

#ifndef BLUEDBM_FLASH_PAGE_STORE_HH
#define BLUEDBM_FLASH_PAGE_STORE_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "flash/geometry.hh"
#include "flash/types.hh"

namespace bluedbm {
namespace flash {

/**
 * Sparse page/block state for a flash card.
 */
class PageStore
{
  public:
    /**
     * @param geo  card geometry
     * @param seed seed for synthetic content of never-written pages
     */
    explicit PageStore(const Geometry &geo, std::uint64_t seed = 1);

    /** Card geometry. */
    const Geometry &geometry() const { return geo_; }

    /**
     * Program a page.
     *
     * @param addr target page
     * @param data at most geometry().pageSize bytes, kept as given;
     *             the rest of the page reads as zeroes
     * @return Ok, or IllegalWrite if the page is not erased
     */
    [[nodiscard]] Status program(const Address &addr, PageBuffer data);

    /**
     * Read a page's bytes: the programmed bytes followed by zeroes,
     * or synthetic content when never programmed. Panics on a
     * released page.
     *
     * @param addr   source page
     * @param offset first byte of the range
     * @param len    range length; 0 means the whole page (offset 0)
     * @return the range's bytes
     */
    PageBuffer read(const Address &addr, std::uint32_t offset = 0,
                    std::uint32_t len = 0) const;

    /**
     * Drop a programmed page's bytes once no read can reach them.
     * The page stays programmed until its block is erased (a second
     * program is still IllegalWrite) and stops counting in
     * storedPages(); reading it panics. No-op on a page that is not
     * programmed.
     */
    void release(const Address &addr);

    /**
     * Erase a block: all pages return to the erased state.
     *
     * @return Ok, or BadBlock if the block is marked bad or has
     *         exceeded its program/erase endurance
     */
    [[nodiscard]] Status eraseBlock(const Address &addr);

    /** Whether @p addr has been programmed since its last erase. */
    [[nodiscard]] bool isProgrammed(const Address &addr) const;

    /** Lifetime erase count of the block containing @p addr. */
    std::uint32_t eraseCount(const Address &addr) const;

    /** Erase-count distribution over the whole card. */
    struct EraseStats
    {
        std::uint32_t min = 0;
        std::uint32_t p50 = 0;
        std::uint32_t max = 0;
        std::uint64_t total = 0;
    };

    /**
     * Erase-count distribution across ALL blocks of the card --
     * blocks never touched count as 0, so a skewed workload's
     * wear imbalance shows up as min << max.
     */
    EraseStats eraseStats() const;

    /**
     * Pre-age the block containing @p addr by @p cycles program/erase
     * cycles without disturbing its contents. Bench helper: aging a
     * card organically would cost millions of simulated erases. The
     * block does NOT turn bad here even past the erase limit; the
     * next real erase trips the endurance check.
     */
    void addWear(const Address &addr, std::uint32_t cycles);

    /** Number of blocks currently marked bad. */
    std::size_t badBlockCount() const { return badBlocks_.size(); }

    /** Mark a block as factory-bad. */
    void markBad(const Address &addr);

    /** Whether the block containing @p addr is bad. */
    [[nodiscard]] bool isBad(const Address &addr) const;

    /**
     * Program/erase endurance. Blocks whose erase count reaches the
     * limit turn bad on the next erase. 0 disables wear-out.
     */
    void setEraseLimit(std::uint32_t limit) { eraseLimit_ = limit; }

    /**
     * Enforce in-block sequential programming (real NAND requires
     * pages within a block to be programmed in order).
     */
    void setRequireSequential(bool on) { requireSequential_ = on; }

    /** Programmed pages whose bytes are held (not released). */
    std::size_t storedPages() const { return pages_.size(); }

    /** Total program operations accepted. */
    std::uint64_t programs() const { return programs_; }
    /** Total erase operations accepted. */
    std::uint64_t erases() const { return erases_; }

  private:
    struct BlockState
    {
        std::uint32_t eraseCount = 0;
        std::uint32_t nextPage = 0; //!< for sequential enforcement
        std::vector<bool> programmed;
    };

    std::uint64_t blockKey(const Address &addr) const;
    std::uint64_t pageKey(const Address &addr) const;

    /** Deterministic content for never-programmed pages. */
    PageBuffer synthesize(std::uint64_t page_key) const;

    Geometry geo_;
    std::uint64_t seed_;
    std::uint32_t eraseLimit_ = 0;
    bool requireSequential_ = false;
    /** Programmed, unreleased pages. Invariant: bytes never change
     * between program and erase, so check bytes computed at sense
     * equal those written at program. A future in-place fault (a
     * retention model) must store check bytes at program for the
     * pages it touches. */
    std::unordered_map<std::uint64_t, PageBuffer> pages_;
    std::unordered_map<std::uint64_t, BlockState> blocks_;
    std::unordered_set<std::uint64_t> badBlocks_;
    std::uint64_t programs_ = 0;
    std::uint64_t erases_ = 0;
};

} // namespace flash
} // namespace bluedbm

#endif // BLUEDBM_FLASH_PAGE_STORE_HH
