/**
 * @file
 * In-store string search accelerator (paper section 7.3).
 *
 * The software side transfers the needle and its MP constants over
 * DMA, then streams the file's physical addresses; the hardware MP
 * engines read pages from the flash controller and only match
 * positions come back to the server. Four engines per bus saturate
 * the flash; engines split the haystack into per-interface segments
 * with needle-sized overlaps.
 */

#ifndef BLUEDBM_ISP_STRING_SEARCH_HH
#define BLUEDBM_ISP_STRING_SEARCH_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "flash/flash_server.hh"
#include "isp/morris_pratt.hh"
#include "sim/simulator.hh"

namespace bluedbm {
namespace isp {

/**
 * Result of one accelerated search.
 */
struct SearchResult
{
    std::vector<std::uint64_t> positions; //!< match byte offsets
    std::uint64_t bytesScanned = 0;
    /** Pages that read Uncorrectable after the server's read
     * retries. Their best-guess bytes were still matched, so
     * positions may be wrong whenever this is nonzero. */
    std::uint64_t uncorrectablePages = 0;
};

/**
 * Hardware string search over one flash card.
 */
class StringSearchEngine
{
  public:
    using Done = std::function<void(SearchResult)>;

    /**
     * @param sim    simulation kernel
     * @param server the ISP-side flash server of the card
     */
    StringSearchEngine(sim::Simulator &sim,
                       flash::FlashServer &server)
        : sim_(sim), server_(server)
    {
    }

    /**
     * Search file @p handle (already published to the server's ATU)
     * for @p needle, using every server interface in parallel.
     *
     * @param handle     ATU file handle
     * @param file_bytes logical file size (the last page may be
     *                   partially filled)
     * @param page_size  flash page size backing the file
     * @param needle     pattern
     * @param done       receives sorted match positions
     */
    void search(std::uint32_t handle, std::uint64_t file_bytes,
                std::uint32_t page_size, const std::string &needle,
                Done done);

  private:
    sim::Simulator &sim_;
    flash::FlashServer &server_;
};

} // namespace isp
} // namespace bluedbm

#endif // BLUEDBM_ISP_STRING_SEARCH_HH
