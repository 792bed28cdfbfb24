/**
 * @file
 * Host interface page buffers and DMA burst reordering (paper
 * section 3.3, figure 7).
 *
 * The host interface provides software with 128 page buffers each for
 * reads and writes. Reads are tricky: data from multiple flash buses
 * (or remote nodes) arrives interleaved at the DMA engine, which
 * needs enough *contiguous* data per buffer before it can issue a
 * DMA burst. BlueDBM fixes this with a dual-ported buffer that acts
 * as a vector of FIFOs -- one per request -- so each request's data
 * accumulates independently until a burst is ready.
 *
 * BurstDma models this explicitly and can be switched to a single
 * head-of-line FIFO to quantify what the per-buffer FIFOs buy (the
 * sec3.3_dma_fifos row of the paper bench). Buffer indices are the
 * caller's to hand out.
 */

#ifndef BLUEDBM_HOST_PAGE_BUFFERS_HH
#define BLUEDBM_HOST_PAGE_BUFFERS_HH

#include <cstdint>
#include <deque>
#include <functional>

#include "host/pcie.hh"
#include "sim/simulator.hh"

namespace bluedbm {
namespace host {

/**
 * DMA read path with per-buffer burst FIFOs.
 *
 * Data destined for several read buffers arrives in arbitrary
 * interleavings via addData(). Whenever a buffer holds at least one
 * full burst, the burst is eligible for the shared PCIe channel.
 * With per-buffer FIFOs any ready buffer may issue; without them
 * (ablation), only the oldest incomplete request's data may move, so
 * interleaved arrivals stall the pipe (head-of-line blocking).
 */
class BurstDma
{
  public:
    /**
     * @param sim              simulation kernel
     * @param pcie             shared host link
     * @param page_bytes       full transfer size per request
     * @param burst_bytes      DMA burst granularity
     * @param per_buffer_fifos false = single head-of-line FIFO
     */
    BurstDma(sim::Simulator &sim, PcieLink &pcie,
             std::uint32_t page_bytes, std::uint32_t burst_bytes,
             bool per_buffer_fifos = true);

    /**
     * Register a read request on @p buffer; @p done fires when the
     * whole page has crossed PCIe.
     */
    void beginRead(unsigned buffer, std::function<void()> done);

    /**
     * Deliver @p bytes of data for @p buffer from the device side
     * (flash bus burst or network packet).
     */
    void addData(unsigned buffer, std::uint32_t bytes);

    /** Requests currently open. */
    std::size_t openRequests() const { return open_.size(); }

  private:
    struct Request
    {
        unsigned buffer = 0;
        std::uint32_t arrived = 0;   //!< bytes present in the FIFO
        std::uint32_t transferred = 0;
        std::function<void()> done;
    };

    /** Issue every eligible burst. */
    void pump();

    sim::Simulator &sim_;
    PcieLink &pcie_;
    std::uint32_t pageBytes_;
    std::uint32_t burstBytes_;
    bool perBufferFifos_;
    std::deque<Request> open_; //!< FIFO order of beginRead calls
};

} // namespace host
} // namespace bluedbm

#endif // BLUEDBM_HOST_PAGE_BUFFERS_HH
