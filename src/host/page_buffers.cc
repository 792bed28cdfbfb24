#include "host/page_buffers.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace bluedbm {
namespace host {

BurstDma::BurstDma(sim::Simulator &sim, PcieLink &pcie,
                   std::uint32_t page_bytes, std::uint32_t burst_bytes,
                   bool per_buffer_fifos)
    : sim_(sim), pcie_(pcie), pageBytes_(page_bytes),
      burstBytes_(burst_bytes), perBufferFifos_(per_buffer_fifos)
{
    if (burst_bytes == 0 || page_bytes == 0)
        sim::fatal("BurstDma needs nonzero page and burst sizes");
}

void
BurstDma::beginRead(unsigned buffer, std::function<void()> done)
{
    Request req;
    req.buffer = buffer;
    req.done = std::move(done);
    open_.push_back(std::move(req));
}

void
BurstDma::addData(unsigned buffer, std::uint32_t bytes)
{
    for (auto &req : open_) {
        if (req.buffer == buffer) {
            req.arrived = std::min<std::uint32_t>(
                req.arrived + bytes, pageBytes_);
            pump();
            return;
        }
    }
    sim::panic("data for buffer %u with no open request", buffer);
}

void
BurstDma::pump()
{
    bool progress = true;
    while (progress) {
        progress = false;
        for (std::size_t i = 0; i < open_.size(); ++i) {
            Request &req = open_[i];
            std::uint32_t ready = req.arrived - req.transferred;
            bool tail = req.arrived == pageBytes_;
            // A burst may issue when a full burst of contiguous data
            // is buffered (or the final partial burst of a page).
            if (ready >= burstBytes_ || (tail && ready > 0)) {
                std::uint32_t burst = std::min(ready, burstBytes_);
                req.transferred += burst;
                unsigned buffer = req.buffer;
                bool complete = req.transferred == pageBytes_;
                auto done = complete ? std::move(req.done)
                                     : std::function<void()>{};
                pcie_.deviceToHost(burst,
                                   [done = std::move(done)]() {
                    if (done)
                        done();
                });
                if (complete) {
                    open_.erase(open_.begin() +
                                std::deque<Request>::difference_type(
                                    i));
                }
                progress = true;
                (void)buffer;
                break;
            }
            // Without per-buffer FIFOs the engine is a single FIFO:
            // if the head-of-line request has no burst ready, nothing
            // behind it may move.
            if (!perBufferFifos_)
                break;
        }
    }
}

} // namespace host
} // namespace bluedbm
