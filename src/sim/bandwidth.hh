/**
 * @file
 * Latency-rate resource models.
 *
 * LatencyRateServer is the workhorse for modeling any pipelined channel
 * (a flash bus, a serial link, a PCIe DMA engine): requests serialize
 * at a fixed byte rate and then experience a fixed latency. It captures
 * exactly the first-order behaviour the paper's measurements reflect.
 */

#ifndef BLUEDBM_SIM_BANDWIDTH_HH
#define BLUEDBM_SIM_BANDWIDTH_HH

#include <algorithm>
#include <cstdint>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace bluedbm {
namespace sim {

/**
 * Pipelined channel with a serialization rate and a propagation delay.
 *
 * occupy() returns the completion time of a transfer issued "now":
 * the channel is busy until max(busyUntil, now) + size/rate, and the
 * payload arrives a further @p latency later. Back-to-back transfers
 * pipeline; the channel is the only serialized resource.
 */
class LatencyRateServer
{
  public:
    /**
     * @param bytes_per_sec serialization rate
     * @param latency       propagation delay added after serialization
     */
    LatencyRateServer(double bytes_per_sec, Tick latency)
        : rate_(bytes_per_sec), latency_(latency)
    {
        if (rate_ <= 0.0)
            fatal("LatencyRateServer rate must be positive");
    }

    /**
     * Serialize @p bytes starting no earlier than @p now.
     *
     * @param now   issue time
     * @param bytes payload size
     * @return tick at which the last byte arrives at the far end
     */
    Tick
    occupy(Tick now, std::uint64_t bytes)
    {
        Tick start = std::max(now, busyUntil_);
        busyUntil_ = start + transferTicks(bytes, rate_);
        totalBytes_ += bytes;
        return busyUntil_ + latency_;
    }

    /** Time at which the channel next becomes free. */
    Tick busyUntil() const { return busyUntil_; }

    /** Total bytes ever pushed through the channel. */
    std::uint64_t totalBytes() const { return totalBytes_; }

    /** Configured rate in bytes per second. */
    double rate() const { return rate_; }

    /** Configured propagation latency. */
    Tick latency() const { return latency_; }

  private:
    double rate_;
    Tick latency_;
    Tick busyUntil_ = 0;
    std::uint64_t totalBytes_ = 0;
};

} // namespace sim
} // namespace bluedbm

#endif // BLUEDBM_SIM_BANDWIDTH_HH
