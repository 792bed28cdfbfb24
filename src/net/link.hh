/**
 * @file
 * Serial link lanes with token-based flow control (paper section
 * 3.2.2).
 *
 * A Lane is one direction of a serial cable: a latency-rate wire plus
 * a receiver buffer whose occupancy is governed by byte credits. The
 * sender may only place a message on the wire when the receiver has
 * buffer space; when the receiver forwards a message onward, its
 * credits count at the sender again one hop latency later. This
 * provides loss-free backpressure across the link exactly like the
 * paper's token scheme: if a receiver stops draining, the sender's
 * queue grows and upstream traffic stalls.
 *
 * A credit return is a record, not an event: it holds the position
 * (tick and sequence number) an event scheduled at release time
 * would have taken, and counts once execution has passed it. Only a
 * message waiting for credit costs an event, a wake-up at the first
 * pending return's own position. A hop over a lane with room costs
 * one event, its delivery, and the firing order and clock stay those
 * of an event per return (docs/kernel.md, "Lane credits without
 * events").
 */

#ifndef BLUEDBM_NET_LINK_HH
#define BLUEDBM_NET_LINK_HH

// lint: hot-path

#include <cstdint>
#include <deque>
#include <vector>

#include "net/message.hh"
#include "sim/bandwidth.hh"
#include "sim/inline_function.hh"
#include "sim/simulator.hh"
#include "sim/types.hh"

namespace bluedbm {
namespace net {

/**
 * Per-hop completion hook: fires when a message leaves a buffer so
 * the upstream stage can release credits (backpressure chaining).
 * An InlineFunction rather than std::function so the move-only,
 * allocation-free property of the forwarding path is guaranteed by
 * the type (16 bytes cover the common capture: a lane pointer plus a
 * byte count) instead of depending on the standard library's SBO.
 */
using HopHook = sim::InlineFunction<void(), 16>;

/**
 * Physical parameters of one serial lane.
 */
struct LaneParams
{
    /** Physical signalling rate in bytes/second (10 Gb/s default). */
    double physBytesPerSec = 10e9 / 8.0;
    /**
     * Protocol efficiency: effective data rate / physical rate.
     * The paper measures 8.2 Gb/s effective on a 10 Gb/s link.
     */
    double efficiency = 0.82;
    /** Per-hop latency (wire + switch), 0.48 us in the paper. */
    sim::Tick hopLatency = sim::nsToTicks(480);
    /** Receiver buffer capacity in bytes (token pool). */
    std::uint32_t bufferBytes = 64 * 1024;

    /** Effective data rate in bytes/second. */
    double
    effectiveBytesPerSec() const
    {
        return physBytesPerSec * efficiency;
    }
};

/**
 * One direction of a serial link.
 */
class Lane
{
  public:
    /** Callback receiving a delivered message (a switch's arrival
     * hook: one pointer plus a lane index stays inline). */
    using Deliver = sim::InlineFunction<void(Message), 16>;

    /**
     * @param sim    simulation kernel
     * @param params physical parameters
     */
    Lane(sim::Simulator &sim, const LaneParams &params);

    /** Install the receiving switch's delivery callback. */
    void setDeliver(Deliver deliver) { deliver_ = std::move(deliver); }

    /**
     * Queue a message for transmission. Transmission starts when
     * credits and the wire allow; messages leave in FIFO order.
     *
     * @param msg      message to transmit
     * @param on_start optional callback fired when the message leaves
     *                 the queue and starts serializing; switches use
     *                 it to release the upstream lane's credits so
     *                 that backpressure chains across hops
     */
    void send(Message msg, HopHook on_start = {});

    /**
     * Return credits for @p bytes of receiver buffer. Called by the
     * receiver when a message leaves its buffer. The token crosses
     * the reverse direction in one hop latency: the bytes count from
     * the position an event scheduled now for then would take, and
     * a wake-up event is scheduled there only if a message waits.
     */
    void releaseCredits(std::uint32_t bytes);

    /** Messages waiting for credits or wire. */
    std::size_t queued() const { return queue_.size(); }

    /** Bytes of receiver buffer currently available to this sender,
     * counting every return whose position has been passed. */
    std::uint32_t credits() const;

    /** Total payload bytes delivered. */
    std::uint64_t deliveredBytes() const { return deliveredBytes_; }

    /** Total messages delivered. */
    std::uint64_t deliveredMessages() const { return deliveredMsgs_; }

    /** Lane parameters. */
    const LaneParams &params() const { return params_; }

    /** Wire-level bytes for a payload (adds protocol overhead). */
    std::uint64_t
    wireBytes(std::uint32_t payload_bytes) const
    {
        return static_cast<std::uint64_t>(
            static_cast<double>(payload_bytes) / params_.efficiency +
            0.5);
    }

  private:
    /** Credits on their way back: they count from @ref at on. */
    struct Return
    {
        sim::EventPos at;
        std::uint32_t bytes;
    };

    struct Pending
    {
        Message msg;
        HopHook onStart;
    };

    /** Add every return whose position has been passed to credits_. */
    void collectReturns();
    /** Start transmitting queued messages; the wake-up's body. */
    void pump();
    /** Schedule a wake-up at the first pending return if a message
     * waits and none is scheduled. */
    void armWake();
    /** Take credits for @p msg and put it on the wire. */
    void transmit(Message msg, HopHook &on_start);

    sim::Simulator &sim_;
    LaneParams params_;
    sim::LatencyRateServer wire_;
    Deliver deliver_;
    std::deque<Pending> queue_;
    /** Pending returns in position order (release order); the vector
     * keeps its capacity, so steady state allocates nothing. */
    std::vector<Return> returns_;
    bool wakeArmed_ = false;
    std::uint32_t credits_;
    std::uint64_t deliveredBytes_ = 0;
    std::uint64_t deliveredMsgs_ = 0;
};

} // namespace net
} // namespace bluedbm

#endif // BLUEDBM_NET_LINK_HH
