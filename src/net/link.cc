#include "net/link.hh"

// lint: hot-path

#include <utility>

#include "sim/logging.hh"

namespace bluedbm {
namespace net {

Lane::Lane(sim::Simulator &sim, const LaneParams &params)
    : sim_(sim), params_(params),
      wire_(params.physBytesPerSec, params.hopLatency),
      credits_(params.bufferBytes)
{
}

void
Lane::send(Message msg, HopHook on_start)
{
    if (msg.bytes > params_.bufferBytes)
        sim::fatal("message of %u bytes exceeds lane buffer %u",
                   msg.bytes, params_.bufferBytes);
    collectReturns();
    if (queue_.empty() && credits_ >= msg.bytes) {
        transmit(std::move(msg), on_start);
        return;
    }
    queue_.push_back(Pending{std::move(msg), std::move(on_start)});
    armWake();
}

void
Lane::releaseCredits(std::uint32_t bytes)
{
    returns_.push_back(
        Return{sim_.reserve(sim_.now() + params_.hopLatency), bytes});
    armWake();
}

std::uint32_t
Lane::credits() const
{
    std::uint32_t visible = credits_;
    for (const Return &r : returns_) {
        if (!sim_.reached(r.at))
            break;
        visible += r.bytes;
    }
    return visible;
}

void
Lane::collectReturns()
{
    // Returns are released in position order, so the passed ones
    // form a prefix.
    auto it = returns_.begin();
    while (it != returns_.end() && sim_.reached(it->at)) {
        credits_ += it->bytes;
        ++it;
    }
    if (it == returns_.begin())
        return;
    if (credits_ > params_.bufferBytes)
        sim::panic("lane credit overflow");
    returns_.erase(returns_.begin(), it);
}

void
Lane::armWake()
{
    // While a message waits, every return still pending is past the
    // running position (send() and pump() collect first), so the
    // front one is where an event per return would next have pumped.
    if (wakeArmed_ || queue_.empty() || returns_.empty())
        return;
    wakeArmed_ = true;
    sim_.scheduleReserved(returns_.front().at, [this]() {
        wakeArmed_ = false;
        pump();
    });
}

void
Lane::pump()
{
    collectReturns();
    while (!queue_.empty() && credits_ >= queue_.front().msg.bytes) {
        Pending pending = std::move(queue_.front());
        queue_.pop_front();
        transmit(std::move(pending.msg), pending.onStart);
    }
    armWake();
}

void
Lane::transmit(Message msg, HopHook &on_start)
{
    credits_ -= msg.bytes;
    if (on_start)
        on_start();

    // Cut-through: serialization begins when the *head* reached this
    // switch (possibly before this forwarding event, which runs at
    // tail arrival), subject to the wire being free.
    std::uint64_t wb = wireBytes(msg.bytes);
    sim::Tick tail_arrival = wire_.occupy(msg.headArrival, wb);
    // The tail itself only got here "now" and still needs the hop to
    // cross.
    sim::Tick min_tail = sim_.now() + params_.hopLatency;
    if (tail_arrival < min_tail)
        tail_arrival = min_tail;
    sim::Tick serialization =
        sim::transferTicks(wb, params_.physBytesPerSec);
    msg.headArrival = tail_arrival - serialization;

    auto deliverEvent = [this, m = std::move(msg)]() mutable {
        deliveredBytes_ += m.bytes;
        ++deliveredMsgs_;
        if (!deliver_)
            sim::panic("lane delivers with no receiver");
        deliver_(std::move(m));
    };
    // The per-hop forwarding event is the hottest capture in the
    // simulator; it must ride the event slot, not the heap.
    static_assert(sim::EventQueue::Callback::storedInline<
                      decltype(deliverEvent)>(),
                  "message delivery capture must fit the inline "
                  "event buffer");
    sim_.scheduleAt(tail_arrival, std::move(deliverEvent));
}

} // namespace net
} // namespace bluedbm
