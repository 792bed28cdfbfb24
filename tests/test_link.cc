/**
 * @file
 * Unit tests for the serial lane: wire pacing, token credit
 * accounting, the dequeue hook used for backpressure chaining, and
 * cut-through head/tail bookkeeping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <functional>
#include <vector>

#include "net/link.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"

using namespace bluedbm;
using net::Lane;
using net::LaneParams;
using net::Message;
using sim::Tick;

namespace {

Message
msg(std::uint32_t bytes, Tick head_arrival = 0)
{
    Message m;
    m.bytes = bytes;
    m.headArrival = head_arrival;
    return m;
}

/**
 * The token scheme read literally: every credit return is an event
 * that adds the bytes and pumps the queue. Lane keeps returns as
 * records instead, and must reproduce this model position for
 * position; the timing rules below are Lane's, copied.
 */
class EventPerReturnLane
{
  public:
    EventPerReturnLane(sim::Simulator &sim, const LaneParams &p)
        : sim_(sim), p_(p), wire_(p.physBytesPerSec, p.hopLatency),
          credits_(p.bufferBytes)
    {
    }

    void setDeliver(std::function<void(Message)> d) { deliver_ = d; }

    void
    send(Message m, std::function<void()> on_start)
    {
        queue_.push_back({std::move(m), std::move(on_start)});
        pump();
    }

    void
    releaseCredits(std::uint32_t bytes)
    {
        sim_.scheduleAfter(p_.hopLatency, [this, bytes] {
            credits_ += bytes;
            pump();
        });
    }

    std::size_t queued() const { return queue_.size(); }
    std::uint32_t credits() const { return credits_; }

  private:
    void
    pump()
    {
        while (!queue_.empty() &&
               credits_ >= queue_.front().first.bytes) {
            auto [m, on_start] = std::move(queue_.front());
            queue_.pop_front();
            credits_ -= m.bytes;
            if (on_start)
                on_start();
            auto wb = static_cast<std::uint64_t>(
                static_cast<double>(m.bytes) / p_.efficiency + 0.5);
            Tick tail = std::max(wire_.occupy(m.headArrival, wb),
                                 sim_.now() + p_.hopLatency);
            m.headArrival =
                tail - sim::transferTicks(wb, p_.physBytesPerSec);
            sim_.scheduleAt(tail, [this, m = std::move(m)]() mutable {
                deliver_(std::move(m));
            });
        }
    }

    sim::Simulator &sim_;
    LaneParams p_;
    sim::LatencyRateServer wire_;
    std::function<void(Message)> deliver_;
    std::deque<std::pair<Message, std::function<void()>>> queue_;
    std::uint32_t credits_;
};

/** One observation: {tick, kind, a, b}. */
using Obs = std::array<std::uint64_t, 4>;
enum ObsKind : std::uint64_t { kStart, kDeliver, kProbe };

/**
 * Seeded traffic over one lane of type L: sends at random times, a
 * receiver that frees each message's buffer at once or after a
 * random delay, and probes that read queued() and credits(). Half
 * the deliveries (up to 200) also schedule an echo -- a probe, a send
 * and a probe one hop latency on, the tick an immediate return lands
 * on -- ahead of or behind that return. Every time lies on a 10 ns
 * grid (1 B/ns, whole-100 B messages, 480 ns hop), so only the
 * (tick, seq) order separates a send or probe from a return on its
 * tick. Returns the observations and, through @p events, the events
 * executed.
 */
template <typename L>
std::vector<Obs>
seededLaneTraffic(std::uint64_t seed, std::uint64_t &events)
{
    sim::Simulator sim;
    LaneParams p;
    p.physBytesPerSec = 1e9;
    p.efficiency = 1.0;
    p.bufferBytes = 4096;
    L lane(sim, p);
    sim::Rng rng(seed);
    auto grid = [&rng](std::uint64_t steps) {
        return sim::nsToTicks(10.0 * double(rng.below(steps + 1)));
    };
    std::vector<Obs> log;
    auto probe = [&] {
        log.push_back({sim.now(), kProbe, lane.queued(), lane.credits()});
    };
    auto send = [&](int id) {
        Message m =
            msg(100 * std::uint32_t(rng.range(1, 30)), sim.now());
        m.payload = net::PayloadRef::inlineOf(id);
        lane.send(std::move(m), [&log, &sim, id] {
            log.push_back({sim.now(), kStart, std::uint64_t(id), 0});
        });
    };
    int echoes = 0;
    auto echo = [&] {
        int id = 1000 + echoes++;
        sim.scheduleAfter(p.hopLatency, [&, id] {
            probe();
            send(id);
            probe();
        });
    };
    lane.setDeliver([&](Message m) {
        log.push_back({sim.now(), kDeliver,
                       std::uint64_t(m.payload.take<int>()), 0});
        std::uint32_t bytes = m.bytes;
        bool echoed = echoes < 200 && rng.below(2) == 0;
        if (echoed && rng.below(2) == 0) {
            echo();
            echoed = false;
        }
        if (rng.below(2) == 0)
            lane.releaseCredits(bytes);
        else
            sim.scheduleAfter(grid(60),
                              [&lane, bytes] { lane.releaseCredits(bytes); });
        if (echoed)
            echo();
    });
    for (int i = 0; i < 400; ++i)
        sim.scheduleAt(grid(200000), [&send, i] { send(i); });
    for (int i = 0; i < 1500; ++i)
        sim.scheduleAt(grid(200000), probe);
    sim.run();
    probe();
    events = sim.eventsExecuted();
    return log;
}

} // namespace

TEST(Lane, SingleMessageTiming)
{
    sim::Simulator sim;
    LaneParams p;
    Lane lane(sim, p);
    Tick at = 0;
    lane.setDeliver([&](Message) { at = sim.now(); });
    lane.send(msg(1024));
    sim.run();
    Tick serialization = sim::transferTicks(
        lane.wireBytes(1024), p.physBytesPerSec);
    EXPECT_EQ(at, serialization + p.hopLatency);
    EXPECT_EQ(lane.deliveredMessages(), 1u);
    EXPECT_EQ(lane.deliveredBytes(), 1024u);
}

TEST(Lane, WireBytesAddProtocolOverhead)
{
    sim::Simulator sim;
    LaneParams p;
    Lane lane(sim, p);
    // 0.82 efficiency: 8200 payload bytes occupy ~10000 wire bytes.
    EXPECT_NEAR(double(lane.wireBytes(8200)), 10000.0, 2.0);
    EXPECT_GT(lane.wireBytes(16), 16u);
}

TEST(Lane, CreditsConsumeAndReturn)
{
    sim::Simulator sim;
    LaneParams p;
    p.bufferBytes = 4096;
    Lane lane(sim, p);
    std::vector<Message> delivered;
    lane.setDeliver(
        [&](Message m) { delivered.push_back(std::move(m)); });

    lane.send(msg(4096));
    EXPECT_EQ(lane.credits(), 0u); // consumed at transmit start
    sim.run();
    ASSERT_EQ(delivered.size(), 1u);

    // The receiver has not drained: credits stay consumed, a second
    // message waits in the queue.
    lane.send(msg(4096));
    sim.run();
    EXPECT_EQ(delivered.size(), 1u);
    EXPECT_EQ(lane.queued(), 1u);

    // Draining returns the tokens (after the hop latency) and the
    // queued message flows.
    lane.releaseCredits(4096);
    sim.run();
    EXPECT_EQ(delivered.size(), 2u);
}

TEST(Lane, FreeHopCostsOneEvent)
{
    // An idle lane whose receiver drains on delivery: the message
    // starts at once and its credit return is a record, not an
    // event, so the hop executes its delivery and nothing else. The
    // clock still ends where the return lands, one hop after the
    // delivery.
    sim::Simulator sim;
    LaneParams p;
    Lane lane(sim, p);
    Tick delivered_at = 0;
    lane.setDeliver([&](Message m) {
        delivered_at = sim.now();
        lane.releaseCredits(m.bytes);
    });
    lane.send(msg(1024));
    sim.run();
    EXPECT_EQ(sim.eventsExecuted(), 1u);
    EXPECT_EQ(lane.credits(), p.bufferBytes);
    EXPECT_EQ(sim.now(), delivered_at + p.hopLatency);
}

TEST(Lane, CreditCountsFromItsReturnPosition)
{
    // A return counts once execution passes the position an event
    // scheduled at release time would hold: not before its tick,
    // not earlier on that tick, and from the end of a run on.
    sim::Simulator sim;
    LaneParams p;
    p.bufferBytes = 4096;
    Lane lane(sim, p);
    lane.setDeliver([](Message) {});
    lane.send(msg(4096));
    sim.run();
    ASSERT_EQ(lane.credits(), 0u);

    Tick release_at = sim.now();
    std::uint32_t seen_before = 1, seen_at = 0;
    // Scheduled ahead of the release on the return's own tick ...
    sim.scheduleAt(release_at + p.hopLatency,
                   [&] { seen_before = lane.credits(); });
    lane.releaseCredits(4096);
    // ... and behind it.
    sim.scheduleAt(release_at + p.hopLatency,
                   [&] { seen_at = lane.credits(); });
    EXPECT_EQ(lane.credits(), 0u);
    sim.runUntil(release_at + p.hopLatency - 1);
    EXPECT_EQ(lane.credits(), 0u);
    sim.run();
    EXPECT_EQ(seen_before, 0u);
    EXPECT_EQ(seen_at, 4096u);
    EXPECT_EQ(lane.credits(), 4096u);
    EXPECT_EQ(sim.eventsExecuted(), 3u); // delivery + the two probes
}

TEST(Lane, MatchesEventPerReturnModelUnderSeededTraffic)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        std::uint64_t lane_events = 0, model_events = 0;
        std::vector<Obs> got = seededLaneTraffic<Lane>(seed, lane_events);
        std::vector<Obs> want =
            seededLaneTraffic<EventPerReturnLane>(seed, model_events);
        ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i], want[i]) << "seed " << seed << " obs " << i;
        // Messages did wait for credit (a fifth of the probes see
        // one), yet over 200 of the ~600 returns cost no event.
        std::size_t waiting = std::count_if(
            got.begin(), got.end(),
            [](const Obs &o) { return o[1] == kProbe && o[2] > 0; });
        EXPECT_GT(waiting, 50u) << "seed " << seed;
        EXPECT_LT(lane_events, model_events - 200) << "seed " << seed;
    }
}

TEST(Lane, MessagesDeliverInFifoOrder)
{
    sim::Simulator sim;
    LaneParams p;
    Lane lane(sim, p);
    std::vector<int> order;
    lane.setDeliver([&](Message m) {
        order.push_back(m.payload.take<int>());
        lane.releaseCredits(m.bytes);
    });
    for (int i = 0; i < 20; ++i) {
        Message m = msg(2000 + 100 * (i % 3));
        m.payload = net::PayloadRef::inlineOf(i);
        lane.send(std::move(m));
    }
    sim.run();
    ASSERT_EQ(order.size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(Lane, OnStartHookFiresAtDequeueNotDelivery)
{
    sim::Simulator sim;
    LaneParams p;
    Lane lane(sim, p);
    Tick started = sim::maxTick, delivered_at = 0;
    lane.setDeliver([&](Message) { delivered_at = sim.now(); });
    lane.send(msg(8192), [&]() { started = sim.now(); });
    sim.run();
    EXPECT_EQ(started, 0u); // credits and wire were free immediately
    EXPECT_GT(delivered_at, started);
}

TEST(Lane, OnStartDeferredWhileCreditBlocked)
{
    sim::Simulator sim;
    LaneParams p;
    p.bufferBytes = 1024;
    Lane lane(sim, p);
    lane.setDeliver([](Message) {});
    lane.send(msg(1024)); // eats all credits
    bool started = false;
    lane.send(msg(1024), [&]() { started = true; });
    sim.run();
    EXPECT_FALSE(started); // still queued, upstream not released
    lane.releaseCredits(1024);
    sim.run();
    EXPECT_TRUE(started);
}

TEST(Lane, BackToBackMessagesSaturateWire)
{
    sim::Simulator sim;
    LaneParams p;
    Lane lane(sim, p);
    Tick last = 0;
    int got = 0;
    lane.setDeliver([&](Message m) {
        ++got;
        last = sim.now();
        lane.releaseCredits(m.bytes);
    });
    const int n = 400;
    for (int i = 0; i < n; ++i)
        lane.send(msg(2048));
    sim.run();
    ASSERT_EQ(got, n);
    double rate = sim::bytesPerSec(2048ull * n, last);
    EXPECT_NEAR(rate, p.effectiveBytesPerSec(),
                p.effectiveBytesPerSec() * 0.02);
}

TEST(Lane, CutThroughHeadArrivalReducesForwardingDelay)
{
    // A message whose head arrived earlier (cut-through from the
    // previous hop) finishes serializing sooner than one issued
    // cold at the same instant.
    sim::Simulator sim;
    LaneParams p;
    Lane warm(sim, p), cold(sim, p);
    Tick warm_at = 0, cold_at = 0;
    warm.setDeliver([&](Message) { warm_at = sim.now(); });
    cold.setDeliver([&](Message) { cold_at = sim.now(); });

    // Both sends happen at t = 50 us; the warm lane's message head
    // arrived at t = 10 us.
    sim.scheduleAt(sim::usToTicks(50), [&]() {
        warm.send(msg(8192, sim::usToTicks(10)));
        cold.send(msg(8192, sim::usToTicks(50)));
    });
    sim.run();
    EXPECT_LT(warm_at, cold_at);
    // But never earlier than one hop after the tail got here.
    EXPECT_GE(warm_at, sim::usToTicks(50) + p.hopLatency);
}

TEST(LaneDeath, OversizedMessageIsFatal)
{
    sim::Simulator sim;
    LaneParams p;
    p.bufferBytes = 1024;
    Lane lane(sim, p);
    lane.setDeliver([](Message) {});
    EXPECT_DEATH(lane.send(msg(2048)), "exceeds lane buffer");
}
