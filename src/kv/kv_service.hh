/**
 * @file
 * Client-facing request front-end of the KV appliance.
 *
 * Models the serving side of the paper's figure 17 scenario: many
 * concurrent clients (the "millions of users" traffic of the
 * ROADMAP north star) each hold a session against one node of the
 * rack. The service applies per-client admission control -- a
 * bounded in-flight window plus a bounded wait queue -- so a
 * misbehaving or bursty client saturates neither the node's flash
 * servers nor the integrated network; excess load is rejected with
 * KvStatus::Overloaded instead of growing queues without bound
 * (the difference between an open-loop melt-down and a served
 * SLO). A write's window slot stays charged until the op settled
 * on EVERY replica, not just until its (possibly quorum-early)
 * client ack -- straggler replica writes still occupy the system,
 * and admission that ignored them would let W < R turn into an
 * overload amplifier at saturation.
 *
 * Failure semantics seen by clients: every done callback fires
 * exactly once. Ok on a put or delete means the operation is
 * durable on at least W replicas (KvParams::writeQuorum; the
 * remaining replica writes complete in the background, with
 * read-your-writes preserved by the router's in-flight ledger and
 * any straggler failure healed by anti-entropy repair); Error
 * means the quorum was not reached and the copies may be divergent
 * until repair or a retry (kv_types.hh spells out the full quorum
 * contract); Overloaded means the operation was never dispatched
 * and changed nothing.
 */

#ifndef BLUEDBM_KV_KV_SERVICE_HH
#define BLUEDBM_KV_KV_SERVICE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "kv/kv_router.hh"
#include "kv/kv_types.hh"
#include "sim/simulator.hh"

namespace bluedbm {
namespace kv {

/**
 * Admission-controlled session multiplexer over a KvRouter.
 */
class KvService
{
  public:
    /** Session handle returned by addClient(). */
    using ClientId = std::uint32_t;

    /** Per-client admission knobs. */
    struct ClientParams
    {
        /** Operations dispatched concurrently for this client. */
        unsigned window = 8;
        /** Operations parked awaiting a window slot before the
         * service starts rejecting with Overloaded. */
        unsigned queueCap = 256;
        /**
         * Base of the retry-after hint handed out with Overloaded
         * rejections: the hint is this many microseconds per
         * window's worth of queued backlog (so it grows with how
         * far behind the client actually is). 0 disables hinting.
         */
        std::uint64_t retryBaseUs = 20;
        /**
         * Retry-after hint attached when a put is shed at the
         * flash capacity red line (KvStatus::Pressure, surfaced to
         * the client as Overloaded). Sized to the time a cleaner
         * pass needs to reclaim a block (erase + relocations) --
         * much longer than an admission-queue blip, which is why
         * it is a separate knob from retryBaseUs. 0 disables
         * hinting.
         */
        std::uint64_t pressureRetryUs = 500;
    };

    KvService(sim::Simulator &sim, KvRouter &router)
        : sim_(sim), router_(router),
          admitted_(sim.metrics().counter("kv.svc.admitted")),
          rejected_(sim.metrics().counter("kv.svc.rejected")),
          pressured_(sim.metrics().counter("kv.svc.pressured")),
          stageAdmission_(
              sim.metrics().histogram("kv.stage.admission"))
    {
        // The service may die before the Simulator in tests, so the
        // gauge checks the liveness flag before touching members.
        sim.metrics().registerGauge(
            "kv.svc.max_queued", {}, [this, alive = alive_]() {
            return *alive ? double(maxQueued_) : 0.0;
        });
    }

    ~KvService() { *alive_ = false; }

    /** Open a session homed on node @p origin. */
    ClientId addClient(net::NodeId origin,
                       const ClientParams &params);

    /** Open a session with default admission parameters. */
    ClientId
    addClient(net::NodeId origin)
    {
        return addClient(origin, ClientParams{});
    }

    /** Number of sessions. */
    std::size_t clientCount() const { return clients_.size(); }

    /**
     * @name Operations
     * Each call either enters the client's window (possibly after
     * queueing) or completes promptly with Overloaded. The done
     * callback always fires exactly once.
     */
    ///@{
    void get(ClientId client, Key key, KvRouter::GetDone done);
    void put(ClientId client, Key key, flash::PageBuffer value,
             KvRouter::AckDone done);
    void del(ClientId client, Key key, KvRouter::AckDone done);
    void multiGet(ClientId client, std::vector<Key> keys,
                  KvRouter::MultiGetDone done);
    ///@}

    /** Operations currently dispatched for @p client. */
    unsigned inFlight(ClientId client) const
    {
        return clients_.at(client).inFlight;
    }

    /** Operations currently queued for @p client. */
    std::size_t queued(ClientId client) const
    {
        return clients_.at(client).queue.size();
    }

    /**
     * Retry-after hint of the client's most recent Overloaded
     * rejection, in simulated microseconds (0 = never rejected, or
     * hinting disabled). Sized to the backlog at rejection time:
     * a deeper queue hands out a longer hint. Well-behaved
     * closed-loop clients (WorkloadParams::honorRetryAfter) pause
     * for a jittered multiple of this instead of immediately
     * re-submitting into a full queue -- which matters most while
     * the cluster is absorbing failover or rebalance load.
     */
    std::uint64_t retryAfterUs(ClientId client) const
    {
        return clients_.at(client).retryAfterUs;
    }

    /** @name Statistics
     *
     * Registry-backed (`kv.svc.*`); the accessors are thin reads
     * kept for existing callers.
     */
    ///@{
    std::uint64_t admitted() const { return admitted_.value(); }
    std::uint64_t rejected() const { return rejected_.value(); }
    /** Puts shed by a shard at the capacity red line and surfaced
     * to the client as Overloaded with the pressureRetryUs hint. */
    std::uint64_t pressureRejects() const { return pressured_.value(); }
    /** High-water mark of any client's wait queue. */
    std::size_t maxQueued() const { return maxQueued_; }
    ///@}

  private:
    /** Window-slot release hook: a launched operation calls it
     * when it finishes (empty for a rejected one). */
    using Slot = std::function<void()>;
    /** A queued operation: fires when a window slot frees up. */
    using Launch = std::function<void(Slot)>;

    struct Client
    {
        net::NodeId origin = 0;
        ClientParams params;
        unsigned inFlight = 0;
        std::deque<Launch> queue;
        /** Hint attached to the last Overloaded rejection. */
        std::uint64_t retryAfterUs = 0;
    };

    /**
     * Admit (or reject) one operation for @p client: opens its
     * trace (@p name, keyed by @p trace_key) and svc.queue span,
     * and records kv.stage.admission at launch. @p run is the op
     * body, called as run(Slot, trace root) exactly once: with the
     * release hook when the op launches, or -- on a fresh event,
     * trace already ended -- with an empty Slot when admission
     * rejected it, in which case it completes the caller with
     * Overloaded.
     */
    template <typename Run>
    void admit(ClientId client, const char *name, Key trace_key,
               Run run);

    /** Dispatch queued work while the window has room. */
    void pump(ClientId client);

    sim::Simulator &sim_;
    KvRouter &router_;
    std::deque<Client> clients_; //!< stable storage, index = id
    /** Flipped by the destructor; guards the max_queued gauge. */
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

    /** High-water mark (not monotone-increment): stays a plain
     * member, published as the kv.svc.max_queued gauge. */
    std::size_t maxQueued_ = 0;

    // Registry-backed statistics (accessors above are thin reads).
    sim::Counter &admitted_;
    sim::Counter &rejected_;
    sim::Counter &pressured_;
    /** Always-on admission-wait histogram (ticks, one sample per
     * admitted op): admit() to window-slot launch. The front end
     * of the kv.stage.* breakdown -- see docs/observability.md. */
    sim::LatencyHistogram &stageAdmission_;
};

} // namespace kv
} // namespace bluedbm

#endif // BLUEDBM_KV_KV_SERVICE_HH
